//! Pipe joins (§4.2.1): sequential composition of service invocations.
//!
//! "Pipe joins use the fact that the access patterns of certain search
//! services accept input parameters. […] A subset of the attributes of
//! these tuples is the set of join attributes of a pipe join, whose
//! values are passed, or 'piped', to another service that appears later
//! in the sequence."
//!
//! The recommended execution is nested-loop with rectangular completion:
//! the same number of fetches `F` is retrieved from the downstream
//! service for each tuple flowing out of the upstream one (§4.5).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use seco_model::{
    AtomShape, AttributePath, BitMask, ColumnRef, Comparator, CompositeTuple, Symbol, Value,
};
use seco_query::feasibility::{BindingSource, IoDependency};
use seco_query::predicate::{satisfies_available, ResolvedPredicate, SchemaMap};
use seco_query::{BatchPlan, CompiledPredicates, EvalScratch};
use seco_services::invocation::Request;
use seco_services::Service;

use crate::error::JoinError;
use crate::index::{ColumnarOptions, JoinStats};

/// Outcome of a pipe-join stage.
#[derive(Debug, Clone, PartialEq)]
pub struct PipeOutcome {
    /// Extended composites, in input order (then service rank order).
    pub results: Vec<CompositeTuple>,
    /// Request-responses issued to the downstream service.
    pub calls: usize,
    /// Sum of the responses' reported elapsed times, in virtual ms.
    /// Cache hits and coalesced waits report 0, so under a caching
    /// fetch stack this is the stage's *residual* service time.
    pub busy_ms: f64,
    /// True when failure tolerance absorbed at least one service error:
    /// `results` is then a (possibly empty) partial answer.
    pub degraded: bool,
    /// Join-kernel work counters. Pipe stages move `predicate_evals`
    /// and the columnar-plane counters (`columns_scanned`,
    /// `batch_evals`, `rows_materialized`); index counters stay zero.
    pub stats: JoinStats,
}

/// A configured pipe-join stage: extends each input composite with the
/// matching tuples of one downstream service (the query atom `atom`).
///
/// Filled in once per plan node; [`PipeJoin::start`] prepares it and
/// the returned [`PipeRun`] extends the inputs one at a time.
///
/// * `bindings` — the atom's input bindings from the feasibility
///   analysis (constants and pipes);
/// * `query_inputs` — values of the `INPUT` variables;
/// * `fetches` — chunks fetched per input composite (the fetch factor
///   `F` of §5.5);
/// * `keep_first` — keep only the first (best-ranked) surviving result
///   per input composite (the §5.6 `Restaurant` choice);
/// * `tolerate_failures` — graceful degradation: a service error stops
///   the fetch loop for the failing input composite (marking the
///   outcome degraded) instead of aborting the whole stage. Pairs with
///   the resilience middleware: once a breaker opens, the remaining
///   inputs short-circuit instantly and the stage returns whatever was
///   joined before the outage.
pub struct PipeJoin<'a> {
    /// Alias of the query atom being joined in.
    pub atom: &'a str,
    /// Input bindings of the atom (constants and pipes).
    pub bindings: &'a [&'a IoDependency],
    /// Values of the query's `INPUT` variables.
    pub query_inputs: &'a BTreeMap<String, Value>,
    /// Predicates to check on each candidate composite.
    pub predicates: &'a [ResolvedPredicate],
    /// Alias → schema map for value extraction.
    pub schemas: &'a SchemaMap<'a>,
    /// Fetch factor `F` (chunks per input composite), min 1.
    pub fetches: usize,
    /// Keep only the best-ranked surviving result per input.
    pub keep_first: bool,
    /// Absorb service failures into a degraded partial outcome.
    pub tolerate_failures: bool,
    /// Columnar data-plane options. With `batch_eval` on (and
    /// `keep_first` off), whole response chunks are filtered by a
    /// vectorized kernel over the body's typed columns, and chunks with
    /// no survivors never materialize their row view at all.
    pub columnar: ColumnarOptions,
}

impl PipeJoin<'_> {
    /// Prepares the stage: everything that does not depend on the input
    /// tuple is built here (or on the first input) and reused for every
    /// input after it. The caller holds the returned run for the life
    /// of the stage and [`PipeRun::finish`]es it after the last input.
    pub fn start(&self) -> PipeRun<'_> {
        PIPE_STAGES_PREPARED.fetch_add(1, Ordering::Relaxed);
        PipeRun {
            stage: self,
            atom: Symbol::intern(self.atom),
            // The compiled evaluator mirrors `satisfies_available`
            // exactly; when the set does not compile (unknown atom,
            // unresolvable path) the interpreted path keeps the
            // original error behavior.
            compiled: CompiledPredicates::compile(self.predicates, self.schemas),
            scratch: EvalScratch::default(),
            mask: BitMask::default(),
            template: None,
            shape: None,
            calls: 0,
            busy_ms: 0.0,
            degraded: false,
            stats: JoinStats::default(),
        }
    }
}

/// Pipe stages prepared ([`PipeJoin::start`]) by this process: a
/// diagnostic count, so a test can hold an executor to one preparation
/// — one predicate compilation — per stage.
static PIPE_STAGES_PREPARED: AtomicU64 = AtomicU64::new(0);

/// Reads the process-wide count of prepared pipe stages.
pub fn pipe_stages_prepared() -> u64 {
    PIPE_STAGES_PREPARED.load(Ordering::Relaxed)
}

/// A piped binding of the request template, resolved against the
/// producing atom's schema.
struct PipedSlot<'a> {
    input: &'a AttributePath,
    from_atom: &'a str,
    /// Field slot (and group sub-slot) of the producing path.
    field: (usize, Option<usize>),
}

/// The request of a stage with its constants bound: each input only
/// rewrites the piped values and the chunk index, in place.
struct RequestTemplate<'a> {
    request: Request,
    piped: Vec<PipedSlot<'a>>,
}

/// What a stage derives from the atom list of its inputs — every
/// composite leaving a plan node has the same one, so this is built
/// once per stage in practice.
struct InputShape {
    atoms: AtomShape,
    /// The input composite is the fixed side, the fetched atom the
    /// varying side.
    batch_plan: Option<BatchPlan>,
    /// Component position of each piped slot's producing atom.
    piped_at: Vec<usize>,
}

/// A running pipe stage: the prepared form of a [`PipeJoin`] plus its
/// accumulating outcome.
pub struct PipeRun<'a> {
    stage: &'a PipeJoin<'a>,
    atom: Symbol,
    compiled: Option<CompiledPredicates>,
    scratch: EvalScratch,
    mask: BitMask,
    template: Option<RequestTemplate<'a>>,
    shape: Option<InputShape>,
    calls: usize,
    busy_ms: f64,
    degraded: bool,
    stats: JoinStats,
}

impl<'a> PipeRun<'a> {
    /// Binds the constants and resolves the piped paths. Deferred to the
    /// first input so a stage without inputs raises no binding error.
    fn template(stage: &'a PipeJoin<'a>) -> Result<RequestTemplate<'a>, JoinError> {
        let mut request = Request::unbound();
        let mut piped = Vec::new();
        for dep in stage.bindings {
            match &dep.source {
                BindingSource::Constant { operand, op } => {
                    let value = operand
                        .resolve(stage.query_inputs)
                        .map_err(JoinError::Query)?;
                    if *op == Comparator::Eq {
                        request = request.bind(dep.input.clone(), value);
                    } else {
                        request = request.constrain(dep.input.clone(), *op, value);
                    }
                }
                BindingSource::Piped {
                    from_atom,
                    from_path,
                } => {
                    let schema = stage.schemas.get(from_atom).ok_or_else(|| {
                        JoinError::Query(seco_query::QueryError::UnknownAtom(from_atom.clone()))
                    })?;
                    let field = schema.resolve(from_path).map_err(JoinError::Model)?;
                    // The slot each input's value is written into.
                    request = request.bind(dep.input.clone(), Value::Null);
                    piped.push(PipedSlot {
                        input: &dep.input,
                        from_atom,
                        field,
                    });
                }
            }
        }
        Ok(RequestTemplate { request, piped })
    }

    /// Extends one input composite with the matching tuples of the
    /// downstream service, appending to `results` in service rank order.
    pub fn extend(
        &mut self,
        input: &CompositeTuple,
        service: &dyn Service,
        results: &mut Vec<CompositeTuple>,
    ) -> Result<(), JoinError> {
        let stage = self.stage;
        let template = match &mut self.template {
            Some(template) => template,
            slot => slot.insert(Self::template(stage)?),
        };
        if self.shape.as_ref().is_none_or(|s| s.atoms != input.atoms) {
            // Only without `keep_first` — its early exit stops
            // evaluation mid-chunk, which a whole-chunk kernel cannot
            // reproduce.
            let batched = stage.columnar.columnar && stage.columnar.batch_eval && !stage.keep_first;
            let batch_plan = self
                .compiled
                .as_ref()
                .filter(|_| batched)
                .and_then(|c| c.batch_plan(&input.atoms, std::slice::from_ref(&self.atom)));
            let piped_at = template
                .piped
                .iter()
                .map(|slot| {
                    input
                        .atoms
                        .iter()
                        .position(|a| a == slot.from_atom)
                        .ok_or_else(|| {
                            JoinError::Query(seco_query::QueryError::UnknownAtom(
                                slot.from_atom.to_owned(),
                            ))
                        })
                })
                .collect::<Result<_, _>>()?;
            self.shape = Some(InputShape {
                atoms: input.atoms,
                batch_plan,
                piped_at,
            });
        }
        let shape = self.shape.as_ref().expect("derived above");

        // Write this input's piped values into the request.
        for (slot, &at) in template.piped.iter().zip(&shape.piped_at) {
            let (field, sub) = slot.field;
            template
                .request
                .bindings
                .get_mut(slot.input)
                .expect("bound when the template was built")
                .clone_from(input.components[at].first_value(field, sub));
        }
        let request = &mut template.request;

        // Fetch F chunks (rectangular completion per input tuple).
        'chunks: for c in 0..stage.fetches.max(1) {
            request.chunk = c;
            let resp = match service.fetch(request) {
                Ok(resp) => resp,
                Err(error) if stage.tolerate_failures => {
                    // This input composite loses its extension; the
                    // stage carries on with the remaining inputs.
                    let _ = error;
                    self.degraded = true;
                    break 'chunks;
                }
                Err(error) => return Err(JoinError::Service(error)),
            };
            self.calls += 1;
            self.busy_ms += resp.elapsed_ms;
            let has_more = resp.has_more();
            let body = resp.body();
            let stats = &mut self.stats;
            let mut handled = false;
            if let (Some(plan), Some(cc)) = (&shape.batch_plan, body.columns()) {
                // Body-backed columns only: every plan column must
                // come off the fetched atom's typed columns.
                let cols: Option<Vec<ColumnRef<'_>>> = plan
                    .columns()
                    .iter()
                    .map(|(a, f)| if *a == self.atom { cc.column(*f) } else { None })
                    .collect();
                if let Some(cols) = cols.filter(|_| !cc.is_empty()) {
                    self.mask.reset_ones(cc.len());
                    if plan.eval_mask(Some(input), &cols, &mut self.mask) {
                        stats.predicate_evals += cc.len() as u64;
                        stats.batch_evals += 1;
                        stats.columns_scanned += cols.len() as u64;
                        if !self.mask.none_set() {
                            // Only surviving chunks pay the row view.
                            if !body.rows_ready() {
                                stats.rows_materialized += body.len() as u64;
                            }
                            let tuples = body.tuples();
                            results.extend(
                                self.mask
                                    .iter_ones()
                                    .map(|j| input.extend_with(self.atom, tuples[j].clone())),
                            );
                        }
                        handled = true;
                    }
                }
            }
            if !handled {
                if body.is_columnar() && !body.rows_ready() && !body.is_empty() {
                    stats.rows_materialized += body.len() as u64;
                }
                for tuple in resp.tuples() {
                    let candidate = input.extend_with(self.atom, tuple.clone());
                    stats.predicate_evals += 1;
                    let keep = match &self.compiled {
                        Some(c) => c.eval(&candidate, &mut self.scratch)?,
                        None => satisfies_available(stage.predicates, &candidate, stage.schemas)?,
                    };
                    if keep {
                        results.push(candidate);
                        if stage.keep_first {
                            // This input has its extension: stop its
                            // fetch budget here and move to the next
                            // input — no further chunks are issued
                            // for a satisfied composite.
                            break 'chunks;
                        }
                    }
                }
            }
            if !has_more {
                break;
            }
        }
        Ok(())
    }

    /// Closes the run over the composites it appended to `results`.
    pub fn finish(self, results: Vec<CompositeTuple>) -> PipeOutcome {
        PipeOutcome {
            results,
            calls: self.calls,
            busy_ms: self.busy_ms,
            degraded: self.degraded,
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seco_query::builder::running_example;
    use seco_query::feasibility::analyze;
    use seco_query::predicate::resolve_predicates;
    use seco_services::domains::entertainment;
    use seco_services::invocation::Request;

    /// Runs `stage` over a batch of inputs, prepared once.
    fn run(
        stage: &PipeJoin<'_>,
        inputs: &[CompositeTuple],
        service: &dyn Service,
    ) -> Result<PipeOutcome, JoinError> {
        let mut run = stage.start();
        let mut results = Vec::new();
        for input in inputs {
            run.extend(input, service, &mut results)?;
        }
        Ok(run.finish(results))
    }

    /// One strict stage with the default data plane.
    #[allow(clippy::too_many_arguments)]
    fn pipe_join(
        inputs: &[CompositeTuple],
        atom: &str,
        service: &dyn Service,
        bindings: &[&IoDependency],
        query_inputs: &BTreeMap<String, Value>,
        predicates: &[ResolvedPredicate],
        schemas: &SchemaMap<'_>,
        fetches: usize,
        keep_first: bool,
    ) -> Result<PipeOutcome, JoinError> {
        let stage = PipeJoin {
            atom,
            bindings,
            query_inputs,
            predicates,
            schemas,
            fetches,
            keep_first,
            tolerate_failures: false,
            columnar: ColumnarOptions::default(),
        };
        run(&stage, inputs, service)
    }

    /// Fetches the first theatre chunk and pipes it into Restaurant.
    fn setup_theatre_inputs(reg: &seco_services::ServiceRegistry) -> Vec<CompositeTuple> {
        let theatre = reg.service("Theatre1").unwrap();
        let req = Request::unbound()
            .bind(
                AttributePath::atomic("UAddress"),
                Value::text("via Golgi 42"),
            )
            .bind(AttributePath::atomic("UCity"), Value::text("Milano"))
            .bind(AttributePath::atomic("UCountry"), Value::text("country-0"));
        use seco_services::Service as _;
        theatre
            .fetch(&req)
            .unwrap()
            .shared_tuples()
            .into_iter()
            .map(|t| CompositeTuple::single("T", t))
            .collect()
    }

    #[test]
    fn pipes_theatre_addresses_into_restaurant() {
        let reg = entertainment::build_registry(3).unwrap();
        let query = running_example();
        let report = analyze(&query, &reg).unwrap();
        let joins = query.expanded_joins(&reg).unwrap();
        let predicates = resolve_predicates(&query, &joins).unwrap();
        let mut schemas = SchemaMap::new();
        for a in &query.atoms {
            schemas.insert(a.alias.clone(), &reg.interface(&a.service).unwrap().schema);
        }
        let inputs = setup_theatre_inputs(&reg);
        assert_eq!(inputs.len(), 5);

        let restaurant = reg.service("Restaurant1").unwrap();
        let bindings = report.bindings_of("R");
        // Join predicates referencing M are skipped (M not present);
        // address equalities hold by construction of the pipe.
        let out = pipe_join(
            &inputs,
            "R",
            restaurant.as_ref(),
            &bindings,
            &query.inputs,
            &predicates,
            &schemas,
            1,
            true,
        )
        .unwrap();
        // One call per theatre.
        assert_eq!(out.calls, 5);
        // keep_first: at most one restaurant per theatre; DinnerPlace
        // selectivity keeps roughly 40% of them.
        assert!(out.results.len() <= 5);
        for r in &out.results {
            assert_eq!(r.arity(), 2);
            let t = r.component("T").unwrap();
            let rr = r.component("R").unwrap();
            let tschema = &reg.interface("Theatre1").unwrap().schema;
            let rschema = &reg.interface("Restaurant1").unwrap().schema;
            // The pipe carried the theatre address into the restaurant
            // lookup (echoed by the service).
            assert_eq!(
                t.first_value_at(tschema, &AttributePath::atomic("TAddress"))
                    .unwrap(),
                rr.first_value_at(rschema, &AttributePath::atomic("UAddress"))
                    .unwrap()
            );
        }
    }

    /// The per-input setup the prepared run replaced — predicates
    /// compiled, batch plan built and request assembled afresh for every
    /// input tuple — as the reference: one single-input run per input.
    #[test]
    fn a_prepared_stage_equals_one_preparation_per_input() {
        let reg = entertainment::build_registry(3).unwrap();
        let query = running_example();
        let report = analyze(&query, &reg).unwrap();
        let joins = query.expanded_joins(&reg).unwrap();
        let predicates = resolve_predicates(&query, &joins).unwrap();
        let mut schemas = SchemaMap::new();
        for a in &query.atoms {
            schemas.insert(a.alias.clone(), &reg.interface(&a.service).unwrap().schema);
        }
        let inputs = setup_theatre_inputs(&reg);
        let restaurant = reg.service("Restaurant1").unwrap();
        let bindings = report.bindings_of("R");
        for (keep_first, columnar) in [(false, true), (true, true), (false, false)] {
            let stage = PipeJoin {
                atom: "R",
                bindings: &bindings,
                query_inputs: &query.inputs,
                predicates: &predicates,
                schemas: &schemas,
                fetches: 2,
                keep_first,
                tolerate_failures: false,
                columnar: ColumnarOptions {
                    columnar,
                    batch_eval: columnar,
                },
            };
            let whole = run(&stage, &inputs, restaurant.as_ref()).unwrap();
            let mut results = Vec::new();
            let (mut calls, mut stats) = (0, JoinStats::default());
            for input in &inputs {
                let one = run(&stage, std::slice::from_ref(input), restaurant.as_ref()).unwrap();
                results.extend(one.results);
                calls += one.calls;
                stats.merge(&one.stats);
            }
            assert!(!whole.results.is_empty());
            assert_eq!(whole.results, results, "keep_first={keep_first}");
            assert_eq!((whole.calls, whole.stats), (calls, stats));
        }
    }

    #[test]
    fn keep_first_caps_results_per_input() {
        let reg = entertainment::build_registry(3).unwrap();
        let query = running_example();
        let report = analyze(&query, &reg).unwrap();
        let predicates = Vec::new(); // no filtering: count raw results
        let mut schemas = SchemaMap::new();
        for a in &query.atoms {
            schemas.insert(a.alias.clone(), &reg.interface(&a.service).unwrap().schema);
        }
        let inputs = setup_theatre_inputs(&reg);
        let restaurant = reg.service("Restaurant1").unwrap();
        let bindings = report.bindings_of("R");

        let all = pipe_join(
            &inputs,
            "R",
            restaurant.as_ref(),
            &bindings,
            &query.inputs,
            &predicates,
            &schemas,
            1,
            false,
        )
        .unwrap();
        let first_only = pipe_join(
            &inputs,
            "R",
            restaurant.as_ref(),
            &bindings,
            &query.inputs,
            &predicates,
            &schemas,
            1,
            true,
        )
        .unwrap();
        assert!(first_only.results.len() <= inputs.len());
        assert!(all.results.len() >= first_only.results.len());
        // Non-empty restaurants return a whole chunk (5) vs 1.
        if !first_only.results.is_empty() {
            assert!(all.results.len() > first_only.results.len());
        }
    }

    #[test]
    fn fetch_factor_multiplies_calls() {
        let reg = entertainment::build_registry(3).unwrap();
        let query = running_example();
        let report = analyze(&query, &reg).unwrap();
        let mut schemas = SchemaMap::new();
        for a in &query.atoms {
            schemas.insert(a.alias.clone(), &reg.interface(&a.service).unwrap().schema);
        }
        let inputs = setup_theatre_inputs(&reg);
        let restaurant = reg.service("Restaurant1").unwrap();
        let bindings = report.bindings_of("R");
        let out = pipe_join(
            &inputs,
            "R",
            restaurant.as_ref(),
            &bindings,
            &query.inputs,
            &[],
            &schemas,
            3,
            false,
        )
        .unwrap();
        // Restaurants hold 5 = one chunk, so has_more=false stops the
        // fetch loop after one call per input; empty answers also stop
        // after one call. Calls stay at one per input here.
        assert_eq!(out.calls, 5);
    }

    #[test]
    fn tolerant_stage_degrades_instead_of_aborting() {
        use seco_services::FaultProfile;
        let reg = entertainment::build_registry(3).unwrap();
        let query = running_example();
        let report = analyze(&query, &reg).unwrap();
        let mut schemas = SchemaMap::new();
        for a in &query.atoms {
            schemas.insert(a.alias.clone(), &reg.interface(&a.service).unwrap().schema);
        }
        let inputs = setup_theatre_inputs(&reg);
        let bindings = report.bindings_of("R");
        // A restaurant service that is hard-down from the start.
        let downed = seco_services::SyntheticService::new(
            entertainment::restaurant_interface(),
            seco_services::DomainMap::new(),
            3,
        )
        .with_fault_profile(FaultProfile {
            outage: Some((0, u64::MAX)),
            ..FaultProfile::none()
        });
        let stage = |tolerate| PipeJoin {
            atom: "R",
            bindings: &bindings,
            query_inputs: &query.inputs,
            predicates: &[],
            schemas: &schemas,
            fetches: 1,
            keep_first: false,
            tolerate_failures: tolerate,
            columnar: ColumnarOptions::default(),
        };
        let strict = run(&stage(false), &inputs, &downed);
        assert!(matches!(strict, Err(JoinError::Service(_))));
        let tolerant = run(&stage(true), &inputs, &downed).unwrap();
        assert!(tolerant.degraded);
        assert!(tolerant.results.is_empty());
        assert_eq!(
            tolerant.calls, 0,
            "failed fetches are not counted as request-responses"
        );
        // A healthy service through the same stage is not degraded.
        let healthy = reg.service("Restaurant1").unwrap();
        let ok = run(&stage(true), &inputs, healthy.as_ref()).unwrap();
        assert!(!ok.degraded);
    }

    #[test]
    fn empty_inputs_produce_no_calls() {
        let reg = entertainment::build_registry(3).unwrap();
        let query = running_example();
        let report = analyze(&query, &reg).unwrap();
        let schemas = SchemaMap::new();
        let restaurant = reg.service("Restaurant1").unwrap();
        let bindings = report.bindings_of("R");
        let out = pipe_join(
            &[],
            "R",
            restaurant.as_ref(),
            &bindings,
            &query.inputs,
            &[],
            &schemas,
            1,
            false,
        )
        .unwrap();
        assert_eq!(out.calls, 0);
        assert!(out.results.is_empty());
    }
}
