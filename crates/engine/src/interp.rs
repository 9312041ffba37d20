//! The plan-node interpreter: what each node of a plan *means*,
//! whichever scheduler runs it.
//!
//! [`Interpreter::prepare`] does a plan's one-time work — validation,
//! feasibility analysis, predicate resolution and compilation, the
//! alias → schema map and the join chains — and rejects a plan whose
//! predicates do not compile before any node runs. Then each node kind
//! has one definition:
//!
//! * a **selection** filters its input ([`Interpreter::select`]);
//! * a **service node** runs its pipe stage, prepared once, through its
//!   fetch stack ([`Interpreter::pipe`]);
//! * a **parallel join** tops a chain of joins — the left-deep chain it
//!   fuses, or itself alone — and runs it as the rank join, the n-ary
//!   kernel, or the binary cascade with degraded-branch pass-through,
//!   feeding every stage's selectivity back to the registry
//!   ([`Interpreter::join`]). Every eligible chain fuses unless rank
//!   join is in force.
//!
//! Two schedulers drive it: [`crate::executor`] walks the plan in
//! topological order on the virtual clock, [`crate::parallel`] pipelines
//! the nodes as pool tasks. The choices that differ between them are a
//! [`Schedule`], passed in at preparation.

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use seco_exec::ExecPool;
use seco_join::executor::MemoryStream;
use seco_join::{
    score_order, JoinError, JoinStats, NaryJoin, NaryStage, ParallelJoinExecutor, PipeJoin,
    PipeOutcome, RankJoin,
};
use seco_model::{BitMask, Column, CompositeTuple, ServiceInterface};
use seco_optimizer::{Optimized, Optimizer};
use seco_plan::{JoinSpec, NodeId, PlanNode, QueryPlan, SelectionNode, ServiceNode};
use seco_query::feasibility::{analyze, FeasibilityReport};
use seco_query::predicate::{resolve_predicates, ResolvedPredicate, SchemaMap};
use seco_query::{CompiledPredicates, EvalScratch, JoinPredicate};
use seco_services::{DeviationPolicy, ServiceRegistry};

use crate::config::{EngineConfig, FailureMode};
use crate::error::EngineError;
use crate::shared::{ClockMode, SharedState};

/// How a parallel join chunks its materialized inputs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rechunk {
    /// At the chunk size of each branch's nearest upstream service, with
    /// that service's step `h` on the left.
    Branch,
    /// `h = 1` over chunks of ten on both sides.
    Fixed,
}

/// The choices a scheduler makes for every node it runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Schedule {
    /// Clock of the resilient clients in the fetch stacks.
    pub clock: ClockMode,
    /// How parallel joins chunk their inputs.
    pub rechunk: Rechunk,
}

/// A left-deep chain of parallel joins run as one node: the joins a
/// fusion absorbed under its top join, or a lone join.
pub(crate) struct Chain<'a> {
    /// The chain's joins, bottom-up (the top last).
    pub joins: Vec<(NodeId, &'a JoinSpec)>,
    /// The nodes feeding it: the bottom join's two inputs, then every
    /// later join's right input, in join order.
    pub feeders: Vec<NodeId>,
}

/// What a join node hands on.
#[derive(Default)]
pub(crate) struct Joined {
    pub results: Vec<CompositeTuple>,
    pub stats: JoinStats,
    /// Some input was partial: a branch lost tuples to a failure.
    pub degraded: bool,
}

/// One prepared plan and the meaning of each of its nodes.
pub(crate) struct Interpreter<'a> {
    pub plan: &'a QueryPlan,
    registry: &'a ServiceRegistry,
    options: EngineConfig,
    state: &'a SharedState,
    schedule: Schedule,
    report: FeasibilityReport,
    /// The plan's whole predicate set, compiled once: every pipe stage
    /// evaluates its candidates through it.
    compiled: CompiledPredicates,
    schemas: SchemaMap<'a>,
    /// The joins absorbed into a downstream chain, so never run.
    elided: BTreeSet<usize>,
    /// Every join chain, by the node index of its top join.
    pub chains: BTreeMap<usize, Chain<'a>>,
}

impl<'a> Interpreter<'a> {
    /// Validates and analyzes `plan` once for a run against `state`,
    /// and compiles its predicate set. A set that does not compile is
    /// rejected here, as a [`seco_join::JoinError::Query`] — the error
    /// the first join stage to meet the bad predicate would raise.
    /// `materialized[i]` marks node `i` as already run — a plan switched
    /// onto mid-walk: its joins feed chains and are never fused again.
    pub fn prepare(
        plan: &'a QueryPlan,
        registry: &'a ServiceRegistry,
        options: EngineConfig,
        state: &'a SharedState,
        schedule: Schedule,
        materialized: &[bool],
    ) -> Result<Self, EngineError> {
        plan.validate()?;
        let report = analyze(&plan.query, registry)?;
        let joins = plan.query.expanded_joins(registry)?;
        let predicates = resolve_predicates(&plan.query, &joins)?;
        let mut schemas: SchemaMap<'a> = BTreeMap::new();
        for atom in &plan.query.atoms {
            schemas.insert(
                atom.alias.clone(),
                &registry.interface(&atom.service)?.schema,
            );
        }
        let compiled =
            CompiledPredicates::compile(&predicates, &schemas).map_err(JoinError::Query)?;
        // Rank join takes precedence over fusion: its score-sorted top-k
        // inputs are incompatible with replaying the cascade.
        let (elided, chains) = join_chains(plan, fuses() && !ranks(&options), materialized)?;
        Ok(Interpreter {
            plan,
            registry,
            options,
            state,
            schedule,
            report,
            compiled,
            schemas,
            elided,
            chains,
        })
    }

    /// Whether node `id` was absorbed into a downstream chain.
    pub fn elided(&self, id: NodeId) -> bool {
        self.elided.contains(&id.0)
    }

    /// The shared state's pool, which this run's tasks and join
    /// morsels use; the join kernels stay on their exact serial
    /// path below two workers.
    pub fn pool(&self) -> Option<Arc<ExecPool>> {
        self.state.exec_pool().cloned()
    }

    /// Keeps the composites of `input` that satisfy the selection node
    /// `sel`, its predicates resolved against the query inputs and
    /// compiled.
    ///
    /// With `batch_eval` on, a uniform input (same atom signature on
    /// every composite) is filtered by one vectorized kernel over columns
    /// gathered from the composites; any failed precondition — or a value
    /// only the scalar path can decide — falls back to the compiled
    /// per-composite check, which also reproduces its error behavior.
    /// Selection nodes never count `predicate_evals` (the pipe stages
    /// already charged the predicates), so the kernel only moves the
    /// columnar counters.
    pub fn select(
        &self,
        sel: &SelectionNode,
        input: Vec<CompositeTuple>,
        stats: &mut JoinStats,
    ) -> Result<Vec<CompositeTuple>, EngineError> {
        let mut preds = Vec::new();
        for p in &sel.predicates {
            let value = p.right.resolve(&self.plan.query.inputs)?;
            let (left, op) = (p.left.clone(), p.op);
            preds.push(ResolvedPredicate::Selection { left, op, value });
        }
        preds.extend(resolved(&sel.join_predicates));
        let compiled = CompiledPredicates::compile(&preds, &self.schemas)?;
        let batched = self.options.columnar.batch_eval && input.len() > 1;
        if batched && input.iter().all(|c| c.atoms == input[0].atoms) {
            if let Some(plan) = compiled.batch_plan(&[], &input[0].atoms) {
                if let Some(cols) = plan.gather_columns(&input) {
                    let refs: Vec<_> = cols.iter().map(Column::as_ref).collect();
                    let mut mask = BitMask::default();
                    mask.reset_ones(input.len());
                    if plan.eval_mask(None, &refs, &mut mask) {
                        stats.batch_evals += 1;
                        stats.columns_scanned += refs.len() as u64;
                        return Ok(input
                            .into_iter()
                            .enumerate()
                            .filter_map(|(i, c)| mask.get(i).then_some(c))
                            .collect());
                    }
                }
            }
        }
        let (mut kept, mut scratch) = (Vec::new(), EvalScratch::default());
        for c in input {
            if compiled.eval(&c, &mut scratch)? {
                kept.push(c);
            }
        }
        Ok(kept)
    }

    /// Runs a service node's pipe stage over `inputs`: the stage is
    /// prepared once over the plan's compiled predicate set, every input
    /// is extended with the service's matching tuples, and the stage's
    /// counters are reported to the service's recorder at the end.
    ///
    /// After each input, `emit` is handed the buffer of new
    /// combinations. Whatever it leaves there accumulates into the
    /// outcome's `results`; it returns `false` to stop the stage early
    /// (nobody downstream is listening).
    pub fn pipe<I>(
        &self,
        node: &ServiceNode,
        inputs: I,
        mut emit: impl FnMut(&mut Vec<CompositeTuple>) -> bool,
    ) -> Result<PipeOutcome, EngineError>
    where
        I: IntoIterator,
        I::Item: Borrow<CompositeTuple>,
    {
        let recorded = self.registry.service(&node.service)?;
        let (handle, _) =
            (self.state).stack_for(&node.service, &recorded, &self.options, self.schedule.clock);
        let fetches = node.fetches as usize;
        let bindings = self.report.bindings_of(&node.atom);
        let stage = PipeJoin {
            atom: &node.atom,
            bindings: &bindings,
            query_inputs: &self.plan.query.inputs,
            compiled: &self.compiled,
            schemas: &self.schemas,
            fetches,
            keep_first: node.keep_first,
            tolerate_failures: self.options.failure_mode == FailureMode::Degrade,
            columnar: self.options.columnar,
        };
        let mut run = stage.start();
        let mut results = Vec::new();
        for input in inputs {
            run.extend(input.borrow(), handle.as_ref(), &mut results)?;
            if !emit(&mut results) {
                break;
            }
        }
        let outcome = run.finish(results);
        let s = &outcome.stats;
        recorded.note_join_counters(
            s.index_builds,
            s.probes,
            s.pairs_skipped,
            s.tiles_pruned,
            s.predicate_evals,
            s.columns_scanned,
            s.batch_evals,
            s.rows_materialized,
            s.chunks_fetched,
            s.chunks_saved,
            s.bound_checks,
            s.intermediates_elided,
        );
        Ok(outcome)
    }

    /// Runs the join chain `chain` over its feeders' outputs (`degraded`
    /// per feeder): the n-ary kernel on a clean fused chain it can take,
    /// else the binary cascade, stage by stage. Every stage feeds the
    /// registry the cascade's observation of it: the pairs it examined
    /// (left rows × right rows) and the rows it emitted.
    pub fn join(
        &self,
        chain: &Chain<'_>,
        groups: Vec<Vec<CompositeTuple>>,
        degraded: &[bool],
    ) -> Result<Joined, EngineError> {
        let any_degraded = degraded.iter().any(|d| *d);
        // Degraded inputs keep the cascade's per-stage pass-through
        // semantics; the kernel only fuses clean runs.
        if chain.joins.len() > 1 && !any_degraded {
            let predicates: Vec<_> = (chain.joins.iter())
                .map(|(_, spec)| resolved(&spec.predicates))
                .collect();
            // Per-stage parameters, identical to what each unfused join
            // would have used.
            let stages: Vec<NaryStage<'_>> = (chain.joins.iter().zip(&predicates))
                .map(|(&(j, spec), predicates)| {
                    let (h, left_chunk, right_chunk) = self.chunking(j);
                    NaryStage {
                        predicates,
                        invocation: spec.invocation,
                        completion: spec.completion,
                        h,
                        k: self.options.join_k,
                        left_chunk,
                        right_chunk,
                    }
                })
                .collect();
            let kernel = NaryJoin {
                schemas: &self.schemas,
                pool: self.pool(),
            };
            if let Some(out) = kernel.run(&groups, &stages)? {
                let mut left = groups[0].len();
                for ((&(j, _), right), &rows) in
                    chain.joins.iter().zip(&groups[1..]).zip(&out.stage_rows)
                {
                    self.observe(j, (left * right.len()) as u64, rows as u64);
                    left = rows;
                }
                let (results, stats) = (out.results, out.stats);
                return Ok(Joined {
                    results,
                    stats,
                    degraded: false,
                });
            }
        }
        let mut groups = groups.into_iter().zip(degraded.iter().copied());
        let Some((mut cur, mut cur_degraded)) = groups.next() else {
            return Ok(Joined::default());
        };
        let mut stats = JoinStats::default();
        for (&(j, spec), (right, right_degraded)) in chain.joins.iter().zip(groups) {
            let pairs = (cur.len() * right.len()) as u64;
            let joined = self.binary_join(j, spec, cur, right, (cur_degraded, right_degraded))?;
            self.observe(j, pairs, joined.results.len() as u64);
            stats.merge(&joined.stats);
            cur = joined.results;
            cur_degraded = joined.degraded;
        }
        Ok(Joined {
            results: cur,
            stats,
            degraded: any_degraded,
        })
    }

    /// Credits every query pattern connecting the two inputs of `join`
    /// with `pairs` candidate pairs and `matches` survivors.
    fn observe(&self, join: NodeId, pairs: u64, matches: u64) {
        // Without patterns there is nothing to credit, and the input atom
        // sets below would be allocated for nothing.
        if self.plan.query.patterns.is_empty() {
            return;
        }
        let inputs = self.plan.predecessors(join);
        let (left, right) = (self.plan.atoms_at(inputs[0]), self.plan.atoms_at(inputs[1]));
        for p in &self.plan.query.patterns {
            let lr = left.contains(&p.from_atom) && right.contains(&p.to_atom);
            let rl = right.contains(&p.from_atom) && left.contains(&p.to_atom);
            if lr || rl {
                self.registry
                    .note_join_observation(&p.pattern, pairs, matches);
            }
        }
    }

    /// One stage of a chain, the binary join `join` of two materialized
    /// branches: the rank join over score-sorted inputs when it is on
    /// and both branches are whole, else the tile-space join, passing a
    /// surviving branch through when the other failed. (Fusion never
    /// runs with rank join on, so a chain under rank join is one join.)
    fn binary_join(
        &self,
        join: NodeId,
        spec: &JoinSpec,
        mut left: Vec<CompositeTuple>,
        mut right: Vec<CompositeTuple>,
        (left_degraded, right_degraded): (bool, bool),
    ) -> Result<Joined, EngineError> {
        let degraded = left_degraded || right_degraded;
        let rank = ranks(&self.options) && !degraded;
        let predicates = resolved(&spec.predicates);
        let (h, left_chunk, right_chunk) = self.chunking(join);
        let join = ParallelJoinExecutor {
            predicates: &predicates,
            schemas: &self.schemas,
            invocation: spec.invocation,
            completion: spec.completion,
            h,
            k: self.options.join_k,
            options: self.options.join_index,
            columnar: self.options.columnar,
            pool: self.pool(),
        };
        if rank {
            // Branches arrive in emission order; rank join needs them
            // score-sorted.
            left.sort_by(score_order);
            right.sort_by(score_order);
        }
        let mut left = MemoryStream::new(left, left_chunk);
        let mut right = MemoryStream::new(right, right_chunk);
        let outcome = if rank {
            RankJoin { join, space: None }.run(&mut left, &mut right)?
        } else {
            join.run_with_degradation(&mut left, &mut right, left_degraded, right_degraded)?
        };
        let (results, stats) = (outcome.results, outcome.stats);
        Ok(Joined {
            results,
            stats,
            degraded,
        })
    }

    /// `(h, left chunk, right chunk)` of the parallel join `join`.
    fn chunking(&self, join: NodeId) -> (usize, usize, usize) {
        let inputs = self.plan.predecessors(join);
        match self.schedule.rechunk {
            Rechunk::Branch => {
                let left = self.nearest_service(inputs[0]);
                let right = self.nearest_service(inputs[1]);
                let chunk = |s: Option<&ServiceInterface>| s.map_or(10, |s| s.stats.chunk_size);
                let h = left.and_then(|s| s.decay.step_chunks()).unwrap_or(1);
                (h, chunk(left), chunk(right))
            }
            Rechunk::Fixed => (1, 10, 10),
        }
    }

    /// The nearest service at or above `from`, along first inputs.
    fn nearest_service(&self, from: NodeId) -> Option<&ServiceInterface> {
        let mut cursor = Some(from);
        while let Some(id) = cursor {
            if let Ok(PlanNode::Service(node)) = self.plan.node(id) {
                if let Ok(iface) = self.registry.interface(&node.service) {
                    return Some(iface);
                }
            }
            cursor = self.plan.predecessors(id).first().copied();
        }
        None
    }
}

/// Whether rank join is in force: on, with a positive `k` target.
fn ranks(options: &EngineConfig) -> bool {
    options.rank_join && options.join_k > 0
}

/// The engine's one re-plan entry, taken by both schedulers' adaptive
/// checkpoints: promotes every observed statistic that deviates by at
/// least `adaptive_threshold` into the registry, then re-plans the
/// suffix of `plan` after the `executed` atoms
/// ([`Optimizer::replan_suffix`], gated at the same threshold).
/// `observe` gets the promoted names and returns the
/// `(estimated, observed)` pairs that open the gate, or `None` to skip
/// the re-plan. `None` too when the re-plan fails: adaptivity is
/// best-effort and must never abort a viable execution.
pub(crate) fn replan(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    options: &EngineConfig,
    executed: &BTreeSet<String>,
    observe: impl FnOnce(&[String]) -> Option<BTreeMap<String, (f64, f64)>>,
) -> Option<Optimized> {
    let policy = DeviationPolicy {
        threshold: options.adaptive_threshold,
        min_samples: 1,
    };
    let observed = observe(&registry.promote_deviations(&policy))?;
    let mut opt = Optimizer::new(registry, options.adaptive_metric);
    opt.replan_threshold = options.adaptive_threshold;
    opt.replan_suffix(plan, executed, &observed).ok()
}

#[cfg(test)]
thread_local! {
    /// Makes [`Interpreter::prepare`] on this thread fuse no chain, so
    /// every join runs in the binary cascade — the reference the n-ary
    /// kernel is held to.
    pub(crate) static CASCADE_ONLY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether eligible chains fuse: always, outside the tests' cascade
/// reference.
fn fuses() -> bool {
    #[cfg(test)]
    return !CASCADE_ONLY.get();
    #[cfg(not(test))]
    true
}

/// Join predicates in resolved form.
fn resolved(joins: &[JoinPredicate]) -> Vec<ResolvedPredicate> {
    joins.iter().cloned().map(ResolvedPredicate::Join).collect()
}

/// Finds the join chains of `plan`, one per join that is not absorbed
/// and has not run (`materialized`). With `fuse`, a join is
/// *absorbable* when its only consumer is another parallel join taking
/// it as the **left** input — then the chain's top join can replay
/// every stage in one pass. A join that already ran is a feeder like
/// any other materialized node. Returns the absorbed nodes and the
/// chains by their top's node index.
#[allow(clippy::type_complexity)]
fn join_chains<'a>(
    plan: &'a QueryPlan,
    fuse: bool,
    materialized: &[bool],
) -> Result<(BTreeSet<usize>, BTreeMap<usize, Chain<'a>>), EngineError> {
    let join_at = |id: NodeId| match plan.node(id) {
        Ok(PlanNode::ParallelJoin(spec)) if materialized.get(id.0) != Some(&true) => Some(spec),
        _ => None,
    };
    // A plan without joins pays nothing.
    if plan.node_ids().find_map(join_at).is_none() {
        return Ok(Default::default());
    }
    let mut succs: Vec<Vec<NodeId>> = vec![Vec::new(); plan.len()];
    for (from, to) in plan.edges() {
        succs[from.0].push(*to);
    }
    let absorbable = |id: NodeId| {
        fuse && join_at(id).is_some()
            && succs[id.0].len() == 1
            && join_at(succs[id.0][0]).is_some()
            && plan.predecessors(succs[id.0][0]).first() == Some(&id)
    };
    let mut elided = BTreeSet::new();
    let mut chains = BTreeMap::new();
    for id in plan.topo_order()? {
        let Some(top) = join_at(id).filter(|_| !absorbable(id)) else {
            continue;
        };
        let mut joins = vec![(id, top)];
        let mut cur = id;
        while let Some(&l) = plan.predecessors(cur).first() {
            let Some(spec) = join_at(l).filter(|_| absorbable(l)) else {
                break;
            };
            joins.push((l, spec));
            cur = l;
        }
        joins.reverse();
        elided.extend(joins[..joins.len() - 1].iter().map(|(j, _)| j.0));
        let mut feeders = plan.predecessors(joins[0].0);
        feeders.extend(joins[1..].iter().map(|&(j, _)| plan.predecessors(j)[1]));
        chains.insert(id.0, Chain { joins, feeders });
    }
    Ok((elided, chains))
}

#[cfg(test)]
mod tests {
    use super::CASCADE_ONLY;
    use crate::{execute_parallel, execute_plan, EngineConfig};
    use seco_bench::{link_service, star_scenario};
    use seco_model::{AttributePath, Comparator, ConnectionPattern, JoinPair, ScoreDecay, Value};
    use seco_plan::{Completion, Invocation, JoinSpec, PlanNode, QueryPlan, ServiceNode};
    use seco_query::{Query, QueryBuilder};
    use seco_services::synthetic::{DomainMap, SyntheticService, ValueDomain};
    use seco_services::ServiceRegistry;

    /// A left-deep chain over three independently reachable services:
    /// `(A1 ⋈ A2) ⋈ A3`, the shape the fusion pass recognizes.
    fn chain_plan((registry, query): (ServiceRegistry, Query)) -> (QueryPlan, ServiceRegistry) {
        let joins = query.expanded_joins(&registry).unwrap();
        let pick = |x: &str, y: &str| -> Vec<_> {
            joins.iter().filter(|j| j.connects(x, y)).cloned().collect()
        };
        let join = |predicates| {
            PlanNode::ParallelJoin(JoinSpec {
                invocation: Invocation::merge_scan_even(),
                completion: Completion::Rectangular,
                predicates,
                selectivity: 1.0,
            })
        };
        let mut plan = QueryPlan::new(query.clone());
        let service = |i: usize| {
            let (atom, iface) = (&query.atoms[i].alias, &query.atoms[i].service);
            PlanNode::Service(ServiceNode::new(atom, iface).with_fetches(3))
        };
        let (s1, s2, s3) = (
            plan.add(service(0)),
            plan.add(service(1)),
            plan.add(service(2)),
        );
        let j1 = plan.add(join(pick("A1", "A2")));
        let j2 = plan.add(join(pick("A1", "A3")));
        for (from, to) in [
            (plan.input(), s1),
            (plan.input(), s2),
            (plan.input(), s3),
            (s1, j1),
            (s2, j1),
            (j1, j2),
            (s3, j2),
            (j2, plan.output()),
        ] {
            plan.connect(from, to).unwrap();
        }
        (plan, registry)
    }

    /// The 3-star's chain.
    fn star_chain_plan() -> (QueryPlan, ServiceRegistry) {
        chain_plan(star_scenario(3, 11))
    }

    /// The same chain over marts M1–M3 whose two joins come from the
    /// connection patterns `P12` (M1–M2) and `P13` (M1–M3).
    fn pattern_chain_plan() -> (QueryPlan, ServiceRegistry) {
        let hub = ValueDomain::new("hub", 8);
        let link = || AttributePath::atomic("Link");
        let mut registry = ServiceRegistry::new();
        let mut query = QueryBuilder::new();
        for i in 1..=3u64 {
            let mut iface = link_service(&format!("M{i}"), 16.0, 4, 40.0, ScoreDecay::Linear);
            iface.mart = format!("M{i}");
            let domains = DomainMap::new().with(link(), hub.clone());
            let service = SyntheticService::new(iface, domains, 11 ^ (i << 4));
            registry
                .register_service(std::sync::Arc::new(service))
                .unwrap();
            let (atom, key) = (format!("A{i}"), Value::Text(format!("k{i}")));
            query = (query.atom(&atom, &format!("M{i}"))).select_const(
                &atom,
                "Key",
                Comparator::Eq,
                key,
            );
        }
        for to in ["M2", "M3"] {
            let pairs = vec![JoinPair::eq(link(), link())];
            let name = format!("P1{}", &to[1..]);
            let pattern = ConnectionPattern::new(name, "M1", to, pairs, 0.5).unwrap();
            registry.register_pattern(pattern).unwrap();
        }
        let query = (query.pattern("P12", "A1", "A2").pattern("P13", "A1", "A3"))
            .build()
            .unwrap();
        chain_plan((registry, query))
    }

    /// Runs `run` on this thread with every chain in the binary cascade
    /// (`cascade`) or fused.
    fn with_cascade<T>(cascade: bool, run: impl FnOnce() -> T) -> T {
        CASCADE_ONLY.set(cascade);
        let out = run();
        CASCADE_ONLY.set(false);
        out
    }

    /// On both schedulers a fused chain delivers exactly what the binary
    /// cascade delivers, in the same order and with the same service
    /// calls, while eliding the cascade's intermediate composites. The
    /// two schedulers chunk their buffered branches differently, so each
    /// is held to its own cascade, never to the other.
    #[test]
    fn fused_chains_deliver_what_the_cascade_does_on_both_schedulers() {
        let config = EngineConfig::default().join_k(10);
        let deterministic = |cascade| {
            let (plan, registry) = star_chain_plan();
            with_cascade(cascade, || execute_plan(&plan, &registry, config)).unwrap()
        };
        let (cascade, fused) = (deterministic(true), deterministic(false));
        assert!(!cascade.results.is_empty(), "the chain joins something");
        assert_eq!(cascade.results, fused.results);
        assert_eq!(cascade.total_calls, fused.total_calls);
        assert_eq!(cascade.join_stats.intermediates_elided, 0);
        assert!(fused.join_stats.intermediates_elided > 0);

        let pipelined = |cascade| {
            let (plan, registry) = star_chain_plan();
            with_cascade(cascade, || execute_parallel(&plan, &registry, config)).unwrap()
        };
        let (cascade, fused) = (pipelined(true), pipelined(false));
        assert!(!cascade.results.is_empty());
        assert_eq!(cascade.results, fused.results);
        assert_eq!(cascade.join_stats.intermediates_elided, 0);
        assert!(fused.join_stats.intermediates_elided > 0);
    }

    /// Every stage of a fused chain feeds the registry what the cascade
    /// observes of it — pairs examined and rows emitted per connection
    /// pattern — on both schedulers.
    #[test]
    fn fused_chains_observe_every_stage_like_the_cascade() {
        let config = EngineConfig::default().join_k(10);
        for pipelined in [false, true] {
            let observed = |cascade| {
                let (plan, registry) = pattern_chain_plan();
                let elided = with_cascade(cascade, || match pipelined {
                    false => execute_plan(&plan, &registry, config).map(|o| o.join_stats),
                    true => execute_parallel(&plan, &registry, config).map(|o| o.join_stats),
                })
                .unwrap()
                .intermediates_elided;
                (elided, registry.join_observations())
            };
            let ((none, cascade), (elided, fused)) = (observed(true), observed(false));
            assert_eq!(
                (none, elided > 0),
                (0, true),
                "pipelined={pipelined}: fused"
            );
            assert_eq!(cascade.keys().collect::<Vec<_>>(), ["P12", "P13"]);
            assert_eq!(fused, cascade, "pipelined={pipelined}");
        }
    }
}
