//! The plan-node interpreter: what each node of a plan *means*.
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
//!   fuses, or itself alone — and runs it in the n-ary kernel, chunked
//!   like the branches that feed it, feeding every stage's selectivity
//!   back to the registry ([`Interpreter::join`]). Every eligible chain
//!   fuses. Rank join, degraded inputs and a chain the kernel declines
//!   take the binary path: the rank join, or the tile-space cascade
//!   with degraded-branch pass-through.
//!
//! [`crate::executor`]'s walk drives it, node by node in topological
//! order. The one choice its two entries differ in is the [`ClockMode`]
//! of the fetch stacks, passed in at preparation.

use std::collections::{BTreeMap, BTreeSet};

use seco_join::executor::MemoryStream;
use seco_join::{
    score_order, select, JoinError, JoinStats, NaryJoin, NaryStage, ParallelJoinExecutor, PipeJoin,
    PipeOutcome, RankJoin,
};
use seco_model::{CompositeTuple, ServiceInterface};
use seco_optimizer::{Optimized, Optimizer};
use seco_plan::{JoinSpec, NodeId, PlanNode, QueryPlan, SelectionNode, ServiceNode};
use seco_query::feasibility::{analyze, FeasibilityReport};
use seco_query::predicate::{resolve_predicates, ResolvedPredicate, SchemaMap};
use seco_query::{CompiledPredicates, JoinPredicate};
use seco_services::{DeviationPolicy, ServiceRegistry};

use crate::config::{EngineConfig, FailureMode};
use crate::error::EngineError;
use crate::shared::{ClockMode, SharedState};

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
    /// Clock of the resilient clients in the fetch stacks.
    clock: ClockMode,
    report: FeasibilityReport,
    /// The plan's whole predicate set, compiled once: every pipe stage
    /// evaluates its candidates through it.
    compiled: CompiledPredicates,
    schemas: SchemaMap<'a>,
    /// Chains fuse and run the n-ary kernel: rank join is not in force.
    /// Decided once, at preparation.
    fuses: bool,
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
        clock: ClockMode,
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
        // Rank join takes precedence over fusion and the n-ary kernel:
        // its score-sorted top-k inputs are incompatible with replaying
        // the cascade.
        let fuses = fuses() && !ranks(&options);
        let (elided, chains) = join_chains(plan, fuses, materialized)?;
        Ok(Interpreter {
            plan,
            registry,
            options,
            state,
            clock,
            report,
            compiled,
            schemas,
            fuses,
            elided,
            chains,
        })
    }

    /// Whether node `id` was absorbed into a downstream chain.
    pub fn elided(&self, id: NodeId) -> bool {
        self.elided.contains(&id.0)
    }

    /// Keeps the composites of `input` that satisfy the selection node
    /// `sel`, its predicates resolved against the query inputs and
    /// compiled ([`seco_join::select`]).
    pub fn select(
        &self,
        sel: &SelectionNode,
        input: Vec<CompositeTuple>,
    ) -> Result<Vec<CompositeTuple>, EngineError> {
        let mut preds = Vec::new();
        for p in &sel.predicates {
            let value = p.right.resolve(&self.plan.query.inputs)?;
            let (left, op) = (p.left.clone(), p.op);
            preds.push(ResolvedPredicate::Selection { left, op, value });
        }
        preds.extend(resolved(&sel.join_predicates));
        let compiled = CompiledPredicates::compile(&preds, &self.schemas)?;
        Ok(select(&compiled, input)?)
    }

    /// Runs a service node's pipe stage over `inputs`: the stage is
    /// prepared once over the plan's compiled predicate set, every input
    /// is extended with the service's matching tuples, and the stage's
    /// counters are reported to the service's recorder at the end.
    pub fn pipe(
        &self,
        node: &ServiceNode,
        inputs: &[CompositeTuple],
    ) -> Result<PipeOutcome, EngineError> {
        let recorded = self.registry.service(&node.service)?;
        let (handle, _) =
            (self.state).stack_for(&node.service, &recorded, &self.options, self.clock);
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
        };
        let mut run = stage.start();
        let mut results = Vec::new();
        for input in inputs {
            run.extend(input, handle.as_ref(), &mut results)?;
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
    /// per feeder): the n-ary kernel on a clean chain it can take — a
    /// lone join included — else the binary cascade, stage by stage.
    /// Every stage feeds the registry the cascade's observation of it:
    /// the pairs it examined (left rows × right rows) and the rows it
    /// emitted.
    pub fn join(
        &self,
        chain: &Chain<'_>,
        groups: Vec<Vec<CompositeTuple>>,
        degraded: &[bool],
    ) -> Result<Joined, EngineError> {
        let any_degraded = degraded.iter().any(|d| *d);
        // Degraded inputs keep the cascade's per-stage pass-through
        // semantics, and rank join its score-sorted top-k: the kernel
        // only runs clean, unranked chains.
        if self.fuses && !any_degraded {
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
            invocation: spec.invocation,
            completion: spec.completion,
            h,
            k: self.options.join_k,
            ..ParallelJoinExecutor::new(&predicates, &self.schemas)
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

    /// `(h, left chunk, right chunk)` of the parallel join `join`: each
    /// input chunked at its nearest upstream service's chunk size, with
    /// the left service's step `h`.
    fn chunking(&self, join: NodeId) -> (usize, usize, usize) {
        let inputs = self.plan.predecessors(join);
        let left = self.nearest_service(inputs[0]);
        let right = self.nearest_service(inputs[1]);
        let chunk = |s: Option<&ServiceInterface>| s.map_or(10, |s| s.stats.chunk_size);
        let h = left.and_then(|s| s.decay.step_chunks()).unwrap_or(1);
        (h, chunk(left), chunk(right))
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

/// The engine's one re-plan entry, taken by the walk's adaptive
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
    /// Makes [`Interpreter::prepare`] on this thread fuse no chain and
    /// skip the n-ary kernel, so every join runs in the binary cascade —
    /// the reference the n-ary kernel is held to.
    pub(crate) static CASCADE_ONLY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether eligible chains fuse and run the n-ary kernel: always,
/// outside the tests' cascade reference.
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
    use crate::{execute_plan, EngineConfig};
    use seco_bench::{link_service, star_scenario};
    use seco_model::{AttributePath, Comparator, ConnectionPattern, JoinPair, ScoreDecay, Value};
    use seco_plan::{Completion, Invocation, JoinSpec, PlanNode, QueryPlan, ServiceNode};
    use seco_query::{Query, QueryBuilder};
    use seco_services::synthetic::{DomainMap, SyntheticService, ValueDomain};
    use seco_services::ServiceRegistry;

    /// A left-deep chain over independently reachable services,
    /// `((A1 ⋈ A2) ⋈ A3) ⋈ …` with every join on `A1`: the shape the
    /// fusion pass recognizes, and over two services a lone join.
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
        let services: Vec<_> = (query.atoms.iter())
            .map(|atom| {
                let node = ServiceNode::new(&atom.alias, &atom.service).with_fetches(3);
                plan.add(PlanNode::Service(node))
            })
            .collect();
        for &s in &services {
            plan.connect(plan.input(), s).unwrap();
        }
        let mut top = services[0];
        for (i, &s) in services.iter().enumerate().skip(1) {
            let j = plan.add(join(pick("A1", &format!("A{}", i + 1))));
            plan.connect(top, j).unwrap();
            plan.connect(s, j).unwrap();
            top = j;
        }
        plan.connect(top, plan.output()).unwrap();
        (plan, registry)
    }

    /// The same chain over `n` marts M1–Mn whose joins come from the
    /// connection patterns `P12`, `P13`, … (M1–Mi).
    fn pattern_chain_plan(n: u64) -> (QueryPlan, ServiceRegistry) {
        let hub = ValueDomain::new("hub", 8);
        let link = || AttributePath::atomic("Link");
        let mut registry = ServiceRegistry::new();
        let mut query = QueryBuilder::new();
        for i in 1..=n {
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
        for i in 2..=n {
            let pairs = vec![JoinPair::eq(link(), link())];
            let (name, to) = (format!("P1{i}"), format!("M{i}"));
            let pattern = ConnectionPattern::new(&name, "M1", to, pairs, 0.5).unwrap();
            registry.register_pattern(pattern).unwrap();
            query = query.pattern(&name, "A1", &format!("A{i}"));
        }
        chain_plan((registry, query.build().unwrap()))
    }

    /// Runs `run` on this thread with every chain in the binary cascade
    /// (`cascade`) or fused.
    fn with_cascade<T>(cascade: bool, run: impl FnOnce() -> T) -> T {
        CASCADE_ONLY.set(cascade);
        let out = run();
        CASCADE_ONLY.set(false);
        out
    }

    /// A chain — a lone join included — delivers exactly what the
    /// binary cascade delivers, in the same order and with the same
    /// service calls, through the n-ary kernel: no binary tile join
    /// fetches a chunk, and a fused chain elides the cascade's
    /// intermediate composites.
    #[test]
    fn fused_chains_deliver_what_the_cascade_does() {
        let config = EngineConfig::default().join_k(10);
        for n in [2, 3] {
            let run = |cascade| {
                let (plan, registry) = chain_plan(star_scenario(n, 11));
                with_cascade(cascade, || execute_plan(&plan, &registry, config)).unwrap()
            };
            let (cascade, fused) = (run(true), run(false));
            assert!(
                !cascade.results.is_empty(),
                "n={n}: the chain joins something"
            );
            assert_eq!(cascade.results, fused.results, "n={n}");
            assert_eq!(cascade.total_calls, fused.total_calls, "n={n}");
            let (cascade, fused) = (cascade.join_stats, fused.join_stats);
            assert_eq!(cascade.intermediates_elided, 0);
            assert_eq!((fused.intermediates_elided > 0), n > 2, "n={n}");
            assert!(
                cascade.chunks_fetched > 0 && fused.chunks_fetched == 0,
                "n={n}"
            );
        }
    }

    /// Every stage of a chain, a lone join included, feeds the registry
    /// what the cascade observes of it — pairs examined and rows emitted
    /// per connection pattern.
    #[test]
    fn fused_chains_observe_every_stage_like_the_cascade() {
        let config = EngineConfig::default().join_k(10);
        for (n, patterns) in [(2, &["P12"][..]), (3, &["P12", "P13"])] {
            let observed = |cascade| {
                let (plan, registry) = pattern_chain_plan(n);
                let stats = with_cascade(cascade, || execute_plan(&plan, &registry, config))
                    .unwrap()
                    .join_stats;
                (stats.chunks_fetched, registry.join_observations())
            };
            let ((binary, cascade), (none, fused)) = (observed(true), observed(false));
            assert!(binary > 0 && none == 0, "n={n}: the kernel ran");
            assert_eq!(cascade.keys().collect::<Vec<_>>(), patterns, "n={n}");
            assert_eq!(fused, cascade, "n={n}");
        }
    }
}
