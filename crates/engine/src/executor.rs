//! The scheduler: one walk for every plan.
//!
//! Walks a plan's nodes in topological order on the calling thread,
//! handing each node's materialized output on to its consumer, and has
//! the `interp` module run every node. What it owns is time and order:
//!
//! * **virtual time** — a node's busy time is its calls × the service's
//!   response time (or the clock delta under the resilient client), and
//!   the plan's critical path is computed over the DAG exactly like the
//!   execution-time cost metric, so measured and estimated times are
//!   directly comparable (E8/E14). §2.2's pipelining — "data shipped in
//!   pipelines from one service to another, so as to maximize
//!   parallelism" — is what this critical path models: independent
//!   branches overlap on it, and a stage starts when its inputs finish;
//! * the per-node [`ExecutionTrace`];
//! * **mid-flight adaptivity** — a deviating checkpoint re-plans the
//!   unexecuted suffix, and the walk switches onto the new plan in
//!   place: the executed nodes keep their outputs, busy time and trace
//!   records, and the walk goes on with the new plan's remaining nodes;
//! * **streamed delivery** — [`execute_parallel_session`] runs the same
//!   walk with its fetch stacks on the wall clock and hands the output
//!   node's rows to a [`BatchSink`] in batches of [`BATCH_SIZE`], which
//!   is how the daemon's `mode=par` frames rows as they are delivered.

use std::collections::{BTreeMap, BTreeSet};

use seco_join::JoinStats;
use seco_model::CompositeTuple;
use seco_optimizer::node_signature;
use seco_plan::{annotate, AnnotationConfig, NodeId, PlanNode, QueryPlan};
use seco_services::{drift_ratio, ServiceRegistry};

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::interp::{self, Interpreter};
use crate::shared::{ClockMode, SharedState};
use crate::trace::{ExecutionTrace, TraceEvent};

/// Rows per batch handed to a [`BatchSink`].
pub const BATCH_SIZE: usize = 32;

/// A batch sink for streamed delivery: called on the walking thread with
/// the output node's rows, in emission order, [`BATCH_SIZE`] at a time
/// (the last batch may be shorter).
pub type BatchSink<'s> = &'s dyn Fn(&[CompositeTuple]);

/// The outcome of executing a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionResult {
    /// Final combinations, in emission order.
    pub results: Vec<CompositeTuple>,
    /// Per-node trace.
    pub trace: ExecutionTrace,
    /// Critical-path elapsed time over the DAG, in virtual ms.
    pub critical_ms: f64,
    /// Total request-responses issued.
    pub total_calls: usize,
    /// Services whose failures degraded the answer (sorted, deduplicated;
    /// empty on a clean run). Only populated under
    /// [`crate::FailureMode::Degrade`].
    pub degraded: Vec<String>,
    /// Join-kernel counters aggregated over every pipe stage and
    /// parallel join of the plan.
    pub join_stats: JoinStats,
    /// The plan execution finished on, when adaptive re-optimization
    /// swapped it mid-flight (`None` on a non-adaptive run or when no
    /// checkpoint deviated).
    pub replanned: Option<QueryPlan>,
    /// Number of mid-flight re-plans taken.
    pub replans: usize,
}

impl ExecutionResult {
    /// True when some branch failed and the results are partial.
    pub fn is_degraded(&self) -> bool {
        !self.degraded.is_empty()
    }
}

/// Executes a plan against the registry.
///
/// With [`EngineConfig::adaptive`] on, every service stage and parallel
/// join doubles as a checkpoint: when its observed output cardinality
/// deviates from the plan-time estimate by at least
/// [`EngineConfig::adaptive_threshold`], the observed statistics are
/// promoted into the registry and the unexecuted suffix is re-planned
/// ([`seco_optimizer::Optimizer::replan_suffix`]). When that yields a
/// different plan, the walk switches onto it in place: the executed
/// nodes keep what they produced and the walk goes on with the new
/// plan's unexecuted nodes. Every node runs once, so every checkpoint
/// fires at most once and the number of re-plans is bounded by the
/// number of plan stages. With adaptive off the run is byte-identical
/// to the non-adaptive engine.
pub fn execute_plan(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    options: EngineConfig,
) -> Result<ExecutionResult, EngineError> {
    execute_plan_impl(plan, registry, options, None, ClockMode::Virtual, None)
}

/// [`execute_plan`] against long-lived [`SharedState`]: the per-service
/// fetch stacks (response caches, circuit breakers) and the virtual
/// clock come from — and persist in — `shared`, so repeated executions
/// hit warm caches and accumulated breaker state instead of cold ones.
/// This is the daemon entry point; results are identical to the
/// one-shot path (caches return the responses the services would).
pub fn execute_plan_shared(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    options: EngineConfig,
    shared: &SharedState,
) -> Result<ExecutionResult, EngineError> {
    execute_plan_impl(
        plan,
        registry,
        options,
        Some(shared),
        ClockMode::Virtual,
        None,
    )
}

/// The streamed run behind the daemon's `mode=par`: the same walk as
/// [`execute_plan_shared`] (on a run-local state when `shared` is
/// `None`), with its resilient clients, when configured, on wall-clock
/// time — backoff really sleeps and breaker cooldowns are real
/// milliseconds — and the output node's rows handed to `sink`, in
/// batches of [`BATCH_SIZE`], before it returns. Without a client the
/// fetch stacks are the walk's own and so are the results.
pub fn execute_parallel_session(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    options: EngineConfig,
    shared: Option<&SharedState>,
    sink: Option<BatchSink<'_>>,
) -> Result<ExecutionResult, EngineError> {
    execute_plan_impl(plan, registry, options, shared, ClockMode::Wall, sink)
}

/// What the walk holds for one node of the plan it is on.
#[derive(Default)]
struct Slot {
    /// Materialized output not yet handed on.
    output: Vec<CompositeTuple>,
    /// Consumers yet to take the output.
    readers: usize,
    busy_ms: f64,
    /// The output is partial: some upstream branch lost tuples to a
    /// failure.
    degraded: bool,
    /// `(tuples in, tuples out, calls)`, set once the node ran (a join
    /// absorbed into a chain: once the chain ran).
    counts: Option<(usize, usize, usize)>,
}

/// One slot per node of `plan`, none run, each counting its consumers.
fn slots_for(plan: &QueryPlan) -> Vec<Slot> {
    let mut slots: Vec<Slot> = plan.node_ids().map(|_| Slot::default()).collect();
    for (from, _) in plan.edges() {
        slots[from.0].readers += 1;
    }
    slots
}

fn execute_plan_impl(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    options: EngineConfig,
    shared: Option<&SharedState>,
    mode: ClockMode,
    sink: Option<BatchSink<'_>>,
) -> Result<ExecutionResult, EngineError> {
    // Without caller-provided shared state the fetch stacks (and the
    // clock their backoff pauses and deadlines run on) live for this
    // run only; a daemon passes its own so caches and breakers persist
    // across requests.
    let mut local_state = None;
    let state = shared.unwrap_or_else(|| local_state.insert(SharedState::new()));
    let clock = state.clock();
    let cache_cfg = options.fetch.cache();

    let mut interp = Interpreter::prepare(plan, registry, options, state, mode, &[])?;
    let mut order = plan.topo_order()?;
    let mut slots = slots_for(plan);
    // One owner per combination: a node's output moves to its consumer.
    // Only a real fan-out (the Fig. 2 diamond) copies, and then every
    // consumer but the last. An adaptive run keeps every output, so a
    // plan it switches onto can read any executed node.
    let copy_always = options.adaptive || copies_every_handoff();
    let hand_over = |slots: &mut [Slot], from: NodeId| {
        let slot = &mut slots[from.0];
        slot.readers -= 1;
        if slot.readers > 0 || copy_always {
            slot.output.clone()
        } else {
            std::mem::take(&mut slot.output)
        }
    };
    let mut total_calls = 0usize;
    let mut join_stats = JoinStats::default();
    let mut degraded: BTreeSet<String> = BTreeSet::new();

    // Adaptive runs only: the atoms whose service stages ran, the
    // plan-time cardinality estimates the checkpoints compare against,
    // and the plan the walk switched onto.
    let mut executed: BTreeSet<String> = BTreeSet::new();
    let annotation = AnnotationConfig::default();
    let mut estimates = (options.adaptive)
        .then(|| annotate(plan, registry, &annotation))
        .transpose()?;
    let mut switched: Option<QueryPlan> = None;
    let mut replans = 0usize;

    let mut at = 0;
    while let Some(&id) = order.get(at) {
        at += 1;
        let plan = interp.plan;
        if slots[id.0].counts.is_some() {
            // Carried over from the plan the walk switched away from.
            continue;
        }
        let preds = plan.predecessors(id);
        let node = plan.node(id)?;
        let (tuples_in, out, calls, busy_ms, deg) = match node {
            PlanNode::Input => {
                // The user's single input tuple (§3.2).
                (0, vec![CompositeTuple::empty()], 0, 0.0, false)
            }
            PlanNode::Output => {
                let input = hand_over(&mut slots, preds[0]);
                if let Some(sink) = sink {
                    input.chunks(BATCH_SIZE).for_each(sink);
                }
                (input.len(), input, 0, 0.0, slots[preds[0].0].degraded)
            }
            PlanNode::Selection(sel) => {
                let input = hand_over(&mut slots, preds[0]);
                let n_in = input.len();
                let kept = interp.select(sel, input)?;
                (n_in, kept, 0, 0.0, slots[preds[0].0].degraded)
            }
            PlanNode::Service(node) => {
                let input = hand_over(&mut slots, preds[0]);
                let recorded = registry.service(&node.service)?;
                let clock_before = clock.now_ms();
                let busy_before = recorded.stats().busy_ms;
                let outcome = interp.pipe(node, &input)?;
                let busy_ms = if options.client.is_some() && mode == ClockMode::Virtual {
                    // Busy time is the clock delta: calls plus
                    // retries, backoff pauses, and abandoned calls
                    // clipped at the deadline.
                    clock.now_ms() - clock_before
                } else if cache_cfg.is_some() || options.client.is_some() {
                    // No virtual clock runs (a cache without a client,
                    // or a client on the wall clock): charge the
                    // recorder's underlying-call time (hits and
                    // coalesced waits are free).
                    recorded.stats().busy_ms - busy_before
                } else {
                    let iface = registry.interface(&node.service)?;
                    outcome.calls as f64 * iface.stats.response_time_ms
                };
                join_stats.merge(&outcome.stats);
                if outcome.degraded {
                    degraded.insert(node.service.clone());
                }
                if options.adaptive {
                    executed.insert(node.atom.clone());
                }
                let deg = slots[preds[0].0].degraded || outcome.degraded;
                (input.len(), outcome.results, outcome.calls, busy_ms, deg)
            }
            // Absorbed into a downstream chain: the chain's top join
            // consumes this node's inputs directly.
            PlanNode::ParallelJoin(_) if interp.elided(id) => continue,
            PlanNode::ParallelJoin(_) => {
                let chain = &interp.chains[&id.0];
                let groups: Vec<Vec<CompositeTuple>> = (chain.feeders.iter())
                    .map(|g| hand_over(&mut slots, *g))
                    .collect();
                let group_deg: Vec<bool> =
                    chain.feeders.iter().map(|g| slots[g.0].degraded).collect();
                let n_in = groups.iter().map(Vec::len).sum();
                let out = interp.join(chain, groups, &group_deg)?;
                join_stats.merge(&out.stats);
                for &(j, _) in &chain.joins[..chain.joins.len() - 1] {
                    slots[j.0].counts = Some((0, 0, 0));
                }
                (n_in, out.results, 0, 0.0, out.degraded)
            }
        };
        total_calls += calls;
        let slot = &mut slots[id.0];
        slot.counts = Some((tuples_in, out.len(), calls));
        (slot.output, slot.busy_ms, slot.degraded) = (out, busy_ms, deg);

        // Adaptive checkpoint: service stages and chain tops compare
        // their observed output cardinality against the estimate, while
        // some atom is still unexecuted — a fully executed plan has
        // nothing left to re-plan.
        let Some(est) = &estimates else { continue };
        let checkpoint = matches!(node, PlanNode::Service(_) | PlanNode::ParallelJoin(_));
        if !checkpoint || executed.len() == plan.query.atoms.len() {
            continue;
        }
        let (est_out, obs) = (est.annotation(id).tout, slots[id.0].output.len() as f64);
        if drift_ratio(obs, est_out) < options.adaptive_threshold {
            continue;
        }
        // Every executed stage's observed cardinality goes to the
        // re-planner, and this checkpoint's own opens its deviation gate
        // even when those are on target (a join whose selectivity was
        // wrong).
        let observed = |_: &[String]| {
            let mut cardinalities = BTreeMap::new();
            for alias in &executed {
                if let Some(s) = plan.service_node_of(alias) {
                    let out = slots[s.0].counts.map_or(0, |(_, out, _)| out);
                    cardinalities.insert(alias.clone(), (est.annotation(s).tout, out as f64));
                }
            }
            cardinalities.insert("(checkpoint)".to_owned(), (est_out, obs));
            Some(cardinalities)
        };
        let Some(re) = interp::replan(plan, registry, &options, &executed, observed) else {
            continue;
        };
        if re.plan == *plan {
            // Same plan under the promoted statistics: later checkpoints
            // compare against the refreshed estimates.
            estimates = Some(re.annotated);
            continue;
        }
        let Some(carried) = carry(&interp, &re.plan, &mut slots, &executed) else {
            continue;
        };
        if let Some(rec) = trigger_service(plan, id).and_then(|s| registry.service(&s).ok()) {
            rec.note_replan();
        }
        // Switch plans: re-prepare on the new one, its executed joins
        // kept as materialized feeders, and walk on in its order.
        let ran: Vec<bool> = carried.iter().map(|s| s.counts.is_some()).collect();
        drop(interp);
        let next = switched.insert(re.plan);
        interp = Interpreter::prepare(next, registry, options, state, mode, &ran)?;
        estimates = Some(annotate(next, registry, &annotation)?);
        (order, at, slots) = (next.topo_order()?, 0, carried);
        replans += 1;
    }

    // Critical path over the DAG with the measured busy times, and the
    // trace in the plan's topological order.
    let plan = interp.plan;
    let mut finish = vec![0.0f64; plan.len()];
    let mut trace = ExecutionTrace::default();
    for &id in &order {
        let start = (plan.predecessors(id).iter())
            .map(|p| finish[p.0])
            .fold(0.0f64, f64::max);
        let busy_ms = slots[id.0].busy_ms;
        finish[id.0] = start + busy_ms;
        if let Some((tuples_in, tuples_out, calls)) = slots[id.0].counts {
            let (node, label) = (id, plan.node(id)?.label());
            trace.record(TraceEvent {
                node,
                label,
                tuples_in,
                tuples_out,
                calls,
                busy_ms,
            });
        }
    }
    let output = plan.output();
    Ok(ExecutionResult {
        results: std::mem::take(&mut slots[output.0].output),
        trace,
        critical_ms: finish[output.0],
        total_calls,
        degraded: degraded.into_iter().collect(),
        join_stats,
        replanned: switched,
        replans,
    })
}

/// Carries the walk over from `from`'s plan onto `to`: every node of
/// `to` whose atoms have all been executed takes the slot of the node of
/// the old plan with the same [`node_signature`], if that one ran —
/// output, busy time, degraded flag and trace counts — and every slot
/// counts the consumers in `to` still to run. `None` when a node of `to`
/// still to run would read a join the old plan fused away, whose output
/// was never materialized: then the walk stays on the old plan.
fn carry(
    from: &Interpreter<'_>,
    to: &QueryPlan,
    slots: &mut [Slot],
    executed: &BTreeSet<String>,
) -> Option<Vec<Slot>> {
    let old = from.plan;
    let ran: BTreeMap<String, NodeId> = (old.node_ids())
        .filter(|id| slots[id.0].counts.is_some())
        .map(|id| (node_signature(old, id), id))
        .collect();
    let source: Vec<Option<NodeId>> = (to.node_ids())
        .map(|id| match to.node(id) {
            Ok(PlanNode::Output) => None,
            _ if !to.atoms_at(id).is_subset(executed) => None,
            _ => ran.get(&node_signature(to, id)).copied(),
        })
        .collect();
    let mut carried = slots_for(to);
    for &(f, t) in to.edges() {
        match (source[f.0], source[t.0]) {
            // The consumer ran: nothing is left to hand it.
            (_, Some(_)) => carried[f.0].readers -= 1,
            (Some(old_id), None) if from.elided(old_id) => return None,
            _ => {}
        }
    }
    for (id, old_id) in to.node_ids().zip(source) {
        if let Some(old_id) = old_id {
            let readers = carried[id.0].readers;
            let slot = std::mem::take(&mut slots[old_id.0]);
            carried[id.0] = Slot { readers, ..slot };
        }
    }
    Some(carried)
}

#[cfg(test)]
thread_local! {
    /// Makes the walk on this thread copy at every hand-off — the walk
    /// this executor shipped before outputs moved, kept as the
    /// reference the moving walk is held to.
    static COPY_EVERY_HANDOFF: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether hand-offs copy even to a sole consumer: never, outside the
/// tests' reference walk.
fn copies_every_handoff() -> bool {
    #[cfg(test)]
    return COPY_EVERY_HANDOFF.get();
    #[cfg(not(test))]
    false
}

/// The service a checkpoint's re-plan is attributed to: the stage's own
/// service, or for a join the lexicographically-first service among its
/// input atoms.
fn trigger_service(plan: &QueryPlan, id: NodeId) -> Option<String> {
    if let Ok(PlanNode::Service(s)) = plan.node(id) {
        return Some(s.service.clone());
    }
    let atoms = plan.atoms_at(id);
    let inputs = plan.query.atoms.iter().filter(|a| atoms.contains(&a.alias));
    inputs.map(|a| a.service.clone()).min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FailureMode;
    use seco_bench::{diamond_plan, registry_without_movie, travel_without_flight};
    use seco_optimizer::{optimize, CostMetric};
    use seco_query::builder::running_example;
    use seco_query::evaluate_oracle;
    use seco_services::domains::entertainment;
    use seco_services::ClientConfig;

    #[test]
    fn executes_the_optimized_running_example() {
        let reg = entertainment::build_registry(1).unwrap();
        let q = running_example();
        let best = optimize(&q, &reg, CostMetric::RequestCount).unwrap();
        reg.reset_stats();
        let result = execute_plan(&best.plan, &reg, EngineConfig::default()).unwrap();
        assert!(result.total_calls > 0);
        assert!(result.critical_ms > 0.0);
        // Every emitted combination carries all three atoms.
        for c in &result.results {
            assert_eq!(c.arity(), 3);
        }
        // Trace covers every node.
        assert_eq!(result.trace.events.len(), best.plan.len());
        // The registry recorders agree with the engine's count.
        assert_eq!(reg.total_stats().calls as usize, result.total_calls);
    }

    #[test]
    fn adaptive_with_accurate_statistics_changes_nothing() {
        // When the declared statistics are right, no checkpoint
        // deviates: the adaptive run must replay the non-adaptive run
        // exactly — results, trace, virtual time, and call counts.
        let reg = entertainment::build_registry(1).unwrap();
        let q = running_example();
        let best = optimize(&q, &reg, CostMetric::RequestCount).unwrap();
        let baseline = execute_plan(&best.plan, &reg, EngineConfig::default()).unwrap();
        reg.reset_stats();
        reg.reset_observed();
        let adaptive =
            execute_plan(&best.plan, &reg, EngineConfig::default().adaptive(true)).unwrap();
        assert_eq!(adaptive.results, baseline.results);
        assert_eq!(adaptive.critical_ms, baseline.critical_ms);
        assert_eq!(adaptive.total_calls, baseline.total_calls);
        assert_eq!(adaptive.replans, 0);
        assert!(adaptive.replanned.is_none());
    }

    #[test]
    fn engine_results_are_a_subset_of_the_oracle() {
        // E16: soundness — everything the engine emits is a genuine
        // query answer.
        let reg = entertainment::build_registry(1).unwrap();
        let q = running_example();
        let oracle = evaluate_oracle(&q, &reg).unwrap();
        let best = optimize(&q, &reg, CostMetric::RequestCount).unwrap();
        let result = execute_plan(&best.plan, &reg, EngineConfig::default()).unwrap();
        for c in &result.results {
            let found = oracle.iter().any(|o| {
                q.atoms
                    .iter()
                    .all(|a| o.component(&a.alias) == c.component(&a.alias))
            });
            assert!(
                found,
                "engine emitted a combination the oracle does not contain: {c}"
            );
        }
    }

    #[test]
    fn selection_nodes_filter() {
        use seco_model::{Comparator, Value};
        use seco_plan::{PlanNode, QueryPlan, SelectionNode, ServiceNode};
        use seco_query::QueryBuilder;
        let reg = seco_services::domains::travel::build_registry(5).unwrap();
        let q = QueryBuilder::new()
            .atom("C", "Conference1")
            .atom("W", "Weather1")
            .pattern("Forecast", "C", "W")
            .select_const("C", "Topic", Comparator::Eq, Value::text("databases"))
            .select_const("W", "AvgTemp", Comparator::Gt, Value::Int(26))
            .build()
            .unwrap();
        let mut p = QueryPlan::new(q.clone());
        let c = p.add(PlanNode::Service(ServiceNode::new("C", "Conference1")));
        let w = p.add(PlanNode::Service(ServiceNode::new("W", "Weather1")));
        let s = p.add(PlanNode::Selection(
            SelectionNode::new(vec![q.selections[1].clone()]).with_selectivity(0.25),
        ));
        p.connect(p.input(), c).unwrap();
        p.connect(c, w).unwrap();
        p.connect(w, s).unwrap();
        p.connect(s, p.output()).unwrap();
        let result = execute_plan(&p, &reg, EngineConfig::default()).unwrap();
        // The Weather pipe stage filters eagerly ("immediately after
        // the service call that makes the predicate evaluable", §3.2),
        // so the explicit selection node sees pre-filtered tuples and
        // is an idempotent re-check.
        let w_event = result.trace.event(w).unwrap();
        assert_eq!(w_event.tuples_in, 20, "20 conferences pipe into Weather");
        assert!(
            w_event.tuples_out < 20,
            "the temperature predicate discards many"
        );
        let sel_event = result.trace.event(s).unwrap();
        assert_eq!(sel_event.tuples_in, w_event.tuples_out);
        assert_eq!(sel_event.tuples_out, sel_event.tuples_in);
        assert_eq!(result.results.len(), sel_event.tuples_out);
        // All survivors really are warm.
        for c in &result.results {
            let w = c.component("W").unwrap();
            match w.atomic_at(2) {
                seco_model::Value::Int(t) => assert!(*t > 26),
                other => panic!("unexpected temperature {other:?}"),
            }
        }
    }

    #[test]
    fn degrade_mode_survives_a_downed_service() {
        let reg = registry_without_movie();
        let q = running_example();
        let healthy = entertainment::build_registry(1).unwrap();
        let best = optimize(&q, &healthy, CostMetric::RequestCount).unwrap();

        // Abort (the default) still surfaces the failure as an error.
        assert!(execute_plan(&best.plan, &reg, EngineConfig::default()).is_err());

        // Degrade completes, reporting the failed service.
        let opts = EngineConfig {
            failure_mode: FailureMode::Degrade,
            ..Default::default()
        };
        let result = execute_plan(&best.plan, &reg, opts).unwrap();
        assert!(result.is_degraded());
        assert_eq!(result.degraded, vec!["Movie1".to_string()]);
    }

    /// The streamed entry fails, degrades and passes a surviving branch
    /// through exactly as the walk does, and its sink sees every row.
    #[test]
    fn streamed_runs_surface_failures_and_degrade_like_the_walk() {
        let healthy = entertainment::build_registry(1).unwrap();
        let best = optimize(&running_example(), &healthy, CostMetric::RequestCount).unwrap();
        let reg = registry_without_movie();
        let err = execute_parallel_session(&best.plan, &reg, EngineConfig::default(), None, None)
            .unwrap_err();
        assert!(
            matches!(err, EngineError::Join(_) | EngineError::Service(_)),
            "{err}"
        );
        let degrade = EngineConfig::default().degrade();
        let outcome = execute_parallel_session(&best.plan, &reg, degrade, None, None).unwrap();
        assert_eq!(outcome.degraded, vec!["Movie1".to_string()]);

        // Flight is hard down: the diamond's join passes the Hotel
        // branch through instead of returning nothing.
        let reg = travel_without_flight();
        let p = diamond_plan(&reg);
        let opts = degrade.join_k(5);
        let streamed = std::cell::RefCell::new(Vec::new());
        let sink = |batch: &[CompositeTuple]| streamed.borrow_mut().extend_from_slice(batch);
        let outcome = execute_parallel_session(&p, &reg, opts, None, Some(&sink)).unwrap();
        assert_eq!(outcome.degraded, vec!["Flight1".to_string()]);
        assert!(!outcome.results.is_empty(), "the hotel branch must survive");
        assert_eq!(streamed.into_inner(), outcome.results);
        for combo in &outcome.results {
            assert!(combo.component("H").is_some());
            assert!(
                combo.component("F").is_none(),
                "the downed branch adds nothing"
            );
        }
        let walk = execute_plan(&p, &travel_without_flight(), opts).unwrap();
        assert_eq!(walk.degraded, outcome.degraded);
        assert_eq!(walk.results, outcome.results);
    }

    #[test]
    fn resilient_client_recovers_transient_faults_and_stays_deterministic() {
        use seco_services::FaultProfile;
        // Transient-only faults: with enough retries the run must
        // produce exactly the clean run's answers.
        let faults = FaultProfile {
            seed: 77,
            transient_rate: 0.3,
            spike_rate: 0.0,
            spike_ms: 0.0,
            empty_rate: 0.0,
            outage: None,
        };
        let flaky = entertainment::build_registry_with_faults(1, faults).unwrap();
        let clean = entertainment::build_registry(1).unwrap();
        let q = running_example();
        let best = optimize(&q, &clean, CostMetric::RequestCount).unwrap();
        let baseline = execute_plan(&best.plan, &clean, EngineConfig::default()).unwrap();

        let cfg = ClientConfig {
            retries: 6,
            seed: 9,
            ..Default::default()
        };
        let opts = EngineConfig {
            failure_mode: FailureMode::Degrade,
            client: Some(cfg),
            ..Default::default()
        };
        flaky.reset_stats();
        let run_a = execute_plan(&best.plan, &flaky, opts).unwrap();
        let stats_a = flaky.total_stats();
        assert_eq!(
            run_a.results, baseline.results,
            "retries must hide transient faults"
        );
        assert!(run_a.degraded.is_empty());
        assert!(
            stats_a.retries > 0,
            "the flaky profile must have triggered retries"
        );
        // Retries consume virtual time, so the resilient run is slower.
        assert!(run_a.critical_ms > baseline.critical_ms);

        // Identical seeds ⇒ identical runs, counters included.
        let flaky2 = entertainment::build_registry_with_faults(1, faults).unwrap();
        let run_b = execute_plan(&best.plan, &flaky2, opts).unwrap();
        let stats_b = flaky2.total_stats();
        assert_eq!(run_a.results, run_b.results);
        assert_eq!(run_a.critical_ms, run_b.critical_ms);
        assert_eq!(stats_a.retries, stats_b.retries);
        assert_eq!(stats_a.timeouts, stats_b.timeouts);
    }

    #[test]
    fn diamond_plans_merge_shared_ancestry() {
        let reg = seco_services::domains::travel::build_registry(5).unwrap();
        let p = diamond_plan(&reg);
        let result = execute_plan(
            &p,
            &reg,
            EngineConfig {
                join_k: 50,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!result.results.is_empty());
        for combo in &result.results {
            // C appears once, not twice.
            assert_eq!(combo.arity(), 3);
            assert_eq!(combo.atoms.iter().filter(|a| *a == "C").count(), 1);
            // The flight and hotel really belong to the same conference
            // city (the SameTrip predicate held).
            let fl = combo.component("F").unwrap();
            let ht = combo.component("H").unwrap();
            let fs = &reg.interface("Flight1").unwrap().schema;
            let hs = &reg.interface("Hotel1").unwrap().schema;
            assert_eq!(
                fl.first_value_at(fs, &seco_model::AttributePath::atomic("To"))
                    .unwrap(),
                ht.first_value_at(hs, &seco_model::AttributePath::atomic("City"))
                    .unwrap()
            );
        }
    }

    /// Same answers, same books: handing outputs on by move changes
    /// what an execution costs, never what it reports. Every scenario
    /// runs twice over fresh registries — the moving walk and the
    /// copy-at-every-hand-off walk it replaced — and the whole
    /// [`ExecutionResult`] must agree: results in order, the trace
    /// (`tuples_in` / `tuples_out` / `calls` per node), `JoinStats`,
    /// `critical_ms`, `total_calls`, `degraded`, and the re-plans.
    #[test]
    fn moving_and_copying_walks_keep_the_same_books() {
        use seco_bench::{
            adaptive_query, adaptive_registry, chain_scenario, join_drift_query,
            join_drift_registry, star_scenario,
        };
        type Scenario = Box<dyn Fn() -> (ServiceRegistry, QueryPlan)>;
        let planned = |(registry, query): (ServiceRegistry, seco_query::Query)| {
            let plan = optimize(&query, &registry, CostMetric::RequestCount)
                .unwrap()
                .plan;
            (registry, plan)
        };
        let running = || {
            optimize(
                &running_example(),
                &entertainment::build_registry(1).unwrap(),
                CostMetric::RequestCount,
            )
            .unwrap()
            .plan
        };
        // (name, scenario, has a downed service)
        let mut scenarios: Vec<(String, Scenario, bool)> = Vec::new();
        for n in 2..=5 {
            let chain = move || planned(chain_scenario(n, 42));
            scenarios.push((format!("chain {n}"), Box::new(chain), false));
        }
        for n in 2..=4 {
            let star = move || planned(star_scenario(n, 42));
            scenarios.push((format!("star {n}"), Box::new(star), false));
        }
        scenarios.push((
            "running example".into(),
            Box::new(move || (entertainment::build_registry(1).unwrap(), running())),
            false,
        ));
        scenarios.push((
            "running example, Movie down".into(),
            Box::new(move || (registry_without_movie(), running())),
            true,
        ));
        scenarios.push((
            "diamond".into(),
            Box::new(|| {
                let reg = seco_services::domains::travel::build_registry(5).unwrap();
                let plan = diamond_plan(&reg);
                (reg, plan)
            }),
            false,
        ));
        scenarios.push((
            "diamond, Flight down".into(),
            Box::new(|| {
                let reg = travel_without_flight();
                let plan = diamond_plan(&reg);
                (reg, plan)
            }),
            true,
        ));
        // Misdeclared statistics: the adaptive runs switch onto a
        // re-planned suffix mid-walk — after a service stage (the
        // misled hub) or after a join (the join drift).
        scenarios.push((
            "join drift".into(),
            Box::new(|| {
                let reg = join_drift_registry(7);
                let plan = optimize(&join_drift_query(), &reg, CostMetric::ExecutionTime)
                    .unwrap()
                    .plan;
                (reg, plan)
            }),
            false,
        ));
        scenarios.push((
            "misled hub".into(),
            Box::new(|| {
                let reg = adaptive_registry(7, 10.0);
                let plan = optimize(&adaptive_query(), &reg, CostMetric::ExecutionTime)
                    .unwrap()
                    .plan;
                (reg, plan)
            }),
            false,
        ));

        let walk = |scenario: &Scenario, config: EngineConfig, copying: bool| {
            let (registry, plan) = scenario();
            COPY_EVERY_HANDOFF.set(copying);
            let out = execute_plan(&plan, &registry, config);
            COPY_EVERY_HANDOFF.set(false);
            out.expect("the scenario runs")
        };
        let (mut fanned_out, mut degraded, mut fused) = (0, 0, 0);
        let mut replanned = BTreeSet::new();
        for (name, scenario, downed) in &scenarios {
            for (adaptive, degrade) in [(false, false), (true, false), (false, true), (true, true)]
            {
                if *downed && !degrade {
                    continue;
                }
                let mut config = EngineConfig::default()
                    .join_k(50)
                    .adaptive(adaptive)
                    .adaptive_metric(CostMetric::ExecutionTime);
                if degrade {
                    config = config.degrade();
                }
                let moving = walk(scenario, config, false);
                let copying = walk(scenario, config, true);
                let at = format!("{name}: adaptive={adaptive} degrade={degrade}");
                assert_eq!(moving.results, copying.results, "{at}: results");
                assert_eq!(moving, copying, "{at}: books");
                fanned_out += usize::from(name.starts_with("diamond"));
                if moving.replans > 0 {
                    replanned.insert(name.as_str());
                }
                degraded += usize::from(moving.is_degraded());
                fused += moving.join_stats.intermediates_elided;
            }
        }
        // The grid met what it is there for.
        assert!(fanned_out > 0, "a node with two consumers");
        let misdeclared = BTreeSet::from(["join drift", "misled hub"]);
        assert_eq!(
            replanned, misdeclared,
            "a re-plan in each misdeclared scenario"
        );
        assert!(degraded > 0, "a degraded run");
        assert!(fused > 0, "an n-ary fusion");
    }
}
