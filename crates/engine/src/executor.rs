//! The deterministic scheduler.
//!
//! Walks a plan's nodes in topological order on one thread, handing
//! each node's materialized output on to its consumer, and has
//! the `interp` module run every node. What it owns is time and order:
//!
//! * **virtual time** — a node's busy time is its calls × the service's
//!   response time (or the clock delta under the resilient client), and
//!   the plan's critical path is computed over the DAG exactly like the
//!   execution-time cost metric, so measured and estimated times are
//!   directly comparable (E8/E14);
//! * the per-node [`ExecutionTrace`];
//! * **mid-flight adaptivity** — a deviating checkpoint re-plans the
//!   unexecuted suffix and restarts, replaying executed stages from memo.

use std::collections::{BTreeMap, BTreeSet};

use seco_join::JoinStats;
use seco_model::CompositeTuple;
use seco_plan::{annotate, AnnotatedPlan, AnnotationConfig, NodeId, PlanNode, QueryPlan};
use seco_services::{drift_ratio, ServiceRegistry};

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::interp::{self, Interpreter, Rechunk, Schedule, Speculation};
use crate::shared::{ClockMode, SharedState};
use crate::trace::{ExecutionTrace, TraceEvent};

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

/// Memoized outcome of an already-executed service stage, carried
/// across adaptive restarts. Suffix re-planning pins the executed
/// services (same interface, same fetch factors, same upstream
/// structure), so on a restart the stage's recorded outcome is replayed
/// instead of re-invoking the service: calls, busy time, and the
/// virtual clock all account each invocation exactly once.
struct StageMemo {
    service: String,
    outputs: Vec<CompositeTuple>,
    calls: usize,
    busy_ms: f64,
    failed: bool,
}

/// One pass over a plan: a completed execution, or a request to restart
/// on a re-planned suffix.
enum PassOutcome {
    Done(ExecutionResult),
    Replan(QueryPlan),
}

/// Executes a plan against the registry.
///
/// With [`EngineConfig::adaptive`] on, every fresh service stage and
/// parallel join doubles as a checkpoint: when its observed output
/// cardinality deviates from the plan-time estimate by at least
/// [`EngineConfig::adaptive_threshold`], the observed statistics are
/// promoted into the registry and the unexecuted suffix is re-planned
/// ([`seco_optimizer::Optimizer::replan_suffix`]); execution restarts on
/// the new plan, replaying the executed stages from memo. Each
/// checkpoint fires at most once, so the number of restarts is bounded
/// by the number of plan stages. With adaptive off the run is byte-identical to the
/// non-adaptive engine.
pub fn execute_plan(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    options: EngineConfig,
) -> Result<ExecutionResult, EngineError> {
    execute_plan_impl(plan, registry, options, None)
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
    execute_plan_impl(plan, registry, options, Some(shared))
}

fn execute_plan_impl(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    options: EngineConfig,
    shared: Option<&SharedState>,
) -> Result<ExecutionResult, EngineError> {
    let mut memo: BTreeMap<String, StageMemo> = BTreeMap::new();
    let mut checked: BTreeSet<String> = BTreeSet::new();
    let mut current: Option<QueryPlan> = None;
    let mut replans = 0usize;
    loop {
        let active = current.as_ref().unwrap_or(plan);
        match run_pass(active, registry, options, &mut memo, &mut checked, shared)? {
            PassOutcome::Done(mut result) => {
                result.replanned = current;
                result.replans = replans;
                return Ok(result);
            }
            PassOutcome::Replan(next) => {
                replans += 1;
                current = Some(next);
            }
        }
    }
}

/// Re-plans the unexecuted suffix through [`interp::replan`], observing
/// every executed stage's output cardinality. `trigger` is the deviating
/// checkpoint's `(estimated, observed)` cardinality pair — it opens the
/// re-planner's deviation gate even when the executed services' own
/// cardinalities are on target (e.g. a join whose selectivity was
/// wrong).
fn attempt_replan(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    options: &EngineConfig,
    estimates: &AnnotatedPlan,
    memo: &BTreeMap<String, StageMemo>,
    trigger: (f64, f64),
) -> Option<seco_optimizer::Optimized> {
    let executed: BTreeSet<String> = memo.keys().cloned().collect();
    interp::replan(plan, registry, options, &executed, |_| {
        let mut observed: BTreeMap<String, (f64, f64)> = BTreeMap::new();
        for alias in &executed {
            if let Some(id) = plan.service_node_of(alias) {
                observed.insert(
                    alias.clone(),
                    (
                        estimates.annotation(id).tout,
                        memo[alias].outputs.len() as f64,
                    ),
                );
            }
        }
        observed.insert("(checkpoint)".to_owned(), trigger);
        Some(observed)
    })
}

/// The deterministic scheduler's choices: fetch stacks on the shared
/// virtual clock, speculation inline on the walking thread, and joins
/// chunked like the branches that feed them.
const DETERMINISTIC: Schedule = Schedule {
    clock: ClockMode::Virtual,
    speculation: Speculation::Inline,
    rechunk: Rechunk::Branch,
};

/// Runs one execution pass of `plan` (see [`execute_plan`]).
fn run_pass(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    options: EngineConfig,
    memo: &mut BTreeMap<String, StageMemo>,
    checked: &mut BTreeSet<String>,
    shared: Option<&SharedState>,
) -> Result<PassOutcome, EngineError> {
    // Without caller-provided shared state the fetch stacks (and the
    // clock their backoff pauses and deadlines run on) live for this
    // pass only; a daemon passes its own so caches and breakers persist
    // across requests.
    let mut local_state = None;
    let state = shared.unwrap_or_else(|| local_state.insert(SharedState::new()));
    let interp = Interpreter::prepare(plan, registry, options, state, DETERMINISTIC)?;
    let clock = state.clock();
    let cache_cfg = options.fetch.cache();

    let order = plan.topo_order()?;
    let mut outputs: Vec<Vec<CompositeTuple>> = vec![Vec::new(); plan.len()];
    // One owner per combination: a node's output moves to its consumer.
    // Only a real fan-out (the Fig. 2 diamond) copies, and then every
    // consumer but the last.
    let mut readers: Vec<usize> = vec![0; plan.len()];
    for (from, _) in plan.edges() {
        readers[from.0] += 1;
    }
    let copy_always = copies_every_handoff();
    let mut hand_over = |outputs: &mut [Vec<CompositeTuple>], from: NodeId| {
        readers[from.0] -= 1;
        if readers[from.0] > 0 || copy_always {
            outputs[from.0].clone()
        } else {
            std::mem::take(&mut outputs[from.0])
        }
    };
    let mut busy: Vec<f64> = vec![0.0; plan.len()];
    let mut trace = ExecutionTrace::default();
    let mut total_calls = 0usize;
    let mut join_stats = JoinStats::default();
    let mut degraded: BTreeSet<String> = BTreeSet::new();
    // Whether each node's output is already partial (some upstream
    // branch lost tuples to a failure).
    let mut node_degraded: Vec<bool> = vec![false; plan.len()];

    // Plan-time cardinality estimates, for the adaptive checkpoints.
    let mut estimates: Option<AnnotatedPlan> = if options.adaptive {
        Some(annotate(plan, registry, &AnnotationConfig::default())?)
    } else {
        None
    };

    for id in order.iter().copied() {
        let preds = plan.predecessors(id);
        let (tuples_in, out, calls, busy_ms, deg): (usize, Vec<CompositeTuple>, usize, f64, bool) =
            match plan.node(id)? {
                PlanNode::Input => {
                    // The user's single input tuple (§3.2).
                    (0, vec![CompositeTuple::empty()], 0, 0.0, false)
                }
                PlanNode::Output => {
                    let input = hand_over(&mut outputs, preds[0]);
                    (input.len(), input, 0, 0.0, node_degraded[preds[0].0])
                }
                PlanNode::Selection(sel) => {
                    let input = hand_over(&mut outputs, preds[0]);
                    let n_in = input.len();
                    let kept = interp.select(sel, input, &mut join_stats)?;
                    (n_in, kept, 0, 0.0, node_degraded[preds[0].0])
                }
                PlanNode::Service(node)
                    if memo
                        .get(&node.atom)
                        .is_some_and(|m| m.service == node.service) =>
                {
                    // Already executed before an adaptive restart: the
                    // re-planner pinned this stage (same service, same
                    // fetches, same upstream structure), so replay its
                    // recorded outcome instead of re-invoking.
                    let n_in = outputs[preds[0].0].len();
                    let m = &memo[&node.atom];
                    if m.failed {
                        degraded.insert(node.service.clone());
                    }
                    let deg = node_degraded[preds[0].0] || m.failed;
                    (n_in, m.outputs.clone(), m.calls, m.busy_ms, deg)
                }
                PlanNode::Service(node) => {
                    let input = hand_over(&mut outputs, preds[0]);
                    let recorded = registry.service(&node.service)?;
                    let clock_before = clock.now_ms();
                    let busy_before = recorded.stats().busy_ms;
                    let outcome = interp.pipe(node, &input, |_| true)?;
                    let busy_ms = if options.client.is_some() {
                        // Busy time is the clock delta: calls plus
                        // retries, backoff pauses, and abandoned calls
                        // clipped at the deadline.
                        clock.now_ms() - clock_before
                    } else if cache_cfg.is_some() {
                        // Cache without a client: no clock runs, so
                        // charge the recorder's underlying-call time
                        // (hits and coalesced waits are free).
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
                        memo.insert(
                            node.atom.clone(),
                            StageMemo {
                                service: node.service.clone(),
                                outputs: outcome.results.clone(),
                                calls: outcome.calls,
                                busy_ms,
                                failed: outcome.degraded,
                            },
                        );
                    }
                    let deg = node_degraded[preds[0].0] || outcome.degraded;
                    (input.len(), outcome.results, outcome.calls, busy_ms, deg)
                }
                PlanNode::ParallelJoin(_) if interp.elided(id) => {
                    // Absorbed into a downstream chain: the chain's top
                    // join consumes this node's inputs directly.
                    let deg = node_degraded[preds[0].0] || node_degraded[preds[1].0];
                    (0, Vec::new(), 0, 0.0, deg)
                }
                PlanNode::ParallelJoin(_) => {
                    let chain = &interp.chains[&id.0];
                    let groups: Vec<Vec<CompositeTuple>> = (chain.feeders.iter())
                        .map(|g| hand_over(&mut outputs, *g))
                        .collect();
                    let group_deg: Vec<bool> =
                        chain.feeders.iter().map(|g| node_degraded[g.0]).collect();
                    let n_in = groups.iter().map(Vec::len).sum();
                    let out = interp.join(chain, groups, &group_deg)?;
                    join_stats.merge(&out.stats);
                    (n_in, out.results, 0, 0.0, out.degraded)
                }
            };
        total_calls += calls;
        busy[id.0] = busy_ms;
        node_degraded[id.0] = deg;
        trace.record(TraceEvent {
            node: id,
            label: plan.node(id)?.label(),
            tuples_in,
            tuples_out: out.len(),
            calls,
            busy_ms,
        });
        outputs[id.0] = out;

        // Adaptive checkpoint: fresh service stages and parallel joins
        // compare their observed output cardinality against the
        // plan-time estimate. Each checkpoint fires at most once across
        // restarts, and only while some atom is still unexecuted — a
        // fully executed plan has nothing left to re-plan.
        if let Some(est) = &estimates {
            let stage_key = match plan.node(id)? {
                PlanNode::Service(s) => Some(format!("svc:{}", s.atom)),
                PlanNode::ParallelJoin(_) if !interp.elided(id) => {
                    let atoms: Vec<String> = plan.atoms_at(id).into_iter().collect();
                    Some(format!("join:{}", atoms.join(",")))
                }
                _ => None,
            };
            if let Some(key) = stage_key {
                if checked.insert(key) && memo.len() < plan.query.atoms.len() {
                    let est_out = est.annotation(id).tout;
                    let obs = outputs[id.0].len() as f64;
                    if drift_ratio(obs, est_out) >= options.adaptive_threshold {
                        if let Some(re) =
                            attempt_replan(plan, registry, &options, est, memo, (est_out, obs))
                        {
                            if re.plan != *plan {
                                if let Some(svc) = trigger_service(plan, id) {
                                    if let Ok(rec) = registry.service(&svc) {
                                        rec.note_replan();
                                    }
                                }
                                return Ok(PassOutcome::Replan(re.plan));
                            }
                            // Same plan under the promoted statistics:
                            // later checkpoints compare against the
                            // refreshed estimates.
                            estimates = Some(re.annotated);
                        }
                    }
                }
            }
        }
    }

    // Critical path over the DAG with the measured busy times.
    let mut finish = vec![0.0f64; plan.len()];
    for id in order {
        let start = plan
            .predecessors(id)
            .iter()
            .map(|p| finish[p.0])
            .fold(0.0f64, f64::max);
        finish[id.0] = start + busy[id.0];
    }

    Ok(PassOutcome::Done(ExecutionResult {
        results: std::mem::take(&mut outputs[plan.output().0]),
        trace,
        critical_ms: finish[plan.output().0],
        total_calls,
        degraded: degraded.into_iter().collect(),
        join_stats,
        replanned: None,
        replans: 0,
    }))
}

#[cfg(test)]
thread_local! {
    /// Makes [`run_pass`] on this thread copy at every hand-off — the
    /// walk this executor shipped before outputs moved, kept as the
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
    match plan.node(id) {
        Ok(PlanNode::Service(s)) => Some(s.service.clone()),
        Ok(PlanNode::ParallelJoin(_)) => plan
            .atoms_at(id)
            .iter()
            .filter_map(|alias| {
                plan.query
                    .atoms
                    .iter()
                    .find(|a| &a.alias == alias)
                    .map(|a| a.service.clone())
            })
            .min(),
        _ => None,
    }
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
        use seco_bench::{adaptive_query, adaptive_registry, chain_scenario, star_scenario};
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
        // Misdeclared statistics: the adaptive runs restart on a
        // re-planned suffix and replay the executed stages from memo.
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
        let (mut fanned_out, mut replayed, mut degraded, mut fused) = (0, 0, 0, 0);
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
                replayed += moving.replans;
                degraded += usize::from(moving.is_degraded());
                fused += moving.join_stats.intermediates_elided;
            }
        }
        // The grid met what it is there for.
        assert!(fanned_out > 0, "a node with two consumers");
        assert!(replayed > 0, "a memo replay after a restart");
        assert!(degraded > 0, "a degraded run");
        assert!(fused > 0, "an n-ary fusion");
    }
}
