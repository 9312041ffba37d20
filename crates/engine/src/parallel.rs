//! The pipelined scheduler.
//!
//! §2.2: "data are shipped in pipelines from one service to another, so
//! as to maximize parallelism". Every live plan node runs as a task of
//! its own — on the pool's elastic blocking tier when there is a pool,
//! on scoped threads otherwise — and composites flow in batches through
//! bounded channels along the plan's arcs. Independent branches (e.g.
//! Movie and Theatre in the Fig. 10 plan) issue their service calls
//! concurrently, and a downstream stage starts as soon as its first
//! batch arrives. Join chains are rendezvous points: they drain their
//! inputs, then join and stream the emission order onward.
//!
//! What each node does is the `interp` module's; this module owns only
//! the scheduling: tasks, channels (rerouted so a chain's feeders
//! deliver straight to its top join), the streaming [`BatchSink`], and
//! the pre-flight adaptive re-plan. Unless faults depend on timing,
//! results equal [`crate::executor::execute_plan`]'s as a multiset.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;

use seco_join::JoinStats;
use seco_model::CompositeTuple;
use seco_plan::{NodeId, PlanNode, QueryPlan};
use seco_services::ServiceRegistry;

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::interp::{self, Interpreter, Rechunk, Schedule};
use crate::shared::{ClockMode, SharedState};

/// Channel capacity per plan arc, in batches; small enough to exercise
/// backpressure, large enough to avoid senseless stalls.
const ARC_CAPACITY: usize = 256;

/// Tuples per channel batch. Workers buffer their output locally and
/// ship it in batches, so the per-tuple cost of the channel's internal
/// lock (and of cloning for every fan-out edge) is amortized away —
/// this is what removes the output-path contention that per-tuple
/// sends exhibited with eight producer nodes.
const BATCH_SIZE: usize = 32;

/// The pipelined scheduler's choices: fetch stacks on wall-clock time
/// (backoff really sleeps, breaker cooldowns are real milliseconds),
/// and joins at `h = 1` over chunks of ten.
const PIPELINED: Schedule = Schedule {
    clock: ClockMode::Wall,
    rechunk: Rechunk::Fixed,
};

/// A batch of composites on a plan arc. Batches are `Arc`-shared so a
/// fan-out over N consumers ships N handle bumps, not N vector copies
/// (the composites themselves are thin handles already).
type Batch = Arc<Vec<CompositeTuple>>;

/// Recovers an owned batch from the shared handle: moves when this
/// consumer is the only one (left) holding it, clones handles otherwise.
fn unbatch(batch: Batch) -> Vec<CompositeTuple> {
    Arc::try_unwrap(batch).unwrap_or_else(|shared| (*shared).clone())
}

/// Everything an input channel delivers, once it closes.
fn drain(rx: &Receiver<Batch>) -> Vec<CompositeTuple> {
    rx.iter().flat_map(unbatch).collect()
}

/// A worker's buffered fan-out over its outgoing arcs.
struct Fanout {
    senders: Vec<Sender<Batch>>,
    buf: Vec<CompositeTuple>,
}

impl Fanout {
    fn new(senders: Vec<Sender<Batch>>) -> Self {
        Fanout {
            senders,
            buf: Vec::with_capacity(BATCH_SIZE),
        }
    }

    /// Buffers one tuple, shipping a batch when full. Returns `false`
    /// when every downstream consumer hung up.
    fn push(&mut self, tuple: CompositeTuple) -> bool {
        self.buf.push(tuple);
        if self.buf.len() >= BATCH_SIZE {
            self.flush()
        } else {
            true
        }
    }

    /// Ships whatever is buffered. Must be called before the worker
    /// drops its senders, or the tail of its output is lost.
    fn flush(&mut self) -> bool {
        let Some((last, others)) = self.senders.split_last() else {
            self.buf.clear();
            return true;
        };
        if self.buf.is_empty() {
            return true;
        }
        let batch: Batch = Arc::new(std::mem::replace(
            &mut self.buf,
            Vec::with_capacity(BATCH_SIZE),
        ));
        // The last consumer gets this worker's own handle: nothing of
        // the batch stays behind, so a sole consumer always unwraps it
        // and among several the last to finish does.
        others.iter().all(|s| s.send(batch.clone()).is_ok()) && last.send(batch).is_ok()
    }
}

/// The outcome of a pipelined execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelOutcome {
    /// Output combinations, in the output stage's arrival order.
    pub results: Vec<CompositeTuple>,
    /// Services whose failures degraded the answer (sorted,
    /// deduplicated; empty on a clean run).
    pub degraded: Vec<String>,
    /// Join-kernel counters aggregated over every pipe stage and
    /// parallel join of the plan.
    pub join_stats: JoinStats,
    /// The plan the run actually executed, when the pre-flight adaptive
    /// checkpoint re-planned under promoted statistics (`None`
    /// otherwise).
    pub replanned: Option<QueryPlan>,
}

/// Executes a plan pipelined, one task per node, on run-local state.
/// Resilience middleware ([`EngineConfig::client`]) runs on wall-clock
/// time here: backoff really sleeps and breaker cooldowns are real
/// milliseconds.
pub fn execute_parallel(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    options: EngineConfig,
) -> Result<ParallelOutcome, EngineError> {
    execute_parallel_session(plan, registry, options, None, None)
}

/// A batch sink for streaming delivery: called from the output
/// collector task with each arriving batch of final combinations,
/// *while upstream stages are still running* — this is what pushes
/// result chunks to a client as tiles are joined. Must be `Sync`
/// (invoked from inside the executor's task scope).
pub type BatchSink<'s> = &'s (dyn Fn(&[CompositeTuple]) + Sync);

/// The daemon-grade pipelined entry point: executes against optional
/// long-lived [`SharedState`] (persistent per-service caches, breaker
/// state, and the pool) and streams output batches into `sink` as they
/// arrive at the output stage. With neither extra, this is
/// [`execute_parallel`].
pub fn execute_parallel_session(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    options: EngineConfig,
    shared: Option<&SharedState>,
    sink: Option<BatchSink<'_>>,
) -> Result<ParallelOutcome, EngineError> {
    let replanned = preflight_replan(plan, registry, &options);
    let plan = replanned.as_ref().unwrap_or(plan);
    let mut local_state = None;
    let state = shared.unwrap_or_else(|| local_state.insert(SharedState::new()));
    let interp = Interpreter::prepare(plan, registry, options, state, PIPELINED, &[])?;

    // One channel per arc, carrying shared batches of tuples. An edge
    // into a join chain delivers straight to the chain's top join,
    // tagged with its feeder position; the chain's internal edges
    // disappear, so the absorbed joins never run.
    let mut routes: BTreeMap<(usize, usize), Vec<(usize, usize)>> = BTreeMap::new();
    for (top, chain) in &interp.chains {
        for (gi, g) in chain.feeders.iter().enumerate() {
            let consumer = chain.joins[gi.saturating_sub(1)].0;
            routes
                .entry((g.0, consumer.0))
                .or_default()
                .push((*top, gi));
        }
    }
    let mut senders: Vec<Vec<Sender<Batch>>> = vec![Vec::new(); plan.len()];
    let mut receivers: Vec<BTreeMap<usize, Receiver<Batch>>> = vec![BTreeMap::new(); plan.len()];
    for (from, to) in plan.edges() {
        let route = routes.get_mut(&(from.0, to.0)).and_then(Vec::pop);
        if route.is_none() && interp.elided(*from) {
            continue;
        }
        let (tx, rx) = bounded(ARC_CAPACITY);
        senders[from.0].push(tx);
        let (consumer, at) = route.unwrap_or((to.0, receivers[to.0].len()));
        receivers[consumer].insert(at, rx);
    }

    let pipeline = Pipeline {
        interp: &interp,
        sink,
        partial_output: plan.node_ids().map(|_| AtomicBool::new(false)).collect(),
        first_error: Mutex::new(None),
        output: Mutex::new(Vec::new()),
        degraded: Mutex::new(BTreeSet::new()),
        join_stats: Mutex::new(JoinStats::default()),
    };
    let mut node_tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
    for id in plan.node_ids() {
        if interp.elided(id) {
            continue;
        }
        let node = plan.node(id)?;
        let out = Fanout::new(std::mem::take(&mut senders[id.0]));
        let inputs = std::mem::take(&mut receivers[id.0]).into_values().collect();
        let pipeline = &pipeline;
        node_tasks.push(Box::new(move || pipeline.run_node(id, node, inputs, out)));
    }
    // One task per live plan node. On a pooled run the tasks go to the
    // pool's elastic blocking tier — they block on channel rendezvous,
    // so they must never occupy a bounded compute worker; its threads
    // are reused across queries and bounded by the pool's lifetime.
    // Without a pool each task gets a scoped thread. Both join every
    // task before returning.
    match interp.pool() {
        Some(pool) => pool.scope_blocking(node_tasks),
        None => std::thread::scope(|scope| {
            for task in node_tasks {
                scope.spawn(task);
            }
        }),
    }

    if let Some(e) = pipeline.first_error.into_inner() {
        return Err(e);
    }
    Ok(ParallelOutcome {
        results: pipeline.output.into_inner(),
        degraded: pipeline.degraded.into_inner().into_iter().collect(),
        join_stats: pipeline.join_stats.into_inner(),
        replanned,
    })
}

/// Pre-flight adaptive checkpoint. Wall-clock tasks stream through the
/// whole plan at once, so there is no point at which to switch plans
/// the way the deterministic walk does mid-flight; this one adapts
/// *between* runs:
/// statistics observed by earlier executions are promoted and the whole
/// plan is re-planned (empty executed prefix ⇒ every degree of freedom
/// re-opens) before any task starts. Returns the new plan if it differs.
fn preflight_replan(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    options: &EngineConfig,
) -> Option<QueryPlan> {
    if !options.adaptive {
        return None;
    }
    interp::replan(plan, registry, options, &BTreeSet::new(), |promoted| {
        if promoted.is_empty() {
            return None;
        }
        let mut observed: BTreeMap<String, (f64, f64)> = BTreeMap::new();
        for (name, drift) in registry.service_drift() {
            if let Some(card) = drift.observed_cardinality {
                observed.insert(name, (drift.declared_cardinality, card.value));
            }
        }
        // A promotion *is* a deviation past the threshold (that is the
        // promotion criterion), so always open the re-planner's gate —
        // pattern-only drift leaves no service entry above.
        observed.insert(
            "(promoted)".to_owned(),
            (1.0, options.adaptive_threshold.max(1.0)),
        );
        Some(observed)
    })
    .filter(|re| re.plan != *plan)
    .map(|re| re.plan)
}

/// What the node tasks of one run share.
struct Pipeline<'a> {
    interp: &'a Interpreter<'a>,
    sink: Option<BatchSink<'a>>,
    /// Per node: its output is partial. A task stores its flag
    /// (`Release`) before it drops its senders, and a consumer loads it
    /// (`Acquire`) only after that channel closed, so the attribution is
    /// race-free.
    partial_output: Vec<AtomicBool>,
    first_error: Mutex<Option<EngineError>>,
    output: Mutex<Vec<CompositeTuple>>,
    degraded: Mutex<BTreeSet<String>>,
    join_stats: Mutex<JoinStats>,
}

impl Pipeline<'_> {
    /// One node's task: runs it, publishes whether its output is
    /// partial, and ships its buffered tail before the senders drop.
    fn run_node(&self, id: NodeId, node: &PlanNode, inputs: Vec<Receiver<Batch>>, mut out: Fanout) {
        match self.interpret(id, node, &inputs, &mut out) {
            Ok(partial) => {
                self.partial_output[id.0].store(partial, Ordering::Release);
                out.flush();
            }
            Err(e) => {
                self.first_error.lock().get_or_insert(e);
            }
        }
    }

    /// Whether `id`'s output is partial; read once its channel closed.
    fn partial(&self, id: NodeId) -> bool {
        self.partial_output[id.0].load(Ordering::Acquire)
    }

    /// Runs one node over its input channels into `out`; returns whether
    /// its output is partial.
    fn interpret(
        &self,
        id: NodeId,
        node: &PlanNode,
        inputs: &[Receiver<Batch>],
        out: &mut Fanout,
    ) -> Result<bool, EngineError> {
        let interp = self.interp;
        let preds = interp.plan.predecessors(id);
        let joined = match node {
            PlanNode::Input => {
                out.push(CompositeTuple::empty());
                return Ok(false);
            }
            PlanNode::Output => {
                // One extend per batch, not one lock per tuple. A
                // streaming sink sees each batch the moment it lands,
                // while upstream stages are still joining tiles.
                let mut collected = Vec::new();
                for batch in inputs[0].iter() {
                    if let Some(push) = self.sink {
                        push(&batch);
                    }
                    collected.extend(unbatch(batch));
                }
                *self.output.lock() = collected;
                return Ok(self.partial(preds[0]));
            }
            PlanNode::Selection(sel) => {
                let mut stats = JoinStats::default();
                for batch in inputs[0].iter() {
                    let kept = interp.select(sel, unbatch(batch), &mut stats)?;
                    if !kept.into_iter().all(|c| out.push(c)) {
                        break;
                    }
                }
                self.join_stats.lock().merge(&stats);
                return Ok(self.partial(preds[0]));
            }
            PlanNode::Service(svc) => {
                let stream = inputs[0].iter().flat_map(unbatch);
                let outcome = interp.pipe(svc, stream, |new| new.drain(..).all(|c| out.push(c)))?;
                if outcome.degraded {
                    self.degraded.lock().insert(svc.service.clone());
                }
                self.join_stats.lock().merge(&outcome.stats);
                return Ok(outcome.degraded || self.partial(preds[0]));
            }
            PlanNode::ParallelJoin(_) => {
                let chain = &interp.chains[&id.0];
                let groups = inputs.iter().map(drain).collect();
                let partial: Vec<bool> = chain.feeders.iter().map(|g| self.partial(*g)).collect();
                interp.join(chain, groups, &partial)?
            }
        };
        self.join_stats.lock().merge(&joined.stats);
        let _ = joined.results.into_iter().all(|c| out.push(c));
        Ok(joined.degraded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seco_optimizer::{optimize, CostMetric};
    use seco_query::builder::running_example;
    use seco_services::domains::entertainment;

    #[test]
    fn parallel_matches_sequential_results_as_a_set() {
        let reg = entertainment::build_registry(1).unwrap();
        let q = running_example();
        let best = optimize(&q, &reg, CostMetric::RequestCount).unwrap();
        let sequential =
            crate::executor::execute_plan(&best.plan, &reg, EngineConfig::default()).unwrap();
        let parallel = execute_parallel(&best.plan, &reg, EngineConfig::default()).unwrap();
        assert_eq!(parallel.results.len(), sequential.results.len());
        for c in &parallel.results {
            assert!(
                sequential.results.iter().any(|s| {
                    q.atoms
                        .iter()
                        .all(|a| s.component(&a.alias) == c.component(&a.alias))
                }),
                "parallel emitted {c} which the sequential run lacks"
            );
        }
    }

    #[test]
    fn the_last_consumer_of_a_batch_gets_it_by_move() {
        let row = || {
            CompositeTuple::single(
                "A",
                seco_model::Tuple {
                    fields: Vec::new(),
                    score: 0.5,
                    source_rank: 0,
                },
            )
        };
        // One consumer: the worker's own handle travels, so the batch
        // is never shared and `unbatch` hands back the very buffer the
        // worker filled.
        let (tx, rx) = bounded(ARC_CAPACITY);
        let mut out = Fanout::new(vec![tx]);
        out.push(row());
        let filled = out.buf.as_ptr();
        assert!(out.flush());
        let batch = rx.recv().unwrap();
        assert_eq!(Arc::strong_count(&batch), 1, "nothing stays behind");
        assert!(std::ptr::eq(unbatch(batch).as_ptr(), filled));

        // A real fan-out shares one batch, and whoever finishes last
        // still takes the buffer instead of copying it.
        let (tx_a, rx_a) = bounded(ARC_CAPACITY);
        let (tx_b, rx_b) = bounded(ARC_CAPACITY);
        let mut out = Fanout::new(vec![tx_a, tx_b]);
        out.push(row());
        let filled = out.buf.as_ptr();
        assert!(out.flush());
        let (a, b) = (rx_a.recv().unwrap(), rx_b.recv().unwrap());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(Arc::strong_count(&a), 2, "one handle per consumer");
        assert!(!std::ptr::eq(unbatch(a).as_ptr(), filled), "shared: copied");
        assert!(std::ptr::eq(unbatch(b).as_ptr(), filled), "last: moved");
    }

    #[test]
    fn failures_in_workers_surface_as_errors() {
        // A registry whose Movie service always fails.
        let reg = seco_bench::registry_without_movie();
        let q = running_example();
        // Reuse a plan optimized against a healthy registry.
        let healthy = entertainment::build_registry(1).unwrap();
        let best = optimize(&q, &healthy, CostMetric::RequestCount).unwrap();
        let err = execute_parallel(&best.plan, &reg, EngineConfig::default()).unwrap_err();
        assert!(
            matches!(err, EngineError::Join(_) | EngineError::Service(_)),
            "{err}"
        );

        // The same downed registry under Degrade mode completes and
        // names the culprit instead of erroring.
        let opts = EngineConfig {
            failure_mode: crate::FailureMode::Degrade,
            ..Default::default()
        };
        let outcome = execute_parallel(&best.plan, &reg, opts).unwrap();
        assert_eq!(outcome.degraded, vec!["Movie1".to_string()]);
    }

    #[test]
    fn degraded_parallel_join_passes_the_surviving_branch_through() {
        // Flight is hard down; the parallel join should pass the Hotel
        // branch through instead of returning nothing.
        let reg = seco_bench::travel_without_flight();
        let p = seco_bench::diamond_plan(&reg);

        let opts = EngineConfig {
            join_k: 5,
            failure_mode: crate::FailureMode::Degrade,
            ..Default::default()
        };
        let outcome = execute_parallel(&p, &reg, opts).unwrap();
        assert_eq!(outcome.degraded, vec!["Flight1".to_string()]);
        assert!(!outcome.results.is_empty(), "the hotel branch must survive");
        for combo in &outcome.results {
            assert!(combo.component("H").is_some());
            assert!(
                combo.component("F").is_none(),
                "the downed branch contributes nothing"
            );
        }
        // The deterministic executor agrees on the degradation.
        let seq = crate::executor::execute_plan(&p, &reg, opts).unwrap();
        assert_eq!(seq.degraded, vec!["Flight1".to_string()]);
        assert!(!seq.results.is_empty());
    }
}
