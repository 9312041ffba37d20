//! The pipelined multi-threaded executor.
//!
//! §2.2: "data are shipped in pipelines from one service to another, so
//! as to maximize parallelism". Every plan node runs in its own OS
//! thread; composites flow through bounded crossbeam channels along the
//! plan's arcs, so independent branches (e.g. Movie and Theatre in the
//! Fig. 10 plan) issue their service calls concurrently and downstream
//! stages start as soon as the first tuples arrive. Parallel-join
//! stages are rendezvous points: they drain both inputs, then run the
//! tile-space join and stream its emission order onward.
//!
//! Results are identical (as a set) to [`crate::executor::execute_plan`];
//! the experiments use the deterministic executor and this one exists
//! to exercise true pipelined execution (including failure propagation
//! out of worker threads).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;

use seco_join::{score_order, JoinStats, NaryJoin, NaryStage, PipeJoin, RankJoin};
use seco_model::CompositeTuple;
use seco_optimizer::Optimizer;
use seco_plan::{NodeId, PlanNode, QueryPlan};
use seco_query::feasibility::analyze;
use seco_query::predicate::{
    resolve_predicates, satisfies_available, ResolvedPredicate, SchemaMap,
};
use seco_services::{DeviationPolicy, Prefetcher, Service, ServiceRegistry};

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::executor::{fusion_chains, FailureMode};
use crate::shared::{SharedState, Stack};

/// Channel capacity per plan arc, in batches; small enough to exercise
/// backpressure, large enough to avoid senseless stalls.
const ARC_CAPACITY: usize = 256;

/// Tuples per channel batch. Workers buffer their output locally and
/// ship it in batches, so the per-tuple cost of the channel's internal
/// lock (and of cloning for every fan-out edge) is amortized away —
/// this is what removes the output-path contention that per-tuple
/// sends exhibited with eight producer nodes.
const BATCH_SIZE: usize = 32;

/// Concurrent speculative fetches per service node.
const PREFETCH_INFLIGHT: usize = 2;

/// A batch of composites on a plan arc. Batches are `Arc`-shared so a
/// fan-out over N consumers ships N handle bumps, not N vector copies
/// (the composites themselves are thin handles already).
type Batch = Arc<Vec<CompositeTuple>>;

/// Recovers an owned batch from the shared handle: moves when this
/// consumer is the only one (left) holding it, clones handles otherwise.
fn unbatch(batch: Batch) -> Vec<CompositeTuple> {
    Arc::try_unwrap(batch).unwrap_or_else(|shared| (*shared).clone())
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

/// Executes a plan with one thread per node, returning the output
/// combinations (in the output stage's arrival order).
pub fn execute_parallel(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    options: EngineConfig,
) -> Result<Vec<CompositeTuple>, EngineError> {
    execute_parallel_with(plan, registry, options).map(|o| o.results)
}

/// Like [`execute_parallel`], additionally reporting which services
/// degraded the answer under [`FailureMode::Degrade`]. Resilience
/// middleware ([`EngineConfig::client`]) runs in wall-clock mode here:
/// backoff really sleeps and breaker cooldowns are real milliseconds.
pub fn execute_parallel_with(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    options: EngineConfig,
) -> Result<ParallelOutcome, EngineError> {
    execute_parallel_session(plan, registry, options, None, None)
}

/// A batch sink for streaming delivery: called from the output
/// collector thread with each arriving batch of final combinations,
/// *while upstream stages are still running* — this is what pushes
/// result chunks to a client as tiles are joined. Must be `Sync`
/// (invoked from inside the executor's thread scope).
pub type BatchSink<'s> = &'s (dyn Fn(&[CompositeTuple]) + Sync);

/// The daemon-grade pipelined entry point: executes against optional
/// long-lived [`SharedState`] (persistent per-service caches, breaker
/// state, and the speculation pool) and streams output batches into
/// `sink` as they arrive at the output stage. Both extras are
/// optional; with neither, this is exactly [`execute_parallel_with`].
pub fn execute_parallel_session(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    options: EngineConfig,
    shared: Option<&SharedState>,
    sink: Option<BatchSink<'_>>,
) -> Result<ParallelOutcome, EngineError> {
    // Pre-flight adaptive checkpoint. Wall-clock threads preclude the
    // deterministic executor's mid-flight restarts (replaying memoized
    // stages under a virtual clock), so this executor adapts *between*
    // runs: statistics observed by earlier executions are promoted and
    // the whole plan is re-planned (empty executed prefix ⇒ every
    // degree of freedom re-opens) before any thread spawns.
    let replanned: Option<QueryPlan> = if options.adaptive {
        let policy = DeviationPolicy {
            threshold: options.adaptive_threshold,
            min_samples: 1,
        };
        let promoted = registry.promote_deviations(&policy);
        if promoted.is_empty() {
            None
        } else {
            let mut observed: BTreeMap<String, (f64, f64)> = BTreeMap::new();
            for (name, drift) in registry.service_drift() {
                if let Some(card) = drift.observed_cardinality {
                    observed.insert(name, (drift.declared_cardinality, card.value));
                }
            }
            // A promotion *is* a deviation past the threshold (that is
            // the promotion criterion), so always open the re-planner's
            // gate — pattern-only drift leaves no service entry above.
            observed.insert(
                "(promoted)".to_owned(),
                (1.0, options.adaptive_threshold.max(1.0)),
            );
            let mut opt = Optimizer::new(registry, options.adaptive_metric);
            opt.replan_threshold = options.adaptive_threshold;
            opt.replan_suffix(plan, &BTreeSet::new(), &observed)
                .ok()
                .filter(|re| re.plan != *plan)
                .map(|re| re.plan)
        }
    } else {
        None
    };
    let plan = replanned.as_ref().unwrap_or(plan);
    plan.validate()?;
    let report = analyze(&plan.query, registry)?;
    let joins = plan.query.expanded_joins(registry)?;
    let predicates = resolve_predicates(&plan.query, &joins)?;
    let mut schemas: SchemaMap<'_> = BTreeMap::new();
    for atom in &plan.query.atoms {
        schemas.insert(
            atom.alias.clone(),
            &registry.interface(&atom.service)?.schema,
        );
    }

    let degrade = options.failure_mode == FailureMode::Degrade;

    // Which services feed each node, so a rendezvous join can attribute
    // a recorded failure to its left or right branch. Workers record a
    // degradation before dropping their senders, and a join only reads
    // the set after both its channels closed, so the attribution is
    // race-free.
    let mut ancestors: Vec<BTreeSet<String>> = vec![BTreeSet::new(); plan.len()];
    for id in plan.topo_order()? {
        let mut set = BTreeSet::new();
        for p in plan.predecessors(id) {
            set.extend(ancestors[p.0].iter().cloned());
        }
        if let Ok(PlanNode::Service(node)) = plan.node(id) {
            set.insert(node.service.clone());
        }
        ancestors[id.0] = set;
    }

    // Left-deep parallel-join chains fused by the n-ary kernel (rank
    // join takes precedence, exactly as in the deterministic executor).
    let (nary_elided, nary_chains) = if options.nary_join && !options.rank_join {
        fusion_chains(plan)?
    } else {
        (vec![false; plan.len()], BTreeMap::new())
    };
    // Channel rerouting for fused chains: edges into an absorbed join
    // deliver straight to the chain's top join (tagged with their group
    // index) and the chain's internal edges disappear, so the absorbed
    // joins never spawn.
    let mut skip_edges: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut routes: BTreeMap<(usize, usize), Vec<(usize, usize)>> = BTreeMap::new();
    let mut fused_groups: BTreeMap<usize, Vec<NodeId>> = BTreeMap::new();
    for (top, chain) in &nary_chains {
        let fp = plan.predecessors(chain[0]);
        let mut group_nodes = vec![fp[0], fp[1]];
        routes
            .entry((fp[0].0, chain[0].0))
            .or_default()
            .push((*top, 0));
        routes
            .entry((fp[1].0, chain[0].0))
            .or_default()
            .push((*top, 1));
        for (i, j) in chain.iter().enumerate().skip(1) {
            skip_edges.insert((chain[i - 1].0, j.0));
            let g = plan.predecessors(*j)[1];
            routes.entry((g.0, j.0)).or_default().push((*top, i + 1));
            group_nodes.push(g);
        }
        fused_groups.insert(*top, group_nodes);
    }

    // One channel per arc, carrying shared batches of tuples.
    let mut senders: Vec<Vec<Sender<Batch>>> = vec![Vec::new(); plan.len()];
    let mut receivers: Vec<Vec<Receiver<Batch>>> = vec![Vec::new(); plan.len()];
    let mut extra_rx: Vec<Vec<(usize, Receiver<Batch>)>> = vec![Vec::new(); plan.len()];
    for (from, to) in plan.edges() {
        if skip_edges.contains(&(from.0, to.0)) {
            continue;
        }
        let (tx, rx) = bounded(ARC_CAPACITY);
        senders[from.0].push(tx);
        match routes.get_mut(&(from.0, to.0)).and_then(Vec::pop) {
            Some((top, gi)) => extra_rx[top].push((gi, rx)),
            None => receivers[to.0].push(rx),
        }
    }

    // One fetch stack per service, shared by every node (and thread)
    // that invokes it: the wall-clock resilient client — one breaker
    // per service, matching the deterministic executor — under the
    // sharded response cache, whose singleflight layer coalesces
    // concurrent identical requests across plan nodes. With
    // caller-provided shared state the stacks (and the speculation
    // pool) persist across executions; without, they live for this
    // run only.
    let local_state;
    let state = match shared {
        Some(s) => s,
        None => {
            local_state = SharedState::new();
            &local_state
        }
    };
    let mut stacks: BTreeMap<String, Stack> = BTreeMap::new();
    for id in plan.node_ids() {
        if let Ok(PlanNode::Service(node)) = plan.node(id) {
            if stacks.contains_key(&node.service) {
                continue;
            }
            let recorded = registry.service(&node.service)?;
            stacks.insert(
                node.service.clone(),
                state.stack_for(&node.service, &recorded, &options, true),
            );
        }
    }
    let stacks = &stacks;
    // Executor pool resolution. A daemon's shared pool serves every
    // session; a one-shot run with `exec_workers > 1` builds a
    // run-local pool (dropped — drained and joined — on return). The
    // pool's *compute tier* runs join morsels and detached prefetch
    // speculation; its *elastic blocking tier* runs the plan-node
    // tasks below, which block on channel rendezvous and therefore
    // must never occupy a bounded compute worker.
    let local_pool;
    let exec_pool: Option<&Arc<seco_exec::ExecPool>> = match state.exec_pool() {
        Some(p) => Some(p),
        None if options.exec_workers > 1 => {
            local_pool = Arc::new(seco_exec::ExecPool::new(options.exec_workers));
            Some(&local_pool)
        }
        None => None,
    };
    // Morsel parallelism inside the join kernels is opt-in via
    // `exec_workers`: at 1 the kernels take their exact serial path
    // even when a daemon pool exists for prefetch and node fan-out.
    let join_pool: Option<Arc<seco_exec::ExecPool>> = if options.exec_workers > 1 {
        exec_pool.cloned()
    } else {
        None
    };
    let join_pool = &join_pool;

    let first_error: Mutex<Option<EngineError>> = Mutex::new(None);
    let output: Mutex<Vec<CompositeTuple>> = Mutex::new(Vec::new());
    let degraded: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());
    let join_stats: Mutex<JoinStats> = Mutex::new(JoinStats::default());

    let mut node_tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
    {
        for id in plan.node_ids() {
            if nary_elided[id.0] {
                // Absorbed into a fused chain: its channels were
                // rerouted to the chain top, so there is nothing to run.
                continue;
            }
            let node = match plan.node(id) {
                Ok(n) => n.clone(),
                Err(e) => {
                    *first_error.lock() = Some(EngineError::Plan(e));
                    continue;
                }
            };
            let my_senders = std::mem::take(&mut senders[id.0]);
            let my_receivers = std::mem::take(&mut receivers[id.0]);
            let my_extra = std::mem::take(&mut extra_rx[id.0]);
            let fused_group_nodes = fused_groups.get(&id.0).cloned();
            let chain_nodes = nary_chains.get(&id.0).cloned();
            let plan_ref = plan;
            let my_preds = plan.predecessors(id);
            let report = &report;
            let predicates = &predicates;
            let schemas = &schemas;
            let first_error = &first_error;
            let output = &output;
            let degraded = &degraded;
            let join_stats = &join_stats;
            let ancestors = &ancestors;
            let query = &plan.query;
            node_tasks.push(Box::new(move || {
                let fail = |e: EngineError| {
                    let mut slot = first_error.lock();
                    if slot.is_none() {
                        *slot = Some(e);
                    }
                };
                let mut out = Fanout::new(my_senders);
                match node {
                    PlanNode::Input => {
                        out.push(CompositeTuple::empty());
                        out.flush();
                    }
                    PlanNode::Output => {
                        // Batches arrive pre-buffered per producer, so
                        // this stays one extend per batch — not one
                        // lock acquisition per tuple. A streaming sink
                        // sees each batch the moment it lands, while
                        // upstream stages are still joining tiles.
                        let mut collected = Vec::new();
                        for batch in my_receivers[0].iter() {
                            if let Some(push) = sink {
                                push(&batch);
                            }
                            collected.extend(unbatch(batch));
                        }
                        *output.lock() = collected;
                    }
                    PlanNode::Selection(sel) => {
                        let node_preds = match crate::executor::resolve_selection_node(&sel, query)
                        {
                            Ok(p) => p,
                            Err(e) => return fail(e),
                        };
                        for c in my_receivers[0].iter().flat_map(unbatch) {
                            match satisfies_available(&node_preds, &c, schemas) {
                                Ok(true) => {
                                    if !out.push(c) {
                                        return;
                                    }
                                }
                                Ok(false) => {}
                                Err(e) => return fail(EngineError::Query(e)),
                            }
                        }
                        out.flush();
                    }
                    PlanNode::Service(svc) => {
                        let (base, client, cache) = stacks
                            .get(&svc.service)
                            .cloned()
                            .expect("every service node has a prepared stack");
                        // Background speculation: real threads warm the
                        // next chunk while the pipe loop joins this one.
                        // Keep-first stages stop at the first satisfying
                        // tuple, so speculating past them wastes calls.
                        let handle: Arc<dyn Service> =
                            if options.fetch.prefetch && svc.fetches > 1 && !svc.keep_first {
                                let recorded = match registry.service(&svc.service) {
                                    Ok(r) => r,
                                    Err(e) => return fail(EngineError::Service(e)),
                                };
                                // Daemon mode runs speculation on the
                                // shared pool (threads bounded by the
                                // engine state's lifetime); one-shot
                                // mode spawns per-fetch threads joined
                                // at stage end.
                                let mut pf = match exec_pool {
                                    Some(pool) => Prefetcher::new(base, svc.fetches as usize)
                                        .via_pool(pool.clone()),
                                    None => Prefetcher::new(base, svc.fetches as usize)
                                        .background(PREFETCH_INFLIGHT),
                                }
                                .with_recorder(recorded);
                                if let Some(c) = &client {
                                    pf = pf.respecting_breaker(c.clone());
                                }
                                if let Some(c) = &cache {
                                    pf = pf.probing(c.clone());
                                }
                                Arc::new(pf)
                            } else {
                                base
                            };
                        let bindings = report.bindings_of(&svc.atom);
                        let stage = PipeJoin {
                            atom: &svc.atom,
                            bindings: &bindings,
                            query_inputs: &query.inputs,
                            predicates,
                            schemas,
                            fetches: svc.fetches as usize,
                            keep_first: svc.keep_first,
                            tolerate_failures: degrade,
                            columnar: options.columnar,
                        };
                        // Prepared once; inputs stream through it as
                        // they arrive.
                        let mut run = stage.start();
                        let mut extended = Vec::new();
                        for input in my_receivers[0].iter().flat_map(unbatch) {
                            if let Err(e) = run.extend(&input, handle.as_ref(), &mut extended) {
                                return fail(EngineError::Join(e));
                            }
                            for c in extended.drain(..) {
                                if !out.push(c) {
                                    return;
                                }
                            }
                        }
                        let stage_out = run.finish(extended);
                        if stage_out.degraded {
                            degraded.lock().insert(svc.service.clone());
                        }
                        let local = stage_out.stats;
                        join_stats.lock().merge(&local);
                        if let Ok(recorded) = registry.service(&svc.service) {
                            recorded.note_join_counters(
                                local.index_builds,
                                local.probes,
                                local.pairs_skipped,
                                local.tiles_pruned,
                                local.predicate_evals,
                                local.columns_scanned,
                                local.batch_evals,
                                local.rows_materialized,
                                local.chunks_fetched,
                                local.chunks_saved,
                                local.bound_checks,
                                local.intermediates_elided,
                            );
                        }
                        out.flush();
                    }
                    PlanNode::ParallelJoin(spec) if fused_group_nodes.is_some() => {
                        let _ = spec;
                        let group_nodes = fused_group_nodes.expect("guarded above");
                        let chain = chain_nodes.expect("tops always carry their chain");
                        // N-ary rendezvous: drain every group channel in
                        // group order.
                        let mut tagged = my_extra;
                        tagged.sort_by_key(|(gi, _)| *gi);
                        let groups: Vec<Vec<CompositeTuple>> = tagged
                            .iter()
                            .map(|(_, rx)| rx.iter().flat_map(unbatch).collect())
                            .collect();
                        // Per-stage parameters: this executor's joins run
                        // with h = 1 and chunk size 10 (see the unfused
                        // arm), so the replayed stages must too.
                        let mut stage_preds: Vec<Vec<ResolvedPredicate>> = Vec::new();
                        let mut stage_shape = Vec::new();
                        for j in &chain {
                            match plan_ref.node(*j) {
                                Ok(PlanNode::ParallelJoin(js)) => {
                                    stage_preds.push(
                                        js.predicates
                                            .iter()
                                            .cloned()
                                            .map(ResolvedPredicate::Join)
                                            .collect(),
                                    );
                                    stage_shape.push((js.invocation, js.completion));
                                }
                                Ok(_) => unreachable!("fusion chains hold join nodes only"),
                                Err(e) => return fail(EngineError::Plan(e)),
                            }
                        }
                        // All channels are closed by now, so every
                        // upstream degradation is already recorded.
                        let group_deg: Vec<bool> = if degrade {
                            let deg = degraded.lock();
                            group_nodes
                                .iter()
                                .map(|g| ancestors[g.0].iter().any(|s| deg.contains(s)))
                                .collect()
                        } else {
                            vec![false; group_nodes.len()]
                        };
                        let fused = if group_deg.iter().any(|d| *d) {
                            // Degraded inputs keep the cascade's
                            // per-stage pass-through semantics.
                            Ok(None)
                        } else {
                            let stages: Vec<NaryStage<'_>> = stage_preds
                                .iter()
                                .zip(&stage_shape)
                                .map(|(p, (inv, comp))| NaryStage {
                                    predicates: p,
                                    invocation: *inv,
                                    completion: *comp,
                                    h: 1,
                                    k: options.join_k,
                                    left_chunk: 10,
                                    right_chunk: 10,
                                })
                                .collect();
                            NaryJoin {
                                schemas,
                                tile_prune: options.join_index.tile_prune,
                                pool: join_pool.clone(),
                            }
                            .run(&groups, &stages)
                        };
                        let results = match fused {
                            Ok(Some(outcome)) => {
                                join_stats.lock().merge(&outcome.stats);
                                outcome.results
                            }
                            Ok(None) => {
                                // Ineligible or degraded: run the
                                // byte-identical binary cascade.
                                let mut groups = groups.into_iter();
                                let mut cur = groups.next().expect("a chain has two feeders");
                                let mut cur_deg = group_deg[0];
                                for ((i, p), right) in stage_preds.iter().enumerate().zip(groups) {
                                    let exec = seco_join::ParallelJoinExecutor {
                                        predicates: p,
                                        schemas,
                                        invocation: stage_shape[i].0,
                                        completion: stage_shape[i].1,
                                        h: 1,
                                        k: options.join_k,
                                        options: options.join_index,
                                        columnar: options.columnar,
                                        pool: join_pool.clone(),
                                    };
                                    let mut sl = seco_join::executor::MemoryStream::new(cur, 10);
                                    let mut sr = seco_join::executor::MemoryStream::new(right, 10);
                                    let joined = if degrade {
                                        exec.run_with_degradation(
                                            &mut sl,
                                            &mut sr,
                                            cur_deg,
                                            group_deg[i + 1],
                                        )
                                    } else {
                                        exec.run(&mut sl, &mut sr)
                                    };
                                    match joined {
                                        Ok(o) => {
                                            join_stats.lock().merge(&o.stats);
                                            cur = o.results;
                                            cur_deg = cur_deg || group_deg[i + 1];
                                        }
                                        Err(e) => return fail(EngineError::Join(e)),
                                    }
                                }
                                cur
                            }
                            Err(e) => return fail(EngineError::Join(e)),
                        };
                        for c in results {
                            if !out.push(c) {
                                return;
                            }
                        }
                        out.flush();
                    }
                    PlanNode::ParallelJoin(spec) => {
                        // Rendezvous: drain both inputs.
                        let left: Vec<CompositeTuple> =
                            my_receivers[0].iter().flat_map(unbatch).collect();
                        let right: Vec<CompositeTuple> =
                            my_receivers[1].iter().flat_map(unbatch).collect();
                        let candidate_pairs = (left.len() * right.len()) as u64;
                        let join_predicates: Vec<ResolvedPredicate> = spec
                            .predicates
                            .iter()
                            .cloned()
                            .map(ResolvedPredicate::Join)
                            .collect();
                        let exec = seco_join::ParallelJoinExecutor {
                            predicates: &join_predicates,
                            schemas,
                            invocation: spec.invocation,
                            completion: spec.completion,
                            h: 1,
                            k: options.join_k,
                            options: options.join_index,
                            columnar: options.columnar,
                            pool: join_pool.clone(),
                        };
                        // Both channels are closed by now, so every
                        // upstream degradation is already recorded.
                        let (left_failed, right_failed) = if degrade {
                            let deg = degraded.lock();
                            (
                                ancestors[my_preds[0].0].iter().any(|s| deg.contains(s)),
                                ancestors[my_preds[1].0].iter().any(|s| deg.contains(s)),
                            )
                        } else {
                            (false, false)
                        };
                        let rank = options.rank_join
                            && options.join_k > 0
                            && !(left_failed || right_failed);
                        let joined = if rank {
                            // Rank join needs score-sorted streams;
                            // batches arrive in pipeline order.
                            let mut left = left;
                            let mut right = right;
                            left.sort_by(score_order);
                            right.sort_by(score_order);
                            let mut sl = seco_join::executor::MemoryStream::new(left, 10);
                            let mut sr = seco_join::executor::MemoryStream::new(right, 10);
                            RankJoin {
                                join: exec,
                                space: None,
                            }
                            .run(&mut sl, &mut sr)
                        } else {
                            let mut sl = seco_join::executor::MemoryStream::new(left, 10);
                            let mut sr = seco_join::executor::MemoryStream::new(right, 10);
                            if degrade {
                                exec.run_with_degradation(
                                    &mut sl,
                                    &mut sr,
                                    left_failed,
                                    right_failed,
                                )
                            } else {
                                exec.run(&mut sl, &mut sr)
                            }
                        };
                        match joined {
                            Ok(outcome) => {
                                join_stats.lock().merge(&outcome.stats);
                                crate::executor::note_parallel_join(
                                    plan_ref,
                                    registry,
                                    id,
                                    candidate_pairs,
                                    outcome.results.len() as u64,
                                );
                                for c in outcome.results {
                                    if !out.push(c) {
                                        return;
                                    }
                                }
                                out.flush();
                            }
                            Err(e) => fail(EngineError::Join(e)),
                        }
                    }
                }
            }));
        }
    }
    // One task per live plan node. On a pooled run the tasks go to the
    // pool's elastic blocking tier — threads there are reused across
    // queries and bounded by the pool's lifetime; without a pool this
    // is the historical scoped-thread fan-out. Both join every task
    // before returning.
    match exec_pool {
        Some(pool) => pool.scope_blocking(node_tasks),
        None => {
            std::thread::scope(|scope| {
                for task in node_tasks {
                    scope.spawn(task);
                }
            });
        }
    }

    if let Some(e) = first_error.lock().take() {
        return Err(e);
    }
    Ok(ParallelOutcome {
        results: output.into_inner(),
        degraded: degraded.into_inner().into_iter().collect(),
        join_stats: join_stats.into_inner(),
        replanned,
    })
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
        assert_eq!(parallel.len(), sequential.results.len());
        for c in &parallel {
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
        let reg = crate::executor::tests::registry_without_movie();
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
            failure_mode: crate::executor::FailureMode::Degrade,
            ..Default::default()
        };
        let outcome = execute_parallel_with(&best.plan, &reg, opts).unwrap();
        assert_eq!(outcome.degraded, vec!["Movie1".to_string()]);
    }

    #[test]
    fn degraded_parallel_join_passes_the_surviving_branch_through() {
        // Flight is hard down; the parallel join should pass the Hotel
        // branch through instead of returning nothing.
        let reg = crate::executor::tests::travel_without_flight();
        let p = crate::executor::tests::diamond_plan(&reg);

        let opts = EngineConfig {
            join_k: 5,
            failure_mode: crate::executor::FailureMode::Degrade,
            ..Default::default()
        };
        let outcome = execute_parallel_with(&p, &reg, opts).unwrap();
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
