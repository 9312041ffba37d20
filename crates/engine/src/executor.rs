//! The deterministic (virtual-time) plan executor.
//!
//! Executes a fully instantiated plan node by node in topological
//! order, materializing each node's output composites:
//!
//! * **service nodes** run as pipe-join stages ([`seco_join::pipe`]),
//!   fetching `F` chunks per input composite (the node's fetch factor)
//!   and filtering incrementally under the repeating-group semantics;
//! * **selection nodes** filter with their own predicates;
//! * **parallel joins** run the tile-space executor of
//!   [`seco_join::executor`] over the two branch materializations,
//!   preserving the strategy's emission order;
//! * the **output node** collects the final combinations.
//!
//! Time is accounted on the virtual clock: each node's busy time is its
//! calls × the service's response time; the plan's critical-path time
//! is computed over the DAG exactly like the execution-time cost
//! metric, so measured and estimated times are directly comparable
//! (E8/E14).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use seco_join::{score_order, ColumnarOptions, JoinStats, NaryJoin, NaryStage, PipeJoin, RankJoin};
use seco_model::{BitMask, Column, CompositeTuple};
use seco_optimizer::Optimizer;
use seco_plan::{annotate, AnnotatedPlan, AnnotationConfig, NodeId, PlanNode, QueryPlan};
use seco_query::feasibility::analyze;
use seco_query::predicate::{
    resolve_predicates, satisfies_available, ResolvedPredicate, SchemaMap,
};
use seco_query::CompiledPredicates;
use seco_services::{drift_ratio, DeviationPolicy, Prefetcher, Service, ServiceRegistry};

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::shared::SharedState;
use crate::trace::{ExecutionTrace, TraceEvent};

/// What to do when a service fails past the resilience middleware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailureMode {
    /// Abort the execution with the error (historical behaviour).
    #[default]
    Abort,
    /// Degrade gracefully: the failing branch contributes whatever it
    /// produced before failing, the failed services are listed on the
    /// result, and execution continues.
    Degrade,
}

/// Fetch-layer options: the sharded response cache, request
/// coalescing, and speculative chunk prefetch
/// ([`seco_services::cache`], [`seco_services::prefetch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchOptions {
    /// Shards of the per-service response cache; 0 leaves the cache
    /// off (unless `prefetch` forces it on at the default width).
    pub cache_shards: usize,
    /// Maximum cached responses per service, across all shards.
    pub cache_capacity: usize,
    /// Speculatively warm chunk `c + 1` while the join consumes chunk
    /// `c`, within each node's optimizer-assigned fetch budget.
    pub prefetch: bool,
}

impl Default for FetchOptions {
    fn default() -> Self {
        FetchOptions {
            cache_shards: 0,
            cache_capacity: 4096,
            prefetch: false,
        }
    }
}

impl FetchOptions {
    /// A cache of `shards` shards at the default capacity.
    pub fn cached(shards: usize) -> Self {
        FetchOptions {
            cache_shards: shards,
            ..Default::default()
        }
    }

    /// Enables speculative chunk prefetch.
    pub fn with_prefetch(mut self) -> Self {
        self.prefetch = true;
        self
    }

    /// `(shards, capacity)` when the cache is on. Prefetch without an
    /// explicit shard count turns the cache on at the default width —
    /// speculation needs somewhere to land its responses.
    pub fn cache(&self) -> Option<(usize, usize)> {
        if self.cache_shards > 0 {
            Some((self.cache_shards, self.cache_capacity))
        } else if self.prefetch {
            Some((seco_services::cache::DEFAULT_SHARDS, self.cache_capacity))
        } else {
            None
        }
    }

    /// True when any part of the fetch layer is active.
    pub fn enabled(&self) -> bool {
        self.cache().is_some()
    }
}

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
    /// [`FailureMode::Degrade`].
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
/// ([`Optimizer::replan_suffix`]); execution restarts on the new plan,
/// replaying the executed stages from memo. Each checkpoint fires at
/// most once, so the number of restarts is bounded by the number of
/// plan stages. With adaptive off the run is byte-identical to the
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

/// Promotes observed deviations into the registry and re-plans the
/// unexecuted suffix. `trigger` is the deviating checkpoint's
/// `(estimated, observed)` cardinality pair — it opens the re-planner's
/// deviation gate even when the executed services' own cardinalities
/// are on target (e.g. a join whose selectivity was wrong). Returns
/// `None` when the re-plan itself fails: adaptivity is best-effort and
/// must never abort a viable execution.
fn attempt_replan(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    options: &EngineConfig,
    estimates: &AnnotatedPlan,
    memo: &BTreeMap<String, StageMemo>,
    trigger: (f64, f64),
) -> Option<seco_optimizer::Optimized> {
    let policy = DeviationPolicy {
        threshold: options.adaptive_threshold,
        min_samples: 1,
    };
    registry.promote_deviations(&policy);
    let executed: BTreeSet<String> = memo.keys().cloned().collect();
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
    let mut opt = Optimizer::new(registry, options.adaptive_metric);
    opt.replan_threshold = options.adaptive_threshold;
    opt.replan_suffix(plan, &executed, &observed).ok()
}

/// Runs one execution pass of `plan` (see [`execute_plan`]).
fn run_pass(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    options: EngineConfig,
    memo: &mut BTreeMap<String, StageMemo>,
    checked: &mut BTreeSet<String>,
    shared: Option<&SharedState>,
) -> Result<PassOutcome, EngineError> {
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

    let degrade = options.failure_mode == FailureMode::Degrade;
    // One fetch stack per service, shared across plan nodes: the
    // resilient client (when configured) under the sharded response
    // cache, so the circuit breaker and the memoized responses both
    // accumulate over the whole execution. The clock is shared too:
    // backoff pauses and abandoned-call deadlines count toward the same
    // virtual timeline as the calls themselves. Without caller-provided
    // shared state the stacks live for this pass only (the historical
    // one-shot behaviour); a daemon passes its own `SharedState` so
    // caches and breakers persist across requests.
    let local_state;
    let state = match shared {
        Some(s) => s,
        None => {
            local_state = SharedState::new();
            &local_state
        }
    };
    let clock = state.clock().clone();
    // Morsel pool for the join kernels: with `exec_workers > 1` reuse
    // the daemon's shared pool (same worker budget for every session)
    // or spin up a pass-local one; the ordered reducer keeps output
    // byte-identical to serial either way. `exec_workers == 1` passes
    // no pool at all — the kernels take their exact serial code path.
    let exec_pool: Option<Arc<seco_exec::ExecPool>> = if options.exec_workers > 1 {
        Some(match state.exec_pool() {
            Some(p) => p.clone(),
            None => Arc::new(seco_exec::ExecPool::new(options.exec_workers)),
        })
    } else {
        None
    };
    let cache_cfg = options.fetch.cache();
    let mut degraded: BTreeSet<String> = BTreeSet::new();
    // Whether each node's output is already partial (some upstream
    // branch lost tuples to a failure).
    let mut node_degraded: Vec<bool> = vec![false; plan.len()];

    // Left-deep chains of parallel joins the n-ary kernel can fuse.
    // Rank join takes precedence: its score-sorted top-k inputs are
    // incompatible with replaying the cascade's exploration.
    let (nary_elided, nary_chains) = if options.nary_join && !options.rank_join {
        fusion_chains(plan)?
    } else {
        (vec![false; plan.len()], BTreeMap::new())
    };

    // Plan-time cardinality estimates, for the adaptive checkpoints.
    let mut estimates: Option<AnnotatedPlan> = if options.adaptive {
        Some(annotate(plan, registry, &AnnotationConfig::default())?)
    } else {
        None
    };

    for id in order.iter().copied() {
        let preds_nodes = plan.predecessors(id);
        let (tuples_in, out, calls, busy_ms, deg): (usize, Vec<CompositeTuple>, usize, f64, bool) =
            match plan.node(id)? {
                PlanNode::Input => {
                    // The user's single input tuple (§3.2).
                    (0, vec![CompositeTuple::empty()], 0, 0.0, false)
                }
                PlanNode::Output => {
                    let input = hand_over(&mut outputs, preds_nodes[0]);
                    let deg = node_degraded[preds_nodes[0].0];
                    (input.len(), input, 0, 0.0, deg)
                }
                PlanNode::Selection(sel) => {
                    let input = hand_over(&mut outputs, preds_nodes[0]);
                    let n_in = input.len();
                    let node_preds = resolve_selection_node(sel, &plan.query)?;
                    let kept = run_selection(
                        &node_preds,
                        input,
                        &schemas,
                        options.columnar,
                        &mut join_stats,
                    )?;
                    (n_in, kept, 0, 0.0, node_degraded[preds_nodes[0].0])
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
                    let n_in = outputs[preds_nodes[0].0].len();
                    let m = &memo[&node.atom];
                    if m.failed {
                        degraded.insert(node.service.clone());
                    }
                    let deg = node_degraded[preds_nodes[0].0] || m.failed;
                    (n_in, m.outputs.clone(), m.calls, m.busy_ms, deg)
                }
                PlanNode::Service(node) => {
                    let input = hand_over(&mut outputs, preds_nodes[0]);
                    let n_in = input.len();
                    let iface = registry.interface(&node.service)?;
                    let bindings = report.bindings_of(&node.atom);
                    let stage = PipeJoin {
                        atom: &node.atom,
                        bindings: &bindings,
                        query_inputs: &plan.query.inputs,
                        predicates: &predicates,
                        schemas: &schemas,
                        fetches: node.fetches as usize,
                        keep_first: node.keep_first,
                        tolerate_failures: degrade,
                        columnar: options.columnar,
                    };
                    let recorded = registry.service(&node.service)?;
                    let (base, client, cache) =
                        state.stack_for(&node.service, &recorded, &options, false);
                    // Inline speculation: the prefetch runs on this
                    // thread, so the virtual timeline and the fault
                    // schedule stay a pure function of the seed.
                    // Never speculate past a keep-first stage: it stops
                    // at the first satisfying tuple, so chunk `c + 1`
                    // would be warmed for a join that may never ask.
                    let handle: Arc<dyn Service> =
                        if options.fetch.prefetch && node.fetches > 1 && !node.keep_first {
                            let mut pf = Prefetcher::new(base, node.fetches as usize)
                                .with_recorder(recorded.clone());
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
                    let clock_before = clock.now_ms();
                    let busy_before = recorded.stats().busy_ms;
                    let outcome = stage.run(&input, handle.as_ref())?;
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
                        outcome.calls as f64 * iface.stats.response_time_ms
                    };
                    join_stats.merge(&outcome.stats);
                    recorded.note_join_counters(
                        outcome.stats.index_builds,
                        outcome.stats.probes,
                        outcome.stats.pairs_skipped,
                        outcome.stats.tiles_pruned,
                        outcome.stats.predicate_evals,
                        outcome.stats.columns_scanned,
                        outcome.stats.batch_evals,
                        outcome.stats.rows_materialized,
                        outcome.stats.chunks_fetched,
                        outcome.stats.chunks_saved,
                        outcome.stats.bound_checks,
                        outcome.stats.intermediates_elided,
                    );
                    let mut deg = node_degraded[preds_nodes[0].0];
                    if outcome.degraded {
                        degraded.insert(node.service.clone());
                        deg = true;
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
                    (n_in, outcome.results, outcome.calls, busy_ms, deg)
                }
                PlanNode::ParallelJoin(spec) if nary_elided[id.0] => {
                    // Absorbed into a downstream n-ary fusion: the
                    // chain's top join consumes this node's inputs
                    // directly. The label `spec` stays unused here.
                    let _ = spec;
                    let deg = node_degraded[preds_nodes[0].0] || node_degraded[preds_nodes[1].0];
                    (0, Vec::new(), 0, 0.0, deg)
                }
                PlanNode::ParallelJoin(_) if nary_chains.contains_key(&id.0) => {
                    let chain = &nary_chains[&id.0];
                    // Feeder nodes: the bottom join's two inputs, then
                    // every later join's right input, in join order.
                    let fp = plan.predecessors(chain[0]);
                    let mut group_nodes = vec![fp[0], fp[1]];
                    for j in chain.iter().skip(1) {
                        group_nodes.push(plan.predecessors(*j)[1]);
                    }
                    let groups: Vec<Vec<CompositeTuple>> = group_nodes
                        .iter()
                        .map(|g| hand_over(&mut outputs, *g))
                        .collect();
                    let any_deg = group_nodes.iter().any(|g| node_degraded[g.0]);
                    let n_in = groups.iter().map(Vec::len).sum();
                    // Per-stage parameters, identical to what each
                    // unfused join would have used.
                    let mut params = Vec::with_capacity(chain.len());
                    for j in chain {
                        let jp = plan.predecessors(*j);
                        let PlanNode::ParallelJoin(js) = plan.node(*j)? else {
                            unreachable!("fusion chains hold join nodes only");
                        };
                        let preds_j: Vec<ResolvedPredicate> = js
                            .predicates
                            .iter()
                            .cloned()
                            .map(ResolvedPredicate::Join)
                            .collect();
                        params.push((
                            preds_j,
                            js.invocation,
                            js.completion,
                            branch_step_chunks(plan, registry, jp[0]),
                            branch_chunk_size(plan, registry, jp[0]),
                            branch_chunk_size(plan, registry, jp[1]),
                        ));
                    }
                    // Degraded inputs keep the cascade's per-stage
                    // pass-through semantics; the kernel only fuses
                    // clean runs.
                    let fused = if any_deg {
                        None
                    } else {
                        let stages: Vec<NaryStage<'_>> = params
                            .iter()
                            .map(|(p, inv, comp, h, lc, rc)| NaryStage {
                                predicates: p,
                                invocation: *inv,
                                completion: *comp,
                                h: *h,
                                k: options.join_k,
                                left_chunk: *lc,
                                right_chunk: *rc,
                            })
                            .collect();
                        let nj = NaryJoin {
                            schemas: &schemas,
                            tile_prune: options.join_index.tile_prune,
                            pool: exec_pool.clone(),
                        };
                        nj.run(&groups, &stages)?
                    };
                    match fused {
                        Some(out) => {
                            join_stats.merge(&out.stats);
                            (n_in, out.results, 0, 0.0, false)
                        }
                        None => {
                            // Ineligible plan: run the byte-identical
                            // binary cascade the fusion replaced.
                            let mut groups = groups.into_iter();
                            let mut cur = groups.next().expect("a chain has two feeders");
                            let mut cur_deg = node_degraded[group_nodes[0].0];
                            for ((p, inv, comp, h, lc, rc), (gi, right)) in
                                params.iter().zip(groups.enumerate())
                            {
                                let right_deg = node_degraded[group_nodes[gi + 1].0];
                                let exec = seco_join::ParallelJoinExecutor {
                                    predicates: p,
                                    schemas: &schemas,
                                    invocation: *inv,
                                    completion: *comp,
                                    h: *h,
                                    k: options.join_k,
                                    options: options.join_index,
                                    columnar: options.columnar,
                                    pool: exec_pool.clone(),
                                };
                                let mut sl = seco_join::executor::MemoryStream::new(cur, *lc);
                                let mut sr = seco_join::executor::MemoryStream::new(right, *rc);
                                let outcome = if degrade {
                                    exec.run_with_degradation(&mut sl, &mut sr, cur_deg, right_deg)?
                                } else {
                                    exec.run(&mut sl, &mut sr)?
                                };
                                join_stats.merge(&outcome.stats);
                                cur = outcome.results;
                                cur_deg = cur_deg || right_deg;
                            }
                            (n_in, cur, 0, 0.0, cur_deg)
                        }
                    }
                }
                PlanNode::ParallelJoin(spec) => {
                    let left = hand_over(&mut outputs, preds_nodes[0]);
                    let right = hand_over(&mut outputs, preds_nodes[1]);
                    let left_deg = node_degraded[preds_nodes[0].0];
                    let right_deg = node_degraded[preds_nodes[1].0];
                    let n_in = left.len() + right.len();
                    let candidate_pairs = (left.len() * right.len()) as u64;
                    // Chunk the branch materializations at the chunk
                    // size of their source service when identifiable.
                    let cl = branch_chunk_size(plan, registry, preds_nodes[0]);
                    let cr = branch_chunk_size(plan, registry, preds_nodes[1]);
                    let h = branch_step_chunks(plan, registry, preds_nodes[0]);
                    let join_predicates: Vec<ResolvedPredicate> = spec
                        .predicates
                        .iter()
                        .cloned()
                        .map(ResolvedPredicate::Join)
                        .collect();
                    let exec = seco_join::ParallelJoinExecutor {
                        predicates: &join_predicates,
                        schemas: &schemas,
                        invocation: spec.invocation,
                        completion: spec.completion,
                        h,
                        k: options.join_k,
                        options: options.join_index,
                        columnar: options.columnar,
                        pool: exec_pool.clone(),
                    };
                    let rank = options.rank_join
                        && options.join_k > 0
                        && !(degrade && (left_deg || right_deg));
                    let outcome = if rank {
                        // Rank join needs score-sorted streams; branch
                        // materializations arrive in emission order.
                        let mut left = left;
                        let mut right = right;
                        left.sort_by(score_order);
                        right.sort_by(score_order);
                        let mut sl = seco_join::executor::MemoryStream::new(left, cl);
                        let mut sr = seco_join::executor::MemoryStream::new(right, cr);
                        RankJoin {
                            join: exec,
                            space: None,
                        }
                        .run(&mut sl, &mut sr)?
                    } else {
                        let mut sl = seco_join::executor::MemoryStream::new(left, cl);
                        let mut sr = seco_join::executor::MemoryStream::new(right, cr);
                        if degrade {
                            exec.run_with_degradation(&mut sl, &mut sr, left_deg, right_deg)?
                        } else {
                            exec.run(&mut sl, &mut sr)?
                        }
                    };
                    join_stats.merge(&outcome.stats);
                    note_parallel_join(
                        plan,
                        registry,
                        id,
                        candidate_pairs,
                        outcome.results.len() as u64,
                    );
                    (n_in, outcome.results, 0, 0.0, left_deg || right_deg)
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
                PlanNode::ParallelJoin(_) if !nary_elided[id.0] => {
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

/// Feeds the observed selectivity of a parallel join back to the
/// registry: every query pattern connecting the two input branches is
/// credited with `pairs` candidate pairs and `matches` survivors.
pub(crate) fn note_parallel_join(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    id: NodeId,
    pairs: u64,
    matches: u64,
) {
    let preds = plan.predecessors(id);
    if preds.len() != 2 {
        return;
    }
    let left = plan.atoms_at(preds[0]);
    let right = plan.atoms_at(preds[1]);
    for p in &plan.query.patterns {
        let lr = left.contains(&p.from_atom) && right.contains(&p.to_atom);
        let rl = right.contains(&p.from_atom) && left.contains(&p.to_atom);
        if lr || rl {
            registry.note_join_observation(&p.pattern, pairs, matches);
        }
    }
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

/// Resolves a selection node's predicates against the query inputs.
pub(crate) fn resolve_selection_node(
    sel: &seco_plan::SelectionNode,
    query: &seco_query::Query,
) -> Result<Vec<ResolvedPredicate>, EngineError> {
    let mut out = Vec::with_capacity(sel.predicates.len() + sel.join_predicates.len());
    for p in &sel.predicates {
        out.push(ResolvedPredicate::Selection {
            left: p.left.clone(),
            op: p.op,
            value: p.right.resolve(&query.inputs).map_err(EngineError::Query)?,
        });
    }
    for j in &sel.join_predicates {
        out.push(ResolvedPredicate::Join(j.clone()));
    }
    Ok(out)
}

/// Applies a selection node's predicates to its input composites.
///
/// With `batch_eval` on, a uniform input (same atom signature on every
/// composite) is filtered by one vectorized kernel over columns
/// gathered from the composites; any failed precondition — or a value
/// only the scalar path can decide — falls back to the interpreted
/// per-composite check, which also reproduces its error behavior.
/// Selection nodes never counted `predicate_evals` (the pipe stages
/// already charged the predicates), so the kernel only moves the
/// columnar counters.
pub(crate) fn run_selection(
    preds: &[ResolvedPredicate],
    input: Vec<CompositeTuple>,
    schemas: &SchemaMap<'_>,
    columnar: ColumnarOptions,
    stats: &mut JoinStats,
) -> Result<Vec<CompositeTuple>, EngineError> {
    if columnar.batch_eval && input.len() > 1 {
        let uniform = input.iter().all(|c| c.atoms == input[0].atoms);
        if uniform {
            if let Some(plan) = CompiledPredicates::compile(preds, schemas)
                .and_then(|c| c.batch_plan(&[], &input[0].atoms))
            {
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
    }
    let mut kept = Vec::new();
    for c in input {
        if satisfies_available(preds, &c, schemas)? {
            kept.push(c);
        }
    }
    Ok(kept)
}

/// Finds the left-deep chains of parallel joins eligible for n-ary
/// fusion. A join is *absorbable* when its only consumer is another
/// parallel join taking it as the **left** input — then the chain's top
/// join can replay every stage in one pass. Returns per-node elision
/// flags and, for each chain top, the chain's join nodes bottom-up
/// (top included).
#[allow(clippy::type_complexity)]
pub(crate) fn fusion_chains(
    plan: &QueryPlan,
) -> Result<(Vec<bool>, BTreeMap<usize, Vec<NodeId>>), EngineError> {
    let mut succs: Vec<Vec<NodeId>> = vec![Vec::new(); plan.len()];
    for (from, to) in plan.edges() {
        succs[from.0].push(*to);
    }
    let is_join = |id: NodeId| matches!(plan.node(id), Ok(PlanNode::ParallelJoin(_)));
    let absorbable = |id: NodeId| {
        is_join(id)
            && succs[id.0].len() == 1
            && is_join(succs[id.0][0])
            && plan.predecessors(succs[id.0][0]).first() == Some(&id)
    };
    let mut elided = vec![false; plan.len()];
    let mut chains: BTreeMap<usize, Vec<NodeId>> = BTreeMap::new();
    for id in plan.topo_order()? {
        if !is_join(id) || absorbable(id) {
            continue;
        }
        let mut chain = vec![id];
        let mut cur = id;
        while let Some(&l) = plan.predecessors(cur).first() {
            if !absorbable(l) {
                break;
            }
            chain.push(l);
            cur = l;
        }
        if chain.len() >= 2 {
            chain.reverse();
            for j in &chain[..chain.len() - 1] {
                elided[j.0] = true;
            }
            chains.insert(id.0, chain);
        }
    }
    Ok((elided, chains))
}

/// Chunk size for re-chunking a branch: the chunk size of the nearest
/// service node upstream, defaulting to 10.
fn branch_chunk_size(plan: &QueryPlan, registry: &ServiceRegistry, from: NodeId) -> usize {
    let mut cursor = Some(from);
    while let Some(id) = cursor {
        if let Ok(PlanNode::Service(node)) = plan.node(id) {
            if let Ok(iface) = registry.interface(&node.service) {
                return iface.stats.chunk_size;
            }
        }
        cursor = plan.predecessors(id).first().copied();
    }
    10
}

/// Step parameter (chunks) of the nearest upstream service of a branch,
/// for nested-loop joins; 1 when the branch is not step-scored.
fn branch_step_chunks(plan: &QueryPlan, registry: &ServiceRegistry, from: NodeId) -> usize {
    let mut cursor = Some(from);
    while let Some(id) = cursor {
        if let Ok(PlanNode::Service(node)) = plan.node(id) {
            if let Ok(iface) = registry.interface(&node.service) {
                return iface.decay.step_chunks().unwrap_or(1);
            }
        }
        cursor = plan.predecessors(id).first().copied();
    }
    1
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
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

    /// The entertainment registry with Movie hard down; Theatre and
    /// Restaurant are healthy.
    pub(crate) fn registry_without_movie() -> ServiceRegistry {
        use seco_services::synthetic::{DomainMap, SyntheticService};
        use std::sync::Arc;
        let mut reg = seco_services::ServiceRegistry::new();
        reg.register_service(Arc::new(
            SyntheticService::new(entertainment::movie_interface(), DomainMap::new(), 1)
                .with_failure_every(1),
        ))
        .unwrap();
        reg.register_service(Arc::new(SyntheticService::new(
            entertainment::theatre_interface(),
            DomainMap::new(),
            2,
        )))
        .unwrap();
        reg.register_service(Arc::new(SyntheticService::new(
            entertainment::restaurant_interface(),
            DomainMap::new(),
            3,
        )))
        .unwrap();
        reg.register_pattern(entertainment::shows_pattern())
            .unwrap();
        reg.register_pattern(entertainment::dinner_place_pattern())
            .unwrap();
        reg
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

    /// The Fig. 2 diamond over `reg`: Conference feeds both Flight and
    /// Hotel, whose branches meet in a parallel join.
    pub(crate) fn diamond_plan(reg: &ServiceRegistry) -> QueryPlan {
        use seco_model::{Comparator, Value};
        use seco_plan::{Completion, Invocation, JoinSpec, PlanNode, QueryPlan, ServiceNode};
        use seco_query::QueryBuilder;
        let q = QueryBuilder::new()
            .atom("C", "Conference1")
            .atom("F", "Flight1")
            .atom("H", "Hotel1")
            .pattern("ReachedBy", "C", "F")
            .pattern("StayAt", "C", "H")
            .pattern("SameTrip", "F", "H")
            .select_const("C", "Topic", Comparator::Eq, Value::text("ai"))
            .k(5)
            .build()
            .unwrap();
        let joins = q.expanded_joins(reg).unwrap();
        let same_trip: Vec<_> = joins
            .iter()
            .filter(|j| j.connects("F", "H"))
            .cloned()
            .collect();
        let mut p = QueryPlan::new(q);
        let c = p.add(PlanNode::Service(ServiceNode::new("C", "Conference1")));
        let f = p.add(PlanNode::Service(ServiceNode::new("F", "Flight1")));
        let h = p.add(PlanNode::Service(ServiceNode::new("H", "Hotel1")));
        let j = p.add(PlanNode::ParallelJoin(JoinSpec {
            invocation: Invocation::merge_scan_even(),
            completion: Completion::Triangular,
            predicates: same_trip,
            selectivity: 1.0,
        }));
        p.connect(p.input(), c).unwrap();
        p.connect(c, f).unwrap();
        p.connect(c, h).unwrap();
        p.connect(f, j).unwrap();
        p.connect(h, j).unwrap();
        p.connect(j, p.output()).unwrap();
        p
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

    /// The travel registry of the diamond with Flight hard down.
    pub(crate) fn travel_without_flight() -> ServiceRegistry {
        use seco_services::domains::travel;
        use seco_services::synthetic::{DomainMap, FaultProfile, SyntheticService};
        use std::sync::Arc;
        let mut reg = ServiceRegistry::new();
        let city = seco_services::ValueDomain::new("city", 12);
        let conference = DomainMap::new().with(seco_model::AttributePath::atomic("City"), city);
        for service in [
            SyntheticService::new(travel::conference_interface(), conference, 5 ^ 0x11),
            SyntheticService::new(travel::flight_interface(), DomainMap::new(), 5 ^ 0x13)
                .with_fault_profile(FaultProfile {
                    outage: Some((0, u64::MAX)),
                    ..FaultProfile::none()
                }),
            SyntheticService::new(travel::hotel_interface(), DomainMap::new(), 5 ^ 0x14),
        ] {
            reg.register_service(Arc::new(service)).unwrap();
        }
        reg.register_pattern(travel::reached_by_pattern()).unwrap();
        reg.register_pattern(travel::stay_at_pattern()).unwrap();
        reg.register_pattern(travel::same_trip_pattern()).unwrap();
        reg
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
            for (nary, adaptive, degrade) in [
                (false, false, false),
                (true, false, false),
                (false, true, false),
                (true, true, false),
                (false, false, true),
                (true, true, true),
            ] {
                if *downed && !degrade {
                    continue;
                }
                let mut config = EngineConfig::default()
                    .join_k(50)
                    .nary_join(nary)
                    .adaptive(adaptive)
                    .adaptive_metric(CostMetric::ExecutionTime);
                if degrade {
                    config = config.degrade();
                }
                let moving = walk(scenario, config, false);
                let copying = walk(scenario, config, true);
                let at = format!("{name}: nary={nary} adaptive={adaptive} degrade={degrade}");
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
