//! The traced pass: per-layer numbers for one workload, all measured
//! from outside the program.
//!
//! One fresh process, after the same set-up as a measured round:
//!
//! 1. **in-process replay** of the first ops of stream 0 with a span
//!    per layer boundary ([`crate::trace`]);
//! 2. the same number of ops of stream 1 **over the socket from one
//!    client** — the p50 the budget is computed against, per-request
//!    p50s, bytes on the wire;
//! 3. `GET /healthz` round trips — the HTTP floor (1-3 alternate op by
//!    op, so host drift hits all three alike);
//! 4. a short **two-client window** like a measured round, for the
//!    counter deltas (`CallStats`, `ExecStats`, `/stats`) per op;
//! 5. **probes**: timing calls into public functions on the workload's
//!    own warmed state, for layer costs no op exposes on its own.
//!
//! Streams and indices are disjoint between the steps so that a
//! never-repeating workload never meets a constant twice.

use std::sync::Arc;
use std::time::{Duration, Instant};

use seco_engine::{
    execute_parallel_session, execute_plan, execute_plan_shared, EngineConfig, ResultSet,
    SharedState,
};
use seco_exec::ExecStats;
use seco_join::executor::MemoryStream;
use seco_join::ParallelJoinExecutor;
use seco_model::{AttributePath, Comparator, CompositeTuple, Symbol, Value};
use seco_optimizer::{Optimized, Optimizer};
use seco_plan::{annotate, AnnotationConfig, Completion, DeltaAnnotator, Invocation, PlanNode};
use seco_query::predicate::{ResolvedPredicate, SchemaMap};
use seco_query::{JoinPredicate, QualifiedPath, Query};
use seco_server::{render_rows, ServerState, Session};
use seco_services::{CachingService, Request, Service};

use crate::client::{find, json_u64, Client};
use crate::daemon::{run_op, warm_up, Daemon, StepSample};
use crate::oracle::Oracle;
use crate::round::{drive, Checked, Values};
use crate::stats::percentile;
use crate::trace::{self, Recorder, Span};
use crate::workload::{build_registry, Script, Spec, Step, PAGE};

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn p50(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).unwrap_or(0.0)
}

/// Median wall time of `work` over `reps` calls, in µs. `prepare` runs
/// off the clock before each call and hands `work` its input.
fn probe_us<I, O>(
    reps: usize,
    mut prepare: impl FnMut() -> I,
    mut work: impl FnMut(I) -> O,
) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let input = prepare();
            let start = Instant::now();
            let out = work(std::hint::black_box(input));
            let took = start.elapsed();
            std::hint::black_box(out);
            us(took)
        })
        .collect();
    p50(&samples)
}

/// Per-op totals (µs) of the spans named `name`, over the ops that have
/// one; `self_time` picks self time over duration.
fn per_op_us(spans: &[Span], selfs: &[u64], name: &str, ops: usize, self_time: bool) -> Vec<f64> {
    let mut totals = vec![0u64; ops];
    let mut seen = vec![false; ops];
    for (s, self_ns) in spans.iter().zip(selfs) {
        if s.name == name {
            totals[s.op_id] += if self_time { *self_ns } else { s.duration_ns() };
            seen[s.op_id] = true;
        }
    }
    totals
        .iter()
        .zip(seen)
        .filter(|(_, seen)| *seen)
        .map(|(ns, _)| *ns as f64 / 1e3)
        .collect()
}

/// In-process time of each op's timed requests (every `request.*` span
/// but the closing delete), µs.
fn inproc_op_us(spans: &[Span], ops: usize) -> Vec<f64> {
    let mut totals = vec![0u64; ops];
    for s in spans {
        if s.name.starts_with("request.") && s.name != "request.delete" {
            totals[s.op_id] += s.duration_ns();
        }
    }
    totals.iter().map(|ns| *ns as f64 / 1e3).collect()
}

/// `admitted`, `rejected`, and the calls charged to tenants, read from
/// the daemon's own `/stats` document.
fn stats_doc(state: &ServerState) -> (u64, u64, u64) {
    let doc = state.stats_json();
    let doc = doc.as_bytes();
    let tenants = find(doc, b"\"tenants\":[").map_or(&doc[..0], |at| &doc[at..]);
    (
        json_u64(doc, "admitted").unwrap_or(0),
        json_u64(doc, "rejected").unwrap_or(0),
        json_u64(tenants, "calls").unwrap_or(0),
    )
}

fn exec_stats(state: &ServerState) -> ExecStats {
    state
        .shared
        .exec_pool()
        .map(|p| p.stats())
        .expect("the daemon owns a pool")
}

/// The per-layer metrics of `spec` at `seed`. `seconds` scales the
/// two-client window; `ops` is the number of ops replayed and sent from
/// one client. The span trace is written to `trace_path`.
pub fn traced(
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    ops: usize,
    trace_path: &std::path::Path,
) -> Values {
    let daemon = Daemon::boot(spec, seed);
    let addr = daemon.addr();
    let state = daemon.state().clone();
    let mut oracle = Oracle::new(spec, seed);
    let mut checked = Checked::default();
    for (c, steps) in warm_up(spec, seed, addr).iter().enumerate() {
        checked.add(
            &mut oracle,
            spec.warmup_ops(seed, c as u64).into_iter(),
            steps,
        );
    }
    let script = spec.op(seed, 0, 0).steps;
    let timed_requests = script.iter().filter(|s| !matches!(s, Step::Delete)).count();

    // 1-3. Per op, back to back so that host drift hits all three
    // alike: the in-process replay (on a fresh thread, as the daemon
    // handles every connection on one), the socket op, the HTTP floor.
    let plan_entries_before = state.plan_cache.len();
    let recorder = Recorder::new();
    let mut client = Client::new(addr);
    let mut socket_steps: Vec<StepSample> = Vec::new();
    let mut floor_samples = Vec::with_capacity(ops);
    for i in 0..ops {
        std::thread::scope(|scope| {
            scope.spawn(|| trace::replay(&state, &recorder, i, &spec.op(seed, 0, i as u64)));
        });
        run_op(&mut client, &spec.op(seed, 1, i as u64), &mut socket_steps);
        if let Ok(reply) = client.request("GET", "/healthz", "") {
            floor_samples.push(us(reply.total));
        }
    }
    let spans = recorder.into_spans();
    let selfs = trace::self_times_ns(&spans);
    // Both streams met the plan cache: count misses over both.
    let plan_misses = state.plan_cache.len() - plan_entries_before;
    let floor_us = p50(&floor_samples);

    let mut socket = Checked::default();
    socket.add(
        &mut oracle,
        (0..ops as u64).map(|i| spec.op(seed, 1, i)),
        &socket_steps,
    );
    let socket_p50_us = p50(&socket.latency_ms) * 1e3;
    let step_p50_us = |want: fn(&Step) -> bool| {
        let samples: Vec<f64> = socket_steps
            .chunks(script.len())
            .flat_map(|op| script.iter().zip(op))
            .filter(|(step, _)| want(step))
            .map(|(_, s)| us(s.total))
            .collect();
        p50(&samples)
    };
    let wire_bytes: usize = socket_steps.iter().map(|s| s.wire_bytes).sum();
    let rows_delivered: u64 = socket_steps.iter().map(|s| s.seen.rows.count).sum();
    let combinations: u64 = socket_steps.iter().map(|s| s.seen.combinations).sum();

    // 4. Two clients, like a measured round, for the counter deltas.
    let calls_before = state.registry.total_stats();
    let exec_before = exec_stats(&state);
    let (admitted_before, rejected_before, charged_before) = stats_doc(&state);
    let (runs, _window) = drive(spec, seed, addr, seconds, ops as u64);
    let calls_after = state.registry.total_stats();
    let exec_after = exec_stats(&state);
    let (admitted_after, rejected_after, charged_after) = stats_doc(&state);
    let sessions_open_end = state.open_sessions();
    let interner = (Symbol::table_len(), Symbol::table_bytes());
    let window_ops: usize = runs.iter().map(|r| r.ops).sum();
    let mut window_combinations = 0u64;
    for (c, run) in runs.iter().enumerate() {
        let issued = (0..run.ops as u64).map(|i| spec.op(seed, c as u64, ops as u64 + i));
        checked.add(&mut oracle, issued, &run.steps);
        window_combinations += run.steps.iter().map(|s| s.seen.combinations).sum::<u64>();
    }
    let per_op = |x: f64| x / window_ops.max(1) as f64;
    let delta =
        |f: fn(&seco_services::CallStats) -> u64| (f(&calls_after) - f(&calls_before)) as f64;
    let calls = delta(|s| s.calls);
    let hits = delta(|s| s.cache_hits);
    let coalesced = delta(|s| s.coalesced);
    let predicate_evals = delta(|s| s.predicate_evals);
    let charged = (charged_after - charged_before) as f64;

    // 5. Probes on the workload's own warmed state.
    let query = spec.op(seed, 0, 0).query();
    let (best, _) = state.plan(&query).expect("planned during warm-up");
    let mut out = probes(spec, seed, &state, &query, &best, ops);

    let span_p50 = |name: &str| p50(&per_op_us(&spans, &selfs, name, ops, false));
    let inproc_p50_us = p50(&inproc_op_us(&spans, ops));
    let floor_total_us = floor_us * timed_requests as f64;

    let mut put = |name: &str, value: f64| {
        out.insert(name.to_owned(), value);
    };
    put("query.parse_us", span_p50("query.parse"));
    put(
        "optimizer.plan_cache_hit_ratio",
        1.0 - plan_misses as f64 / (2 * ops).max(1) as f64,
    );
    put(
        "optimizer.plan_cache_entries",
        state.plan_cache.len() as f64,
    );
    put("plan.nodes", best.plan.len() as f64);
    put(
        "services.hit_ratio",
        hits / (hits + calls + coalesced).max(1.0),
    );
    put("services.cache_hits_per_op", per_op(hits));
    put("services.coalesced_per_op", per_op(coalesced));
    put("services.tuples_per_op", per_op(delta(|s| s.tuples)));
    put(
        "services.bytes_cloned_per_op",
        per_op(delta(|s| s.bytes_cloned)),
    );
    put(
        "services.virtual_busy_ms_per_op",
        per_op(calls_after.busy_ms - calls_before.busy_ms),
    );
    put("service_calls_per_op", per_op(calls));
    put("join.predicate_evals_per_op", per_op(predicate_evals));
    put(
        "join.index_builds_per_op",
        per_op(delta(|s| s.index_builds)),
    );
    put("join.probes_per_op", per_op(delta(|s| s.probes)));
    put(
        "join.pairs_skipped_per_op",
        per_op(delta(|s| s.pairs_skipped)),
    );
    put("join.batch_evals_per_op", per_op(delta(|s| s.batch_evals)));
    put(
        "join.columns_scanned_per_op",
        per_op(delta(|s| s.columns_scanned)),
    );
    put(
        "join.rows_materialized_per_op",
        per_op(delta(|s| s.rows_materialized)),
    );
    put(
        "join.useful_ratio",
        window_combinations as f64 / predicate_evals.max(1.0),
    );
    put(
        "exec.morsels_per_op",
        per_op((exec_after.morsels - exec_before.morsels) as f64),
    );
    put(
        "exec.steals_per_op",
        per_op((exec_after.steals - exec_before.steals) as f64),
    );
    put(
        "exec.busy_ms_per_op",
        per_op((exec_after.busy_ms - exec_before.busy_ms) as f64),
    );
    put("exec.threads_alive", exec_after.threads_alive as f64);
    put("engine.execute_us", span_p50("engine.execute"));
    put(
        "engine.combinations_per_op",
        combinations as f64 / ops.max(1) as f64,
    );
    put(
        "engine.useful_ratio",
        rows_delivered as f64 / (combinations as f64).max(1.0),
    );
    put("server.http_floor_us", floor_us);
    put("server.session_open_us", span_p50("server.session_open"));
    put("server.render_us", span_p50("server.render"));
    put(
        "server.resp_bytes_per_op",
        wire_bytes as f64 / ops.max(1) as f64,
    );
    put(
        "server.op_query_p50_us",
        step_p50_us(|s| matches!(s, Step::Query { .. })),
    );
    put(
        "server.op_more_p50_us",
        step_p50_us(|s| matches!(s, Step::More(_))),
    );
    put(
        "server.op_rerank_p50_us",
        step_p50_us(|s| matches!(s, Step::Rerank(_))),
    );
    put(
        "server.op_expand_p50_us",
        step_p50_us(|s| matches!(s, Step::Expand(..))),
    );
    put(
        "server.op_delete_p50_us",
        step_p50_us(|s| matches!(s, Step::Delete)),
    );
    put("server.admitted", (admitted_after - admitted_before) as f64);
    put("server.rejected", (rejected_after - rejected_before) as f64);
    put("server.sessions_open_end", sessions_open_end as f64);
    put(
        "server.tenant_calls_overcount",
        if calls > 0.0 { charged / calls } else { 1.0 },
    );
    put("server.socket_p50_us", socket_p50_us);
    put("server.inproc_p50_us", inproc_p50_us);
    put(
        "server.socket_residual_us",
        socket_p50_us - inproc_p50_us - floor_total_us,
    );
    put(
        "server.budget_coverage",
        (inproc_p50_us + floor_total_us) / socket_p50_us.max(1e-9),
    );
    put("model.interner_symbols", interner.0 as f64);
    put("model.interner_bytes", interner.1 as f64);
    let attempted = checked.attempted + socket.attempted;
    let failed = checked.failed + socket.failed;
    put("failed_share", failed as f64 / attempted.max(1) as f64);
    put("attempted", attempted as f64);
    put("failed", failed as f64);

    // The budget, for the report: each span name's share of the op.
    let mut names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    for name in names.into_iter().filter(|n| *n != "op") {
        put(
            &format!("budget.self_us.{name}"),
            p50(&per_op_us(&spans, &selfs, name, ops, true)),
        );
    }

    daemon.stop();
    if let Some(dir) = trace_path.parent() {
        std::fs::create_dir_all(dir).expect("benchmark/out is writable");
    }
    std::fs::write(trace_path, trace::to_json(&spans).to_string()).expect("trace file is writable");
    out
}

/// Layer costs no op exposes on its own, probed on the warmed state.
fn probes(
    spec: &'static Spec,
    seed: u64,
    state: &Arc<ServerState>,
    query: &Query,
    best: &Optimized,
    ops: usize,
) -> Values {
    let mut out = Values::new();
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_owned(), value);
    };
    let registry = &state.registry;
    let pool = state.shared.exec_pool().cloned();
    let reps = ops.clamp(10, 200);

    // Optimizer: the daemon's planner configuration minus the cache.
    let cold = || {
        let mut optimizer = Optimizer::new(registry, state.config.metric);
        optimizer.workers = state.config.exec_workers;
        optimizer.pool = pool.clone();
        optimizer.optimize(query).expect("feasible")
    };
    let search = cold().stats;
    put("optimizer.topologies", search.topologies as f64);
    put("optimizer.instantiated", search.instantiated as f64);
    put("optimizer.pruned", search.pruned as f64);
    put("optimizer.annotate_full", search.annotate_full as f64);
    put("optimizer.annotate_delta", search.annotate_delta as f64);
    put("optimizer.memo_hits", search.memo_hits as f64);
    put(
        "optimizer.plan_cold_us",
        probe_us((reps / 10).max(5), || (), |()| cold()),
    );
    put(
        "optimizer.plan_cached_us",
        probe_us(reps, || (), |()| state.plan(query)),
    );

    // Plan: one full annotation, one delta propagation.
    let config = AnnotationConfig::default();
    put(
        "plan.annotate_us",
        probe_us(reps, || (), |()| annotate(&best.plan, registry, &config)),
    );
    let first_service = best
        .plan
        .node_ids()
        .find(|id| matches!(best.plan.node(*id), Ok(PlanNode::Service(_))))
        .expect("plans have a service node");
    let mut delta =
        DeltaAnnotator::new(&best.plan, registry, &config).expect("winning plan annotates");
    let base = delta.fetches(first_service).unwrap_or(1);
    let mut flip = false;
    let delta_us = probe_us(
        reps,
        || {
            flip = !flip;
            base + u32::from(flip)
        },
        |f| delta.set_fetches(first_service, f),
    );

    // Services: one CachingService invoke on an unseen, then warm, key.
    let first = registry
        .service(&best.plan.query.atoms[0].service)
        .expect("atom's service is registered");
    let cache = CachingService::sharded(first.clone(), 4096, 4);
    let key = AttributePath::atomic("Key");
    let requests: Vec<Request> = (0..reps)
        .map(|i| Request::unbound().bind(key.clone(), Value::text(format!("probe-{i}"))))
        .collect();
    let mut next = requests.iter();
    let fetch_miss_us = probe_us(
        reps,
        || next.next().expect("one request per rep"),
        |r| cache.fetch(r),
    );
    let mut next = requests.iter();
    let fetch_hit_us = probe_us(
        reps,
        || next.next().expect("one request per rep"),
        |r| cache.fetch(r),
    );

    // Join: the tile kernel over the first two services' chunks,
    // as many chunks as the plan fetches from each.
    put("join.tile_join_us", tile_join_us(state, best, reps));

    // Exec: a scope of 64 no-op tasks.
    let scope_overhead_us = pool.as_ref().map_or(0.0, |pool| {
        probe_us(
            reps,
            || (0..64).map(|i| move || i).collect::<Vec<_>>(),
            |tasks| pool.scope_run(tasks),
        )
    });

    // Engine: first run on an empty SharedState, and the ranking
    // of one full result.
    let parallel = spec.script == Script::StreamPar;
    let engine = state.config.engine;
    let execute_cold_us = probe_us(
        5,
        || SharedState::for_daemon(state.config.exec_workers),
        |fresh| {
            let n = if parallel {
                execute_parallel_session(&best.plan, registry, engine, Some(&fresh), None)
                    .map(|o| o.results.len())
            } else {
                execute_plan_shared(&best.plan, registry, engine, &fresh).map(|o| o.results.len())
            };
            fresh.shutdown();
            n
        },
    );
    let results = execute_plan_shared(&best.plan, registry, engine, &state.shared)
        .expect("synthetic services never fail")
        .results;
    let ranking = query.ranking.clone();
    let rank_us = probe_us(
        reps.min(50),
        || results.clone(),
        |r| ResultSet::new(r, ranking.clone()).top_k(query.k),
    );

    // The chapter's execution-time cost of the plan: the virtual
    // critical path of a one-shot run without caches.
    let fresh_registry = build_registry(spec, seed);
    let virtual_ms = execute_plan(&best.plan, &fresh_registry, EngineConfig::default())
        .expect("synthetic services never fail")
        .critical_ms;

    // Server: the session cursor, page 1 against page 5, and the
    // re-weighting and union steps.
    let session = || {
        Session::new(
            0,
            "probe".to_owned(),
            query.clone(),
            best.plan.clone(),
            ResultSet::new(results.clone(), ranking.clone()),
        )
    };
    let session_next_us = probe_us(reps.min(50), session, |mut s| {
        let page = s.next(PAGE);
        (s, page)
    });
    let session_next_page5_us = probe_us(
        reps.min(50),
        || {
            let mut s = session();
            for _ in 0..4 {
                s.next(PAGE);
            }
            s
        },
        |mut s| {
            let page = s.next(PAGE);
            (s, page)
        },
    );
    let arity = query.ranking.arity();
    let weights: Vec<f64> = (1..=arity)
        .map(|i| i as f64 / (arity * (arity + 1) / 2) as f64)
        .collect();
    let rerank_us = probe_us(reps.min(50), session, |mut s| {
        s.rerank(weights.clone()).expect("arity matches");
        let head = render_rows(&s.set.ranking, &s.head(query.k));
        (s, head)
    });
    let absorb_us = probe_us(
        reps.min(50),
        || (session(), results.clone()),
        |(mut s, again)| {
            let added = s.absorb(again);
            (s, added)
        },
    );

    put("plan.delta_us", delta_us);
    put("services.fetch_miss_us", fetch_miss_us);
    put("services.fetch_hit_us", fetch_hit_us);
    put("exec.scope_overhead_us", scope_overhead_us);
    put("engine.execute_cold_us", execute_cold_us);
    put("engine.rank_us", rank_us);
    put("engine.virtual_ms_per_op", virtual_ms);
    put("server.session_next_us", session_next_us);
    put("server.session_next_page5_us", session_next_page5_us);
    put("server.rerank_us", rerank_us);
    put("server.absorb_us", absorb_us);
    out
}

fn tile_join_us(state: &ServerState, best: &Optimized, reps: usize) -> f64 {
    let registry = &state.registry;
    let atoms = &best.plan.query.atoms;
    if atoms.len() < 2 {
        return 0.0;
    }
    let side = |i: usize| -> (Vec<CompositeTuple>, usize) {
        let atom = &atoms[i];
        let service = registry.service(&atom.service).expect("registered");
        let fetches = best
            .plan
            .service_node_of(&atom.alias)
            .and_then(|id| match best.plan.node(id) {
                Ok(PlanNode::Service(s)) => Some(s.fetches as usize),
                _ => None,
            })
            .unwrap_or(1);
        let request = Request::unbound().bind(
            AttributePath::atomic("Key"),
            Value::text(format!("tile-{i}")),
        );
        let mut composites = Vec::new();
        for chunk in 0..fetches {
            let resp = service
                .fetch(&request.at_chunk(chunk))
                .expect("synthetic services never fail");
            composites.extend(
                resp.tuples()
                    .iter()
                    .map(|t| CompositeTuple::single(atom.alias.as_str(), t.clone())),
            );
        }
        (composites, service.interface().stats.chunk_size)
    };
    let ((x, chunk_x), (y, chunk_y)) = (side(0), side(1));
    let predicates = vec![ResolvedPredicate::Join(JoinPredicate {
        left: QualifiedPath::new(atoms[0].alias.clone(), AttributePath::atomic("Link")),
        op: Comparator::Eq,
        right: QualifiedPath::new(atoms[1].alias.clone(), AttributePath::atomic("Link")),
    })];
    let interfaces: Vec<_> = atoms[..2]
        .iter()
        .map(|a| registry.interface(&a.service).expect("registered"))
        .collect();
    let schemas: SchemaMap<'_> = atoms[..2]
        .iter()
        .zip(&interfaces)
        .map(|(a, iface)| (a.alias.clone(), &iface.schema))
        .collect();
    let join = ParallelJoinExecutor {
        predicates: &predicates,
        schemas: &schemas,
        invocation: Invocation::merge_scan_even(),
        completion: Completion::Rectangular,
        h: 1,
        k: 0,
        options: state.config.engine.join_index,
        columnar: state.config.engine.columnar,
        pool: state.shared.exec_pool().cloned(),
    };
    probe_us(
        reps.min(50),
        || {
            (
                MemoryStream::new(x.clone(), chunk_x),
                MemoryStream::new(y.clone(), chunk_y),
            )
        },
        |(mut sx, mut sy)| join.run(&mut sx, &mut sy).map(|o| o.results.len()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;
    use crate::workload::spec;

    #[test]
    fn a_traced_pass_reports_every_per_layer_metric_and_writes_its_spans() {
        // The streamed deterministic path and the pipelined one; the
        // one-shot and liquid paths are replayed by the same code.
        for name in ["cold_plan_star", "par_stream_star"] {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("test-trace-{name}.json"));
            let values = traced(spec(name).expect("workload exists"), 5, 0.2, 3, &path);
            assert_eq!(values["failed"], 0.0, "{name}");
            for m in &PER_LAYER {
                assert!(
                    values.contains_key(m.name),
                    "{name}: {} is reported",
                    m.name
                );
            }
            assert!(values["server.budget_coverage"] > 0.0, "{name}");
            assert!(values["engine.execute_us"] > 0.0, "{name}");
            let spans = std::fs::read_to_string(&path).expect("trace written");
            assert!(spans.contains("\"name\":\"engine.execute\""), "{name}");
            assert!(spans.contains("\"self_ns\""), "{name}");
        }
    }

    #[test]
    fn the_planner_dominates_the_cold_plan_op_and_vanishes_from_the_warm_one() {
        let share = |name: &str| {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("test-share-{name}.json"));
            let values = traced(spec(name).expect("workload exists"), 6, 0.1, 10, &path);
            values["budget.self_us.optimizer.plan"] / values["server.inproc_p50_us"]
        };
        assert!(share("cold_plan_star") > 0.5);
        assert!(share("warm_chain") < 0.2);
    }
}
