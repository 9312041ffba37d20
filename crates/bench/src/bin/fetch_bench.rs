//! `fetch_bench` — benchmarks of the fetch layer (sharded response
//! cache, request coalescing, speculative chunk prefetch), emitting the
//! `results/BENCH_fetch.json` baseline that seeds the perf trajectory.
//!
//! Usage:
//!   cargo run --release -p seco-bench --bin fetch_bench            # full  -> results/BENCH_fetch.json
//!   cargo run --release -p seco-bench --bin fetch_bench -- --smoke # CI    -> target/smoke/BENCH_fetch.json
//!
//! Four benchmarks:
//!
//! * **call-reduction** — the e21-style faulted chain workload, with
//!   and without the sharded cache: underlying service calls must drop
//!   by ≥ 30% (chains re-ask the same bound questions, §5.3);
//! * **shard-contention** — 8 threads hammering a hot cache at 1 shard
//!   vs 8 shards: wall time per hit under contention;
//! * **coalescing** — 8 threads racing one cold key on a slow service:
//!   exactly one underlying call reaches the service;
//! * **prefetch** — the deterministic executor with speculation on and
//!   off: byte-identical results, counters recorded; plus a pipelined
//!   8-service run exercising the batched output path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use seco_bench::{chain_scenario, chain_scenario_with_faults, link_service};
use seco_engine::{execute_parallel, execute_plan, EngineConfig, FailureMode, FetchOptions};
use seco_model::{AttributePath, ScoreDecay, ServiceInterface, Value};
use seco_optimizer::{optimize, CostMetric};
use seco_services::cache::CachingService;
use seco_services::invocation::{ChunkResponse, Request, Service};
use seco_services::synthetic::FaultProfile;
use seco_services::{ClientConfig, ServiceError};

type DynError = Box<dyn std::error::Error>;

/// The e21-style transient-fault profile: every service flakes, the
/// client's retries recover every fault, and the fetch layer's job is
/// to stop the retry storm from multiplying I/O.
fn flaky() -> FaultProfile {
    FaultProfile {
        seed: 21,
        transient_rate: 0.25,
        ..FaultProfile::none()
    }
}

fn client() -> ClientConfig {
    ClientConfig {
        retries: 8,
        seed: 9,
        ..Default::default()
    }
}

/// Chain workload, cache on/off: underlying calls and issued requests.
fn bench_call_reduction(n: usize) -> Result<serde_json::Value, DynError> {
    let run = |fetch: FetchOptions| -> Result<(u64, usize, usize, u64, u64), DynError> {
        let (reg, query) = chain_scenario_with_faults(n, 7, flaky());
        let best = optimize(&query, &reg, CostMetric::RequestCount)?;
        reg.reset_stats();
        let opts = EngineConfig {
            failure_mode: FailureMode::Degrade,
            client: Some(client()),
            fetch,
            ..Default::default()
        };
        let out = execute_plan(&best.plan, &reg, opts)?;
        let stats = reg.total_stats();
        Ok((
            stats.calls,
            out.total_calls,
            out.results.len(),
            stats.cache_hits,
            stats.retries,
        ))
    };
    let (base_calls, base_issued, base_results, _, base_retries) = run(FetchOptions::default())?;
    let (cached_calls, cached_issued, cached_results, hits, cached_retries) =
        run(FetchOptions::cached(8))?;
    let reduction = 100.0 * (base_calls as f64 - cached_calls as f64) / base_calls as f64;
    println!(
        "call-reduction (chain n={n}, flaky): {base_calls} -> {cached_calls} underlying calls \
         ({reduction:.1}% fewer), {hits} hits, retries {base_retries} -> {cached_retries}"
    );
    assert_eq!(
        base_results, cached_results,
        "the cache must not change the answer"
    );
    Ok(serde_json::json!({
        "chain_n": n,
        "baseline_underlying_calls": base_calls,
        "cached_underlying_calls": cached_calls,
        "reduction_pct": reduction,
        "meets_30pct_target": reduction >= 30.0,
        "baseline_issued_requests": base_issued,
        "cached_issued_requests": cached_issued,
        "cache_hits": hits,
        "baseline_retries": base_retries,
        "cached_retries": cached_retries,
        "results": base_results,
    }))
}

/// A service whose calls really block, to open a coalescing window; at
/// `delay_ms: 0` it is a zero-cost call counter for contention runs.
struct SlowService {
    iface: ServiceInterface,
    calls: AtomicU64,
    delay_ms: u64,
}

impl Service for SlowService {
    fn interface(&self) -> &ServiceInterface {
        &self.iface
    }
    fn fetch(&self, _request: &Request) -> Result<ChunkResponse, ServiceError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        if self.delay_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(self.delay_ms));
        }
        Ok(ChunkResponse::empty(self.delay_ms as f64))
    }
}

/// 8 threads hammering pre-warmed keys: wall time and contended lock
/// acquisitions at 1 shard (one global lock, the old layout) vs 8
/// shards. The service returns empty chunks so the shard lock, not
/// tuple cloning, dominates; the contended-acquisition count is the
/// host-independent signal (on a single-core box the wall times only
/// measure overhead, since threads never truly run in parallel).
fn bench_shard_contention(iters: usize) -> Result<serde_json::Value, DynError> {
    const THREADS: usize = 8;
    const KEYS: usize = 64;
    let time_shards = |shards: usize| -> Result<(f64, u64), DynError> {
        let inner = Arc::new(SlowService {
            iface: link_service("Hot1", 20.0, 5, 1.0, ScoreDecay::Linear),
            calls: AtomicU64::new(0),
            delay_ms: 0,
        });
        let cache = Arc::new(CachingService::sharded(inner, 4096, shards));
        // Integer keys keep the per-call hash cheap, so the shard lock
        // is the dominant cost being measured.
        let reqs: Vec<Request> = (0..KEYS)
            .map(|i| Request::unbound().bind(AttributePath::atomic("Key"), Value::Int(i as i64)))
            .collect();
        for r in &reqs {
            cache.fetch(r)?;
        }
        let barrier = Barrier::new(THREADS);
        let start = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let cache = &cache;
                let reqs = &reqs;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    for i in 0..iters {
                        let _ = cache.fetch(&reqs[(t + i) % KEYS]);
                    }
                });
            }
        });
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(cache.hits(), (THREADS * iters + KEYS) as u64 - KEYS as u64);
        Ok((elapsed, cache.lock_contentions()))
    };
    let (one_ms, one_contended) = time_shards(1)?;
    let (eight_ms, eight_contended) = time_shards(8)?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "shard-contention ({THREADS} threads x {iters} hits, {cores} core(s)): \
         1 shard {one_ms:.1} ms / {one_contended} contended, \
         8 shards {eight_ms:.1} ms / {eight_contended} contended"
    );
    Ok(serde_json::json!({
        "threads": THREADS,
        "hits_per_thread": iters,
        "host_cores": cores,
        "one_shard_ms": one_ms,
        "eight_shards_ms": eight_ms,
        "one_shard_contended_acquisitions": one_contended,
        "eight_shards_contended_acquisitions": eight_contended,
        "speedup": one_ms / eight_ms,
    }))
}

/// 8 threads racing one cold key: singleflight admits one call.
fn bench_coalescing() -> Result<serde_json::Value, DynError> {
    const THREADS: usize = 8;
    let slow = Arc::new(SlowService {
        iface: link_service("Slow1", 20.0, 5, 30.0, ScoreDecay::Linear),
        calls: AtomicU64::new(0),
        delay_ms: 30,
    });
    let cache = Arc::new(CachingService::sharded(slow.clone(), 64, 8));
    let req = Request::unbound().bind(AttributePath::atomic("Key"), Value::text("contested"));
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let cache = &cache;
            let req = &req;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                cache.fetch(req).unwrap();
            });
        }
    });
    let underlying = slow.calls.load(Ordering::SeqCst);
    println!(
        "coalescing ({THREADS} racing threads, 30 ms call): {underlying} underlying call(s), \
         {} coalesced, {} hits",
        cache.coalesced(),
        cache.hits()
    );
    assert_eq!(underlying, 1, "singleflight must admit exactly one call");
    Ok(serde_json::json!({
        "racing_threads": THREADS,
        "underlying_calls": underlying,
        "coalesced_waits": cache.coalesced(),
        "late_hits": cache.hits(),
    }))
}

/// Prefetch on/off under the deterministic executor (byte-identical
/// answers) and a pipelined 8-service run over the batched channels.
/// Bumps service nodes' chunk budgets (all atoms, or just `atom`): the
/// request-count optimizer budgets a single chunk per call, which
/// leaves speculation with nothing to run ahead of.
fn widen_fetches(plan: &mut seco_plan::QueryPlan, fetches: u32, atom: Option<&str>) {
    for id in plan.node_ids().collect::<Vec<_>>() {
        if let Ok(seco_plan::PlanNode::Service(s)) = plan.node_mut(id) {
            if atom.is_none_or(|a| s.atom == a) {
                s.fetches = fetches;
            }
        }
    }
}

fn bench_prefetch(n_parallel: usize) -> Result<serde_json::Value, DynError> {
    let (reg, query) = chain_scenario(4, 7);
    let best = optimize(&query, &reg, CostMetric::RequestCount)?;
    let mut plan = best.plan;
    widen_fetches(&mut plan, 3, None);
    let opts = |fetch: FetchOptions| EngineConfig {
        fetch,
        ..Default::default()
    };
    reg.reset_stats();
    let off = execute_plan(&plan, &reg, opts(FetchOptions::cached(8)))?;
    let calls_off = reg.total_stats().calls;
    reg.reset_stats();
    let on = execute_plan(&plan, &reg, opts(FetchOptions::cached(8).with_prefetch()))?;
    let stats_on = reg.total_stats();
    let identical = format!("{:?}", off.results) == format!("{:?}", on.results);
    println!(
        "prefetch (chain n=4): identical={identical}, {} prefetches, \
         underlying calls {calls_off} -> {}",
        stats_on.prefetches, stats_on.calls
    );
    assert!(identical, "prefetch must not change the answer");
    assert!(stats_on.prefetches > 0, "speculation must have triggered");

    // Pipelined executor, n services, batched output path.
    let (preg, pquery) = chain_scenario(n_parallel, 7);
    let pbest = optimize(&pquery, &preg, CostMetric::RequestCount)?;
    let mut pplan = pbest.plan;
    // Widening every stage of a deep chain multiplies intermediate
    // tuples exponentially; the head alone is enough to keep the
    // background prefetcher busy.
    widen_fetches(&mut pplan, 3, Some("A1"));
    let start = Instant::now();
    let seq = execute_plan(&pplan, &preg, opts(FetchOptions::cached(8)))?;
    let seq_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let par = execute_parallel(&pplan, &preg, opts(FetchOptions::cached(8).with_prefetch()))?;
    let par_ms = start.elapsed().as_secs_f64() * 1e3;
    println!(
        "pipelined (chain n={n_parallel}, batched channels): {} results in {par_ms:.1} ms \
         (sequential {seq_ms:.1} ms)",
        par.len()
    );
    assert_eq!(par.len(), seq.results.len(), "executors must agree");
    Ok(serde_json::json!({
        "deterministic_identical_with_prefetch": identical,
        "prefetches": stats_on.prefetches,
        "underlying_calls_prefetch_off": calls_off,
        "underlying_calls_prefetch_on": stats_on.calls,
        "parallel_chain_n": n_parallel,
        "parallel_results": par.len(),
        "parallel_wall_ms": par_ms,
        "sequential_wall_ms": seq_ms,
    }))
}

fn main() -> Result<(), DynError> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (chain_n, contention_iters, par_n) = if smoke {
        (3, 5_000, 4)
    } else {
        (4, 100_000, 6)
    };
    println!(
        "fetch_bench ({} mode)",
        if smoke { "smoke" } else { "full" }
    );
    let value = serde_json::json!({
        "mode": if smoke { "smoke" } else { "full" },
        "call_reduction": bench_call_reduction(chain_n)?,
        "shard_contention": bench_shard_contention(contention_iters)?,
        "coalescing": bench_coalescing()?,
        "prefetch": bench_prefetch(par_n)?,
    });
    seco_bench::write_report("fetch", smoke, &value)?;
    Ok(())
}
