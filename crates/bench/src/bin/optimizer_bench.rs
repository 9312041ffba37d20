//! `optimizer_bench` — benchmarks of the parallel branch-and-bound
//! optimizer (shared-incumbent search, incremental annotation, plan
//! cache), emitting `results/BENCH_optimizer.json`.
//!
//! Usage:
//!   cargo run --release -p seco-bench --bin optimizer_bench            # full  -> results/BENCH_optimizer.json
//!   cargo run --release -p seco-bench --bin optimizer_bench -- --smoke # CI    -> target/smoke/BENCH_optimizer.json
//!
//! Three benchmarks over the chapter's three-service E10 running
//! example (Movie ⋈ Theatre ⋈ Restaurant):
//!
//! * **parallel-scaling** — optimization wall time at 1/2/4/8 workers
//!   with incremental annotation, against the pre-change baseline
//!   (serial search, full re-annotation per fetch trial). Every
//!   configuration must produce a byte-identical winner for all five
//!   cost metrics; the headline speedup compares 4 workers +
//!   incremental annotation end-to-end against the baseline (on a
//!   single-core host the win is algorithmic — the thread fan-out
//!   itself cannot beat serial there, so `host_cpus` is recorded
//!   alongside);
//! * **delta-annotation** — full-annotation counts of the legacy
//!   phase 3 vs the incremental annotator (greedy heuristic, where
//!   every round probes each candidate), checking the ≥5× reduction;
//! * **plan-cache** — cold optimization vs warm fingerprint hits.

use std::sync::Arc;
use std::time::Instant;

use seco_optimizer::{CostMetric, Optimizer, Phase3Heuristic, PlanCache};
use seco_query::builder::running_example;
use seco_query::Query;
use seco_services::domains::entertainment;
use seco_services::ServiceRegistry;

type DynError = Box<dyn std::error::Error>;

fn e10() -> Result<(ServiceRegistry, Query), DynError> {
    let registry = entertainment::build_registry(1)?;
    let query = running_example();
    Ok((registry, query))
}

/// An optimizer in this PR's default configuration (incremental
/// annotation) with the greedy phase-3 heuristic, which exercises the
/// annotation path hardest.
fn optimizer(registry: &ServiceRegistry, workers: usize, incremental: bool) -> Optimizer<'_> {
    let mut opt = Optimizer::new(registry, CostMetric::RequestCount);
    opt.heuristics.phase3 = Phase3Heuristic::Greedy;
    opt.workers = workers;
    opt.incremental = incremental;
    opt
}

fn time_repeats<F: FnMut() -> Result<(), DynError>>(
    reps: usize,
    mut f: F,
) -> Result<f64, DynError> {
    let start = Instant::now();
    for _ in 0..reps {
        f()?;
    }
    Ok(start.elapsed().as_secs_f64() * 1e3)
}

/// Fastest single run out of `reps` — the standard estimator of the
/// true cost on a noisy shared host (outliers are scheduler
/// interference, never genuine speed).
fn time_best_of<F: FnMut() -> Result<(), DynError>>(
    reps: usize,
    mut f: F,
) -> Result<f64, DynError> {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f()?;
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(best)
}

/// Wall time across worker counts + the byte-identity check.
fn bench_parallel_scaling(reps: usize) -> Result<serde_json::Value, DynError> {
    let (registry, mut query) = e10()?;

    // Determinism first: every metric, every worker count, one winner.
    for metric in CostMetric::all() {
        let mut reference: Option<(u64, String)> = None;
        for workers in [1usize, 2, 4, 8] {
            let mut opt = Optimizer::new(&registry, metric);
            opt.workers = workers;
            let best = opt.optimize(&query)?;
            let got = (best.cost.to_bits(), best.plan.canonical_key());
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(
                    &got, want,
                    "{metric} workers={workers}: winner must be byte-identical"
                ),
            }
        }
    }

    // Timed runs ask for the top 80 — a deep result page that gives
    // phase 3 enough increment rounds to dominate planning time.
    query.k = 80;

    // Pre-change baseline: serial search, full re-annotation phase 3.
    let baseline_ms = time_best_of(reps, || {
        optimizer(&registry, 1, false).optimize(&query)?;
        Ok(())
    })?;

    let mut walls: Vec<(usize, f64)> = Vec::new();
    let mut parallel4_ms = f64::NAN;
    for workers in [1usize, 2, 4, 8] {
        let ms = time_best_of(reps, || {
            optimizer(&registry, workers, true).optimize(&query)?;
            Ok(())
        })?;
        if workers == 4 {
            parallel4_ms = ms;
        }
        walls.push((workers, ms));
    }

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let speedup = baseline_ms / parallel4_ms;
    let walls_str = walls
        .iter()
        .map(|(w, ms)| format!("w={w}: {ms:.2}"))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "parallel-scaling (best of {reps} reps): baseline (serial, full \
         annotation) {baseline_ms:.2} ms/opt; incremental {walls_str} ms/opt; \
         4-worker end-to-end speedup {speedup:.1}x (host has {host_cpus} cpu)"
    );
    assert!(
        speedup >= 2.0,
        "end-to-end speedup at 4 workers must be >= 2x, got {speedup:.2}x"
    );
    Ok(serde_json::json!({
        "reps": reps,
        "timing": "best-of-reps per configuration",
        "baseline_serial_full_ms_per_opt": baseline_ms,
        "incremental_ms_per_opt": {
            "workers_1": walls[0].1,
            "workers_2": walls[1].1,
            "workers_4": walls[2].1,
            "workers_8": walls[3].1,
        },
        "speedup_at_4_workers_vs_baseline": speedup,
        "host_cpus": host_cpus,
        "note": "winner byte-identical across workers for all 5 metrics; \
                 on a 1-cpu host thread fan-out cannot add wall-clock, \
                 the speedup is the incremental-annotation win",
        "byte_identical_across_workers": true,
    }))
}

/// Full vs incremental annotation work (counters, not wall time).
fn bench_delta_annotation() -> Result<serde_json::Value, DynError> {
    let (registry, query) = e10()?;
    let mut out: Vec<serde_json::Value> = Vec::new();
    for (label, k) in [("k10", 10usize), ("k50", 50)] {
        let mut q = query.clone();
        q.k = k;
        let full = optimizer(&registry, 1, false).optimize(&q)?;
        let inc = optimizer(&registry, 1, true).optimize(&q)?;
        assert_eq!(
            full.cost.to_bits(),
            inc.cost.to_bits(),
            "{label}: both annotation modes must pick the same winner"
        );
        let ratio = full.stats.annotate_full as f64 / inc.stats.annotate_full.max(1) as f64;
        println!(
            "delta-annotation {label}: full mode {} full annotations; incremental \
             {} full + {} delta ({} memo hits) — {ratio:.1}x fewer full annotations",
            full.stats.annotate_full,
            inc.stats.annotate_full,
            inc.stats.annotate_delta,
            inc.stats.memo_hits,
        );
        assert!(
            ratio >= 5.0,
            "{label}: delta annotation must cut full annotations >= 5x, got {ratio:.1}x"
        );
        out.push(serde_json::json!({
            "workload": label,
            "full_mode_annotate_full": full.stats.annotate_full,
            "incremental_annotate_full": inc.stats.annotate_full,
            "incremental_annotate_delta": inc.stats.annotate_delta,
            "incremental_memo_hits": inc.stats.memo_hits,
            "full_annotation_reduction": ratio,
        }));
    }
    Ok(serde_json::json!(out))
}

/// Cold optimization vs warm plan-cache hits.
fn bench_plan_cache(warm_lookups: usize) -> Result<serde_json::Value, DynError> {
    let (registry, query) = e10()?;
    let cache = Arc::new(PlanCache::new());
    let mut opt = optimizer(&registry, 1, true);
    opt.cache = Some(Arc::clone(&cache));

    let start = Instant::now();
    let cold = opt.optimize(&query)?;
    let cold_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(cold.stats.cache_misses, 1);
    assert_eq!(cold.stats.cache_inserts, 1);

    let warm_ms = time_repeats(warm_lookups, || {
        let hit = opt.optimize(&query)?;
        assert_eq!(hit.stats.cache_hits, 1, "warm lookups must hit");
        assert_eq!(
            hit.cost.to_bits(),
            cold.cost.to_bits(),
            "cached winner must equal the searched one"
        );
        Ok(())
    })?;
    let warm_per = warm_ms / warm_lookups as f64;
    let speedup = cold_ms / warm_per;
    println!(
        "plan-cache: cold optimize {cold_ms:.2} ms; warm hit {warm_per:.4} ms \
         ({warm_lookups} lookups) — {speedup:.0}x"
    );
    assert!(
        speedup > 1.0,
        "a cache hit must be faster than planning from scratch"
    );
    Ok(serde_json::json!({
        "cold_ms": cold_ms,
        "warm_ms_per_lookup": warm_per,
        "warm_lookups": warm_lookups,
        "hit_speedup": speedup,
    }))
}

fn main() -> Result<(), DynError> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (reps, warm_lookups) = if smoke { (20, 200) } else { (200, 5_000) };
    println!(
        "optimizer_bench ({} mode)",
        if smoke { "smoke" } else { "full" }
    );

    let scaling = bench_parallel_scaling(reps)?;
    let delta = bench_delta_annotation()?;
    let cache = bench_plan_cache(warm_lookups)?;

    let report = serde_json::json!({
        "mode": if smoke { "smoke" } else { "full" },
        "workload": "E10 running example (Movie x Theatre x Restaurant), request-count metric, greedy phase 3",
        "parallel_scaling": scaling,
        "delta_annotation": delta,
        "plan_cache": cache,
    });
    seco_bench::write_report("optimizer", smoke, &report)?;
    Ok(())
}
