//! `adaptive_bench` — the adaptive re-optimization experiment,
//! emitting `results/BENCH_adaptive.json`.
//!
//! Usage:
//!   cargo run --release -p seco-bench --bin adaptive_bench            # full  -> results/BENCH_adaptive.json
//!   cargo run --release -p seco-bench --bin adaptive_bench -- --smoke # CI    -> target/smoke/BENCH_adaptive.json
//!
//! The workload is [`seco_bench::adaptive_registry`]: a hub whose
//! declared cardinality understates the truth by 10×, and a `Leaf` mart
//! with a cheap-per-call pipe access pattern (optimal under the lie)
//! and a bulk scan (optimal under the truth). Three configurations run
//! on the execution-time metric:
//!
//! * **informed** — optimizer and engine under the *true* statistics:
//!   the unbeatable reference (parallel scan plan, 150 virtual ms);
//! * **baseline** — optimizer misled, engine non-adaptive: stays on the
//!   bad pipe plan for the whole run (1220 virtual ms, ~8× worse);
//! * **adaptive** — optimizer misled, engine adaptive: the first hub
//!   stage observes 10× the estimated cardinality, promotes the
//!   observed statistics into the registry, re-plans the suffix
//!   mid-flight, and finishes on the scan plan.
//!
//! Asserted: the adaptive run converges to the informed optimizer's
//! plan (canonical keys equal), its virtual critical path is within
//! 1.2× of the informed run, the non-adaptive baseline is ≥ 2× worse,
//! and a post-run re-optimization on the (now promoted) registry also
//! lands on the informed plan.

use seco_bench::{adaptive_query, adaptive_registry};
use seco_engine::{execute_plan, EngineConfig};
use seco_optimizer::{optimize, CostMetric};

type DynError = Box<dyn std::error::Error>;

const SEED: u64 = 7;
const MISESTIMATE: f64 = 10.0;

fn main() -> Result<(), DynError> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!(
        "adaptive_bench ({} mode)",
        if smoke { "smoke" } else { "full" }
    );
    let query = adaptive_query();
    let metric = CostMetric::ExecutionTime;

    // Informed reference: true statistics end to end.
    let informed_reg = adaptive_registry(SEED, 1.0);
    let informed = optimize(&query, &informed_reg, metric)?;
    let informed_run = execute_plan(&informed.plan, &informed_reg, EngineConfig::default())?;
    assert!(!informed_run.results.is_empty(), "informed run must answer");

    // Baseline: misled optimizer, non-adaptive engine.
    let baseline_reg = adaptive_registry(SEED, MISESTIMATE);
    let misled = optimize(&query, &baseline_reg, metric)?;
    assert_ne!(
        misled.plan.canonical_key(),
        informed.plan.canonical_key(),
        "the 10x misestimate must change the winning plan"
    );
    let baseline_run = execute_plan(&misled.plan, &baseline_reg, EngineConfig::default())?;
    assert!(!baseline_run.results.is_empty(), "baseline run must answer");

    // Adaptive: the same misled plan on a fresh registry, engine
    // checkpoints on.
    let adaptive_reg = adaptive_registry(SEED, MISESTIMATE);
    let adaptive_cfg = EngineConfig::default()
        .adaptive(true)
        .adaptive_metric(metric);
    let adaptive_run = execute_plan(&misled.plan, &adaptive_reg, adaptive_cfg)?;
    assert!(!adaptive_run.results.is_empty(), "adaptive run must answer");
    assert!(
        adaptive_run.replans >= 1,
        "the deviation checkpoint must have re-planned"
    );
    let final_plan = adaptive_run
        .replanned
        .as_ref()
        .expect("a re-plan happened, so the final plan is recorded");
    let converged = final_plan.canonical_key() == informed.plan.canonical_key();
    assert!(
        converged,
        "adaptive must converge to the informed plan:\n  adaptive: {}\n  informed: {}",
        final_plan.canonical_key(),
        informed.plan.canonical_key()
    );

    let adaptive_ratio = adaptive_run.critical_ms / informed_run.critical_ms;
    let baseline_ratio = baseline_run.critical_ms / informed_run.critical_ms;
    assert!(
        adaptive_ratio <= 1.2,
        "adaptive must finish within 1.2x of informed, got {adaptive_ratio:.3}"
    );
    assert!(
        baseline_ratio >= 2.0,
        "the non-adaptive baseline must stay on the bad plan, got {baseline_ratio:.3}"
    );

    // The promoted statistics outlive the run: a cold re-optimization
    // on the once-misled registry now finds the informed plan.
    let reoptimized = optimize(&query, &adaptive_reg, metric)?;
    assert_eq!(
        reoptimized.plan.canonical_key(),
        informed.plan.canonical_key(),
        "post-run re-optimization must agree with the informed optimizer"
    );

    println!(
        "informed {:.0} ms | baseline {:.0} ms ({baseline_ratio:.2}x) | adaptive {:.0} ms ({adaptive_ratio:.2}x, {} replan(s), {} epoch invalidation(s))",
        informed_run.critical_ms,
        baseline_run.critical_ms,
        adaptive_run.critical_ms,
        adaptive_run.replans,
        adaptive_reg.epoch_invalidations(),
    );

    let report = serde_json::json!({
        "mode": if smoke { "smoke" } else { "full" },
        "workload": "hub (declared avg 2, true avg 20) x Leaf mart {pipe, scan}, execution-time metric, k=1",
        "misestimate": MISESTIMATE,
        "informed": {
            "plan": informed.plan.canonical_key(),
            "cost": informed.cost,
            "critical_ms": informed_run.critical_ms,
            "total_calls": informed_run.total_calls,
        },
        "baseline": {
            "plan": misled.plan.canonical_key(),
            "cost": misled.cost,
            "critical_ms": baseline_run.critical_ms,
            "total_calls": baseline_run.total_calls,
            "ratio_vs_informed": baseline_ratio,
        },
        "adaptive": {
            "initial_plan": misled.plan.canonical_key(),
            "final_plan": final_plan.canonical_key(),
            "critical_ms": adaptive_run.critical_ms,
            "total_calls": adaptive_run.total_calls,
            "replans": adaptive_run.replans,
            "epoch_invalidations": adaptive_reg.epoch_invalidations(),
            "ratio_vs_informed": adaptive_ratio,
            "converged": converged,
        },
    });
    seco_bench::write_report("adaptive", smoke, &report)?;
    Ok(())
}
