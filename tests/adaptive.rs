//! Adaptive re-optimization, end to end: runtime observations bump the
//! registry statistics epoch, the epoch invalidates cached plans, and
//! the engine's mid-flight suffix re-plan converges to the plan an
//! informed optimizer would have chosen from the start.
//!
//! The first workload is [`seco_bench::adaptive_registry`]: a hub whose
//! declared cardinality understates the truth by 10×, plus a `Leaf`
//! mart with a cheap-per-call pipe access path (optimal under the lie)
//! and a bulk scan (optimal under the truth). The second workload,
//! [`seco_bench::join_drift_registry`], lies about a join pattern's
//! selectivity instead, so only a join's checkpoint can reveal it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use search_computing::prelude::*;
use seco_bench::{adaptive_query, adaptive_registry, join_drift_query, join_drift_registry};
use seco_optimizer::PlanCache;
use seco_services::DeviationPolicy;

const SEED: u64 = 7;
const MISESTIMATE: f64 = 10.0;

/// A promotion rolls the statistics epoch, so a cached plan stops
/// matching: the next optimization misses, re-searches under the
/// observed statistics, and re-caches under the new epoch.
#[test]
fn stats_epoch_bump_invalidates_the_plan_cache() {
    let registry = adaptive_registry(SEED, MISESTIMATE);
    let query = adaptive_query();
    let cache = Arc::new(PlanCache::new());
    let mut optimizer = Optimizer::new(&registry, CostMetric::ExecutionTime);
    optimizer.cache = Some(cache.clone());

    let first = optimizer.optimize(&query).expect("misled optimize");
    assert_eq!(first.stats.cache_hits, 0);
    assert_eq!(cache.len(), 1);
    let hit = optimizer.optimize(&query).expect("cached optimize");
    assert_eq!(hit.stats.cache_hits, 1, "same epoch must hit the cache");
    assert_eq!(hit.plan.canonical_key(), first.plan.canonical_key());

    // Run the bad plan, observe the hub's true cardinality, promote.
    let epoch_before = registry.stats_epoch();
    execute_plan(&first.plan, &registry, EngineConfig::default()).expect("baseline run");
    let promoted = registry.promote_deviations(&DeviationPolicy {
        threshold: 5.0,
        min_samples: 1,
    });
    assert!(
        promoted.iter().any(|s| s == "Hub1"),
        "the 10x-misdeclared hub must be promoted, got {promoted:?}"
    );
    assert_ne!(
        registry.stats_epoch(),
        epoch_before,
        "promotion rolls the epoch"
    );

    // The old entry is stale: miss, re-search, re-cache under the new
    // epoch — and the re-search lands on the scan plan. Nothing can ask
    // for the old epoch's entry again, so the roll dropped it.
    let replanned = optimizer.optimize(&query).expect("post-promotion optimize");
    assert_eq!(replanned.stats.cache_hits, 0, "stale epoch must miss");
    assert_eq!(replanned.stats.cache_inserts, 1);
    assert_eq!(
        (cache.len(), cache.evictions()),
        (1, 1),
        "the old epoch's entry is evicted, not kept beside the new one"
    );
    assert_ne!(
        replanned.plan.canonical_key(),
        first.plan.canonical_key(),
        "promoted statistics must change the winning plan"
    );

    let informed = optimize(
        &query,
        &adaptive_registry(SEED, 1.0),
        CostMetric::ExecutionTime,
    )
    .expect("informed optimize");
    assert_eq!(
        replanned.plan.canonical_key(),
        informed.plan.canonical_key()
    );
}

/// With no observation past the threshold, `replan_suffix` returns the
/// original plan byte-identically — no search, no replan counted.
#[test]
fn replan_suffix_without_deviation_is_byte_identical() {
    let registry = adaptive_registry(SEED, MISESTIMATE);
    let query = adaptive_query();
    let optimizer = Optimizer::new(&registry, CostMetric::ExecutionTime);
    let best = optimizer.optimize(&query).expect("optimize");

    let executed: BTreeSet<String> = ["H".to_owned()].into();
    let observed: BTreeMap<String, (f64, f64)> = [("H".to_owned(), (2.0, 2.0))].into();
    let same = optimizer
        .replan_suffix(&best.plan, &executed, &observed)
        .expect("replan_suffix");
    assert_eq!(
        same.plan, best.plan,
        "unchanged observations: byte-identical plan"
    );
    assert_eq!(same.stats.replans, 0);
    assert_eq!(same.stats.topologies, 0, "no search may have run");
}

/// The adaptive engine executing the misled plan re-plans mid-flight
/// and finishes on the informed plan at the informed cost.
#[test]
fn adaptive_engine_converges_to_the_informed_plan() {
    let query = adaptive_query();
    let metric = CostMetric::ExecutionTime;

    let informed_reg = adaptive_registry(SEED, 1.0);
    let informed = optimize(&query, &informed_reg, metric).expect("informed optimize");
    let informed_run =
        execute_plan(&informed.plan, &informed_reg, EngineConfig::default()).expect("informed run");

    let adaptive_reg = adaptive_registry(SEED, MISESTIMATE);
    let misled = optimize(&query, &adaptive_reg, metric).expect("misled optimize");
    assert_ne!(misled.plan.canonical_key(), informed.plan.canonical_key());

    let config = EngineConfig::default()
        .adaptive(true)
        .adaptive_metric(metric);
    let run = execute_plan(&misled.plan, &adaptive_reg, config).expect("adaptive run");
    assert!(run.replans >= 1, "the deviation checkpoint must fire");
    let final_plan = run.replanned.as_ref().expect("replanned plan recorded");
    assert_eq!(final_plan.canonical_key(), informed.plan.canonical_key());
    assert_eq!(
        run.results, informed_run.results,
        "same answers as the informed run"
    );
    assert!(
        run.critical_ms <= informed_run.critical_ms * 1.2,
        "adaptive {} ms vs informed {} ms",
        run.critical_ms,
        informed_run.critical_ms
    );
    assert!(adaptive_reg.epoch_invalidations() >= 1);

    // Left alone, the misled plan stays bad: the gap the re-plan closed
    // was there to close.
    let baseline_run = execute_plan(
        &misled.plan,
        &adaptive_registry(SEED, MISESTIMATE),
        EngineConfig::default(),
    )
    .expect("non-adaptive run");
    assert!(
        baseline_run.critical_ms >= informed_run.critical_ms * 2.0,
        "non-adaptive {} ms vs informed {} ms",
        baseline_run.critical_ms,
        informed_run.critical_ms
    );

    // The promoted statistics outlive the run: a cold re-optimization
    // on the once-misled registry now finds the informed plan.
    let reoptimized = optimize(&query, &adaptive_reg, metric).expect("re-optimize");
    assert_eq!(
        reoptimized.plan.canonical_key(),
        informed.plan.canonical_key()
    );
}

/// A pattern whose selectivity drifts is repaired mid-flight: the join's
/// checkpoint promotes the observed `Near` selectivity, and the suffix
/// re-planner — costing the incumbent under the promoted statistics, as
/// it costs every challenger — moves the leaf from the pipe (one call
/// per joined row) to the scan. The run lands on the plan a cold
/// re-optimization picks afterwards, at its virtual time.
#[test]
fn join_drift_replans_onto_the_cold_reoptimization() {
    let query = join_drift_query();
    let metric = CostMetric::ExecutionTime;
    let registry = join_drift_registry(SEED);
    let misled = optimize(&query, &registry, metric).expect("misled optimize");
    let config = EngineConfig::default()
        .adaptive(true)
        .adaptive_metric(metric);
    let run = execute_plan(&misled.plan, &registry, config).expect("adaptive run");
    assert!(registry.join_observations().contains_key("Near"));

    let cold = optimize(&query, &registry, metric).expect("cold re-optimize");
    assert_ne!(cold.plan.canonical_key(), misled.plan.canonical_key());
    assert_eq!(run.replans, 1, "the join checkpoint must re-plan once");
    let final_plan = run.replanned.as_ref().expect("replanned plan recorded");
    assert_eq!(final_plan.canonical_key(), cold.plan.canonical_key());

    let cold_run = execute_plan(
        &cold.plan,
        &join_drift_registry(SEED),
        EngineConfig::default(),
    )
    .expect("cold run");
    assert_eq!(
        run.results, cold_run.results,
        "same answers as the cold run"
    );
    assert!(
        run.critical_ms <= cold_run.critical_ms * 1.2,
        "adaptive {} ms vs cold {} ms",
        run.critical_ms,
        cold_run.critical_ms
    );
}

/// An adaptive run that switched plans keeps one set of books: each
/// executed node ran once, so the run reports what a non-adaptive run of
/// its final plan on a fresh registry reports — the same per-pattern
/// join observations and per-service calls and, on the misled hub, the
/// same join-kernel counters. (On the join drift the final plan's two
/// joins would fuse on a fresh run; the switched walk keeps the join
/// that already ran as a materialized input, so its kernel counters
/// differ by design.)
#[test]
fn a_replanned_run_keeps_the_books_of_its_final_plan() {
    type Scenario = fn() -> (ServiceRegistry, Query);
    let misled_hub: Scenario = || (adaptive_registry(SEED, MISESTIMATE), adaptive_query());
    let join_drift: Scenario = || (join_drift_registry(SEED), join_drift_query());
    let metric = CostMetric::ExecutionTime;
    for (name, scenario, same_kernel_books) in [
        ("misled hub", misled_hub, true),
        ("join drift", join_drift, false),
    ] {
        let (registry, query) = scenario();
        let plan = optimize(&query, &registry, metric).expect("optimize").plan;
        let config = EngineConfig::default()
            .adaptive(true)
            .adaptive_metric(metric);
        let adaptive = execute_plan(&plan, &registry, config).expect("adaptive run");
        let final_plan = adaptive.replanned.as_ref().expect("re-planned");

        let (fresh, _) = scenario();
        let rerun = execute_plan(final_plan, &fresh, EngineConfig::default()).expect("rerun");
        assert_eq!(adaptive.results, rerun.results, "{name}: results");
        assert_eq!(adaptive.total_calls, rerun.total_calls, "{name}: calls");
        assert_eq!(adaptive.critical_ms, rerun.critical_ms, "{name}: time");
        let calls = |r: &ServiceRegistry| -> BTreeMap<String, u64> {
            (r.all_stats().into_iter())
                .map(|(name, stats)| (name, stats.calls))
                .collect()
        };
        assert_eq!(calls(&registry), calls(&fresh), "{name}: per-service calls");
        assert_eq!(
            registry.join_observations(),
            fresh.join_observations(),
            "{name}: join observations"
        );
        if same_kernel_books {
            assert_eq!(adaptive.join_stats, rerun.join_stats, "{name}: join_stats");
        }
    }
}
