//! Morsel-executor determinism, end to end.
//!
//! The scheduler contract is byte-identity: on a pool of any worker
//! count, both executors must produce exactly the output of the serial
//! path — same tuples, same order, same join counters — because tile
//! decomposition only fans out each tile's row loop and a deterministic
//! ordered reducer stitches the segments back in row order. These tests
//! pin that contract on the two flagship experiments (E1's travel plan
//! and E10's running example) and prove that no pool thread outlives
//! the [`SharedState`] that owns it.

use search_computing::prelude::*;
use search_computing::query::builder::running_example;
use search_computing::services::domains::{entertainment, travel};

/// The E1 query (Fig. 2/3): Conference × Weather × Flight × Hotel.
fn e1_query() -> Query {
    QueryBuilder::new()
        .atom("C", "Conference1")
        .atom("W", "Weather1")
        .atom("F", "Flight1")
        .atom("H", "Hotel1")
        .pattern("Forecast", "C", "W")
        .pattern("ReachedBy", "C", "F")
        .pattern("StayAt", "C", "H")
        .pattern("SameTrip", "F", "H")
        .select_const("C", "Topic", Comparator::Eq, Value::text("databases"))
        .select_const("W", "AvgTemp", Comparator::Gt, Value::Int(26))
        .build()
        .unwrap()
}

/// Runs `query` through both executors on a pool of each worker count
/// and asserts every output is byte-identical to the serial
/// (one-worker) reference — results, degradations, and join counters
/// alike.
fn assert_identical_across_workers(registry: &ServiceRegistry, query: &Query) {
    let best = optimize(query, registry, CostMetric::RequestCount).unwrap();
    let config = EngineConfig::default();
    let det = |workers| {
        let shared = SharedState::for_daemon(workers);
        execute_plan_shared(&best.plan, registry, config, &shared).unwrap()
    };
    let par = |workers| {
        let shared = SharedState::for_daemon(workers);
        execute_parallel_session(&best.plan, registry, config, Some(&shared), None).unwrap()
    };

    let (det_ref, par_ref) = (det(1), par(1));
    assert!(!det_ref.results.is_empty(), "reference run must answer");

    for workers in [2usize, 8] {
        let det = det(workers);
        assert_eq!(
            det.results, det_ref.results,
            "deterministic executor diverged at {workers} workers"
        );
        assert_eq!(
            det.join_stats, det_ref.join_stats,
            "deterministic join counters diverged at {workers} workers"
        );
        let par = par(workers);
        assert_eq!(
            par.results, par_ref.results,
            "pipelined executor diverged at {workers} workers"
        );
        assert_eq!(
            par.join_stats, par_ref.join_stats,
            "pipelined join counters diverged at {workers} workers"
        );
    }
}

#[test]
fn e1_travel_plan_is_byte_identical_across_exec_workers() {
    let registry = travel::build_registry(5).unwrap();
    assert_identical_across_workers(&registry, &e1_query());
}

#[test]
fn e10_running_example_is_byte_identical_across_exec_workers() {
    let registry = entertainment::build_registry(1).unwrap();
    assert_identical_across_workers(&registry, &running_example());
}

#[test]
fn no_worker_threads_outlive_shared_state_shutdown() {
    let registry = entertainment::build_registry(1).unwrap();
    let query = running_example();
    let best = optimize(&query, &registry, CostMetric::RequestCount).unwrap();
    let shared = SharedState::for_daemon(4);
    let pool = shared
        .exec_pool()
        .expect("daemon state owns a pool")
        .clone();
    assert_eq!(pool.threads_alive(), 4);
    // A full pipelined session exercises both pool tiers: plan-node
    // tasks on the blocking tier, join morsels on the compute tier.
    let opts = EngineConfig::default().cache_shards(4);
    let out = execute_parallel_session(&best.plan, &registry, opts, Some(&shared), None).unwrap();
    assert!(!out.results.is_empty());
    shared.shutdown();
    assert_eq!(
        pool.threads_alive(),
        0,
        "compute and blocking tiers must both join on shutdown"
    );
    // Idempotent: a second shutdown (or the drop) is a no-op.
    shared.shutdown();
    assert_eq!(pool.threads_alive(), 0);
}
