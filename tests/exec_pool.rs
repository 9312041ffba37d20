//! The shared executor pool, end to end.
//!
//! On a pool of any worker count, both executors must produce exactly
//! the output of a one-worker pool — same tuples, same order, same join
//! counters: the pool only hosts the pipelined executor's plan-node
//! tasks, and the join kernels are serial. These tests pin that on the
//! two flagship experiments (E1's travel plan and E10's running
//! example), prove that no pool thread outlives the [`SharedState`]
//! that owns it, and that the daemon's planner leaves the pool alone.

use search_computing::prelude::*;
use search_computing::query::builder::running_example;
use search_computing::server::{ServerConfig, ServerState};
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
    // A full pipelined session runs its plan-node tasks on the
    // blocking tier; the compute workers idle until shutdown.
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

/// The daemon plans on the request thread: a cold plan of the 4-star
/// (126 topologies, every one a plan-cache miss) hands the shared pool
/// no job. `tests/source_guards.rs` keeps `scope_run` out of every
/// crate but `seco-exec`, so a search has no way onto the pool.
#[test]
fn the_daemon_plans_a_cold_query_on_the_request_thread() {
    let (registry, query) = seco_bench::star_scenario(4, 7);
    let config = ServerConfig {
        exec_workers: 2,
        ..ServerConfig::default()
    };
    let state = ServerState::new(registry, config);
    let pool = state.shared.exec_pool().expect("daemon state owns a pool");
    let before = pool.stats().morsels;
    let (best, cached) = state.plan(&query).expect("the 4-star is feasible");
    assert!(!cached, "a cold plan");
    assert_eq!(best.stats.topologies, 126);
    assert_eq!(
        pool.stats().morsels,
        before,
        "the search ran no job on the pool"
    );
}
