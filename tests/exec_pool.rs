//! The shared executor pool, end to end.
//!
//! Every [`SharedState`] owns one pool, and a fresh state costs no
//! thread: the pipelined executor's plan-node tasks spawn what they
//! need, the pool keeps those threads for the next run, and no pool
//! thread outlives the state that owns it.

use search_computing::prelude::*;
use search_computing::query::builder::running_example;
use search_computing::services::domains::entertainment;

#[test]
fn no_worker_threads_outlive_shared_state_shutdown() {
    let registry = entertainment::build_registry(1).unwrap();
    let query = running_example();
    let best = optimize(&query, &registry, CostMetric::RequestCount).unwrap();
    let shared = SharedState::new();
    let pool = shared.exec_pool().expect("every state owns a pool").clone();
    assert_eq!(pool.threads_alive(), 0, "a fresh state costs no thread");
    // A deterministic run stays on the caller.
    let opts = EngineConfig::default().cache_shards(4);
    let det = execute_plan_shared(&best.plan, &registry, opts, &shared).unwrap();
    assert_eq!(
        pool.threads_alive(),
        0,
        "the deterministic run spawned nothing"
    );
    // A pipelined session runs its plan-node tasks on the pool, which
    // keeps their threads for the next run.
    let out = execute_parallel_session(&best.plan, &registry, opts, Some(&shared), None).unwrap();
    assert_eq!(out.results.len(), det.results.len());
    let cached = pool.threads_alive();
    assert!(cached > 0, "the pipelined run's threads stay cached");
    // The second run reuses them, and spawns only for a task that finds
    // every cached thread busy: never more than one thread per node.
    execute_parallel_session(&best.plan, &registry, opts, Some(&shared), None).unwrap();
    let after = pool.threads_alive();
    assert!(
        cached <= after && after <= best.plan.len(),
        "{cached} then {after} threads"
    );
    shared.shutdown();
    assert_eq!(pool.threads_alive(), 0, "shutdown joins every thread");
    // Idempotent: a second shutdown (or the drop) is a no-op.
    shared.shutdown();
    assert_eq!(pool.threads_alive(), 0);
}
