//! No execution starts a thread.
//!
//! Every plan, streamed or not, is walked on the thread that calls the
//! engine: a streamed run hands its batches over on that thread, the
//! process's thread count does not move while it runs, and the pool
//! stub every [`SharedState`] still carries never has a thread to
//! outlive the state's shutdown.

use std::cell::Cell;
use std::thread;

use search_computing::prelude::*;
use search_computing::query::builder::running_example;
use search_computing::services::domains::entertainment;

/// The process's live threads, where the platform lists them.
fn os_threads() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

#[test]
fn no_worker_threads_outlive_shared_state_shutdown() {
    let registry = entertainment::build_registry(1).unwrap();
    let best = optimize(&running_example(), &registry, CostMetric::RequestCount).unwrap();
    let shared = SharedState::new();
    let opts = EngineConfig::default().cache_shards(4);
    let walk = execute_plan_shared(&best.plan, &registry, opts, &shared).unwrap();

    let before = os_threads();
    let caller = thread::current().id();
    let (batches, on_caller) = (Cell::new(0), Cell::new(true));
    let sink = |_: &[CompositeTuple]| {
        batches.set(batches.get() + 1);
        on_caller.set(on_caller.get() && thread::current().id() == caller);
        assert_eq!(os_threads(), before, "a thread runs beside the walk");
    };
    let out =
        execute_parallel_session(&best.plan, &registry, opts, Some(&shared), Some(&sink)).unwrap();
    assert_eq!(out.results, walk.results);
    assert!(batches.get() > 0, "the run streamed");
    assert!(on_caller.get(), "every batch was handed over on the caller");
    assert_eq!(os_threads(), before);

    let pool = shared.exec_pool().expect("every state carries the stub");
    assert_eq!(pool.threads_alive(), 0);
    shared.shutdown();
    shared.shutdown();
    assert_eq!(pool.threads_alive(), 0);
}
