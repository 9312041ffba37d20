//! What is left of the executor pool: the names the benchmark harness
//! still reads (ROADMAP item 1f).
//!
//! Every plan runs on the thread that calls the engine, so there is no
//! pool thread to spawn, count or join. [`ExecPool`] runs nothing
//! concurrently: [`ExecPool::scope_run`] runs its tasks on the caller,
//! in order, [`ExecPool::threads_alive`] reads 0 and
//! [`ExecPool::shutdown`] has nothing to stop. No crate of the program
//! calls `scope_run`; the harness probes it.

/// Snapshot of the pool's counters. Every field reads 0: the harness
/// still subtracts them (ROADMAP item 1f).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Always 0.
    pub steals: u64,
    /// Always 0.
    pub morsels: u64,
    /// Always 0.
    pub busy_ms: u64,
    /// Always 0: the pool has no thread.
    pub threads_alive: usize,
}

/// The pool stub. See the crate docs.
#[derive(Debug, Default)]
pub struct ExecPool;

impl ExecPool {
    /// The pool: it has no thread and never spawns one.
    pub fn new() -> Self {
        ExecPool
    }

    /// Live pool threads: always 0.
    pub fn threads_alive(&self) -> usize {
        0
    }

    /// Current counters, all 0.
    pub fn stats(&self) -> ExecStats {
        ExecStats::default()
    }

    /// Runs `tasks` on the caller, in order, and returns their results
    /// in that order.
    pub fn scope_run<T, F: FnOnce() -> T>(&self, tasks: Vec<F>) -> Vec<T> {
        tasks.into_iter().map(|task| task()).collect()
    }

    /// Does nothing: there is no thread to stop.
    pub fn shutdown(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_run_runs_every_task_in_order() {
        let pool = ExecPool::new();
        let out = pool.scope_run((0..64).map(|i| move || i * 3).collect::<Vec<_>>());
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
        pool.shutdown();
        assert_eq!(pool.threads_alive(), 0);
        assert_eq!(pool.stats().threads_alive, 0);
    }
}
