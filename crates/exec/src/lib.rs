//! The executor pool: the threads a pipelined execution runs on.
//!
//! Every `SharedState` owns one [`ExecPool`], and the pipelined
//! executor runs each live plan node as one of its tasks
//! ([`ExecPool::scope_blocking`]). Plan-node tasks rendezvous with each
//! other over bounded channels, so a fixed number of threads could
//! deadlock them: the pool spawns a thread whenever a task finds no idle
//! one, keeps finished threads parked for the next scope, and joins
//! every thread on [`ExecPool::shutdown`]. A fresh pool has no thread,
//! and its size is the high-water mark of concurrently live tasks.
//!
//! The guarantees are the plumbing: every submitted task runs exactly
//! once, a task's panic reaches the scope's caller after every task has
//! finished, and `shutdown()` leaves zero live threads behind.
//!
//! [`ExecPool::scope_run`] is not a fan-out: it runs its tasks on the
//! caller, in order. No crate of the program calls it; the benchmark
//! harness still probes it (ROADMAP item 1f).

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Snapshot of the pool's counters, for `/stats` and `seco stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Always 0: the pool has no compute tier. `steals`, `morsels` and
    /// `busy_ms` are read only by the benchmark harness, which still
    /// subtracts them (ROADMAP item 1f).
    pub steals: u64,
    /// Always 0; see [`steals`](Self::steals).
    pub morsels: u64,
    /// Always 0; see [`steals`](Self::steals).
    pub busy_ms: u64,
    /// Live pool threads: running a task or parked for the next one.
    pub threads_alive: usize,
}

/// The task queue and its free-thread balance, under one lock.
struct Queue {
    jobs: VecDeque<Job>,
    /// Parked threads minus queued jobs. A submitter that finds it at 0
    /// or below spawns a thread for its job, so rendezvousing tasks never
    /// wait on each other for a thread.
    free: isize,
    /// Set by shutdown: threads exit once the queue is empty.
    stop: bool,
}

struct Inner {
    queue: Mutex<Queue>,
    ready: Condvar,
    threads_alive: AtomicUsize,
}

/// The elastic pool of cached threads. See the crate docs for the model.
pub struct ExecPool {
    inner: Arc<Inner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl ExecPool {
    /// An empty pool: threads are spawned by the first scope that needs
    /// them.
    pub fn new() -> Self {
        ExecPool {
            inner: Arc::new(Inner {
                queue: Mutex::new(Queue {
                    jobs: VecDeque::new(),
                    free: 0,
                    stop: false,
                }),
                ready: Condvar::new(),
                threads_alive: AtomicUsize::new(0),
            }),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// Live pool threads. Zero for a fresh pool and after
    /// [`ExecPool::shutdown`].
    pub fn threads_alive(&self) -> usize {
        self.inner.threads_alive.load(Ordering::SeqCst)
    }

    /// Current counters.
    pub fn stats(&self) -> ExecStats {
        ExecStats {
            threads_alive: self.threads_alive(),
            ..ExecStats::default()
        }
    }

    /// Runs `tasks` on the caller, in order, and returns their results
    /// in that order. Every task runs even after one panics; the first
    /// panic is then resumed.
    pub fn scope_run<T, F: FnOnce() -> T>(&self, tasks: Vec<F>) -> Vec<T> {
        let mut out = Vec::with_capacity(tasks.len());
        let mut panic = None;
        for task in tasks {
            match catch_unwind(AssertUnwindSafe(task)) {
                Ok(v) => out.push(v),
                Err(p) => {
                    panic.get_or_insert(p);
                }
            }
        }
        if let Some(p) = panic {
            resume_unwind(p);
        }
        out
    }

    /// Runs channel-rendezvous tasks (plan-node bodies) on pool threads
    /// and waits for all of them. The first panicking task's payload is
    /// resumed after every task finishes.
    pub fn scope_blocking<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        let n = tasks.len();
        if n == 0 {
            return;
        }
        let remaining = Arc::new((Mutex::new(n), Condvar::new()));
        let panic: Arc<Mutex<Option<Box<dyn std::any::Any + Send>>>> = Arc::new(Mutex::new(None));
        for f in tasks {
            let inner = Arc::clone(&self.inner);
            let remaining = Arc::clone(&remaining);
            let panic = Arc::clone(&panic);
            let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                if let Err(p) = catch_unwind(AssertUnwindSafe(f)) {
                    lock(&panic).get_or_insert(p);
                }
                // The thread is free again before the scope can return,
                // so the next scope finds it instead of spawning another.
                lock(&inner.queue).free += 1;
                let mut left = lock(&remaining.0);
                *left -= 1;
                if *left == 0 {
                    remaining.1.notify_all();
                }
            });
            // SAFETY: this scope blocks on the `remaining` latch until
            // every job has completed, and every queued job runs (threads
            // leave only an empty queue, even after shutdown), so the
            // `'env` borrows the closure captures outlive every use. This
            // is the lifetime erasure `std::thread::scope` performs, with
            // the join expressed as a latch instead of thread handles.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
            let mut queue = lock(&self.inner.queue);
            queue.jobs.push_back(job);
            // No parked thread for this job (or a stopped pool, whose
            // threads are leaving): spawn one, which takes the job.
            let spawn = queue.stop || queue.free <= 0;
            if !spawn {
                queue.free -= 1;
            }
            drop(queue);
            if spawn {
                self.spawn_thread();
            } else {
                self.inner.ready.notify_one();
            }
        }
        let mut left = lock(&remaining.0);
        while *left > 0 {
            left = remaining.1.wait(left).unwrap_or_else(|e| e.into_inner());
        }
        drop(left);
        let p = lock(&panic).take();
        if let Some(p) = p {
            resume_unwind(p);
        }
    }

    fn spawn_thread(&self) {
        let inner = Arc::clone(&self.inner);
        inner.threads_alive.fetch_add(1, Ordering::SeqCst);
        let handle = thread::Builder::new()
            .name("seco-exec".into())
            .spawn(move || {
                let mut queue = lock(&inner.queue);
                loop {
                    if let Some(job) = queue.jobs.pop_front() {
                        drop(queue);
                        job();
                        queue = lock(&inner.queue);
                    } else if queue.stop {
                        break;
                    } else {
                        queue = inner.ready.wait(queue).unwrap_or_else(|e| e.into_inner());
                    }
                }
                drop(queue);
                inner.threads_alive.fetch_sub(1, Ordering::SeqCst);
            })
            .unwrap_or_else(|e| {
                // The queued jobs borrow the scope caller's stack, so a
                // panic unwinding past that caller could leave them
                // dangling: stop the process instead.
                eprintln!("seco-exec: cannot spawn a pool thread: {e}");
                std::process::abort()
            });
        lock(&self.handles).push(handle);
    }

    /// Stops and joins every pool thread. Queued tasks still run first,
    /// so in-flight scopes complete. Idempotent; also invoked by `Drop`.
    pub fn shutdown(&self) {
        lock(&self.inner.queue).stop = true;
        self.inner.ready.notify_all();
        let handles = std::mem::take(&mut *lock(&self.handles));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Default for ExecPool {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Locks `m`. Jobs run outside every pool lock, their panics are
/// caught, and each update under a pool lock is a single step, so a
/// poisoned lock still guards consistent data.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_run_returns_results_in_task_order() {
        let pool = ExecPool::new();
        let tasks: Vec<_> = (0..64).map(|i| move || i * 3).collect();
        let out = pool.scope_run(tasks);
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(pool.threads_alive(), 0, "scope_run spawns nothing");
    }

    #[test]
    fn scope_run_borrows_the_environment() {
        let pool = ExecPool::new();
        let data: Vec<u64> = (0..1000).collect();
        let slices: Vec<&[u64]> = data.chunks(100).collect();
        let sums = pool.scope_run(
            slices
                .iter()
                .map(|s| move || s.iter().sum::<u64>())
                .collect(),
        );
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn scope_run_propagates_panics_after_all_tasks_finish() {
        let pool = ExecPool::new();
        let ran = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| {
                let ran = &ran;
                Box::new(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                    if i == 3 {
                        panic!("task {i} failed");
                    }
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let result = catch_unwind(AssertUnwindSafe(|| pool.scope_run(tasks)));
        assert!(result.is_err());
        assert_eq!(ran.load(Ordering::SeqCst), 8, "every task still ran");
    }

    #[test]
    fn scope_run_after_shutdown_runs_on_the_caller_in_order() {
        let pool = ExecPool::new();
        pool.shutdown();
        let caller = thread::current().id();
        let out = pool.scope_run(
            (0..12)
                .map(|i| move || (i * 7, thread::current().id()))
                .collect::<Vec<_>>(),
        );
        assert_eq!(
            out.iter().map(|&(v, _)| v).collect::<Vec<_>>(),
            (0..12).map(|i| i * 7).collect::<Vec<_>>()
        );
        assert!(
            out.iter().all(|&(_, id)| id == caller),
            "no pool thread ran a job"
        );
        assert_eq!(pool.threads_alive(), 0);
    }

    #[test]
    fn scope_blocking_supports_channel_rendezvous() {
        let pool = ExecPool::new();
        let (tx, rx) = std::sync::mpsc::sync_channel::<u32>(0);
        let total = AtomicUsize::new(0);
        let sum = &total;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
            Box::new(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            }),
            Box::new(move || {
                while let Ok(v) = rx.recv() {
                    sum.fetch_add(v as usize, Ordering::SeqCst);
                }
            }),
        ];
        pool.scope_blocking(tasks);
        assert_eq!(total.load(Ordering::SeqCst), 4950);
        pool.shutdown();
        assert_eq!(pool.threads_alive(), 0, "blocking threads joined");
    }

    #[test]
    fn threads_are_spawned_on_demand_cached_and_joined_on_shutdown() {
        let pool = ExecPool::new();
        assert_eq!(pool.threads_alive(), 0, "a fresh pool has no thread");
        // Three tasks that wait for each other need three threads.
        let barrier = std::sync::Barrier::new(3);
        let scope = || {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..3)
                .map(|_| {
                    Box::new(|| {
                        barrier.wait();
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.scope_blocking(tasks);
        };
        scope();
        assert_eq!(pool.threads_alive(), 3);
        scope();
        assert_eq!(pool.threads_alive(), 3, "the second scope reuses them");
        pool.shutdown();
        pool.shutdown();
        assert_eq!(pool.threads_alive(), 0);
        // A scope after shutdown still completes, on threads the drop
        // joins.
        scope();
    }

    #[test]
    fn scope_blocking_propagates_panics_after_all_tasks_finish() {
        let pool = ExecPool::new();
        let ran = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|i| {
                let ran = &ran;
                Box::new(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                    assert_ne!(i, 2, "task {i} failed");
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        let result = catch_unwind(AssertUnwindSafe(|| pool.scope_blocking(tasks)));
        assert!(result.is_err());
        assert_eq!(ran.load(Ordering::SeqCst), 4, "every task still ran");
        assert_eq!(pool.stats().morsels, 0, "no compute tier counts a job");
    }
}
