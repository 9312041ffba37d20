//! A shared executor pool: the threads a daemon execution needs.
//!
//! One [`ExecPool`] per daemon (or per `seco run` invocation) owns the
//! threads the engine runs on. The pool has two tiers:
//!
//! * a **blocking tier**: an elastic set of cached threads for tasks
//!   that rendezvous with each other over channels (the pipelined
//!   executor's plan nodes). Running those on a fixed pool would
//!   deadlock, so the pool spawns blocking threads on demand, parks
//!   them when idle, and joins them on shutdown.
//! * a **compute tier**: a fixed set of workers (one per configured
//!   core), each with its own deque. [`ExecPool::scope_run`] deals its
//!   jobs round-robin over the deques; idle workers drain their own
//!   deque from the front, then steal from the *back* of a sibling's,
//!   and the scope's caller runs queued jobs while it waits. Compute
//!   jobs must never block on other compute jobs' channels. No crate of
//!   the program submits compute jobs: the optimizer's search and the
//!   join kernels are serial, because no workload's tiles or searches
//!   are large enough to pay for a fan-out. Only the benchmark
//!   harness still probes the tier; ROADMAP items 1f and 19 delete it.
//!
//! [`ExecPool::scope_run`] returns results in task-submission order, and
//! the pool guarantees the plumbing: every submitted job runs exactly
//! once (even during shutdown the queues are drained before workers
//! exit), panics propagate to the scope owner, and `shutdown()` leaves
//! zero live threads behind.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Snapshot of the scheduler counters, for `/stats` and `seco stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Configured compute workers.
    pub workers: usize,
    /// Jobs currently queued across all worker deques.
    pub queue_depth: usize,
    /// Jobs taken from a deque other than the thief's own.
    pub steals: u64,
    /// Total jobs executed on the compute tier.
    pub morsels: u64,
    /// Milliseconds of measured compute-tier work.
    pub busy_ms: u64,
    /// Live threads: compute workers + cached blocking threads.
    pub threads_alive: usize,
}

struct Inner {
    workers: usize,
    /// Per-worker deques; owners pop the front, thieves pop the back.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Park gate: compute workers wait here when every queue is empty.
    gate: Mutex<()>,
    cv: Condvar,
    stop: AtomicBool,
    /// Jobs queued but not yet claimed, across all deques.
    pending: AtomicUsize,
    /// Round-robin cursor for scope_run distribution.
    cursor: AtomicUsize,

    steals: AtomicU64,
    morsels: AtomicU64,
    busy_micros: AtomicU64,
    threads_alive: AtomicUsize,

    /// Blocking tier: elastic queue + free-thread balance. The balance
    /// is `ready threads - queued jobs`; a submitter that drives it
    /// negative spawns a thread so rendezvousing tasks can never wait
    /// on each other for a worker.
    blocking_queue: Mutex<VecDeque<Job>>,
    blocking_cv: Condvar,
    blocking_free: AtomicI64,
}

/// The shared two-tier worker pool. See the crate docs for the model.
pub struct ExecPool {
    inner: Arc<Inner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    done: AtomicBool,
}

/// Where one `scope_run` task leaves its result (or its panic).
type Slot<T> = Mutex<Option<thread::Result<T>>>;

impl ExecPool {
    /// Builds a pool with `workers` compute workers (minimum 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let inner = Arc::new(Inner {
            workers,
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            gate: Mutex::new(()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            cursor: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            morsels: AtomicU64::new(0),
            busy_micros: AtomicU64::new(0),
            threads_alive: AtomicUsize::new(0),
            blocking_queue: Mutex::new(VecDeque::new()),
            blocking_cv: Condvar::new(),
            blocking_free: AtomicI64::new(0),
        });
        let mut handles = Vec::with_capacity(workers);
        for idx in 0..workers {
            let inner = Arc::clone(&inner);
            inner.threads_alive.fetch_add(1, Ordering::SeqCst);
            handles.push(
                thread::Builder::new()
                    .name(format!("seco-exec-{idx}"))
                    .spawn(move || {
                        worker_loop(&inner, idx);
                        inner.threads_alive.fetch_sub(1, Ordering::SeqCst);
                    })
                    .expect("spawn exec worker"),
            );
        }
        ExecPool {
            inner,
            handles: Mutex::new(handles),
            done: AtomicBool::new(false),
        }
    }

    /// Live pool threads (compute + cached blocking). Zero after
    /// [`ExecPool::shutdown`].
    pub fn threads_alive(&self) -> usize {
        self.inner.threads_alive.load(Ordering::SeqCst)
    }

    /// Current scheduler counters.
    pub fn stats(&self) -> ExecStats {
        let i = &self.inner;
        ExecStats {
            workers: i.workers,
            queue_depth: i.pending.load(Ordering::SeqCst),
            steals: i.steals.load(Ordering::SeqCst),
            morsels: i.morsels.load(Ordering::SeqCst),
            busy_ms: i.busy_micros.load(Ordering::SeqCst) / 1000,
            threads_alive: i.threads_alive.load(Ordering::SeqCst),
        }
    }

    /// Runs `tasks` on the compute tier and returns their results in
    /// task order. The caller participates: while waiting it pops and
    /// runs queued jobs, so `scope_run` makes progress even on a pool
    /// whose workers are all busy (or on a one-worker pool running the
    /// caller's own morsels). The first panicking task's payload is
    /// resumed after every task has finished.
    pub fn scope_run<'env, T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        let slots: Arc<Vec<Slot<T>>> = Arc::new((0..n).map(|_| Mutex::new(None)).collect());
        let remaining = Arc::new((Mutex::new(n), Condvar::new()));
        for (i, f) in tasks.into_iter().enumerate() {
            let slots = Arc::clone(&slots);
            let remaining = Arc::clone(&remaining);
            let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(f));
                *slots[i].lock().unwrap() = Some(result);
                // Drop our slots clone *before* releasing the latch so
                // the scope owner can unwrap the Arc immediately.
                drop(slots);
                let mut left = remaining.0.lock().unwrap();
                *left -= 1;
                if *left == 0 {
                    remaining.1.notify_all();
                }
            });
            // SAFETY: this scope blocks until every job has run (the
            // `remaining` latch only reaches zero after each closure
            // completes, and workers drain their queues even during
            // shutdown), so the `'env` borrows the closure captures
            // outlive every use. This is the same lifetime erasure
            // `std::thread::scope` performs, with the join expressed
            // as a latch instead of thread handles.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
            self.push_compute(job);
        }
        // Participate: run queued jobs (ours or anyone's — they are
        // all leaves) until the latch clears.
        loop {
            if *remaining.0.lock().unwrap() == 0 {
                break;
            }
            if let Some(job) = self.pop_any() {
                run_job(&self.inner, job);
                continue;
            }
            let guard = remaining.0.lock().unwrap();
            if *guard > 0 {
                drop(
                    remaining
                        .1
                        .wait_timeout(guard, std::time::Duration::from_millis(1))
                        .unwrap(),
                );
            }
        }
        let slots = Arc::try_unwrap(slots).unwrap_or_else(|_| {
            unreachable!("all scope jobs completed; no clones outlive the latch")
        });
        let mut out = Vec::with_capacity(n);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for slot in slots {
            match slot.into_inner().unwrap().expect("scope job ran") {
                Ok(v) => out.push(v),
                Err(p) => {
                    if panic.is_none() {
                        panic = Some(p);
                    }
                }
            }
        }
        if let Some(p) = panic {
            resume_unwind(p);
        }
        out
    }

    /// Runs channel-rendezvous tasks (plan-node bodies) on the elastic
    /// blocking tier and waits for all of them. Threads are spawned on
    /// demand, cached between scopes, and joined on shutdown. The first
    /// panicking task's payload is resumed after every task finishes.
    pub fn scope_blocking<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        let n = tasks.len();
        if n == 0 {
            return;
        }
        let remaining = Arc::new((Mutex::new(n), Condvar::new()));
        let panic: Arc<Mutex<Option<Box<dyn std::any::Any + Send>>>> = Arc::new(Mutex::new(None));
        for f in tasks {
            let remaining = Arc::clone(&remaining);
            let panic = Arc::clone(&panic);
            let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(f));
                if let Err(p) = result {
                    let mut slot = panic.lock().unwrap();
                    if slot.is_none() {
                        *slot = Some(p);
                    }
                }
                let mut left = remaining.0.lock().unwrap();
                *left -= 1;
                if *left == 0 {
                    remaining.1.notify_all();
                }
            });
            // SAFETY: as in `scope_run` — this scope blocks on the
            // latch until every task has completed, so `'env` borrows
            // outlive every use.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
            // Balance goes non-positive => no ready thread for this
            // task: spawn one and credit the capacity it adds, so the
            // pool converges on its high-water thread count instead of
            // re-spawning for every scope.
            if self.inner.blocking_free.fetch_sub(1, Ordering::SeqCst) <= 0 {
                self.inner.blocking_free.fetch_add(1, Ordering::SeqCst);
                self.spawn_blocking_thread();
            }
            let mut q = self.inner.blocking_queue.lock().unwrap();
            q.push_back(job);
            drop(q);
            self.inner.blocking_cv.notify_one();
        }
        let mut left = remaining.0.lock().unwrap();
        while *left > 0 {
            left = remaining.1.wait(left).unwrap();
        }
        drop(left);
        let p = panic.lock().unwrap().take();
        if let Some(p) = p {
            resume_unwind(p);
        }
    }

    fn spawn_blocking_thread(&self) {
        let inner = Arc::clone(&self.inner);
        inner.threads_alive.fetch_add(1, Ordering::SeqCst);
        let handle = thread::Builder::new()
            .name("seco-exec-blk".into())
            .spawn(move || {
                loop {
                    let mut q = inner.blocking_queue.lock().unwrap();
                    let job = loop {
                        if let Some(job) = q.pop_front() {
                            break Some(job);
                        }
                        if inner.stop.load(Ordering::SeqCst) {
                            break None;
                        }
                        q = inner.blocking_cv.wait(q).unwrap();
                    };
                    drop(q);
                    match job {
                        Some(job) => {
                            job();
                            inner.blocking_free.fetch_add(1, Ordering::SeqCst);
                        }
                        None => break,
                    }
                }
                inner.threads_alive.fetch_sub(1, Ordering::SeqCst);
            })
            .expect("spawn blocking worker");
        self.handles.lock().unwrap().push(handle);
    }

    /// Stops and joins every pool thread. Queued compute jobs are
    /// drained (run, not dropped) before workers exit, so in-flight
    /// scopes complete. Idempotent; also invoked by `Drop`.
    pub fn shutdown(&self) {
        if self.done.swap(true, Ordering::SeqCst) {
            return;
        }
        self.inner.stop.store(true, Ordering::SeqCst);
        {
            let _g = self.inner.gate.lock().unwrap();
            self.inner.cv.notify_all();
        }
        {
            let _q = self.inner.blocking_queue.lock().unwrap();
            self.inner.blocking_cv.notify_all();
        }
        let handles = std::mem::take(&mut *self.handles.lock().unwrap());
        for handle in handles {
            let _ = handle.join();
        }
    }

    fn push_compute(&self, job: Job) {
        let inner = &self.inner;
        let idx = inner.cursor.fetch_add(1, Ordering::SeqCst) % inner.workers;
        inner.queues[idx].lock().unwrap().push_back(job);
        inner.pending.fetch_add(1, Ordering::SeqCst);
        let _g = inner.gate.lock().unwrap();
        inner.cv.notify_all();
    }

    /// Pops any queued compute job from the back of a worker deque (a
    /// steal). Used by participating scope callers.
    fn pop_any(&self) -> Option<Job> {
        let inner = &self.inner;
        for q in &inner.queues {
            if let Some(job) = q.lock().unwrap().pop_back() {
                inner.pending.fetch_sub(1, Ordering::SeqCst);
                inner.steals.fetch_add(1, Ordering::SeqCst);
                return Some(job);
            }
        }
        None
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn run_job(inner: &Inner, job: Job) {
    let t0 = Instant::now();
    job();
    inner
        .busy_micros
        .fetch_add(t0.elapsed().as_micros() as u64, Ordering::SeqCst);
    inner.morsels.fetch_add(1, Ordering::SeqCst);
}

fn worker_loop(inner: &Inner, me: usize) {
    loop {
        // Own deque (front), then steal (back).
        let job = {
            let own = inner.queues[me].lock().unwrap().pop_front();
            match own {
                Some(job) => {
                    inner.pending.fetch_sub(1, Ordering::SeqCst);
                    Some(job)
                }
                None => {
                    let mut stolen = None;
                    for off in 1..inner.workers {
                        let victim = (me + off) % inner.workers;
                        if let Some(job) = inner.queues[victim].lock().unwrap().pop_back() {
                            inner.pending.fetch_sub(1, Ordering::SeqCst);
                            inner.steals.fetch_add(1, Ordering::SeqCst);
                            stolen = Some(job);
                            break;
                        }
                    }
                    stolen
                }
            }
        };
        if let Some(job) = job {
            run_job(inner, job);
            continue;
        }
        // Park. Stop only once every queue is drained, so in-flight
        // scopes always complete.
        let guard = inner.gate.lock().unwrap();
        if inner.stop.load(Ordering::SeqCst) {
            if inner.pending.load(Ordering::SeqCst) == 0 {
                break;
            }
            continue;
        }
        if inner.pending.load(Ordering::SeqCst) > 0 {
            continue;
        }
        drop(
            inner
                .cv
                .wait_timeout(guard, std::time::Duration::from_millis(10))
                .unwrap(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scope_run_returns_results_in_task_order() {
        let pool = ExecPool::new(4);
        let tasks: Vec<_> = (0..64).map(|i| move || i * 3).collect();
        let out = pool.scope_run(tasks);
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
        pool.shutdown();
        assert_eq!(pool.threads_alive(), 0);
    }

    #[test]
    fn scope_run_borrows_the_environment() {
        let pool = ExecPool::new(2);
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
        let pool = ExecPool::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| {
                let ran = Arc::clone(&ran);
                Box::new(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                    if i == 3 {
                        panic!("morsel {i} failed");
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
    fn one_worker_pool_still_completes_scopes_via_caller_participation() {
        let pool = ExecPool::new(1);
        // Sixteen jobs dealt to a single deque: whichever of the worker
        // and the participating caller gets to a job first runs it.
        let out = pool.scope_run((0..16).map(|i| move || i).collect::<Vec<_>>());
        assert_eq!(out.len(), 16);
    }

    #[test]
    fn scope_run_after_shutdown_runs_on_the_caller_in_order() {
        let pool = ExecPool::new(3);
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
        let pool = ExecPool::new(1);
        let (tx, rx) = std::sync::mpsc::sync_channel::<u32>(0);
        let total = Arc::new(AtomicUsize::new(0));
        let total2 = Arc::clone(&total);
        let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![
            Box::new(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            }),
            Box::new(move || {
                while let Ok(v) = rx.recv() {
                    total2.fetch_add(v as usize, Ordering::SeqCst);
                }
            }),
        ];
        pool.scope_blocking(tasks);
        assert_eq!(total.load(Ordering::SeqCst), 4950);
        pool.shutdown();
        assert_eq!(pool.threads_alive(), 0, "blocking threads joined");
    }

    #[test]
    fn shutdown_is_idempotent_and_leaves_no_threads() {
        let pool = ExecPool::new(3);
        assert_eq!(pool.threads_alive(), 3);
        pool.shutdown();
        pool.shutdown();
        assert_eq!(pool.threads_alive(), 0);
    }

    #[test]
    fn counters_track_morsels_steals_and_busy_time() {
        let pool = ExecPool::new(4);
        let t0 = Instant::now();
        let _ = pool.scope_run(
            (0..32)
                .map(|i| {
                    move || {
                        // Do a little real work so timings are nonzero.
                        (0..10_000u64).fold(i as u64, |a, b| a.wrapping_add(b * b))
                    }
                })
                .collect::<Vec<_>>(),
        );
        // A job releases the scope's latch before `run_job` counts it:
        // join the workers so the counters are final.
        pool.shutdown();
        let wall_ms = t0.elapsed().as_millis() as u64 + 1;
        let stats = pool.stats();
        assert_eq!(stats.morsels, 32, "each task is one morsel, run once");
        assert!(stats.steals <= stats.morsels);
        // Four workers plus the participating caller.
        assert!(stats.busy_ms <= 5 * wall_ms, "busy time is measured");
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.workers, 4);
    }
}
