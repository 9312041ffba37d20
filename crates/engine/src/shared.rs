//! Long-lived, cross-request execution state.
//!
//! A one-shot CLI run builds its per-service fetch stacks — the
//! resilient [`ServiceClient`] (one circuit breaker per service) under
//! the sharded, request-coalescing [`CachingService`] — from scratch,
//! uses them for a single plan, and throws them away. Those are
//! exactly the assets a long-running daemon wants to keep: warm
//! response caches, accumulated breaker state, and a stable virtual
//! timeline. [`SharedState`] owns them behind `Arc`s so any number of
//! concurrent query sessions can execute against the same stacks, and
//! every cache hit earned by one request benefits the next.
//!
//! The state also owns the optional shared [`seco_exec::ExecPool`]:
//! every thread a daemon execution needs — morsel workers for the join
//! kernels and the optimizer, pipelined plan-node fan-out — lives
//! exactly as long as this value. Dropping it (or calling
//! [`SharedState::shutdown`]) stops and joins the pool's workers —
//! nothing spawned on behalf of an execution can outlive the engine
//! state that requested it.
//!
//! Accounting caveat: the virtual clock is shared too, so `busy_ms` /
//! `critical_ms` deltas measured by concurrent executions overlap on
//! one daemon-wide timeline. Results, call counts, and cache counters
//! stay exact; per-request virtual-time attribution is only meaningful
//! when requests run serially (the one-shot executors are unaffected —
//! they build a private `SharedState` per pass).

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use seco_exec::ExecPool;
use seco_services::{CachingService, CallRecorder, Service, ServiceClient, VirtualClock};

use crate::config::EngineConfig;

/// One service's prepared fetch stack — cache → client → recorder, each
/// layer present when configured: the outermost handle to call, plus
/// the cache itself for the diagnostics that size it.
pub(crate) type Stack = (Arc<dyn Service>, Option<Arc<CachingService>>);

/// Clock binding of a stack's resilient client: the deterministic
/// executor drives a virtual timeline, the pipelined executor real
/// wall time. The two produce distinct breaker/cooldown dynamics, so
/// when a client is configured a service invoked by both executors
/// keeps one stack per mode; without one, nothing in the stack reads a
/// clock and both executors share one stack (and its warm cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum ClockMode {
    Virtual,
    Wall,
}

/// Cross-request execution state: per-service fetch stacks, the shared
/// virtual clock, and the daemon's work-stealing executor pool — one
/// pool shared by every session's morsels and plan-node tasks. Cheap
/// to share (`Arc<SharedState>`), safe to use from concurrent sessions.
///
/// Stacks are built lazily from the *first* execution's
/// [`EngineConfig`] that touches each service; a daemon runs all
/// sessions under one config, so later executions find the stack
/// ready-made and warm.
pub struct SharedState {
    clock: Arc<VirtualClock>,
    pool: Option<Arc<ExecPool>>,
    /// Keyed by service, and by clock mode only when a client binds one.
    stacks: Mutex<BTreeMap<(String, Option<ClockMode>), Stack>>,
}

impl SharedState {
    /// Fresh state with no executor pool: joins run serially and the
    /// pipelined executor's plan nodes run on scoped threads.
    pub fn new() -> Self {
        SharedState {
            clock: VirtualClock::new(),
            pool: None,
            stacks: Mutex::new(BTreeMap::new()),
        }
    }

    /// Daemon-grade state: join morsels and plan-node tasks (and an
    /// optimizer search given this pool) run on one work-stealing pool of
    /// `exec_workers` threads owned by this value and stopped when it
    /// drops. With one worker the join kernels take their exact serial
    /// path; with more, an ordered reducer keeps their output
    /// byte-identical.
    pub fn for_daemon(exec_workers: usize) -> Self {
        SharedState {
            clock: VirtualClock::new(),
            pool: Some(Arc::new(ExecPool::new(exec_workers))),
            stacks: Mutex::new(BTreeMap::new()),
        }
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// The shared executor pool, when this state owns one.
    pub fn exec_pool(&self) -> Option<&Arc<ExecPool>> {
        self.pool.as_ref()
    }

    /// Number of prepared per-service stacks (diagnostics).
    pub fn stack_count(&self) -> usize {
        self.stacks.lock().len()
    }

    /// What the prepared stacks' response caches hold right now:
    /// `(bodies, of which still unproven, approximate bytes)`. Walks
    /// every cached body for the byte figure — a diagnostics call.
    pub fn fetch_cache_usage(&self) -> (usize, usize, usize) {
        let caches: Vec<Arc<CachingService>> = (self.stacks.lock().values())
            .filter_map(|(_, cache)| cache.clone())
            .collect();
        caches.iter().fold((0, 0, 0), |(n, u, b), c| {
            (n + c.len(), u + c.unproven_len(), b + c.approx_bytes())
        })
    }

    /// Stops the executor pool: queued work is drained and every pool
    /// thread is joined. An execution still running completes: once the
    /// workers are gone, a `scope_run` caller runs its own queued
    /// morsels. Prepared stacks stay usable — fetches never depended on
    /// the pool. Idempotent; also implied by drop.
    pub fn shutdown(&self) {
        if let Some(pool) = &self.pool {
            pool.shutdown();
        }
    }

    /// Returns `service`'s prepared stack, building it on first use
    /// from `options` (resilient client when configured, sharded cache
    /// when configured, bare recorder otherwise). `mode` picks the
    /// stack only when a client is configured.
    pub(crate) fn stack_for(
        &self,
        service: &str,
        recorded: &Arc<CallRecorder>,
        options: &EngineConfig,
        mode: ClockMode,
    ) -> Stack {
        let key = (service.to_owned(), options.client.map(|_| mode));
        let mut stacks = self.stacks.lock();
        if let Some(stack) = stacks.get(&key) {
            return stack.clone();
        }
        let inner: Arc<dyn Service> = match options.client {
            Some(cfg) => {
                let builder = ServiceClient::for_recorded(recorded.clone()).config(cfg);
                let builder = match mode {
                    ClockMode::Wall => builder.wall_clock(),
                    ClockMode::Virtual => builder.virtual_clock(self.clock.clone()),
                };
                Arc::new(builder.build())
            }
            None => recorded.clone(),
        };
        let cache = options.fetch.cache().map(|(shards, capacity)| {
            Arc::new(
                CachingService::sharded(inner.clone(), capacity, shards)
                    .with_recorder(recorded.clone()),
            )
        });
        let base: Arc<dyn Service> = match &cache {
            Some(c) => c.clone(),
            None => inner,
        };
        let stack = (base, cache);
        stacks.insert(key, stack.clone());
        stack
    }
}

impl Default for SharedState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stacks_are_built_once_per_service_and_mode() {
        let state = SharedState::new();
        let registry =
            seco_services::domains::entertainment::build_registry(7).expect("registry builds");
        let recorded = registry.service("Movie1").expect("service exists");
        // Without a client no layer reads a clock: one stack serves
        // both modes.
        let options = EngineConfig::default().cache_shards(4);
        let (v, _) = state.stack_for("Movie1", &recorded, &options, ClockMode::Virtual);
        let (w, _) = state.stack_for("Movie1", &recorded, &options, ClockMode::Wall);
        assert!(Arc::ptr_eq(&v, &w));
        assert_eq!(state.stack_count(), 1);

        let state = SharedState::new();
        let options = options.client(seco_services::ClientConfig::default());
        let (a, cache_a) = state.stack_for("Movie1", &recorded, &options, ClockMode::Virtual);
        let (b, cache_b) = state.stack_for("Movie1", &recorded, &options, ClockMode::Virtual);
        assert!(Arc::ptr_eq(&a, &b), "same stack on repeat lookup");
        assert!(Arc::ptr_eq(
            cache_a.as_ref().expect("cache configured"),
            cache_b.as_ref().expect("cache configured"),
        ));
        assert_eq!(state.stack_count(), 1);
        // Wall-clock mode is a distinct stack (distinct breaker rules).
        let (w, _) = state.stack_for("Movie1", &recorded, &options, ClockMode::Wall);
        assert!(!Arc::ptr_eq(&a, &w));
        assert_eq!(state.stack_count(), 2);
    }

    #[test]
    fn shutdown_stops_the_daemon_pool() {
        let state = SharedState::for_daemon(2);
        let pool = state.exec_pool().expect("daemon state has a pool");
        assert_eq!(pool.threads_alive(), 2);
        state.shutdown();
        assert_eq!(pool.threads_alive(), 0);
    }
}
