//! Daemon-wide shared state: one registry, one plan cache, one set of
//! warm fetch stacks — and the admission gate in front of them.
//!
//! This is the tentpole inversion of the one-shot CLI: instead of
//! building every cache from scratch per invocation, the daemon keeps
//! [`SharedState`] (fetch caches, breaker state, the executor pool),
//! a [`PlanCache`] (optimized plans keyed by structural fingerprint ×
//! statistics epoch), and the registry's adaptive accumulators alive
//! across requests. The first session pays the cold cost; every later
//! session planning the same query or touching the same service chunks
//! rides the warm state.
//!
//! Admission control is deliberately simple and deterministic: a hard
//! cap on concurrently executing queries (back-pressure, HTTP 429), a
//! cap on open sessions, and a per-tenant service-call budget. Budgets
//! are charged with the *observed* call delta of each execution — a
//! cache hit costs nothing, which gives tenants a direct incentive to
//! re-use warm state. Under concurrent executions the per-request call
//! attribution is approximate (the counters are daemon-wide); the
//! budget is a fairness rail, not an audit trail.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use seco_engine::{
    execute_parallel_session, execute_plan_shared, BatchSink, EngineConfig, SharedState,
};
use seco_model::{CompositeTuple, Symbol};
use seco_optimizer::{CostMetric, Optimized, Optimizer, PlanCache};
use seco_plan::QueryPlan;
use seco_query::Query;
use seco_services::{DeviationPolicy, ServiceRegistry};

use crate::session::Session;

/// Serving-layer configuration (engine knobs plus admission limits).
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Engine configuration every session executes under (one config
    /// per daemon: shared fetch stacks are built from it on first use).
    pub engine: EngineConfig,
    /// Cost metric the shared planner optimizes.
    pub metric: CostMetric,
    /// Maximum concurrently open sessions (0 = unlimited).
    pub max_sessions: usize,
    /// Maximum concurrently *executing* queries; excess requests are
    /// refused with HTTP 429 rather than queued (0 = unlimited).
    pub max_concurrent: usize,
    /// Service-call budget per tenant (0 = unlimited).
    pub tenant_budget: u64,
    /// Worker threads of the shared executor pool: one work-stealing
    /// pool per daemon runs every session's join morsels and plan-node
    /// tasks (the planner searches on the request thread). Fairness
    /// across sessions comes from the admission gate (at most
    /// [`max_concurrent`](Self::max_concurrent) executions feed the
    /// pool), the round-robin cursor that deals every scope's jobs over
    /// the worker deques, and caller participation: a scope's caller
    /// runs queued jobs while it waits, so no session stalls for want
    /// of a free worker.
    pub exec_workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            // The daemon's whole point is warm state: default the
            // sharded fetch cache on.
            engine: EngineConfig::default().cache_shards(4),
            metric: CostMetric::RequestCount,
            max_sessions: 256,
            max_concurrent: 16,
            tenant_budget: 0,
            exec_workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// Why a request was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refusal {
    /// The daemon is drained/draining for shutdown (HTTP 503).
    Draining,
    /// Too many queries already executing (HTTP 429).
    AtCapacity,
    /// The tenant's service-call budget is spent (HTTP 429).
    BudgetExhausted,
    /// The session table is full (HTTP 429).
    TooManySessions,
}

impl Refusal {
    /// The HTTP status this refusal maps to.
    pub fn status(&self) -> u16 {
        match self {
            Refusal::Draining => 503,
            _ => 429,
        }
    }

    /// Human-readable reason.
    pub fn message(&self) -> &'static str {
        match self {
            Refusal::Draining => "server is draining",
            Refusal::AtCapacity => "too many queries in flight",
            Refusal::BudgetExhausted => "tenant call budget exhausted",
            Refusal::TooManySessions => "session table full",
        }
    }
}

/// RAII slot in the execution gate: holding it means the request
/// counts against `max_concurrent`.
pub struct Admission<'a> {
    state: &'a ServerState,
}

impl std::fmt::Debug for Admission<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Admission")
    }
}

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        self.state.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The daemon: everything concurrent sessions share.
pub struct ServerState {
    /// Service registry (call recorders, adaptive accumulators, epoch).
    pub registry: Arc<ServiceRegistry>,
    /// Cross-request optimized-plan cache.
    pub plan_cache: Arc<PlanCache>,
    /// Cross-request fetch stacks, clock, and executor pool.
    pub shared: Arc<SharedState>,
    /// Serving configuration.
    pub config: ServerConfig,
    /// Each session has its own lock: the table lock covers lookup,
    /// insert and remove only, so clients paging different sessions do
    /// not wait on each other's sort and render.
    sessions: Mutex<BTreeMap<u64, Arc<Mutex<Session>>>>,
    next_session: AtomicU64,
    in_flight: AtomicUsize,
    admitted: AtomicU64,
    rejected: AtomicU64,
    tenant_calls: Mutex<BTreeMap<String, u64>>,
    draining: AtomicBool,
    stopped: AtomicBool,
}

impl ServerState {
    /// A daemon over `registry` with the given limits.
    pub fn new(registry: ServiceRegistry, config: ServerConfig) -> Arc<Self> {
        // Sessions' join kernels fan out on this pool (one worker keeps
        // their exact serial path).
        Arc::new(ServerState {
            registry: Arc::new(registry),
            plan_cache: Arc::new(PlanCache::new()),
            shared: Arc::new(SharedState::for_daemon(config.exec_workers)),
            config,
            sessions: Mutex::new(BTreeMap::new()),
            next_session: AtomicU64::new(1),
            in_flight: AtomicUsize::new(0),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            tenant_calls: Mutex::new(BTreeMap::new()),
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
        })
    }

    /// Claims an execution slot, or says why not. The slot frees when
    /// the returned guard drops.
    pub fn admit(&self, tenant: &str) -> Result<Admission<'_>, Refusal> {
        if self.draining.load(Ordering::Acquire) {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(Refusal::Draining);
        }
        if !self.budget_ok(tenant) {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(Refusal::BudgetExhausted);
        }
        let slots = self.config.max_concurrent;
        let n = self.in_flight.fetch_add(1, Ordering::AcqRel);
        if slots > 0 && n >= slots {
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(Refusal::AtCapacity);
        }
        self.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(Admission { state: self })
    }

    fn budget_ok(&self, tenant: &str) -> bool {
        self.config.tenant_budget == 0
            || self.tenant_calls.lock().get(tenant).copied().unwrap_or(0)
                < self.config.tenant_budget
    }

    /// Charges `calls` service calls to `tenant`.
    pub fn charge(&self, tenant: &str, calls: u64) {
        *self
            .tenant_calls
            .lock()
            .entry(tenant.to_owned())
            .or_default() += calls;
    }

    /// Optimizes `query` through the shared plan cache. Returns the
    /// plan and whether it came from the cache.
    ///
    /// The search runs serially on the calling (request) thread: a cold
    /// 4-star plan takes well under a millisecond there, and fanning its
    /// topologies over the shared pool cost more in hand-offs than it
    /// saved while other requests kept the workers busy.
    pub fn plan(&self, query: &Query) -> Result<(Optimized, bool), String> {
        let mut optimizer = Optimizer::new(&self.registry, self.config.metric);
        optimizer.cache = Some(self.plan_cache.clone());
        let best = optimizer.optimize(query).map_err(|e| e.to_string())?;
        let cached = best.stats.cache_hits > 0;
        Ok((best, cached))
    }

    /// Executes `plan` against the shared state. `sink`, when given and
    /// `parallel`, receives emission-order batches as tiles join.
    /// Returns `(results, degraded services, observed call delta)`.
    pub fn execute(
        &self,
        plan: &QueryPlan,
        parallel: bool,
        k: usize,
        sink: Option<BatchSink<'_>>,
    ) -> Result<(Vec<CompositeTuple>, Vec<String>, u64), String> {
        let mut cfg = self.config.engine;
        if cfg.rank_join && cfg.join_k == 0 {
            cfg = cfg.join_k(k);
        }
        let before = self.registry.total_stats().calls;
        let (results, degraded) = if parallel {
            let out = execute_parallel_session(plan, &self.registry, cfg, Some(&self.shared), sink)
                .map_err(|e| e.to_string())?;
            (out.results, out.degraded)
        } else {
            let out = execute_plan_shared(plan, &self.registry, cfg, &self.shared)
                .map_err(|e| e.to_string())?;
            (out.results, out.degraded)
        };
        let calls = self.registry.total_stats().calls.saturating_sub(before);
        Ok((results, degraded, calls))
    }

    /// Registers a session, allocating its id. Refuses when the table
    /// is full.
    pub fn open_session(&self, make: impl FnOnce(u64) -> Session) -> Result<u64, Refusal> {
        let mut sessions = self.sessions.lock();
        if self.config.max_sessions > 0 && sessions.len() >= self.config.max_sessions {
            return Err(Refusal::TooManySessions);
        }
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        sessions.insert(id, Arc::new(Mutex::new(make(id))));
        Ok(id)
    }

    /// Runs `f` against the named session, holding only that session's
    /// lock while it runs.
    pub fn with_session<T>(&self, id: u64, f: impl FnOnce(&mut Session) -> T) -> Option<T> {
        let session = self.sessions.lock().get(&id).cloned()?;
        let mut session = session.lock();
        Some(f(&mut session))
    }

    /// Closes the session; true when it existed. An operation already
    /// running against it finishes; the next one finds no session.
    pub fn close_session(&self, id: u64) -> bool {
        self.sessions.lock().remove(&id).is_some()
    }

    /// Number of open sessions.
    pub fn open_sessions(&self) -> usize {
        self.sessions.lock().len()
    }

    /// Promotes deviating observed statistics into the registry
    /// (rolling the epoch, which invalidates every cached plan's
    /// fingerprint and so empties the plan cache). Returns the promoted
    /// service names.
    pub fn promote(&self, policy: &DeviationPolicy) -> Vec<String> {
        let promoted = self.registry.promote_deviations(policy);
        // Plans fingerprinted under the old epoch can never be asked
        // for again: drop them now, not at the next planning call.
        self.plan_cache.roll_epoch(self.registry.stats_epoch());
        promoted
    }

    /// The daemon's observability snapshot as a JSON document.
    pub fn stats_json(&self) -> String {
        let t = self.registry.total_stats();
        let tenants: Vec<serde_json::Value> = self
            .tenant_calls
            .lock()
            .iter()
            .map(|(name, calls)| serde_json::json!({"tenant": name, "calls": calls}))
            .collect();
        let (fetch_entries, fetch_unproven, fetch_bytes) = self.shared.fetch_cache_usage();
        serde_json::json!({
            "sessions_open": self.open_sessions(),
            "in_flight": self.in_flight.load(Ordering::Acquire),
            "admitted": self.admitted.load(Ordering::Relaxed),
            "rejected": self.rejected.load(Ordering::Relaxed),
            "draining": self.draining.load(Ordering::Acquire),
            // What the daemon retains, cache by cache: both are
            // bounded, so under never-repeating traffic these level off
            // while `plan_cache_evictions` keeps counting.
            "plan_cache_entries": self.plan_cache.len(),
            "plan_cache_bytes": self.plan_cache.bytes(),
            "plan_cache_evictions": self.plan_cache.evictions(),
            "fetch_cache_entries": fetch_entries,
            "fetch_cache_unproven": fetch_unproven,
            "fetch_cache_bytes": fetch_bytes,
            "stats_epoch": self.registry.stats_epoch(),
            "epoch_invalidations": self.registry.epoch_invalidations(),
            "fetch_stacks": self.shared.stack_count(),
            "calls": t.calls,
            "cache_hits": t.cache_hits,
            "coalesced": t.coalesced,
            "retries": t.retries,
            "timeouts": t.timeouts,
            "breaker_trips": t.breaker_trips,
            "short_circuits": t.short_circuits,
            // The interner grows with the workload's *vocabulary*, not
            // its volume; a steadily climbing byte count under a steady
            // query mix means some caller interns unbounded data (see
            // `Symbol::table_bytes`).
            "interner_symbols": Symbol::table_len(),
            "interner_bytes": Symbol::table_bytes(),
            "exec": self.shared.exec_pool().map(|p| {
                let e = p.stats();
                serde_json::json!({
                    "workers": e.workers,
                    "queue_depth": e.queue_depth,
                    "steals": e.steals,
                    "morsels": e.morsels,
                    "busy_ms": e.busy_ms,
                    "threads_alive": e.threads_alive,
                })
            }),
            "tenants": tenants,
        })
        .to_string()
    }

    /// Starts refusing new work (admission returns
    /// [`Refusal::Draining`]); in-flight executions continue.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// Waits until in-flight executions finish (or `timeout` passes),
    /// then stops the executor pool. True when fully drained. An
    /// execution still running when the timeout stops the pool
    /// finishes its remaining morsels on its own thread.
    pub fn drain(&self, timeout: Duration) -> bool {
        let start = Instant::now();
        while self.in_flight.load(Ordering::Acquire) > 0 {
            if start.elapsed() > timeout {
                self.shared.shutdown();
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        self.shared.shutdown();
        true
    }

    /// Tells the accept loop to exit.
    pub fn request_stop(&self) {
        self.stopped.store(true, Ordering::Release);
    }

    /// True once [`ServerState::request_stop`] was called.
    pub fn stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(config: ServerConfig) -> Arc<ServerState> {
        let (registry, _) = seco_bench::chain_scenario(2, 42);
        ServerState::new(registry, config)
    }

    #[test]
    fn admission_enforces_the_concurrency_cap() {
        let s = state(ServerConfig {
            max_concurrent: 2,
            ..Default::default()
        });
        let a = s.admit("t").expect("slot 1");
        let _b = s.admit("t").expect("slot 2");
        assert_eq!(s.admit("t").unwrap_err(), Refusal::AtCapacity);
        drop(a);
        let _c = s.admit("t").expect("slot freed by drop");
    }

    #[test]
    fn budgets_and_draining_refuse_admission() {
        let s = state(ServerConfig {
            tenant_budget: 5,
            ..Default::default()
        });
        s.charge("greedy", 5);
        assert_eq!(s.admit("greedy").unwrap_err(), Refusal::BudgetExhausted);
        let _ok = s.admit("frugal").expect("other tenants unaffected");
        s.begin_drain();
        assert_eq!(s.admit("frugal").unwrap_err(), Refusal::Draining);
    }

    #[test]
    fn second_plan_of_the_same_query_is_cached() {
        let (registry, query) = seco_bench::chain_scenario(3, 42);
        let s = ServerState::new(registry, ServerConfig::default());
        let (_, cached_first) = s.plan(&query).expect("plans");
        let (_, cached_second) = s.plan(&query).expect("plans");
        assert!(!cached_first);
        assert!(cached_second);
        assert_eq!(s.plan_cache.len(), 1);
    }

    #[test]
    fn sessions_lock_apart_and_a_close_mid_op_404s_the_next_op() {
        use std::sync::mpsc;

        let (registry, query) = seco_bench::chain_scenario(2, 42);
        let s = ServerState::new(registry, ServerConfig::default());
        let (best, _) = s.plan(&query).expect("plans");
        let open = || {
            let set = seco_engine::ResultSet::new(Vec::new(), query.ranking.clone());
            s.open_session(|id| Session::new(id, "t".into(), query.clone(), best.plan.clone(), set))
                .expect("table has room")
        };
        let (held, other) = (open(), open());
        let (entered_tx, entered) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let state = &*s;
            let op = scope.spawn(move || {
                state.with_session(held, |session| {
                    entered_tx.send(()).expect("test thread waits");
                    released.recv().expect("test thread releases");
                    session.id
                })
            });
            entered.recv().expect("the op is now inside its session");
            assert_eq!(
                s.with_session(other, |session| session.id),
                Some(other),
                "another session is not behind the held one"
            );
            assert!(s.close_session(held), "close does not wait for the op");
            assert!(s.with_session(held, |_| ()).is_none(), "next op: 404");
            assert_eq!(s.open_sessions(), 1);
            release.send(()).expect("the op is waiting");
            assert_eq!(op.join().expect("op thread"), Some(held), "the op finished");
        });
    }
}
