//! Client-side response caching: sharded, coalescing, hash-keyed.
//!
//! Service calls are idempotent for a fixed request (the substrate
//! guarantees it), so an execution engine may memoize request-responses
//! instead of re-issuing them. This matters for chain topologies: in
//! `Movie → Theatre`, the theatre's inputs are the same constants for
//! every movie tuple, so all but the first request-response per chunk
//! are cache hits — which is also the quantitative content of the §5.3
//! *bound-is-better* intuition ("the service is faster in producing
//! results, and less memory is required to cache the data": fewer bound
//! inputs ⇒ more distinct binding sets ⇒ a bigger cache).
//!
//! Four properties distinguish this cache from a plain memo map:
//!
//! * **Structured keys** — a [`RequestKey`] is a 64-bit fingerprint
//!   computed directly over the request's chunk index, bindings, and
//!   range constraints. No string rendering, no per-lookup heap
//!   allocation; `Bindings`/`Ranges` are `BTreeMap`s, so the hash is
//!   independent of binding insertion order by construction.
//! * **Sharding** — entries are spread over N independently locked
//!   shards selected by the fingerprint, so parallel plan nodes stop
//!   serializing on one global lock.
//! * **Request coalescing** (singleflight) — when two threads miss on
//!   the same key simultaneously, one issues the underlying call and
//!   the others block on its published result, so fault-retry storms
//!   and diamond topologies never duplicate in-flight I/O. Coalesced
//!   waits are counted separately from hits.
//! * **Admission on proof** — a long-lived daemon sees an open-ended
//!   stream of requests that are never repeated (every never-seen query
//!   constant makes some), so a body earns a lasting place only by being
//!   asked for twice. A new body waits in a small FIFO of *unproven*
//!   entries (an eighth of the capacity) where it can already be hit;
//!   when the FIFO overflows, the oldest unhit body is dropped and only
//!   its 8-byte fingerprint is remembered, in a bounded FIFO *ghost*
//!   set (four times the capacity). A hit on an unproven body, or a
//!   miss whose fingerprint is a ghost, moves the body into the main
//!   table. The main table itself never evicts and takes nothing once
//!   full (probation ends with the entry that fills it): against a
//!   cyclic scan of a working set larger than the cache that keeps a
//!   fixed subset hitting (ratio ≈ capacity ÷ working set), where any
//!   recency-based replacement scores zero. A working set no larger
//!   than the unproven FIFO sees exactly a plain memo map: miss once,
//!   hit from the second request on.
//!
//!   Probation has to pay for itself: when fewer than one in four of
//!   the bodies passing through it is hit, the traffic is one-off (or
//!   repeats only at a distance the ghosts span) and the shard stops
//!   holding new bodies — a miss then leaves only its fingerprint, the
//!   queue drains, and the body is freed by the query that fetched it.
//!   A run of hits the queue would have taken (ghosts forgotten within
//!   the last queue-length) pays the debt down and bodies are held
//!   again. One-off traffic, however long, therefore holds at most the
//!   unproven FIFO's bodies, and soon none.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex as StdMutex};

use parking_lot::Mutex;

use seco_model::{ServiceInterface, Value};

use crate::error::ServiceError;
use crate::invocation::{ChunkResponse, Request, Service};
use crate::recorder::CallRecorder;
use crate::wire::chunk_wire_size_body;

/// Default shard count when callers do not choose one.
pub const DEFAULT_SHARDS: usize = 8;

/// A 64-bit fingerprint identifying a request (chunk + bindings +
/// ranges), computed structurally without rendering the request to a
/// string. Two semantically equal requests — same chunk, same binding
/// map, same constraint map — produce the same key regardless of the
/// order bindings were inserted, because `Bindings` and `Ranges` are
/// ordered maps with a canonical iteration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestKey(u64);

impl RequestKey {
    /// Fingerprints a request.
    pub fn of(request: &Request) -> Self {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        request.chunk.hash(&mut h);
        request.bindings.len().hash(&mut h);
        for (path, value) in &request.bindings {
            path.hash(&mut h);
            hash_value(value, &mut h);
        }
        request.ranges.len().hash(&mut h);
        for (path, (op, value)) in &request.ranges {
            path.hash(&mut h);
            op.hash(&mut h);
            hash_value(value, &mut h);
        }
        RequestKey(h.finish())
    }

    /// The raw 64-bit fingerprint.
    pub fn fingerprint(self) -> u64 {
        self.0
    }

    /// The shard this key selects among `shards` (≥ 1).
    pub fn shard(self, shards: usize) -> usize {
        (self.0 % shards.max(1) as u64) as usize
    }
}

/// Hashes a [`Value`] structurally. `Value` cannot derive `Hash`
/// (it contains `f64`); floats are hashed by their bit pattern, which
/// is sound here because `Value::float` already rejects `NaN` and the
/// synthetic substrate never produces `-0.0`.
fn hash_value<H: Hasher>(value: &Value, state: &mut H) {
    match value {
        Value::Null => 0u8.hash(state),
        Value::Bool(b) => {
            1u8.hash(state);
            b.hash(state);
        }
        Value::Int(i) => {
            2u8.hash(state);
            i.hash(state);
        }
        Value::Float(f) => {
            3u8.hash(state);
            f.to_bits().hash(state);
        }
        Value::Text(s) => {
            4u8.hash(state);
            s.hash(state);
        }
        Value::Date(d) => {
            5u8.hash(state);
            d.hash(state);
        }
    }
}

/// An in-flight underlying call other threads can wait on. Uses the
/// standard-library mutex/condvar pair (the `parking_lot` shim carries
/// no condvar): the leader publishes the call's result into `slot` and
/// wakes every waiter.
struct Flight {
    slot: StdMutex<Option<Result<ChunkResponse, ServiceError>>>,
    done: Condvar,
}

impl Flight {
    fn new() -> Arc<Self> {
        Arc::new(Flight {
            slot: StdMutex::new(None),
            done: Condvar::new(),
        })
    }

    fn publish(&self, result: Result<ChunkResponse, ServiceError>) {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(result);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<ChunkResponse, ServiceError> {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.done.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// One shard: its cached entries and the calls currently in flight for
/// keys that hash here. A single lock covers all of it so the
/// hit / join-flight / become-leader decision is atomic. A cached
/// [`ChunkResponse`] is an `Arc` handle to its immutable body, so a hit
/// clones a pointer — O(1) in the size of the chunk, with no deep copy
/// inside or outside the critical section.
#[derive(Default)]
struct Shard {
    /// The main table: bodies asked for at least twice. Never evicts.
    entries: HashMap<u64, ChunkResponse>,
    /// Bodies asked for once so far, oldest first in `unproven_order`.
    unproven: HashMap<u64, ChunkResponse>,
    unproven_order: VecDeque<u64>,
    /// Fingerprints of bodies that left `unproven` unhit, oldest first
    /// in `ghost_order` (which may still list a fingerprint that has
    /// since been admitted; forgetting it twice is harmless).
    ghosts: HashSet<u64>,
    ghost_order: VecDeque<u64>,
    /// How probation has paid lately: one up for every body that left
    /// it (or was turned away) unhit, [`PROOF_CREDIT`] down for every
    /// hit on it.
    debt: usize,
    inflight: HashMap<u64, Arc<Flight>>,
}

impl Shard {
    /// The cached body for `key`, as a free re-delivery. A hit on an
    /// unproven body is its proof: it moves to the main table.
    fn lookup(&mut self, key: u64, capacity: usize) -> Option<ChunkResponse> {
        if let Some(hit) = self.entries.get(&key) {
            // A cache hit costs no service time and no tuple copies:
            // the response re-shares the stored body.
            return Some(hit.with_elapsed(0.0));
        }
        let body = self.unproven.remove(&key)?;
        self.unproven_order.retain(|k| *k != key);
        self.debt = self.debt.saturating_sub(PROOF_CREDIT);
        let hit = body.with_elapsed(0.0);
        self.prove(key, body, capacity);
        Some(hit)
    }

    /// Stores a freshly fetched body: in the main table when its
    /// fingerprint is a remembered ghost, among the unproven otherwise
    /// — or, while probation does not pay, nowhere: only the fingerprint
    /// is kept. Hands back the body this displaced from probation, for
    /// the caller to free once the shard is unlocked. A full table takes
    /// nothing.
    fn admit(&mut self, key: u64, body: ChunkResponse, capacity: usize) -> Option<ChunkResponse> {
        if self.entries.len() >= capacity {
            return None;
        }
        let bound = unproven_bound(capacity);
        if self.ghosts.remove(&key) {
            // Forgotten so recently that a paying probation would still
            // have held the body: a hit it was not there to take.
            if self.ghost_order.iter().rev().take(bound).any(|k| *k == key) {
                self.debt = self.debt.saturating_sub(PROOF_CREDIT);
            }
            self.prove(key, body, capacity);
            return None;
        }
        // While the queue holds bodies it keeps `bound` of them and the
        // one it displaces goes unhit; while it does not, the newcomer
        // is turned away unhit and the queue drains by one. Either way
        // one more body has passed probation without a hit.
        let holding = self.debt < bound;
        let keep = if holding {
            self.unproven.insert(key, body);
            self.unproven_order.push_back(key);
            bound
        } else {
            self.remember_ghost(key, capacity);
            0
        };
        let oldest = if self.unproven_order.len() > keep {
            self.unproven_order.pop_front()
        } else {
            None
        };
        if oldest.is_some() || !holding {
            self.debt = (self.debt + 1).min(2 * bound);
        }
        let oldest = oldest?;
        self.remember_ghost(oldest, capacity);
        self.unproven.remove(&oldest)
    }

    fn remember_ghost(&mut self, key: u64, capacity: usize) {
        self.ghosts.insert(key);
        self.ghost_order.push_back(key);
        if self.ghost_order.len() > GHOSTS_PER_ENTRY * capacity {
            if let Some(forgotten) = self.ghost_order.pop_front() {
                self.ghosts.remove(&forgotten);
            }
        }
    }

    /// Moves a body into the main table. The entry that fills the table
    /// ends probation for this shard: nothing further can be admitted,
    /// so the bodies waiting for proof and the ghosts are let go, and a
    /// full shard is one map that is only read.
    fn prove(&mut self, key: u64, body: ChunkResponse, capacity: usize) {
        self.entries.insert(key, body);
        if self.entries.len() >= capacity {
            self.unproven = HashMap::new();
            self.unproven_order = VecDeque::new();
            self.ghosts = HashSet::new();
            self.ghost_order = VecDeque::new();
        }
    }
}

/// Bodies a shard of `capacity` main entries holds on probation: an
/// eighth of it, but not so few that a handful of keys that happen to
/// share a shard push each other out of a small cache.
fn unproven_bound(capacity: usize) -> usize {
    capacity.div_ceil(8).max(capacity.min(8))
}

/// What one hit on an unproven body pays off, in bodies that passed
/// probation unhit: the queue holds bodies while its debt is below its
/// own length, i.e. while at least one in four of them is hit. Below
/// that the traffic is one-off, or repeats at a distance only the
/// ghosts span, and holding its bodies buys few hits at a high price:
/// a body that leaves the queue is freed by a later request — another
/// thread, after the memory has gone cold — at 10–25 µs a body in the
/// daemon, as much as fetching it again, where the query that fetched
/// it frees it for a tenth of a microsecond. The debt is capped at
/// twice the queue length, so a shard that stopped holding bodies
/// resumes only on a run of hits (real ones, or ghosts so recent the
/// queue would have held them), not on a stray one.
const PROOF_CREDIT: usize = 3;

/// Ghost fingerprints remembered per main-table entry. Four capacities
/// cover one cycle of the largest working set the benchmark scans
/// (≈12.8 k keys against a 4 096-entry cache); a set that cannot
/// remember one cycle never admits anything.
const GHOSTS_PER_ENTRY: usize = 4;

/// A memoizing, coalescing decorator over any service.
pub struct CachingService {
    inner: Arc<dyn Service>,
    shards: Vec<Mutex<Shard>>,
    /// Maximum main-table entries per shard (total capacity ÷ shard
    /// count); the unproven and ghost bounds derive from it.
    per_shard_capacity: usize,
    /// Total configured capacity (0 disables caching and coalescing).
    capacity: usize,
    recorder: Option<Arc<CallRecorder>>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
}

impl CachingService {
    /// Wraps a service with a cache of at most `capacity` proven
    /// responses (plus `capacity / 8` on probation) over
    /// [`DEFAULT_SHARDS`] shards; 0 disables caching. See the module
    /// docs for what earns a response its place.
    pub fn new(inner: Arc<dyn Service>, capacity: usize) -> Self {
        Self::sharded(inner, capacity, DEFAULT_SHARDS)
    }

    /// Wraps a service with an explicit shard count (≥ 1).
    pub fn sharded(inner: Arc<dyn Service>, capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        CachingService {
            inner,
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: capacity.div_ceil(shards),
            capacity,
            recorder: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Mirrors hits and coalesced waits into a [`CallRecorder`], so
    /// registry-level statistics see them next to the underlying calls.
    pub fn with_recorder(mut self, recorder: Arc<CallRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (actual inner calls that succeeded) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Requests that waited on another thread's in-flight call instead
    /// of issuing their own.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Bodies currently cached, proven and unproven, over all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let s = s.lock();
                s.entries.len() + s.unproven.len()
            })
            .sum()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bodies still on probation (asked for once), over all shards.
    pub fn unproven_len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unproven.len()).sum()
    }

    /// Wire-equivalent size of every cached body: an approximation of
    /// the memory they hold, computed on demand by walking the bodies
    /// (for `/stats`, not for a hot path).
    pub fn approx_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let s = s.lock();
                (s.entries.values().chain(s.unproven.values()))
                    .map(|resp| chunk_wire_size_body(resp.body()))
                    .sum::<usize>()
            })
            .sum()
    }
}

impl Service for CachingService {
    fn interface(&self) -> &ServiceInterface {
        self.inner.interface()
    }

    fn fetch(&self, request: &Request) -> Result<ChunkResponse, ServiceError> {
        if self.capacity == 0 {
            return self.inner.fetch(request);
        }
        let key = RequestKey::of(request);
        let shard = &self.shards[key.shard(self.shards.len())];

        enum Role {
            Hit(ChunkResponse),
            Waiter(Arc<Flight>),
            Leader(Arc<Flight>),
        }
        let role = {
            let mut guard = shard.lock();
            if let Some(hit) = guard.lookup(key.fingerprint(), self.per_shard_capacity) {
                Role::Hit(hit)
            } else if let Some(flight) = guard.inflight.get(&key.fingerprint()) {
                Role::Waiter(flight.clone())
            } else {
                let flight = Flight::new();
                guard.inflight.insert(key.fingerprint(), flight.clone());
                Role::Leader(flight)
            }
        };

        match role {
            Role::Hit(resp) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if let Some(rec) = &self.recorder {
                    rec.note_cache_hit();
                }
                Ok(resp)
            }
            Role::Waiter(flight) => {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                if let Some(rec) = &self.recorder {
                    rec.note_coalesced();
                }
                // The leader pays the call's time; joining its flight
                // is free, like a hit, and shares the leader's body.
                flight.wait().map(|resp| resp.with_elapsed(0.0))
            }
            Role::Leader(flight) => {
                let result = self.inner.fetch(request);
                flight.publish(result.clone());
                let mut guard = shard.lock();
                guard.inflight.remove(&key.fingerprint());
                if let Ok(resp) = &result {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    let displaced =
                        guard.admit(key.fingerprint(), resp.clone(), self.per_shard_capacity);
                    drop(guard);
                    drop(displaced);
                }
                result
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{DomainMap, SyntheticService};
    use seco_model::{
        Adornment, AttributeDef, AttributePath, DataType, ScoreDecay, ServiceKind, ServiceSchema,
        ServiceStats, Value,
    };
    use std::sync::Arc;

    fn service() -> Arc<SyntheticService> {
        let schema = ServiceSchema::new(
            "S1",
            vec![
                AttributeDef::atomic("K", DataType::Text, Adornment::Input),
                AttributeDef::atomic("V", DataType::Text, Adornment::Output),
                AttributeDef::atomic("Score", DataType::Float, Adornment::Ranked),
            ],
        )
        .unwrap();
        let iface = ServiceInterface::new(
            "S1",
            "S",
            schema,
            ServiceKind::Search,
            ServiceStats::new(20.0, 10, 40.0, 1.0).unwrap(),
            ScoreDecay::Linear,
        )
        .unwrap();
        Arc::new(SyntheticService::new(iface, DomainMap::new(), 3))
    }

    fn req(k: &str) -> Request {
        Request::unbound().bind(AttributePath::atomic("K"), Value::text(k))
    }

    #[test]
    fn repeated_requests_hit_the_cache() {
        let inner = service();
        let cached = CachingService::new(inner.clone(), 64);
        let a = cached.fetch(&req("x")).unwrap();
        let b = cached.fetch(&req("x")).unwrap();
        assert_eq!(a.tuples(), b.tuples());
        assert_eq!((cached.hits(), cached.misses()), (1, 1));
        assert_eq!(inner.calls_served(), 1, "the inner service was called once");
        // Hits are free.
        assert_eq!(b.elapsed_ms, 0.0);
        assert!(a.elapsed_ms > 0.0);
    }

    #[test]
    fn cache_hits_share_the_stored_body_without_copying() {
        // Regression test for the hit-path deep copy: a hit must be O(1)
        // in the response size, which means every hit hands out the SAME
        // body allocation — not a copy of its tuples.
        let inner = service();
        let recorder = CallRecorder::new(inner.clone());
        let cached = CachingService::new(inner, 64).with_recorder(recorder.clone());
        let miss = cached.fetch(&req("x")).unwrap();
        assert!(!miss.is_empty(), "fixture must produce a non-trivial chunk");
        let h1 = cached.fetch(&req("x")).unwrap();
        let h2 = cached.fetch(&req("x")).unwrap();
        assert!(
            Arc::ptr_eq(miss.body(), h1.body()) && Arc::ptr_eq(h1.body(), h2.body()),
            "hits must re-share the cached body allocation"
        );
        for (t1, t2) in miss.tuples().iter().zip(h1.tuples()) {
            assert!(Arc::ptr_eq(t1, t2), "tuple handles must be shared too");
        }
        // The data plane performed zero deep copies serving those hits.
        let stats = recorder.stats();
        assert_eq!((stats.clone_events, stats.bytes_cloned), (0, 0));
        assert_eq!(stats.cache_hits, 2);
    }

    #[test]
    fn different_bindings_and_chunks_are_distinct_entries() {
        let cached = CachingService::new(service(), 64);
        cached.fetch(&req("x")).unwrap();
        cached.fetch(&req("y")).unwrap();
        cached.fetch(&req("x").at_chunk(1)).unwrap();
        assert_eq!(cached.misses(), 3);
        assert_eq!(cached.len(), 3);
        assert!(!cached.is_empty());
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let inner = service();
        let cached = CachingService::new(inner.clone(), 0);
        cached.fetch(&req("x")).unwrap();
        cached.fetch(&req("x")).unwrap();
        assert_eq!(cached.hits(), 0);
        assert_eq!(inner.calls_served(), 2);
    }

    #[test]
    fn chained_constant_bindings_collapse_to_one_call() {
        // The chain-topology scenario: the same constant-bound request
        // repeated once per upstream tuple.
        let inner = service();
        let cached = CachingService::new(inner.clone(), 16);
        for _ in 0..100 {
            cached.fetch(&req("fixed")).unwrap();
        }
        assert_eq!(inner.calls_served(), 1);
        assert_eq!(cached.hits(), 99);
    }

    #[test]
    fn range_constraints_participate_in_the_key() {
        use seco_model::Comparator;
        let cached = CachingService::new(service(), 16);
        let base = req("x");
        let constrained =
            req("x").constrain(AttributePath::atomic("K"), Comparator::Gt, Value::Int(3));
        cached.fetch(&base).unwrap();
        cached.fetch(&constrained).unwrap();
        assert_eq!(cached.misses(), 2, "different constraints must not collide");
    }

    #[test]
    fn request_keys_ignore_binding_insertion_order() {
        use seco_model::Comparator;
        let a = Request::unbound()
            .bind(AttributePath::atomic("A"), Value::text("1"))
            .bind(AttributePath::atomic("B"), Value::Int(2))
            .constrain(AttributePath::atomic("C"), Comparator::Gt, Value::Int(3))
            .constrain(AttributePath::atomic("D"), Comparator::Lt, Value::Int(4));
        let b = Request::unbound()
            .constrain(AttributePath::atomic("D"), Comparator::Lt, Value::Int(4))
            .constrain(AttributePath::atomic("C"), Comparator::Gt, Value::Int(3))
            .bind(AttributePath::atomic("B"), Value::Int(2))
            .bind(AttributePath::atomic("A"), Value::text("1"));
        assert_eq!(
            RequestKey::of(&a),
            RequestKey::of(&b),
            "semantically equal requests must hash identically"
        );
        assert_ne!(
            RequestKey::of(&a),
            RequestKey::of(&a.at_chunk(1)),
            "the chunk index is part of the key"
        );
        let narrower =
            a.clone()
                .constrain(AttributePath::atomic("C"), Comparator::Gt, Value::Int(9));
        assert_ne!(
            RequestKey::of(&a),
            RequestKey::of(&narrower),
            "constraint values are part of the key"
        );
    }

    #[test]
    fn entries_spread_over_shards() {
        // 64 first-time keys all fit the probation queues of a cache
        // this size, wherever they hash.
        let cached = CachingService::sharded(service(), 2048, 4);
        assert_eq!(cached.shard_count(), 4);
        for i in 0..64 {
            cached.fetch(&req(&format!("k{i}"))).unwrap();
        }
        assert_eq!(cached.len(), 64);
        let populated = cached
            .shards
            .iter()
            .filter(|s| !s.lock().unproven.is_empty())
            .count();
        assert!(
            populated >= 2,
            "64 distinct keys must land in more than one shard, got {populated}"
        );
    }

    #[test]
    fn never_repeated_keys_hold_at_most_the_probation_queue() {
        // 4 shards x 64 main entries: 8 bodies on probation per shard.
        let inner = service();
        let cached = CachingService::sharded(inner.clone(), 256, 4);
        let mut peak = 0;
        for i in 0..600 {
            cached.fetch(&req(&format!("once-{i}"))).unwrap();
            assert!(cached.len() <= 32, "{} bodies held after {i}", cached.len());
            peak = peak.max(cached.len());
        }
        assert!(peak > 8, "probation did hold first-time bodies: {peak}");
        // Two turnovers of each queue without one hit: probation gave
        // up holding bodies and drained. Fingerprints are all that stay.
        assert_eq!((cached.len(), cached.unproven_len()), (0, 0));
        assert_eq!((cached.hits(), inner.calls_served()), (0, 600));
        let ghosts: usize = cached.shards.iter().map(|s| s.lock().ghosts.len()).sum();
        assert_eq!(ghosts, 600);
    }

    #[test]
    fn the_ghost_set_is_bounded_too() {
        // One shard of 8 main entries: 8 on probation, 32 ghosts.
        let cached = CachingService::sharded(service(), 8, 1);
        for i in 0..200 {
            cached.fetch(&req(&format!("once-{i}"))).unwrap();
        }
        let shard = cached.shards[0].lock();
        assert_eq!((shard.unproven.len(), shard.unproven_order.len()), (0, 0));
        assert_eq!((shard.ghosts.len(), shard.ghost_order.len()), (32, 32));
    }

    #[test]
    fn probation_resumes_when_requests_start_repeating_again() {
        // One shard: 64 main entries, 8 on probation, debt capped at 16.
        let inner = service();
        let cached = CachingService::sharded(inner.clone(), 64, 1);
        for i in 0..100 {
            cached.fetch(&req(&format!("once-{i}"))).unwrap();
        }
        assert_eq!(cached.len(), 0, "a long one-off stream: no body is held");
        // A repeat right after that costs one more call than it would
        // have on a fresh cache — its fingerprint was all that was kept.
        // Being a hit probation would have taken, it pays some debt…
        for (n, key) in ["again-a", "again-b", "again-c", "again-d"]
            .into_iter()
            .enumerate()
        {
            cached.fetch(&req(key)).unwrap();
            assert_eq!(cached.unproven_len(), 0, "{key} was turned away");
            cached.fetch(&req(key)).unwrap();
            cached.fetch(&req(key)).unwrap();
            assert_eq!(
                (cached.hits(), inner.calls_served()),
                (n as u64 + 1, 100 + 2 * (n as u64 + 1)),
                "{key}: two calls, then hits"
            );
        }
        // …and a run of them pays enough: the next newcomer is held and
        // hit on its second request.
        cached.fetch(&req("newcomer")).unwrap();
        assert_eq!(cached.unproven_len(), 1);
        cached.fetch(&req("newcomer")).unwrap();
        assert_eq!((cached.hits(), inner.calls_served()), (5, 109));
    }

    #[test]
    fn a_cyclic_set_is_admitted_on_its_second_pass_and_hits_on_its_third() {
        // 100 keys: more than the 32 probation slots, within the 256
        // main entries and the 1 024 ghosts.
        let inner = service();
        let cached = CachingService::sharded(inner.clone(), 256, 4);
        let pass = || {
            for i in 0..100 {
                cached.fetch(&req(&format!("cycle-{i}"))).unwrap();
            }
        };
        pass();
        assert_eq!((cached.hits(), inner.calls_served()), (0, 100));
        assert!(cached.len() <= 32);
        // Second pass: a key still on probation is hit and proven, a
        // ghosted one is fetched again and goes straight to the table.
        pass();
        assert_eq!(cached.hits() + 100, 200 - (inner.calls_served() - 100));
        assert_eq!((cached.len(), cached.unproven_len()), (100, 0));
        let (hits, calls) = (cached.hits(), inner.calls_served());
        pass();
        assert_eq!(cached.hits(), hits + 100, "third pass: every key hits");
        assert_eq!(inner.calls_served(), calls, "with no call underneath");
    }

    #[test]
    fn a_full_main_table_still_refuses() {
        // One shard: 16 main entries, 8 on probation.
        let inner = service();
        let cached = CachingService::sharded(inner.clone(), 16, 1);
        cached.fetch(&req("bystander")).unwrap();
        for i in 0..16 {
            cached.fetch(&req(&format!("early-{i}"))).unwrap();
            cached.fetch(&req(&format!("early-{i}"))).unwrap();
        }
        assert_eq!((cached.len(), cached.hits()), (16, 16));
        // The entry that filled the table ended probation: the unproven
        // bystander and every ghost went with it.
        assert_eq!(cached.unproven_len(), 0);
        assert!(cached.shards[0].lock().ghosts.is_empty());
        // A latecomer is fetched every time, however often it is asked
        // for: the table is full and never evicts.
        let calls = inner.calls_served();
        for _ in 0..3 {
            cached.fetch(&req("late")).unwrap();
        }
        assert_eq!(inner.calls_served(), calls + 3);
        assert_eq!((cached.len(), cached.unproven_len()), (16, 0));
        // The early entries still answer.
        cached.fetch(&req("early-0")).unwrap();
        assert_eq!((cached.hits(), inner.calls_served()), (17, calls + 3));
    }

    #[test]
    fn racing_threads_coalesce_on_one_underlying_call() {
        use std::sync::Barrier;
        let inner = service();
        let cached = Arc::new(CachingService::new(inner.clone(), 64));
        let k = 8;
        let barrier = Arc::new(Barrier::new(k));
        std::thread::scope(|scope| {
            for _ in 0..k {
                let cached = cached.clone();
                let barrier = barrier.clone();
                scope.spawn(move || {
                    barrier.wait();
                    cached.fetch(&req("same")).unwrap();
                });
            }
        });
        assert_eq!(inner.calls_served(), 1, "exactly one underlying call");
        assert_eq!(
            cached.hits() + cached.coalesced() + cached.misses(),
            k as u64,
            "every request is a miss, a hit, or a coalesced wait"
        );
        assert_eq!(cached.misses(), 1);
    }
}
