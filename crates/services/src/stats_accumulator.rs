//! Runtime statistics accumulation: the observation side of adaptive
//! re-optimization.
//!
//! Declared [`seco_model::ServiceStats`] are estimates fixed at
//! registration time; under real traffic they drift. Every
//! [`CallRecorder`](crate::CallRecorder) feeds a [`StatsAccumulator`]
//! with what actually came back over the wire — per-invocation output
//! cardinality (grouped by binding set, so chunked fetches of the same
//! logical invocation accumulate into one observation), and a chunk
//! latency EWMA. Join stages feed equi-join selectivity observations
//! per connection pattern through
//! [`ServiceRegistry::note_join_observation`](crate::ServiceRegistry::note_join_observation).
//!
//! A [`DeviationPolicy`] decides when an observation has drifted far
//! enough from the declared value that plans derived from the declared
//! statistics should no longer be trusted; the registry then *promotes*
//! the observed values into the effective interface, which rolls
//! [`ServiceRegistry::stats_epoch`](crate::ServiceRegistry::stats_epoch)
//! and thereby invalidates stale `PlanCache` entries for free.

use std::collections::{BTreeMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use seco_model::{ServiceInterface, ServiceStats};

use crate::error::ServiceError;
use crate::invocation::{ChunkResponse, Request, Service};

/// Smoothing factor for the chunk-latency EWMA.
const LATENCY_ALPHA: f64 = 0.25;

/// When is an observation "deviant enough" to act on?
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviationPolicy {
    /// Multiplicative drift ratio that triggers promotion: an observed
    /// value `o` deviates from a declared value `d` when
    /// `max(o, d) / min(o, d) >= threshold` (both clamped away from 0).
    pub threshold: f64,
    /// Minimum number of completed observations (bindings for
    /// cardinality, candidate pairs for selectivity) before the test
    /// may fire; guards against promoting off a single noisy sample.
    pub min_samples: u64,
}

impl Default for DeviationPolicy {
    fn default() -> Self {
        DeviationPolicy {
            threshold: 10.0,
            min_samples: 1,
        }
    }
}

/// Multiplicative drift between an observed and a declared value.
/// Symmetric: 10 observed vs 1 declared and 1 observed vs 10 declared
/// both report 10×.
pub fn drift_ratio(observed: f64, declared: f64) -> f64 {
    let o = observed.max(1e-9);
    let d = declared.max(1e-9);
    (o / d).max(d / o)
}

/// What one logical invocation (one binding set) returned so far.
#[derive(Debug, Clone, Default)]
struct BindingObservation {
    /// Tuples seen per chunk index (re-fetching a chunk overwrites, so
    /// cache replays never double-count).
    chunk_lens: BTreeMap<usize, usize>,
    /// The service reported no further chunks: the total is exact.
    complete: bool,
}

impl BindingObservation {
    fn total(&self) -> u64 {
        self.chunk_lens.values().map(|l| *l as u64).sum()
    }
}

/// Observed-cardinality summary for one service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservedCardinality {
    /// Mean total tuples per invocation over completed bindings, or —
    /// when no binding ever completed — the largest partial total.
    pub value: f64,
    /// Whether `value` is exact (≥1 binding ran to exhaustion) or only
    /// a lower bound (every binding still had chunks outstanding).
    pub exact: bool,
    /// Completed bindings behind an exact value; observed bindings
    /// behind a lower bound.
    pub samples: u64,
}

/// Logical invocations a service's accumulator tracks chunk by chunk.
/// The chunks of one invocation arrive close together (one query
/// execution, or one session deepening it), so only recent bindings
/// need their per-chunk state; older ones are folded into running
/// totals. A daemon under never-repeating traffic otherwise keeps one
/// observation per distinct binding for ever — measured at ≈1.25 KB
/// of the ≈1.6 KB a never-seen 4-atom star query left behind.
const LIVE_BINDINGS: usize = 1024;

/// Per-service accumulator of runtime observations.
#[derive(Debug, Default)]
pub struct StatsAccumulator {
    /// The most recent [`LIVE_BINDINGS`] bindings, observed exactly.
    bindings: BTreeMap<u64, BindingObservation>,
    /// Keys of `bindings`, oldest first.
    order: VecDeque<u64>,
    /// Completed bindings folded out of `bindings`, and their tuples.
    settled_complete: u64,
    settled_tuples: u64,
    /// Bindings folded out while still partial, and their largest total.
    settled_partial: u64,
    settled_partial_max: u64,
    latency_ewma_ms: Option<f64>,
    fetches: u64,
}

impl StatsAccumulator {
    /// Records one chunk fetch: which logical invocation it belongs to,
    /// which chunk index, how many tuples came back, whether the
    /// service reported further chunks, and how long the call took.
    pub fn record_fetch(
        &mut self,
        binding_key: u64,
        chunk: usize,
        len: usize,
        has_more: bool,
        elapsed_ms: f64,
    ) {
        self.fetches += 1;
        let ewma = match self.latency_ewma_ms {
            Some(prev) => prev + LATENCY_ALPHA * (elapsed_ms - prev),
            None => elapsed_ms,
        };
        self.latency_ewma_ms = Some(ewma);
        let obs = self.bindings.entry(binding_key).or_insert_with(|| {
            self.order.push_back(binding_key);
            BindingObservation::default()
        });
        obs.chunk_lens.insert(chunk, len);
        if !has_more {
            obs.complete = true;
        }
        if self.order.len() > LIVE_BINDINGS {
            self.settle_oldest();
        }
    }

    /// Folds the oldest live binding into the running totals. (Should
    /// it be fetched again it starts a fresh observation; a completed
    /// binding then weighs twice in the mean, with the same total.)
    fn settle_oldest(&mut self) {
        let Some(obs) = self
            .order
            .pop_front()
            .and_then(|k| self.bindings.remove(&k))
        else {
            return;
        };
        if obs.complete {
            self.settled_complete += 1;
            self.settled_tuples += obs.total();
        } else {
            self.settled_partial += 1;
            self.settled_partial_max = self.settled_partial_max.max(obs.total());
        }
    }

    /// Chunk fetches recorded so far.
    pub fn fetches(&self) -> u64 {
        self.fetches
    }

    /// EWMA of per-chunk latency, if any call was observed.
    pub fn latency_ewma_ms(&self) -> Option<f64> {
        self.latency_ewma_ms
    }

    /// Observed output cardinality per invocation, if any.
    pub fn cardinality(&self) -> Option<ObservedCardinality> {
        let (mut complete, mut tuples) = (self.settled_complete, self.settled_tuples);
        for b in self.bindings.values().filter(|b| b.complete) {
            complete += 1;
            tuples += b.total();
        }
        if complete > 0 {
            return Some(ObservedCardinality {
                value: tuples as f64 / complete as f64,
                exact: true,
                samples: complete,
            });
        }
        let samples = self.settled_partial + self.bindings.len() as u64;
        if samples == 0 {
            return None;
        }
        let best = self.bindings.values().map(|b| b.total()).max();
        Some(ObservedCardinality {
            value: best.unwrap_or(0).max(self.settled_partial_max) as f64,
            exact: false,
            samples,
        })
    }

    /// Drops all observations (between experiment repetitions).
    pub fn reset(&mut self) {
        *self = StatsAccumulator::default();
    }
}

/// Observed pair/match counts behind one connection pattern's
/// equi-join selectivity.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JoinObservation {
    /// Candidate pairs examined (left × right cardinality).
    pub pairs: u64,
    /// Pairs that satisfied the pattern's join predicate(s).
    pub matches: u64,
}

impl JoinObservation {
    /// Observed selectivity, if any pair was examined.
    pub fn selectivity(&self) -> Option<f64> {
        if self.pairs == 0 {
            None
        } else {
            Some(self.matches as f64 / self.pairs as f64)
        }
    }
}

/// Declared-vs-observed snapshot for one service, as dumped by
/// `seco stats`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceDrift {
    /// Declared (registration-time) average cardinality.
    pub declared_cardinality: f64,
    /// Observed cardinality, if the service was invoked.
    pub observed_cardinality: Option<ObservedCardinality>,
    /// Declared per-request response time.
    pub declared_latency_ms: f64,
    /// Observed per-chunk latency EWMA.
    pub observed_latency_ms: Option<f64>,
    /// Chunk fetches behind the observations.
    pub fetches: u64,
    /// Whether observed statistics have been promoted into the
    /// effective interface (rolling the stats epoch).
    pub promoted: bool,
}

/// A decorator whose *declared* statistics disagree with the data its
/// inner service actually serves — the controlled way to create drift
/// for adaptive-optimization tests and benchmarks. The inner service
/// (typically a [`SyntheticService`](crate::SyntheticService) built
/// from the *true* statistics) generates results as usual; only the
/// interface reported to the registry and optimizer lies.
pub struct MisdeclaredService {
    inner: Arc<dyn Service>,
    declared: ServiceInterface,
}

impl MisdeclaredService {
    /// Wraps `inner`, reporting its interface with `declared_stats`
    /// substituted.
    pub fn new(inner: Arc<dyn Service>, declared_stats: ServiceStats) -> Self {
        let mut declared = inner.interface().clone();
        declared.stats = declared_stats;
        MisdeclaredService { inner, declared }
    }
}

impl Service for MisdeclaredService {
    fn interface(&self) -> &ServiceInterface {
        &self.declared
    }

    fn fetch(&self, request: &Request) -> Result<ChunkResponse, ServiceError> {
        self.inner.fetch(request)
    }
}

/// Stable key identifying the logical invocation of a request: its
/// bindings and range predicates, but *not* the chunk index — every
/// chunk of one invocation lands in the same observation group.
pub fn request_binding_key(request: &Request) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for (k, v) in &request.bindings {
        k.hash(&mut h);
        v.to_string().hash(&mut h);
    }
    for (k, (op, v)) in &request.ranges {
        k.hash(&mut h);
        op.to_string().hash(&mut h);
        v.to_string().hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_observations_are_lower_bounds() {
        let mut acc = StatsAccumulator::default();
        acc.record_fetch(1, 0, 10, true, 5.0);
        let card = acc.cardinality().unwrap();
        assert!(!card.exact);
        assert!((card.value - 10.0).abs() < 1e-12);
        // Re-fetching the same chunk must not double-count.
        acc.record_fetch(1, 0, 10, true, 5.0);
        assert!((acc.cardinality().unwrap().value - 10.0).abs() < 1e-12);
        acc.record_fetch(1, 1, 4, true, 5.0);
        assert!((acc.cardinality().unwrap().value - 14.0).abs() < 1e-12);
    }

    #[test]
    fn completed_bindings_give_exact_means() {
        let mut acc = StatsAccumulator::default();
        acc.record_fetch(1, 0, 10, false, 5.0);
        acc.record_fetch(2, 0, 10, true, 5.0);
        acc.record_fetch(2, 1, 10, false, 5.0);
        let card = acc.cardinality().unwrap();
        assert!(card.exact);
        assert_eq!(card.samples, 2);
        assert!((card.value - 15.0).abs() < 1e-12);
    }

    #[test]
    fn old_bindings_fold_into_totals_without_moving_the_cardinality() {
        let mut acc = StatsAccumulator::default();
        // Every binding completes with 3 + (key mod 5) tuples over two
        // chunks; far more bindings than are tracked live.
        let n = 10 * LIVE_BINDINGS as u64;
        let mut tuples = 0;
        for key in 0..n {
            let extra = (key % 5) as usize;
            acc.record_fetch(key, 0, 3, true, 1.0);
            acc.record_fetch(key, 1, extra, false, 1.0);
            tuples += 3 + extra as u64;
            assert!(acc.bindings.len() <= LIVE_BINDINGS);
            assert_eq!(acc.bindings.len(), acc.order.len());
        }
        let card = acc.cardinality().unwrap();
        assert!(card.exact);
        assert_eq!(card.samples, n);
        assert_eq!(card.value.to_bits(), (tuples as f64 / n as f64).to_bits());
        // A stream that never completes keeps its lower bound and its
        // sample count across the fold as well.
        let mut acc = StatsAccumulator::default();
        for key in 0..n {
            acc.record_fetch(key, 0, if key == 7 { 40 } else { 4 }, true, 1.0);
        }
        let card = acc.cardinality().unwrap();
        assert_eq!((card.exact, card.samples, card.value), (false, n, 40.0));
        acc.reset();
        assert_eq!(acc.cardinality(), None);
    }

    #[test]
    fn latency_ewma_tracks_calls() {
        let mut acc = StatsAccumulator::default();
        assert_eq!(acc.latency_ewma_ms(), None);
        acc.record_fetch(1, 0, 1, false, 100.0);
        assert!((acc.latency_ewma_ms().unwrap() - 100.0).abs() < 1e-12);
        acc.record_fetch(2, 0, 1, false, 200.0);
        assert!((acc.latency_ewma_ms().unwrap() - 125.0).abs() < 1e-12);
        assert_eq!(acc.fetches(), 2);
        acc.reset();
        assert_eq!(acc.fetches(), 0);
        assert_eq!(acc.cardinality(), None);
    }

    #[test]
    fn drift_ratio_is_symmetric() {
        assert!((drift_ratio(20.0, 2.0) - 10.0).abs() < 1e-9);
        assert!((drift_ratio(2.0, 20.0) - 10.0).abs() < 1e-9);
        assert!((drift_ratio(5.0, 5.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn join_observation_selectivity() {
        let obs = JoinObservation {
            pairs: 100,
            matches: 25,
        };
        assert!((obs.selectivity().unwrap() - 0.25).abs() < 1e-12);
        assert_eq!(JoinObservation::default().selectivity(), None);
    }
}
