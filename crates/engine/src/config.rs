//! The consolidated engine configuration.
//!
//! [`EngineConfig`] gathers everything that used to be spread across
//! the historical `ExecOptions`, [`FetchOptions`], [`JoinIndexOptions`],
//! and the columnar-plane switches into one builder-style value — the
//! single configuration surface of the engine and of `seco serve`.
//! Every `seco run` CLI flag but `--exec-workers` maps 1:1 to a builder
//! method, and both executors ([`crate::execute_plan`] and
//! [`crate::execute_parallel`]) consume it directly. The worker count is
//! the pool's: [`crate::SharedState::for_daemon`] sizes it, and the join
//! kernels fan out on it.

use seco_join::{ColumnarOptions, JoinIndexMode, JoinIndexOptions};
use seco_optimizer::CostMetric;
use seco_services::ClientConfig;

/// What to do when a service fails past the resilience middleware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailureMode {
    /// Abort the execution with the error (historical behaviour).
    #[default]
    Abort,
    /// Degrade gracefully: the failing branch contributes whatever it
    /// produced before failing, the failed services are listed on the
    /// result, and execution continues.
    Degrade,
}

/// Fetch-layer options: the sharded, request-coalescing response cache
/// ([`seco_services::cache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchOptions {
    /// Shards of the per-service response cache; 0 leaves the cache
    /// off.
    pub cache_shards: usize,
    /// Maximum cached responses per service, across all shards.
    pub cache_capacity: usize,
}

impl Default for FetchOptions {
    fn default() -> Self {
        FetchOptions {
            cache_shards: 0,
            cache_capacity: 4096,
        }
    }
}

impl FetchOptions {
    /// A cache of `shards` shards at the default capacity.
    pub fn cached(shards: usize) -> Self {
        FetchOptions {
            cache_shards: shards,
            ..Default::default()
        }
    }

    /// `(shards, capacity)` when the cache is on.
    pub fn cache(&self) -> Option<(usize, usize)> {
        (self.cache_shards > 0).then_some((self.cache_shards, self.cache_capacity))
    }

    /// True when any part of the fetch layer is active.
    pub fn enabled(&self) -> bool {
        self.cache().is_some()
    }
}

/// Engine-wide execution configuration.
///
/// Construct with [`EngineConfig::default`] and chain builder methods:
///
/// ```
/// use seco_engine::{EngineConfig, FailureMode};
///
/// let config = EngineConfig::default()
///     .join_k(10)
///     .failure_mode(FailureMode::Degrade)
///     .cache_shards(8)
///     .columnar(true)
///     .batch_eval(true);
/// assert_eq!(config.join_k, 10);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Stop parallel joins after this many emitted results (0 = no
    /// limit). Corresponds to the optimizer's `k` when the join node is
    /// the last producer.
    pub join_k: usize,
    /// Abort on service failure (default) or degrade gracefully.
    pub failure_mode: FailureMode,
    /// When set, every service call goes through a
    /// [`seco_services::ServiceClient`] with this resilience
    /// configuration (deadline, retry/backoff, circuit breaker). One
    /// client — hence one breaker — per service.
    pub client: Option<ClientConfig>,
    /// Fetch-layer configuration (cache, coalescing). The
    /// cache sits *above* the resilient client, so hits and coalesced
    /// waits bypass retries and breaker checks entirely.
    pub fetch: FetchOptions,
    /// Join-kernel configuration: hash-index acceleration of tile and
    /// pipe joins. The default (`Hash`) is byte-identical to the
    /// nested-loop baseline.
    pub join_index: JoinIndexOptions,
    /// Columnar data-plane configuration: column-backed key extraction
    /// and vectorized batch predicate evaluation. The default (both on)
    /// is byte-identical to the row-at-a-time plane.
    pub columnar: ColumnarOptions,
    /// Runs parallel joins as true top-k rank joins when `join_k > 0`:
    /// score-sorted inputs, a threshold bound over the unseen frontier,
    /// and chunk fetches that stop as soon as the k-th buffered result
    /// meets the bound. Output is the score-correct k-prefix of the
    /// full enumeration (off by default). Without it, every eligible
    /// chain of parallel joins runs fused in the single-pass n-ary
    /// kernel, byte-identical to the binary cascade.
    pub rank_join: bool,
    /// Adaptive re-optimization: after each fresh service or join stage,
    /// compare observed output cardinality against the plan-time
    /// estimate; when they deviate past [`adaptive_threshold`]
    /// (`EngineConfig::adaptive_threshold`), promote the observed
    /// statistics into the registry and re-plan the unexecuted suffix
    /// mid-flight ([`seco_optimizer::Optimizer::replan_suffix`]). Off by
    /// default: execution is byte-identical to the non-adaptive engine.
    pub adaptive: bool,
    /// Deviation ratio (`max(obs/est, est/obs)`) that triggers a
    /// mid-flight re-plan when [`adaptive`](EngineConfig::adaptive) is
    /// on.
    pub adaptive_threshold: f64,
    /// Cost metric the mid-flight re-planner optimizes.
    pub adaptive_metric: CostMetric,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            join_k: 0,
            failure_mode: FailureMode::default(),
            client: None,
            fetch: FetchOptions::default(),
            join_index: JoinIndexOptions::default(),
            columnar: ColumnarOptions::default(),
            rank_join: false,
            adaptive: false,
            adaptive_threshold: 10.0,
            adaptive_metric: CostMetric::ExecutionTime,
        }
    }
}

impl EngineConfig {
    /// Sets the parallel-join result target `k` (0 = no limit).
    pub fn join_k(mut self, k: usize) -> Self {
        self.join_k = k;
        self
    }

    /// Sets the failure mode.
    pub fn failure_mode(mut self, mode: FailureMode) -> Self {
        self.failure_mode = mode;
        self
    }

    /// Shorthand for [`FailureMode::Degrade`].
    pub fn degrade(self) -> Self {
        self.failure_mode(FailureMode::Degrade)
    }

    /// Routes every service call through a resilient client with this
    /// configuration.
    pub fn client(mut self, config: ClientConfig) -> Self {
        self.client = Some(config);
        self
    }

    /// Sets the response-cache shard count (0 = cache off).
    pub fn cache_shards(mut self, shards: usize) -> Self {
        self.fetch.cache_shards = shards;
        self
    }

    /// Sets the maximum cached responses per service.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.fetch.cache_capacity = capacity;
        self
    }

    /// Sets the candidate-enumeration mode of tile joins.
    pub fn join_index_mode(mut self, mode: JoinIndexMode) -> Self {
        self.join_index.mode = mode;
        self
    }

    /// Enables or disables column-wise consumption of fetched chunk
    /// bodies by pipe stages (zero-copy batch-kernel inputs).
    pub fn columnar(mut self, on: bool) -> Self {
        self.columnar.columnar = on;
        self
    }

    /// Enables or disables vectorized batch predicate evaluation.
    pub fn batch_eval(mut self, on: bool) -> Self {
        self.columnar.batch_eval = on;
        self
    }

    /// Enables or disables the top-k rank join (effective when
    /// `join_k > 0`).
    pub fn rank_join(mut self, on: bool) -> Self {
        self.rank_join = on;
        self
    }

    /// Enables or disables adaptive mid-flight re-optimization.
    pub fn adaptive(mut self, on: bool) -> Self {
        self.adaptive = on;
        self
    }

    /// Sets the deviation ratio that triggers a re-plan.
    pub fn adaptive_threshold(mut self, ratio: f64) -> Self {
        self.adaptive_threshold = ratio;
        self
    }

    /// Sets the cost metric the mid-flight re-planner optimizes.
    pub fn adaptive_metric(mut self, metric: CostMetric) -> Self {
        self.adaptive_metric = metric;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods_cover_every_field() {
        let cfg = EngineConfig::default()
            .join_k(7)
            .degrade()
            .client(ClientConfig::default())
            .cache_shards(4)
            .cache_capacity(128)
            .join_index_mode(JoinIndexMode::Off)
            .columnar(false)
            .batch_eval(false)
            .rank_join(true)
            .adaptive(true)
            .adaptive_threshold(4.0)
            .adaptive_metric(CostMetric::RequestCount);
        assert_eq!(cfg.join_k, 7);
        assert_eq!(cfg.failure_mode, FailureMode::Degrade);
        assert!(cfg.client.is_some());
        assert_eq!(cfg.fetch.cache_shards, 4);
        assert_eq!(cfg.fetch.cache_capacity, 128);
        assert_eq!(cfg.join_index.mode, JoinIndexMode::Off);
        assert!(!cfg.columnar.columnar);
        assert!(!cfg.columnar.batch_eval);
        assert!(cfg.rank_join);
        assert!(cfg.adaptive);
        assert_eq!(cfg.adaptive_threshold, 4.0);
        assert_eq!(cfg.adaptive_metric, CostMetric::RequestCount);
    }

    #[test]
    fn defaults_keep_the_columnar_plane_on() {
        let cfg = EngineConfig::default();
        assert!(cfg.columnar.columnar && cfg.columnar.batch_eval);
        assert_eq!(cfg.join_index.mode, JoinIndexMode::Hash);
        assert!(!cfg.rank_join);
        assert!(!cfg.adaptive, "adaptive must default off (byte-identity)");
        assert_eq!(cfg.adaptive_threshold, 10.0);
        assert_eq!(cfg.adaptive_metric, CostMetric::ExecutionTime);
    }
}
