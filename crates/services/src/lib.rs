//! # seco-services — the simulated Web-service substrate
//!
//! The chapter optimizes and executes queries over remote Web services
//! (exact and search). This crate is the substitute substrate: it
//! provides the *service-side* of the system — invocable services with
//! access patterns, chunked result delivery, ranked output, latency and
//! per-call cost — entirely in-process and deterministic, so that every
//! experiment in EXPERIMENTS.md is reproducible bit-for-bit.
//!
//! Two service implementations are provided:
//!
//! * [`synthetic::SyntheticService`] — generates results on the fly from
//!   a seed, the input bindings, and per-attribute *value domains*
//!   (shared domains between services make equality joins match with a
//!   controlled probability, which is how the chapter's selectivity
//!   estimates, e.g. `Shows` = 2%, are realised);
//! * [`table::TableService`] — serves an explicit in-memory table /
//!   ranked list, used by the semantics oracle and the unit tests that
//!   reproduce the chapter's Q1/Q2 examples exactly.
//!
//! Invocations go through [`invocation::Request`] /
//! [`invocation::ChunkResponse`]; a [`recorder::CallRecorder`] decorator
//! counts request-responses, fetched chunks, transferred bytes, and
//! virtual elapsed time — exactly the observables the §5.1 cost metrics
//! are defined over. The [`registry::ServiceRegistry`] holds marts,
//! interfaces, connection patterns, and the invocable services; the
//! [`domains`] module registers the two ready-made scenarios of the
//! chapter (the Movie/Theatre/Restaurant running example and the
//! Conference/Weather/Flight/Hotel plan of Fig. 2).

//! Resilience lives in [`resilience`]: a [`resilience::ServiceClient`]
//! decorates any service with per-call deadlines, seeded
//! retry-with-backoff, and a circuit breaker, while
//! [`synthetic::FaultProfile`] injects deterministic faults to test
//! against.

pub mod cache;
pub mod domains;
pub mod error;
pub mod invocation;
pub mod latency;
pub mod opaque;
pub mod recorder;
pub mod registry;
pub mod resilience;
pub mod stats_accumulator;
pub mod synthetic;
pub mod table;
pub mod wire;

pub use cache::{CachingService, RequestKey};
pub use error::ServiceError;
pub use invocation::{ChunkResponse, Request, Service};
pub use latency::{LatencyModel, VirtualClock};
pub use opaque::{OpaqueRanking, PositionScored};
pub use recorder::{CallRecorder, CallStats};
pub use registry::ServiceRegistry;
pub use resilience::{ClientConfig, ServiceClient, ServiceClientBuilder};
pub use stats_accumulator::{
    drift_ratio, DeviationPolicy, JoinObservation, MisdeclaredService, ObservedCardinality,
    ServiceDrift, StatsAccumulator,
};
pub use synthetic::{DomainMap, FaultProfile, SyntheticService, ValueDomain};
pub use table::TableService;

/// Result alias for service-layer operations.
pub type Result<T> = std::result::Result<T, ServiceError>;
