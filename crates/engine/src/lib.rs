//! # seco-engine — execution of fully instantiated query plans
//!
//! "The execution environment […] is a system capable of executing query
//! plans: the system can execute requests, collect their results, and
//! integrate them progressively, forming the answers as combinations of
//! partial invocation results" (§3).
//!
//! One interpreter, two schedulers. The `interp` module defines what
//! every plan node means — selection, pipe stage through its fetch stack,
//! join chain (the n-ary kernel, or the rank or degrade-aware binary
//! cascade) — and two schedulers run it:
//!
//! * [`executor::execute_plan`] walks the plan in topological order on
//!   one thread, on the virtual clock, switching plans mid-walk when an
//!   adaptive checkpoint re-plans; every experiment uses it because runs
//!   are bit-for-bit reproducible;
//! * [`parallel::execute_parallel`] runs every node as a task of its
//!   own on the executor pool, with batches flowing through bounded
//!   channels along the plan's arcs: the "data shipped in pipelines from
//!   one service to another, so as to maximize parallelism" (§2.2), on
//!   real threads and wall-clock time.
//!
//! Unless faults depend on timing (deadlines, breaker cooldowns), both
//! return the same multiset of combinations for the same plan.
//!
//! [`output`] assembles results under the global ranking function:
//! emission order is preserved (the non-blocking dataflow of §4.1) and
//! `top_k` reorders on demand, which is exactly the chapter's
//! distinction between "the top-k tuples" and "k good tuples, emitted
//! with an approximation of the total order".

pub mod config;
pub mod error;
pub mod executor;
mod interp;
pub mod output;
pub mod parallel;
pub mod shared;
pub mod trace;

pub use config::{EngineConfig, FailureMode, FetchOptions};
pub use error::EngineError;
pub use executor::{execute_plan, execute_plan_shared, ExecutionResult};
pub use output::ResultSet;
pub use parallel::{execute_parallel, execute_parallel_session, BatchSink, ParallelOutcome};
pub use seco_join::JoinStats;
pub use shared::SharedState;
pub use trace::{ExecutionTrace, TraceEvent};

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;
