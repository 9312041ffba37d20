//! # seco-engine — execution of fully instantiated query plans
//!
//! "The execution environment […] is a system capable of executing query
//! plans: the system can execute requests, collect their results, and
//! integrate them progressively, forming the answers as combinations of
//! partial invocation results" (§3).
//!
//! One interpreter, one scheduler. The `interp` module defines what
//! every plan node means — selection, pipe stage through its fetch stack,
//! join chain (the n-ary kernel, or the rank or degrade-aware binary
//! cascade) — and [`executor`] walks the plan in topological order on
//! the calling thread, switching plans mid-walk when an adaptive
//! checkpoint re-plans. Its two entries differ only in the clock of the
//! resilient clients and in delivery:
//!
//! * [`executor::execute_plan`] runs on the virtual clock; every
//!   experiment uses it because runs are bit-for-bit reproducible, and
//!   its critical path models §2.2's pipelining — independent branches
//!   overlap, a stage starts when its inputs finish;
//! * [`executor::execute_parallel_session`] runs the clients on
//!   wall-clock time and hands the output rows to a [`BatchSink`] in
//!   batches, the daemon's `mode=par`.
//!
//! Unless faults depend on timing (deadlines, breaker cooldowns), both
//! return the same combinations in the same order for the same plan.
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
pub mod shared;
pub mod trace;

pub use config::{EngineConfig, FailureMode, FetchOptions};
pub use error::EngineError;
pub use executor::{
    execute_parallel_session, execute_plan, execute_plan_shared, BatchSink, ExecutionResult,
};
pub use output::ResultSet;
pub use seco_join::JoinStats;
pub use shared::SharedState;
pub use trace::{ExecutionTrace, TraceEvent};

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;
