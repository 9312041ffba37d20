//! # search-computing — multi-domain query optimization over search services
//!
//! A faithful, from-scratch reproduction of the Search Computing (SeCo)
//! join-method and query-optimization framework (Braga, Ceri,
//! Grossniklaus: *Join Methods and Query Optimization*, in “Search
//! Computing: Challenges and Directions”, Springer LNCS 5950 — the
//! technical core of the system announced in the ICDE 2009 “Search
//! Computing” paper).
//!
//! The workspace is organized bottom-up; this crate re-exports every
//! layer under one roof:
//!
//! * [`model`] — service marts, adorned interfaces, repeating groups,
//!   tuples, scoring functions;
//! * [`services`] — the simulated Web-service substrate (deterministic
//!   synthetic services, registries, call recording, the running
//!   example and travel scenarios);
//! * [`query`] — the conjunctive query language, parser,
//!   repeating-group semantics, feasibility analysis, oracle evaluator;
//! * [`plan`] — query-plan DAGs and cardinality annotation;
//! * [`join`] — the tile-space join methods (nested-loop / merge-scan ×
//!   rectangular / triangular × pipe / parallel) and
//!   extraction-optimality measurement;
//! * [`optimizer`] — the three-phase branch-and-bound optimizer with
//!   its five cost metrics and six heuristics;
//! * [`engine`] — deterministic and pipelined plan executors.
//!
//! ## Quickstart
//!
//! ```
//! use search_computing::prelude::*;
//!
//! // 1. A registry with the chapter's running-example services.
//! let registry = search_computing::services::domains::entertainment::build_registry(42)?;
//!
//! // 2. The running-example query (§3.1), in the chapter's syntax.
//! let mut query = parse_query(
//!     "Select Movie1 As M, Theatre1 as T, Restaurant1 as R \
//!      where Shows(M,T) and DinnerPlace(T,R) and \
//!      M.Genres.Genre=\"comedy\" and M.Openings.Country=\"country-0\" and \
//!      M.Openings.Date>2009-03-01 and M.Language=\"en\" and \
//!      T.UAddress=\"via Golgi 42\" and T.UCity=\"Milano\" and \
//!      T.UCountry=\"country-0\" and T.TCountry=\"country-0\" and \
//!      R.Category.Name=\"pizzeria\" ranking (0.3, 0.5, 0.2) top 10",
//! )?;
//! query.k = 10;
//!
//! // 3. Optimize under the request-count metric and execute.
//! let best = optimize(&query, &registry, CostMetric::RequestCount)?;
//! let outcome = execute_plan(&best.plan, &registry, EngineConfig::default())?;
//! println!("{} combinations with {} service calls", outcome.results.len(), outcome.total_calls);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod error;

pub use seco_engine as engine;
pub use seco_join as join;
pub use seco_model as model;
pub use seco_optimizer as optimizer;
pub use seco_plan as plan;
pub use seco_query as query;
pub use seco_server as server;
pub use seco_services as services;

pub use error::{Retryable, SecoError};

/// The most common imports in one place.
pub mod prelude {
    pub use crate::error::{Retryable, SecoError};
    pub use seco_engine::{
        execute_parallel, execute_parallel_session, execute_plan, execute_plan_shared,
        EngineConfig, FailureMode, FetchOptions, ParallelOutcome, ResultSet, SharedState,
    };
    pub use seco_join::{
        ColumnarOptions, JoinIndexMode, JoinIndexOptions, JoinMethod, JoinStats, Topology,
    };
    pub use seco_model::{
        Adornment, AttributePath, Comparator, CompositeTuple, Date, ScoreDecay, ServiceInterface,
        ServiceKind, Value,
    };
    pub use seco_optimizer::{optimize, CostMetric, Optimizer};
    pub use seco_plan::{annotate, AnnotationConfig, Completion, Invocation, QueryPlan};
    pub use seco_query::{evaluate_oracle, parse_query, Query, QueryBuilder};
    pub use seco_services::{ClientConfig, FaultProfile, Service, ServiceClient, ServiceRegistry};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_re_exports_compile() {
        use crate::prelude::*;
        let _ = EngineConfig::default().columnar(true).batch_eval(true);
        let _ = ColumnarOptions::default();
        let _ = CostMetric::RequestCount;
        let _ = Comparator::Eq;
        let _ = Completion::Triangular;
        let _ = Invocation::NestedLoop;
    }
}
