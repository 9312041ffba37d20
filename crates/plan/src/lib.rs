//! # seco-plan — query plans as dataflow DAGs
//!
//! Implements §3.2 of the chapter. A query plan is a directed acyclic
//! graph whose nodes are service invocations, parallel joins, selections,
//! and the designated input/output nodes; arcs denote dataflow and
//! parameter passing. Pipe joins have no dedicated node — they are "just
//! a sequence of service invocations that are chained by passing the
//! output of one invocation as input to the next" (§4.2.1). Parallel
//! joins are explicit nodes annotated with a join strategy.
//!
//! The [`annotate`](crate::annotate) module computes, for every node, the expected number
//! of input and output tuples (`tin`/`tout`) and service calls from the
//! service statistics, the query's selectivities, and the chosen fetch
//! factors — producing the *fully instantiated query plan* of Fig. 3 and
//! Fig. 10, the object cost metrics are evaluated on.

pub mod annotate;
pub mod dag;
pub mod delta;
pub mod display;
pub mod error;
pub mod node;

pub use annotate::{annotate, back_propagate, AnnotatedPlan, Annotation, AnnotationConfig};
pub use dag::{NodeId, QueryPlan};
pub use delta::{pipe_selectivity, DeltaAnnotator, NodeParams, NodeTable, ServiceParams};
pub use error::PlanError;
pub use node::{Completion, Invocation, JoinSpec, PlanNode, SelectionNode, ServiceNode};

/// Result alias for plan-layer operations.
pub type Result<T> = std::result::Result<T, PlanError>;
