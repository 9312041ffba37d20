//! # seco-optimizer — branch-and-bound query optimization (§5)
//!
//! Translates a conjunctive query over service interfaces into the
//! fully instantiated invocation schedule that minimizes a chosen cost
//! metric for producing the first `k` answers. The exploration of the
//! combinatorial plan space is organized in the chapter's three phases:
//!
//! 1. **Access-pattern selection** ([`phase1`]) — pick a concrete
//!    service interface per atom so the query is provably feasible;
//!    heuristics *bound-is-better* and *unbound-is-easier* (§5.3).
//! 2. **Topology selection** ([`phase2`]) — fix the invocation order,
//!    dataflow, and join operations compatible with the I/O precedence
//!    constraints; heuristics *selective-first* and
//!    *parallel-is-better* (§5.4).
//! 3. **Fetch assignment** ([`phase3`]) — choose the fetching factors
//!    `⟨F1, …, FM⟩` of the chunked services so the plan yields at least
//!    `k` answers; heuristics *greedy* and *square-is-better* (§5.5).
//!
//! Each phase branches; bounding uses the monotonicity of all supported
//! cost metrics ([`cost`]): the cost of a partially constructed plan
//! (all fetch factors at their minimum) lower-bounds every completion,
//! so a subtree whose lower bound exceeds the incumbent's cost is
//! pruned (§5.2, Fig. 8). The search is *anytime*: it can be stopped at
//! any evaluation budget and still returns the current incumbent.
//! [`exhaustive`] provides the unpruned enumeration used as the
//! optimality oracle in tests.

pub mod bnb;
pub mod cost;
pub mod error;
pub mod exhaustive;
pub mod heuristics;
pub mod phase1;
pub mod phase2;
pub mod phase3;
pub mod plan_cache;
pub mod replan;

pub use bnb::{optimize, Optimized, Optimizer, SearchStats};
pub use cost::CostMetric;
pub use error::OptError;
pub use heuristics::{HeuristicSet, Phase1Heuristic, Phase2Heuristic, Phase3Heuristic};
pub use phase3::Phase3Stats;
pub use plan_cache::{query_fingerprint, PlanCache};
pub use replan::{node_signature, prefix_signature};

/// Result alias for optimizer operations.
pub type Result<T> = std::result::Result<T, OptError>;
