//! # seco-join — join methods for Search Computing (§4)
//!
//! The join of two search services is modelled as the exploration of a
//! Cartesian *tile space* (Fig. 4): service `X` contributes chunks
//! `cX1, cX2, …` on one axis, service `Y` chunks `cY1, cY2, …` on the
//! other, and tile `t(i,j)` holds the `nX × nY` candidate pairs of chunk
//! `i` of `X` with chunk `j` of `Y`. A join method is a combination of
//! three orthogonal characteristics:
//!
//! * **topology** (§4.2) — *pipe* (sequential, output of one service
//!   feeds the other) or *parallel* (both invoked independently);
//! * **invocation strategy** (§4.3) — *nested-loop* (drain the `h`
//!   high-score chunks of the step-scored service first) or
//!   *merge-scan* (alternate calls diagonally with an inter-service
//!   ratio `r`);
//! * **completion strategy** (§4.4) — *rectangular* (process every tile
//!   as soon as available) or *triangular* (process tiles diagonally
//!   under `x·r2 + y·r1 < c` with growing `c`).
//!
//! [`optimality`] implements the chapter's quality notion: a strategy is
//! **extraction-optimal** when it emits results in decreasing order of
//! the score product `ρX · ρY` — *globally* (relative to all tiles) or
//! *locally* (relative to the tiles already loaded).

pub mod completion;
pub mod error;
pub mod executor;
pub mod index;
pub mod method;
pub mod nary;
pub mod optimality;
pub mod pipe;
pub mod rank;
pub mod strategy;
pub mod tile;

pub use error::JoinError;
pub use executor::{JoinOutcome, ParallelJoinExecutor};
pub use index::{ColumnarOptions, JoinIndexMode, JoinIndexOptions, JoinStats};
pub use method::{JoinMethod, Topology};
pub use nary::{NaryJoin, NaryOutcome, NaryStage};
pub use pipe::{pipe_stages_prepared, PipeJoin, PipeOutcome, PipeRun};
pub use rank::{score_order, RankJoin};
pub use strategy::{cost_based_ratio, CallScheduler, CallTarget, TilePruner};
pub use tile::{Tile, TileSpace};

/// Result alias for join-layer operations.
pub type Result<T> = std::result::Result<T, JoinError>;
