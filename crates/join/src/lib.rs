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
//!
//! How a tile's candidate pairs are found is not part of a join method,
//! and nothing configures it: a tile join keys its candidates through
//! the per-chunk [`index`] whenever an equi key applies, and a pipe
//! stage judges each fetched chunk with a batch kernel over the chunk
//! body's typed columns whenever one can decide it. Tiles and
//! selections, which meet composites row by row, judge candidates
//! scalar. The nested loop, the row view and the scalar loop remain
//! only as the fallbacks those kernels take, and as the `#[cfg(test)]`
//! reference `SCALAR_ONLY` they are held to.

pub mod completion;
pub mod error;
pub mod executor;
pub mod index;
pub mod method;
pub mod nary;
pub mod optimality;
pub mod pipe;
pub mod rank;
pub mod select;
pub mod strategy;
pub mod tile;

pub use error::JoinError;
pub use executor::{JoinOutcome, ParallelJoinExecutor};
pub use index::JoinStats;
pub use method::{JoinMethod, Topology};
pub use nary::{NaryJoin, NaryOutcome, NaryStage};
pub use pipe::{pipe_stages_prepared, PipeJoin, PipeOutcome, PipeRun};
pub use rank::{score_order, RankJoin};
pub use select::select;
pub use strategy::{cost_based_ratio, CallScheduler, CallTarget, TilePruner};
pub use tile::{Tile, TileSpace};

/// Result alias for join-layer operations.
pub type Result<T> = std::result::Result<T, JoinError>;

#[cfg(test)]
thread_local! {
    /// Makes every tile join and pipe stage on this thread take the
    /// reference path: each tile a nested loop over its pairs, each
    /// fetched chunk read through its row view, each candidate judged
    /// scalar, one at a time — no key index, no batch kernel.
    pub(crate) static SCALAR_ONLY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether the kernels key and batch their candidates: always, outside
/// the tests' scalar reference.
pub(crate) fn accelerated() -> bool {
    #[cfg(test)]
    return !SCALAR_ONLY.get();
    #[cfg(not(test))]
    true
}

/// Runs `run` on this thread on the scalar reference path (`scalar`) or
/// the production one.
#[cfg(test)]
pub(crate) fn with_scalar<T>(scalar: bool, run: impl FnOnce() -> T) -> T {
    SCALAR_ONLY.set(scalar);
    let out = run();
    SCALAR_ONLY.set(false);
    out
}
