//! Completion strategies (§4.4): in which order loaded tiles are
//! processed.
//!
//! * **Rectangular** (§4.4.1) — "processes all the tiles as soon as the
//!   corresponding tuples are available". With an asymmetric invocation
//!   strategy this degenerates into the "long and thin" rectangles of
//!   Fig. 6 where "each I/O only adds one tile".
//! * **Triangular** (§4.4.2) — processes tiles diagonally: tile
//!   `t(x,y)` is admitted once `x·r2 + y·r1 < c`, where `c` starts at
//!   `r1·r2` and is progressively increased; within a wave, tiles are
//!   processed in non-decreasing index-sum order.
//!
//! [`TileWalk`] is the one walk of a tile space: every parallel join
//! (the tile-space executor, each stage of the n-ary kernel, the rank
//! join) and the figures' simulation drive it. [`explore`] runs it over
//! a bounded `nx × ny` space and records the call sequence, the tile
//! processing order, and the number of tiles enabled by each call — the
//! raw data behind the Fig. 5/6/7 reproductions (E3–E5).

use std::cmp::Reverse;

use seco_plan::{Completion, Invocation};

use crate::error::JoinError;
use crate::strategy::{CallScheduler, CallTarget};
use crate::tile::Tile;

/// Trace of one exploration of a bounded tile space.
#[derive(Debug, Clone, PartialEq)]
pub struct Exploration {
    /// The request-responses, in order.
    pub calls: Vec<CallTarget>,
    /// The tiles, in processing order (covers the whole space).
    pub order: Vec<Tile>,
    /// For each call, how many tiles its arrival enabled for
    /// processing (Fig. 6's degenerate case shows long runs of 1).
    pub tiles_per_call: Vec<usize>,
}

impl Exploration {
    /// Number of calls issued to each service: `(to X, to Y)`.
    pub fn call_counts(&self) -> (usize, usize) {
        let x = self.calls.iter().filter(|t| **t == CallTarget::X).count();
        (x, self.calls.len() - x)
    }
}

/// One walk of a join's tile space: the invocation strategy (§4.3)
/// picks each call, the completion strategy (§4.4) admits the loaded
/// tiles in waves.
///
/// The caller alternates: [`TileWalk::next_call`] names the axis to
/// call (`None` once both are drained), the caller fetches that chunk
/// and reports it with [`TileWalk::loaded`], then takes the admitted
/// tiles one at a time from [`TileWalk::next_tile`] until it returns
/// `None` — or stops early, e.g. at a `k` target.
#[derive(Debug)]
pub struct TileWalk {
    scheduler: CallScheduler,
    completion: Completion,
    /// The inter-service ratio `(r1, r2)` the triangular wavefront is
    /// weighed by (`(1, 1)` under nested loop).
    ratio: (usize, usize),
    /// Triangular wavefront constant, starting at `r1·r2` (§4.4.2).
    c: usize,
    /// Calls made to `[X, Y]`.
    calls: [usize; 2],
    /// Whether `[X, Y]` has chunks past the ones loaded.
    more: [bool; 2],
    /// Loaded tiles not admitted yet.
    pending: Vec<Tile>,
    /// The admitted wave, reversed: the next tile is the last.
    wave: Vec<Tile>,
}

impl TileWalk {
    /// A walk under an invocation strategy (with step parameter `h` for
    /// nested loop) and a completion strategy.
    pub fn new(
        invocation: Invocation,
        completion: Completion,
        h: usize,
    ) -> Result<Self, JoinError> {
        let scheduler = CallScheduler::new(invocation, h)?;
        let ratio = match invocation {
            Invocation::MergeScan { r1, r2 } => (r1 as usize, r2 as usize),
            Invocation::NestedLoop => (1, 1),
        };
        Ok(TileWalk {
            scheduler,
            completion,
            ratio,
            c: ratio.0 * ratio.1,
            calls: [0, 0],
            more: [true, true],
            pending: Vec::new(),
            wave: Vec::new(),
        })
    }

    /// The axis the next request-response goes to: the strategy's
    /// choice, flipped when that axis is drained. `None` once both are.
    pub fn next_call(&self) -> Option<CallTarget> {
        let target = match self.scheduler.next_target(self.calls[0], self.calls[1]) {
            CallTarget::X if !self.more[0] => CallTarget::Y,
            CallTarget::Y if !self.more[1] => CallTarget::X,
            target => target,
        };
        self.more[target as usize].then_some(target)
    }

    /// Records the call to `target`: its chunk arrived, and `more` says
    /// whether the axis has chunks past it. The new row (or column) of
    /// tiles is loaded.
    pub fn loaded(&mut self, target: CallTarget, more: bool) {
        self.calls[target as usize] += 1;
        self.more[target as usize] = more;
        let [cx, cy] = self.calls;
        match target {
            CallTarget::X => self.pending.extend((0..cy).map(|y| Tile::new(cx - 1, y))),
            CallTarget::Y => self.pending.extend((0..cx).map(|x| Tile::new(x, cy - 1))),
        }
    }

    /// Calls made so far: `(to X, to Y)`.
    pub fn calls(&self) -> (usize, usize) {
        (self.calls[0], self.calls[1])
    }

    /// The next tile to process, or `None` when no loaded tile waits.
    pub fn next_tile(&mut self) -> Option<Tile> {
        if self.wave.is_empty() && !self.pending.is_empty() {
            self.admit();
        }
        self.wave.pop()
    }

    /// Moves the next wave of the (non-empty) pending tiles into
    /// `wave`. Rectangular admits every loaded tile; triangular admits
    /// `t(x,y)` once `x·r2 + y·r1 < c`, growing `c` only while loaded
    /// tiles wait behind it. A wave goes in `(index_sum, x)` order.
    fn admit(&mut self) {
        let (r1, r2) = self.ratio;
        let completion = self.completion;
        let admits = |t: &Tile, c: usize| match completion {
            Completion::Rectangular => true,
            Completion::Triangular => t.x * r2 + t.y * r1 < c,
        };
        while !self.pending.iter().any(|t| admits(t, self.c)) {
            self.c += 1;
        }
        let (c, wave) = (self.c, &mut self.wave);
        self.pending.retain(|t| {
            let admitted = admits(t, c);
            if admitted {
                wave.push(*t);
            }
            !admitted
        });
        wave.sort_unstable_by_key(|t| Reverse((t.index_sum(), t.x)));
    }
}

/// Simulates the exploration of the full `nx × ny` tile space under an
/// invocation strategy (with step parameter `h` for nested-loop) and a
/// completion strategy, with ratio `r1/r2` governing the triangular
/// wavefront.
pub fn explore(
    invocation: Invocation,
    completion: Completion,
    h: usize,
    nx: usize,
    ny: usize,
) -> Result<Exploration, JoinError> {
    if nx == 0 || ny == 0 {
        return Err(JoinError::BadMethod {
            detail: "tile space must be non-empty".into(),
        });
    }
    let mut walk = TileWalk::new(invocation, completion, h)?;
    let mut calls = Vec::new();
    let mut order: Vec<Tile> = Vec::with_capacity(nx * ny);
    let mut tiles_per_call = Vec::new();
    while let Some(target) = walk.next_call() {
        let (cx, cy) = walk.calls();
        let more = match target {
            CallTarget::X => cx + 1 < nx,
            CallTarget::Y => cy + 1 < ny,
        };
        walk.loaded(target, more);
        calls.push(target);
        let enabled_before = order.len();
        order.extend(std::iter::from_fn(|| walk.next_tile()));
        tiles_per_call.push(order.len() - enabled_before);
    }

    Ok(Exploration {
        calls,
        order,
        tiles_per_call,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::CallTarget::{X, Y};

    #[test]
    fn merge_scan_rectangular_grows_squares() {
        // Fig. 7: with r = 1/1 and rectangular completion the explored
        // region is a square of increasing size (1, 2, 3, 4 …).
        let e = explore(
            Invocation::merge_scan_even(),
            Completion::Rectangular,
            1,
            4,
            4,
        )
        .unwrap();
        assert_eq!(&e.calls[..4], &[X, Y, X, Y]);
        assert_eq!(e.order.len(), 16);
        // After 2 calls: the 1×1 square; after 4: the 2×2 square, etc.
        assert_eq!(e.order[0], Tile::new(0, 0));
        let after4: std::collections::BTreeSet<Tile> = e.order[..4].iter().copied().collect();
        assert_eq!(
            after4,
            [
                Tile::new(0, 0),
                Tile::new(1, 0),
                Tile::new(0, 1),
                Tile::new(1, 1)
            ]
            .into_iter()
            .collect()
        );
        let after9: std::collections::BTreeSet<Tile> = e.order[..9].iter().copied().collect();
        assert!(after9.contains(&Tile::new(2, 2)));
    }

    #[test]
    fn nested_loop_rectangular_drains_rows_first() {
        // Fig. 5a: h=3 — the three high-score X chunks are loaded
        // first, then each Y call completes a 3-tile column.
        let e = explore(Invocation::NestedLoop, Completion::Rectangular, 3, 3, 3).unwrap();
        assert_eq!(e.calls, vec![X, Y, X, X, Y, Y]);
        // First tile after X,Y; X calls add one tile each (the thin
        // rectangle); later Y calls add whole columns of 3.
        assert_eq!(e.tiles_per_call, vec![0, 1, 1, 1, 3, 3]);
        assert_eq!(e.order[0], Tile::new(0, 0));
        assert_eq!(e.order.len(), 9);
    }

    #[test]
    fn degenerate_thin_rectangle_adds_one_tile_per_call() {
        // Fig. 6's disadvantage: a strongly asymmetric strategy makes
        // each I/O add exactly one tile.
        let e = explore(Invocation::NestedLoop, Completion::Rectangular, 8, 8, 1).unwrap();
        let after_start = &e.tiles_per_call[2..];
        assert!(
            after_start.iter().all(|&n| n == 1),
            "every call past the start must add exactly one tile: {:?}",
            e.tiles_per_call
        );
    }

    #[test]
    fn triangular_processes_diagonally() {
        // Fig. 5b: the triangular wavefront admits tiles in
        // non-decreasing x+y order when r=1/1.
        let e = explore(
            Invocation::merge_scan_even(),
            Completion::Triangular,
            1,
            3,
            3,
        )
        .unwrap();
        assert_eq!(e.order.len(), 9);
        assert_eq!(e.order[0], Tile::new(0, 0));
        // The second and third processed tiles lie on the first
        // diagonal.
        assert!(e.order[1].index_sum() <= 1 && e.order[2].index_sum() <= 1);
        // Index sums never jump by more than the wavefront allows: each
        // processed tile is adjacent-or-behind the diagonal of its
        // predecessor.
        for w in e.order.windows(2) {
            assert!(
                w[1].index_sum() <= w[0].index_sum() + 1,
                "consecutive tiles must not jump diagonals: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn triangular_defers_far_corner_tiles() {
        // In a rectangular sweep t(1,1) of a 2×2 space is processed as
        // soon as loaded; triangular waits until the wavefront reaches
        // index sum 2 even though the tile is available earlier.
        let rect = explore(
            Invocation::merge_scan_even(),
            Completion::Rectangular,
            1,
            2,
            2,
        )
        .unwrap();
        let tri = explore(
            Invocation::merge_scan_even(),
            Completion::Triangular,
            1,
            2,
            2,
        )
        .unwrap();
        let pos = |e: &Exploration, t: Tile| e.order.iter().position(|x| *x == t).unwrap();
        assert!(pos(&tri, Tile::new(1, 1)) >= pos(&rect, Tile::new(1, 1)));
        // Both cover the full space exactly once.
        let uniq: std::collections::BTreeSet<Tile> = tri.order.iter().copied().collect();
        assert_eq!(uniq.len(), 4);
    }

    #[test]
    fn exploration_covers_every_tile_exactly_once() {
        for inv in [
            Invocation::NestedLoop,
            Invocation::MergeScan { r1: 2, r2: 3 },
        ] {
            for comp in [Completion::Rectangular, Completion::Triangular] {
                let e = explore(inv, comp, 2, 5, 4).unwrap();
                let uniq: std::collections::BTreeSet<Tile> = e.order.iter().copied().collect();
                assert_eq!(uniq.len(), 20, "{inv:?}/{comp:?} must cover all 20 tiles");
                assert_eq!(e.order.len(), 20);
                let (x, y) = e.call_counts();
                assert_eq!(x, 5, "{inv:?}/{comp:?} calls X once per chunk");
                assert_eq!(y, 4);
            }
        }
    }

    #[test]
    fn empty_space_is_rejected() {
        assert!(explore(Invocation::NestedLoop, Completion::Rectangular, 1, 0, 3).is_err());
    }
}
