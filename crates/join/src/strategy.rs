//! Invocation strategies (§4.3): who gets called next.
//!
//! The [`CallScheduler`] decides, given how many calls each service has
//! already received, which service the next request-response goes to:
//!
//! * **Nested-loop** (§4.3.1) — after the mandatory first call to each
//!   service ("the first two calls […] are always alternated so as to
//!   have at least one tile for starting the exploration", §4.4.1), all
//!   calls go to the step-scored first service until its `h` high-score
//!   chunks are drained, then to the second service.
//! * **Merge-scan** (§4.3.2) — calls alternate in the inter-service
//!   ratio `r = r1/r2`: each round issues `r1` calls to the first and
//!   `r2` to the second service.

use seco_plan::Invocation;

use crate::error::JoinError;

/// Which service the next call targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallTarget {
    /// The first service (X axis of the tile space).
    X,
    /// The second service (Y axis).
    Y,
}

/// Stateless next-call decision procedure for an invocation strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CallScheduler {
    invocation: Invocation,
    /// Step position (in chunks) of the first service; used by
    /// nested-loop to decide when the "step" service is drained.
    h_first: usize,
}

impl CallScheduler {
    /// Creates a scheduler. `h_first` is the first service's step
    /// parameter in chunks; merge-scan ignores it. For nested-loop it
    /// must be positive.
    pub fn new(invocation: Invocation, h_first: usize) -> Result<Self, JoinError> {
        match invocation {
            Invocation::NestedLoop if h_first == 0 => Err(JoinError::BadMethod {
                detail: "nested-loop requires a positive step parameter h".into(),
            }),
            Invocation::MergeScan { r1, r2 } if r1 == 0 || r2 == 0 => Err(JoinError::BadMethod {
                detail: format!("merge-scan ratio must be positive, got {r1}/{r2}"),
            }),
            _ => Ok(CallScheduler {
                invocation,
                h_first,
            }),
        }
    }

    /// The target of the next call given the calls made so far.
    ///
    /// Exhaustion is the caller's concern: when the chosen axis has no
    /// more chunks the caller flips to the other one.
    pub fn next_target(&self, calls_x: usize, calls_y: usize) -> CallTarget {
        // Both strategies begin by loading one chunk from each side.
        if calls_x == 0 {
            return CallTarget::X;
        }
        if calls_y == 0 {
            return CallTarget::Y;
        }
        match self.invocation {
            Invocation::NestedLoop => {
                if calls_x < self.h_first {
                    CallTarget::X
                } else {
                    CallTarget::Y
                }
            }
            Invocation::MergeScan { r1, r2 } => {
                // Position within the current round of r1 + r2 calls.
                let total = calls_x + calls_y;
                let pos = (total as u32) % (r1 + r2);
                if pos < r1 {
                    CallTarget::X
                } else {
                    CallTarget::Y
                }
            }
        }
    }
}

/// Derives a cost-based *variable* inter-service ratio (§4.3.2: the
/// ratio "could be fixed (e.g. r = 3/5) or variable"; Chapter 11's
/// methods derive it "based upon service costs").
///
/// The idea: calls should be distributed so both services contribute
/// tuples to the frontier at comparable *cost per tuple*. A service
/// with larger chunks or faster responses deserves proportionally more
/// of the call budget. We set
///
/// ```text
/// r1 / r2  ≈  (chunk_x / time_x) / (chunk_y / time_y)
/// ```
///
/// clamped into small integers (each side ≤ 6) so the resulting
/// schedule stays periodic and predictable.
pub fn cost_based_ratio(
    chunk_x: usize,
    response_ms_x: f64,
    chunk_y: usize,
    response_ms_y: f64,
) -> seco_plan::Invocation {
    let vx = chunk_x as f64 / response_ms_x.max(1e-9);
    let vy = chunk_y as f64 / response_ms_y.max(1e-9);
    let ratio = (vx / vy).max(1e-3);
    // Find the best small-integer approximation r1/r2 with r1, r2 ≤ 6.
    let mut best = (1u32, 1u32);
    let mut best_err = f64::INFINITY;
    for r1 in 1..=6u32 {
        for r2 in 1..=6u32 {
            let err = (r1 as f64 / r2 as f64 - ratio).abs();
            if err < best_err {
                best_err = err;
                best = (r1, r2);
            }
        }
    }
    seco_plan::Invocation::MergeScan {
        r1: best.0,
        r2: best.1,
    }
}

/// Score-frontier tile bound for top-`k` runs: the rank join's
/// frontier.
///
/// A tile's representative — the product of its two chunks' head scores
/// (§4.1) — upper-bounds the score product of every candidate pair in
/// the tile, because ranked streams decay within and across chunks. Once
/// `k` results have been emitted whose score products all exceed a
/// tile's representative, no pair of that tile can enter the top-`k`
/// frontier, so the whole tile can be skipped without changing the
/// result set. The rank join buffers every result before it re-ranks,
/// so its frontier fills while tiles are still being examined; the
/// same strict bound also decides when it stops fetching. `k = 0` means
/// an unbounded target: nothing is ever skipped.
#[derive(Debug, Clone, Default)]
pub struct TilePruner {
    k: usize,
    /// Min-heap over the `k` highest emitted score products.
    frontier: std::collections::BinaryHeap<std::cmp::Reverse<FrontierScore>>,
}

/// Total order over emitted score products (`f64::total_cmp`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct FrontierScore(f64);

impl Eq for FrontierScore {}

impl Ord for FrontierScore {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for FrontierScore {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl TilePruner {
    /// Creates a pruner targeting `k` results (`0` = unbounded, never
    /// prunes).
    pub fn new(k: usize) -> Self {
        TilePruner {
            k,
            frontier: std::collections::BinaryHeap::new(),
        }
    }

    /// Records the score product of an emitted result.
    pub fn observe(&mut self, score_product: f64) {
        if self.k == 0 {
            return;
        }
        if self.frontier.len() < self.k {
            self.frontier
                .push(std::cmp::Reverse(FrontierScore(score_product)));
        } else if let Some(std::cmp::Reverse(min)) = self.frontier.peek() {
            if score_product > min.0 {
                self.frontier.pop();
                self.frontier
                    .push(std::cmp::Reverse(FrontierScore(score_product)));
            }
        }
    }

    /// True when a tile with this representative cannot contribute a
    /// top-`k` result: the frontier is full and strictly dominates it.
    pub fn can_skip(&self, representative: f64) -> bool {
        if self.k == 0 || self.frontier.len() < self.k {
            return false;
        }
        match self.frontier.peek() {
            Some(std::cmp::Reverse(min)) => representative < min.0,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use CallTarget::{X, Y};

    /// The first `n` calls, both services inexhaustible.
    fn sequence(s: &CallScheduler, n: usize) -> Vec<CallTarget> {
        let (mut cx, mut cy) = (0, 0);
        (0..n)
            .map(|_| {
                let t = s.next_target(cx, cy);
                match t {
                    X => cx += 1,
                    Y => cy += 1,
                }
                t
            })
            .collect()
    }

    #[test]
    fn nested_loop_drains_the_step_service_first() {
        // Fig. 5a: after the initial X,Y alternation, all calls go to X
        // until its h=3 chunks are drained, then to Y.
        let s = CallScheduler::new(Invocation::NestedLoop, 3).unwrap();
        assert_eq!(sequence(&s, 7), vec![X, Y, X, X, Y, Y, Y]);
    }

    #[test]
    fn merge_scan_even_alternates() {
        // Fig. 5b / Fig. 7: r = 1/1 alternates evenly.
        let s = CallScheduler::new(Invocation::merge_scan_even(), 1).unwrap();
        assert_eq!(sequence(&s, 6), vec![X, Y, X, Y, X, Y]);
    }

    #[test]
    fn merge_scan_respects_the_inter_service_ratio() {
        // r = 3/5: each round of 8 calls sends 3 to X and 5 to Y (the
        // chapter's example ratio r=3/5 in §4.3.2).
        let s = CallScheduler::new(Invocation::MergeScan { r1: 3, r2: 5 }, 1).unwrap();
        let seq = sequence(&s, 24);
        // The forced X,Y opening replaces one round-scheduled X, so the
        // first round sends 2 X; every steady-state round sends 3 of 8
        // calls to X.
        assert_eq!(&seq[..8], &[X, Y, X, Y, Y, Y, Y, Y]);
        assert_eq!(&seq[8..16], &[X, X, X, Y, Y, Y, Y, Y]);
        assert_eq!(&seq[16..24], &[X, X, X, Y, Y, Y, Y, Y]);
    }

    #[test]
    fn first_two_calls_always_alternate() {
        for inv in [
            Invocation::NestedLoop,
            Invocation::merge_scan_even(),
            Invocation::MergeScan { r1: 5, r2: 1 },
        ] {
            let s = CallScheduler::new(inv, 2).unwrap();
            let seq = sequence(&s, 2);
            assert_eq!(
                seq,
                vec![X, Y],
                "{inv:?} must open with one call per service"
            );
        }
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(CallScheduler::new(Invocation::NestedLoop, 0).is_err());
        assert!(CallScheduler::new(Invocation::MergeScan { r1: 0, r2: 1 }, 1).is_err());
        assert!(CallScheduler::new(Invocation::MergeScan { r1: 1, r2: 0 }, 1).is_err());
    }

    #[test]
    fn nested_loop_with_h_one_behaves_like_outer_probe() {
        let s = CallScheduler::new(Invocation::NestedLoop, 1).unwrap();
        assert_eq!(sequence(&s, 5), vec![X, Y, Y, Y, Y]);
    }

    #[test]
    fn tile_pruner_skips_only_dominated_tiles_behind_a_full_frontier() {
        let mut p = TilePruner::new(2);
        assert!(!p.can_skip(0.1), "empty frontier never skips");
        p.observe(0.9);
        assert!(!p.can_skip(0.1), "frontier not full yet");
        p.observe(0.8);
        assert!(p.can_skip(0.5));
        assert!(!p.can_skip(0.8), "ties are not skipped");
        p.observe(0.95); // evicts 0.8
        assert!(p.can_skip(0.85));
        let mut unbounded = TilePruner::new(0);
        unbounded.observe(1.0);
        assert!(!unbounded.can_skip(0.0));
    }

    #[test]
    fn cost_based_ratio_favours_the_cheaper_richer_service() {
        // Equal services -> even alternation.
        assert_eq!(
            cost_based_ratio(10, 100.0, 10, 100.0),
            Invocation::MergeScan { r1: 1, r2: 1 }
        );
        // X has double the chunk size at the same latency: call it twice
        // as often.
        assert_eq!(
            cost_based_ratio(20, 100.0, 10, 100.0),
            Invocation::MergeScan { r1: 2, r2: 1 }
        );
        // X is three times slower at the same chunk size: call it a
        // third as often.
        assert_eq!(
            cost_based_ratio(10, 300.0, 10, 100.0),
            Invocation::MergeScan { r1: 1, r2: 3 }
        );
        // The chapter's example ratio 3/5 arises from matching costs.
        assert_eq!(
            cost_based_ratio(6, 100.0, 10, 100.0),
            Invocation::MergeScan { r1: 3, r2: 5 }
        );
        // Extreme asymmetry clamps at 6.
        assert_eq!(
            cost_based_ratio(100, 1.0, 1, 100.0),
            Invocation::MergeScan { r1: 6, r2: 1 }
        );
    }
}
