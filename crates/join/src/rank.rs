//! The rank-join operator: provable early stopping for top-k joins.
//!
//! The chapter's executor is *emission-ordered*: it emits combinations
//! in tile order and stops counting at `k`, which yields "k good
//! tuples" but not the top-k. This operator closes that gap with the
//! classic rank-join (HRJN-style) threshold scheme over the same tile
//! space:
//!
//! * both chunk streams must be **score-sorted** (non-increasing score
//!   within and across chunks — exactly what ranked search services
//!   produce, and what the engine enforces for buffered intermediates
//!   by sorting them before the join);
//! * every fetched chunk contributes its head score (the §4.1 tile
//!   *representative*) and its tail score (the last tuple seen on that
//!   axis);
//! * the **threshold** `T` is the best possible score product of any
//!   combination not yet enumerable:
//!
//!   ```text
//!   T = max( ux · topY ,  uy · topX )
//!   ```
//!
//!   where `ux`/`uy` bound any unfetched tuple of an axis (the observed
//!   tail of its last non-empty chunk, by sortedness) and `topX`/`topY`
//!   bound *every* tuple of the opposite axis (the first non-empty
//!   chunk's representative, which also dominates that axis's own
//!   unfetched tail — so the both-unfetched case is covered by either
//!   term);
//! * the run stops fetching the moment the k-th best buffered result
//!   **strictly** exceeds `T`: every combination never enumerated then
//!   scores strictly below the buffered k-th, so the sorted buffer's
//!   first `k` entries are exactly the first `k` entries of the sorted
//!   full enumeration (ties included — anything tying the k-th is in
//!   the buffer).
//!
//! Inside the fetched rectangle the operator reuses the binary tile
//! kernel (`join_tile`) unchanged, and skips whole tiles whose
//! representative the full score frontier strictly dominates — the same
//! strict bound, so skipped pairs cannot displace buffered ones.

use std::cmp::Ordering;
use std::sync::Arc;

use seco_model::CompositeTuple;
use seco_query::CompiledPredicates;

use crate::completion::TileWalk;
use crate::error::JoinError;
use crate::executor::{ChunkStream, CompositeChunk, JoinOutcome, ParallelJoinExecutor, RunState};
use crate::strategy::{CallTarget, TilePruner};
use crate::tile::{Tile, TileSpace};

/// The canonical score order on combinations: decreasing score product
/// (`f64::total_cmp`), ties broken by the per-component
/// `(atom, source_rank)` sequence — a deterministic total order on
/// distinct combinations, shared by the rank join and its tests.
pub fn score_order(a: &CompositeTuple, b: &CompositeTuple) -> Ordering {
    b.score_product()
        .total_cmp(&a.score_product())
        .then_with(|| {
            let ka = a
                .atoms
                .iter()
                .zip(&a.components)
                .map(|(s, c)| (s.as_str(), c.source_rank));
            let kb = b
                .atoms
                .iter()
                .zip(&b.components)
                .map(|(s, c)| (s.as_str(), c.source_rank));
            ka.cmp(kb)
        })
}

/// Per-axis bookkeeping of the pull loop.
struct Axis {
    chunks: Vec<Arc<CompositeChunk>>,
    more: bool,
    /// Highest head score among fetched non-empty chunks — bounds every
    /// tuple of the axis, fetched or not (sorted streams).
    top: Option<f64>,
    /// Last tuple score of the last fetched non-empty chunk — bounds
    /// every *unfetched* tuple of the axis.
    tail: Option<f64>,
    /// Tuples fetched so far.
    tuples: usize,
}

impl Axis {
    fn new() -> Axis {
        Axis {
            chunks: Vec::new(),
            more: true,
            top: None,
            tail: None,
            tuples: 0,
        }
    }

    fn absorb(&mut self, chunk: Arc<CompositeChunk>) {
        self.more = chunk.has_more;
        if !chunk.is_empty() {
            let head = chunk.representative;
            self.top = Some(self.top.map_or(head, |t| t.max(head)));
            self.tail = chunk.composites.last().map(CompositeTuple::score_product);
            self.tuples += chunk.len();
        }
        self.chunks.push(chunk);
    }

    /// Upper bound on any unfetched tuple's score, `None` when the axis
    /// is exhausted (nothing unseen remains).
    fn unseen_cap(&self) -> Option<f64> {
        if !self.more {
            return None;
        }
        // Before the first non-empty chunk arrives nothing bounds the
        // stream; infinity keeps the threshold conservative.
        Some(self.tail.unwrap_or(f64::INFINITY))
    }

    /// Upper bound on *any* tuple of the axis (fetched or not), `None`
    /// when the axis provably holds no tuples at all.
    fn any_cap(&self) -> Option<f64> {
        match (self.top, self.unseen_cap()) {
            (Some(t), Some(u)) => Some(t.max(u)),
            (Some(t), None) => Some(t),
            (None, Some(u)) => Some(u),
            (None, None) => None,
        }
    }
}

/// `a · b` guarded against `∞ · 0 = NaN`: an unknown factor makes the
/// whole bound unknown (infinite), never NaN.
fn bound_mul(a: f64, b: f64) -> f64 {
    if a.is_infinite() || b.is_infinite() {
        f64::INFINITY
    } else {
        a * b
    }
}

/// Best possible score product of a combination not yet enumerable, or
/// `None` when no such combination exists (both axes drained, or one
/// drained empty).
fn threshold(ax: &Axis, ay: &Axis) -> Option<f64> {
    let mut t: Option<f64> = None;
    if let (Some(ux), Some(ycap)) = (ax.unseen_cap(), ay.any_cap()) {
        let term = bound_mul(ux, ycap);
        t = Some(t.map_or(term, |v: f64| v.max(term)));
    }
    if let (Some(uy), Some(xcap)) = (ay.unseen_cap(), ax.any_cap()) {
        let term = bound_mul(uy, xcap);
        t = Some(t.map_or(term, |v: f64| v.max(term)));
    }
    t
}

/// The rank-join operator: a [`ParallelJoinExecutor`] configuration
/// (whose `k` must be positive) driven by the threshold bound instead
/// of the emit-count target.
///
/// Results come back in [`score_order`] — the true top-k prefix of the
/// full enumeration — rather than tile-emission order.
pub struct RankJoin<'p> {
    /// The underlying join configuration: predicates, schemas,
    /// invocation pacing, index and columnar options, and the `k`
    /// target (must be > 0 — a rank join without a target would just be
    /// the full enumeration).
    pub join: ParallelJoinExecutor<'p>,
    /// Optional model of the two streams' full extents. Used only to
    /// report `chunks_saved` (total chunks minus fetched); the stopping
    /// bound itself relies exclusively on *observed* scores, because
    /// synthetic scoring models may disagree with live data.
    pub space: Option<TileSpace>,
}

impl RankJoin<'_> {
    /// Runs the rank join to its provable stopping point.
    pub fn run(
        &self,
        x: &mut dyn ChunkStream,
        y: &mut dyn ChunkStream,
    ) -> Result<JoinOutcome, JoinError> {
        let k = self.join.k;
        if k == 0 {
            return Err(JoinError::BadMethod {
                detail: "rank join requires a positive k target".into(),
            });
        }
        let mut walk = TileWalk::new(
            self.join.invocation,
            self.join.completion,
            self.join.h.max(1),
        )?;
        let compiled = CompiledPredicates::compile(self.join.predicates, self.join.schemas)?;
        let start = std::time::Instant::now();
        let mut st = RunState::default();
        let mut frontier = TilePruner::new(k);
        let mut ax = Axis::new();
        let mut ay = Axis::new();
        let mut processed: Vec<Tile> = Vec::new();
        let mut tile_reps: Vec<f64> = Vec::new();
        let mut results: Vec<CompositeTuple> = Vec::new();

        loop {
            // An axis drained without a single tuple admits no
            // combination at all.
            if (!ax.more && ax.tuples == 0) || (!ay.more && ay.tuples == 0) {
                break;
            }
            st.stats.bound_checks += 1;
            match threshold(&ax, &ay) {
                None => break,
                // Strict domination: the k-th buffered score exceeds the
                // best possible unseen one, ties stay in the buffer.
                Some(t) if frontier.can_skip(t) => break,
                Some(_) => {}
            }
            let Some(target) = walk.next_call() else {
                break;
            };
            let (stream, axis): (&mut dyn ChunkStream, _) = match target {
                CallTarget::X => (&mut *x, &mut ax),
                CallTarget::Y => (&mut *y, &mut ay),
            };
            let chunk = stream.fetch_chunk(axis.chunks.len())?;
            walk.loaded(target, chunk.has_more);
            axis.absorb(chunk);
            // The new row (or column) of the fetched rectangle.
            while let Some(t) = walk.next_tile() {
                self.process_tile(
                    &compiled,
                    &ax.chunks[t.x],
                    &ay.chunks[t.y],
                    t,
                    &mut st,
                    &mut frontier,
                    &mut processed,
                    &mut tile_reps,
                    &mut results,
                )?;
            }
        }

        if results.len() >= k {
            st.stats.time_to_kth_us = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        }
        results.sort_by(score_order);
        results.truncate(k);
        let (calls_x, calls_y) = walk.calls();
        st.stats.chunks_fetched = (calls_x + calls_y) as u64;
        if let Some(space) = &self.space {
            st.stats.chunks_saved =
                (space.nx.saturating_sub(calls_x) + space.ny.saturating_sub(calls_y)) as u64;
        }
        let exhausted = !ax.more && !ay.more;
        Ok(JoinOutcome {
            results,
            calls_x,
            calls_y,
            tiles: processed,
            tile_representatives: tile_reps,
            exhausted,
            degraded: false,
            stats: st.stats,
        })
    }

    /// Processes one tile of the fetched rectangle: skip it when the
    /// full score frontier strictly dominates its representative, join
    /// it otherwise, feeding every emission back into the frontier.
    #[allow(clippy::too_many_arguments)]
    fn process_tile(
        &self,
        compiled: &CompiledPredicates,
        cx: &CompositeChunk,
        cy: &CompositeChunk,
        t: Tile,
        st: &mut RunState,
        frontier: &mut TilePruner,
        processed: &mut Vec<Tile>,
        tile_reps: &mut Vec<f64>,
        results: &mut Vec<CompositeTuple>,
    ) -> Result<(), JoinError> {
        processed.push(t);
        let rep = cx.representative * cy.representative;
        tile_reps.push(rep);
        if cx.is_empty() || cy.is_empty() {
            return Ok(());
        }
        if frontier.can_skip(rep) {
            st.stats.tiles_pruned += 1;
            st.stats.pairs_skipped += (cx.len() * cy.len()) as u64;
            return Ok(());
        }
        let before = results.len();
        self.join
            .join_tile(compiled, cx, cy, t.x, t.y, st, results)?;
        for r in &results[before..] {
            frontier.observe(r.score_product());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::MemoryStream;
    use crate::index::{ColumnarOptions, JoinIndexOptions};
    use seco_model::{
        Adornment, AttributeDef, AttributePath, Comparator, DataType, ScoreDecay, ServiceSchema,
        Tuple, Value,
    };
    use seco_plan::{Completion, Invocation};
    use seco_query::predicate::{ResolvedPredicate, SchemaMap};
    use seco_query::{JoinPredicate, QualifiedPath};

    fn schema(name: &str) -> ServiceSchema {
        ServiceSchema::new(
            name,
            vec![
                AttributeDef::atomic("City", DataType::Text, Adornment::Output),
                AttributeDef::atomic("Score", DataType::Float, Adornment::Ranked),
            ],
        )
        .unwrap()
    }

    fn stream_data(
        atom: &str,
        schema: &ServiceSchema,
        n: usize,
        decay: ScoreDecay,
    ) -> Vec<CompositeTuple> {
        let f = seco_model::ScoringFunction::new(decay, n, 2).unwrap();
        (0..n)
            .map(|i| {
                let t = Tuple::builder(schema)
                    .set("City", Value::Text(format!("city-{}", i % 3)))
                    .set("Score", Value::float(f.score_at(i)))
                    .score(f.score_at(i))
                    .source_rank(i)
                    .build()
                    .unwrap();
                CompositeTuple::single(atom, t)
            })
            .collect()
    }

    fn setup<'a>(
        sa: &'a ServiceSchema,
        sb: &'a ServiceSchema,
    ) -> (Vec<ResolvedPredicate>, SchemaMap<'a>) {
        let preds = vec![ResolvedPredicate::Join(JoinPredicate {
            left: QualifiedPath::new("A", AttributePath::atomic("City")),
            op: Comparator::Eq,
            right: QualifiedPath::new("B", AttributePath::atomic("City")),
        })];
        let mut schemas = SchemaMap::new();
        schemas.insert("A".into(), sa);
        schemas.insert("B".into(), sb);
        (preds, schemas)
    }

    fn exec<'p>(
        preds: &'p [ResolvedPredicate],
        schemas: &'p SchemaMap<'p>,
        k: usize,
    ) -> ParallelJoinExecutor<'p> {
        ParallelJoinExecutor {
            predicates: preds,
            schemas,
            invocation: Invocation::merge_scan_even(),
            completion: Completion::Triangular,
            h: 1,
            k,
            options: JoinIndexOptions::default(),
            columnar: ColumnarOptions::default(),
            pool: None,
        }
    }

    /// The full enumeration, sorted by the canonical score order.
    fn sorted_baseline(
        preds: &[ResolvedPredicate],
        schemas: &SchemaMap<'_>,
        a: &[CompositeTuple],
        b: &[CompositeTuple],
        chunk: usize,
    ) -> Vec<CompositeTuple> {
        let full = ParallelJoinExecutor {
            k: 0,
            completion: Completion::Rectangular,
            ..exec(preds, schemas, 0)
        };
        let mut sx = MemoryStream::new(a.to_vec(), chunk);
        let mut sy = MemoryStream::new(b.to_vec(), chunk);
        let mut out = full.run(&mut sx, &mut sy).unwrap().results;
        out.sort_by(score_order);
        out
    }

    #[test]
    fn top_k_is_the_sorted_baseline_prefix() {
        let sa = schema("A1");
        let sb = schema("B1");
        let (preds, schemas) = setup(&sa, &sb);
        let a = stream_data("A", &sa, 24, ScoreDecay::Linear);
        let b = stream_data("B", &sb, 24, ScoreDecay::Quadratic);
        let baseline = sorted_baseline(&preds, &schemas, &a, &b, 4);
        for k in [1usize, 5, 20] {
            let rj = RankJoin {
                join: exec(&preds, &schemas, k),
                space: None,
            };
            let mut sx = MemoryStream::new(a.clone(), 4);
            let mut sy = MemoryStream::new(b.clone(), 4);
            let out = rj.run(&mut sx, &mut sy).unwrap();
            let want: Vec<_> = baseline.iter().take(k).cloned().collect();
            assert_eq!(out.results, want, "k={k}");
            assert!(out.stats.bound_checks > 0);
            assert_eq!(out.stats.chunks_fetched, (out.calls_x + out.calls_y) as u64);
        }
    }

    #[test]
    fn early_stopping_saves_chunks_on_deep_streams() {
        let sa = schema("A1");
        let sb = schema("B1");
        let (preds, schemas) = setup(&sa, &sb);
        // Steep decay: nearly everything relevant is in the first chunks.
        let decay = ScoreDecay::Step {
            h: 2,
            high: 0.95,
            low: 0.02,
        };
        let a = stream_data("A", &sa, 120, decay);
        let b = stream_data("B", &sb, 120, decay);
        let rj = RankJoin {
            join: exec(&preds, &schemas, 5),
            space: None,
        };
        let mut sx = MemoryStream::new(a.clone(), 4);
        let mut sy = MemoryStream::new(b.clone(), 4);
        let out = rj.run(&mut sx, &mut sy).unwrap();
        assert!(
            out.calls_x + out.calls_y < 30,
            "stopped after {} + {} of 60 chunks",
            out.calls_x,
            out.calls_y
        );
        let baseline = sorted_baseline(&preds, &schemas, &a, &b, 4);
        assert_eq!(out.results.as_slice(), &baseline[..5]);
        assert!(out.stats.time_to_kth_us > 0);
    }

    #[test]
    fn chunks_saved_reports_against_the_space() {
        let sa = schema("A1");
        let sb = schema("B1");
        let (preds, schemas) = setup(&sa, &sb);
        let a = stream_data("A", &sa, 40, ScoreDecay::Linear);
        let b = stream_data("B", &sb, 40, ScoreDecay::Linear);
        let fx = seco_model::ScoringFunction::new(ScoreDecay::Linear, 40, 4).unwrap();
        let fy = seco_model::ScoringFunction::new(ScoreDecay::Linear, 40, 4).unwrap();
        let rj = RankJoin {
            join: exec(&preds, &schemas, 1),
            space: Some(TileSpace::new(fx, fy)),
        };
        let mut sx = MemoryStream::new(a, 4);
        let mut sy = MemoryStream::new(b, 4);
        let out = rj.run(&mut sx, &mut sy).unwrap();
        assert_eq!(
            out.stats.chunks_saved,
            (20 - out.calls_x - out.calls_y) as u64
        );
        assert!(out.stats.chunks_saved > 0, "k=1 must stop early");
    }

    #[test]
    fn k_zero_is_rejected() {
        let sa = schema("A1");
        let sb = schema("B1");
        let (preds, schemas) = setup(&sa, &sb);
        let rj = RankJoin {
            join: exec(&preds, &schemas, 0),
            space: None,
        };
        let mut sx = MemoryStream::new(Vec::new(), 2);
        let mut sy = MemoryStream::new(Vec::new(), 2);
        assert!(matches!(
            rj.run(&mut sx, &mut sy),
            Err(JoinError::BadMethod { .. })
        ));
    }

    #[test]
    fn empty_axis_terminates_immediately() {
        let sa = schema("A1");
        let sb = schema("B1");
        let (preds, schemas) = setup(&sa, &sb);
        let rj = RankJoin {
            join: exec(&preds, &schemas, 3),
            space: None,
        };
        let mut sx = MemoryStream::new(Vec::new(), 2);
        let mut sy = MemoryStream::new(stream_data("B", &sb, 50, ScoreDecay::Linear), 2);
        let out = rj.run(&mut sx, &mut sy).unwrap();
        assert!(out.results.is_empty());
        assert!(
            out.calls_y <= 1,
            "a provably empty X axis must stop Y fetches, got {}",
            out.calls_y
        );
    }
}
