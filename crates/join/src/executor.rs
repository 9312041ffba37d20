//! The parallel-join executor: real chunk fetching over the tile space.
//!
//! Joins two *chunked streams* (usually two service invocations, but the
//! engine also joins intermediate composite streams) according to an
//! invocation strategy, a completion strategy, and a result target `k`.
//! The executor fetches chunks lazily, processes tiles in strategy
//! order, evaluates the join predicates on every candidate pair of a
//! tile (under the repeating-group mapping semantics), and emits joined
//! composites in tile order — the non-blocking dataflow of §4.1.

use std::sync::Arc;

use seco_model::{CompositeTuple, Symbol};
use seco_plan::{Completion, Invocation};
use seco_query::predicate::{ResolvedPredicate, SchemaMap};
use seco_query::{CompiledPredicates, EvalScratch};
use seco_services::invocation::Request;
use seco_services::Service;

use crate::completion::TileWalk;
use crate::error::JoinError;
use crate::index::{Candidates, JoinStats, KeyIndex, KeyPlan, ProbeKeys};
use crate::strategy::CallTarget;
use crate::tile::Tile;

/// One fetched chunk of composites plus its cached header data.
///
/// The chunk's §4.1 representative score is computed once, when the
/// chunk is built (or forwarded from the service chunk's own header),
/// so tile extraction never rescans tuples to recover it. Cloning a
/// `CompositeChunk` clones composite *handles* (atom symbols and
/// `Arc`-shared components), never tuple payloads.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositeChunk {
    /// The chunk's composites, in stream order.
    pub composites: Vec<CompositeTuple>,
    /// Whether more chunks exist past this one.
    pub has_more: bool,
    /// The chunk's representative score: the head composite's score
    /// product (1.0 for an empty chunk), per the tile-space convention
    /// of taking the first tuple as representative for the whole chunk.
    pub representative: f64,
}

impl CompositeChunk {
    /// Builds a chunk, deriving the representative from the head
    /// composite.
    pub fn new(composites: Vec<CompositeTuple>, has_more: bool) -> Self {
        let representative = composites
            .first()
            .map_or(1.0, CompositeTuple::score_product);
        CompositeChunk {
            composites,
            has_more,
            representative,
        }
    }

    /// Builds a chunk with an externally supplied representative (e.g.
    /// forwarded from a service chunk's cached header).
    pub fn with_representative(
        composites: Vec<CompositeTuple>,
        has_more: bool,
        representative: f64,
    ) -> Self {
        CompositeChunk {
            composites,
            has_more,
            representative,
        }
    }

    /// Number of composites in the chunk.
    pub fn len(&self) -> usize {
        self.composites.len()
    }

    /// True when the chunk carries no composites.
    pub fn is_empty(&self) -> bool {
        self.composites.is_empty()
    }
}

/// A lazily fetched, chunked stream of composite tuples.
pub trait ChunkStream {
    /// Fetches chunk `idx` (0-based). The join only reads a chunk, so a
    /// stream that keeps its chunks hands out the one it holds.
    fn fetch_chunk(&mut self, idx: usize) -> Result<Arc<CompositeChunk>, JoinError>;
}

/// Adapter: one service invocation (fixed bindings) as a stream of
/// single-atom composites.
pub struct ServiceStream<'a> {
    atom: Symbol,
    service: &'a dyn Service,
    request: Request,
}

impl<'a> ServiceStream<'a> {
    /// Creates a stream for `atom` answered by `service` under
    /// `request`'s bindings.
    pub fn new(atom: impl Into<Symbol>, service: &'a dyn Service, request: Request) -> Self {
        ServiceStream {
            atom: atom.into(),
            service,
            request,
        }
    }
}

impl ChunkStream for ServiceStream<'_> {
    fn fetch_chunk(&mut self, idx: usize) -> Result<Arc<CompositeChunk>, JoinError> {
        let resp = self.service.fetch(&self.request.at_chunk(idx))?;
        let composites = resp
            .tuples()
            .iter()
            .map(|t| CompositeTuple::single(self.atom, t.clone()))
            .collect();
        // The representative rides along on the service chunk's shared
        // header — no rescan of tuple scores here.
        Ok(Arc::new(CompositeChunk::with_representative(
            composites,
            resp.has_more(),
            resp.head_score(),
        )))
    }
}

/// In-memory stream over pre-chunked composites (tests and re-joining
/// buffered intermediate results).
pub struct MemoryStream {
    chunks: Vec<Arc<CompositeChunk>>,
}

impl MemoryStream {
    /// Chunks an already-materialized list, moving its composites into
    /// the chunks; per-chunk representatives are computed once, here.
    pub fn new(tuples: Vec<CompositeTuple>, chunk_size: usize) -> Self {
        let chunk_size = chunk_size.max(1);
        let n_chunks = tuples.len().div_ceil(chunk_size);
        let mut tuples = tuples.into_iter();
        let chunks = (1..=n_chunks)
            .map(|nth| {
                let composites = tuples.by_ref().take(chunk_size).collect();
                Arc::new(CompositeChunk::new(composites, nth < n_chunks))
            })
            .collect();
        MemoryStream { chunks }
    }
}

impl ChunkStream for MemoryStream {
    fn fetch_chunk(&mut self, idx: usize) -> Result<Arc<CompositeChunk>, JoinError> {
        Ok(self
            .chunks
            .get(idx)
            .cloned()
            .unwrap_or_else(|| Arc::new(CompositeChunk::new(Vec::new(), false))))
    }
}

/// Outcome of a parallel join run.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinOutcome {
    /// Joined composites, in emission (tile) order.
    pub results: Vec<CompositeTuple>,
    /// Request-responses issued to the first stream.
    pub calls_x: usize,
    /// Request-responses issued to the second stream.
    pub calls_y: usize,
    /// Tiles processed, in order.
    pub tiles: Vec<Tile>,
    /// Observed representative score of each processed tile (the
    /// product of the two chunks' cached head scores), aligned with
    /// `tiles`. Computed from chunk headers, never by rescanning
    /// tuples.
    pub tile_representatives: Vec<f64>,
    /// True when the whole tile space was explored (no more results
    /// exist); false when the run stopped at the `k` target.
    pub exhausted: bool,
    /// True when a branch failure degraded the outcome: `results` is
    /// then a partial answer (possibly the surviving branch passed
    /// through unjoined).
    pub degraded: bool,
    /// Join-kernel work counters (index builds, probes, skipped pairs,
    /// pruned tiles, predicate evaluations).
    pub stats: JoinStats,
}

/// The parallel-join executor (§4.2.2).
pub struct ParallelJoinExecutor<'p> {
    /// Join predicates between the two streams' atoms (already
    /// resolved), compiled once per run: a set that does not compile
    /// fails the run before its first fetch.
    pub predicates: &'p [ResolvedPredicate],
    /// Schemas of all atoms appearing in the streams.
    pub schemas: &'p SchemaMap<'p>,
    /// Invocation strategy.
    pub invocation: Invocation,
    /// Completion strategy.
    pub completion: Completion,
    /// Step parameter `h` (chunks) of the first stream, for nested-loop.
    pub h: usize,
    /// Stop after emitting this many results (0 = explore everything).
    pub k: usize,
    /// Holds nothing and is read by nothing: every tile keys through the
    /// key index. Kept only because the benchmark harness still sets it
    /// from `EngineConfig::join_index` (ROADMAP item 1f drops that).
    pub options: (),
    /// Holds nothing and is read by nothing: a tile judges its
    /// candidates scalar. Kept only because the benchmark harness still
    /// sets it from `EngineConfig::columnar` (ROADMAP item 1f drops
    /// that).
    pub columnar: (),
    /// Read by nothing: a tile's rows are joined serially. Kept only
    /// because the benchmark harness still sets it (ROADMAP item 1f
    /// drops that).
    pub pool: Option<Arc<seco_exec::ExecPool>>,
}

impl<'p> ParallelJoinExecutor<'p> {
    /// A join of everything under `predicates`: merge-scan 1:1 with
    /// rectangular completion, `h = 1` and no `k` target. Set the other
    /// public fields with struct-update syntax.
    pub fn new(predicates: &'p [ResolvedPredicate], schemas: &'p SchemaMap<'p>) -> Self {
        ParallelJoinExecutor {
            predicates,
            schemas,
            invocation: Invocation::merge_scan_even(),
            completion: Completion::Rectangular,
            h: 1,
            k: 0,
            options: (),
            columnar: (),
            pool: None,
        }
    }
}

/// Per-run mutable state of the index-accelerated kernel: the reusable
/// evaluation scratch, the deduplicated key plans, the lazily built
/// per-chunk indexes and probe keys, and the work counters.
#[derive(Default)]
pub(crate) struct RunState {
    ws: RowScratch,
    plans: Vec<KeyPlan>,
    /// Per Y chunk: `None` = not examined yet; `Some(None)` = no usable
    /// key plan (nested loop); `Some(Some((plan, index)))` = built.
    indexes_y: Vec<Option<Option<(usize, KeyIndex)>>>,
    /// Per X chunk: its probe keys under each plan met so far.
    probes_x: Vec<Vec<(usize, ProbeKeys)>>,
    pub(crate) stats: JoinStats,
}

/// Evaluation scratch reused across a run's tiles: everything the row
/// loop writes during evaluation.
#[derive(Default)]
struct RowScratch {
    scratch: EvalScratch,
    /// Candidate list reused by keyed probes.
    cand: Vec<u32>,
}

/// Everything a tile's row loop reads but never writes, gathered after
/// the ensure phase (index build, probe-key extraction).
struct TileCtx<'a> {
    compiled: &'a CompiledPredicates,
    cx: &'a [CompositeTuple],
    cy: &'a [CompositeTuple],
    probe: Option<(&'a KeyIndex, &'a ProbeKeys)>,
}

impl ParallelJoinExecutor<'_> {
    /// Runs the join to completion or to the `k` target: a [`TileWalk`]
    /// under the configured strategies picks each call and orders the
    /// tiles the fetched chunks load.
    pub fn run(
        &self,
        x: &mut dyn ChunkStream,
        y: &mut dyn ChunkStream,
    ) -> Result<JoinOutcome, JoinError> {
        let target_k = if self.k == 0 { usize::MAX } else { self.k };
        let mut walk = TileWalk::new(self.invocation, self.completion, self.h.max(1))?;
        // Compile the predicate set once per run, before the first
        // fetch: a set that does not compile is rejected here.
        let compiled = CompiledPredicates::compile(self.predicates, self.schemas)?;
        let mut st = RunState::default();
        let mut chunks_x: Vec<Arc<CompositeChunk>> = Vec::new();
        let mut chunks_y: Vec<Arc<CompositeChunk>> = Vec::new();
        let mut tiles: Vec<Tile> = Vec::new();
        let mut tile_reps: Vec<f64> = Vec::new();
        let mut results: Vec<CompositeTuple> = Vec::new();

        'calls: while let Some(target) = walk.next_call() {
            let (stream, chunks): (&mut dyn ChunkStream, _) = match target {
                CallTarget::X => (&mut *x, &mut chunks_x),
                CallTarget::Y => (&mut *y, &mut chunks_y),
            };
            let chunk = stream.fetch_chunk(chunks.len())?;
            walk.loaded(target, chunk.has_more);
            chunks.push(chunk);
            while let Some(t) = walk.next_tile() {
                let (chunk_x, chunk_y) = (&chunks_x[t.x], &chunks_y[t.y]);
                tiles.push(t);
                tile_reps.push(chunk_x.representative * chunk_y.representative);
                self.join_tile(&compiled, chunk_x, chunk_y, t.x, t.y, &mut st, &mut results)?;
                if results.len() >= target_k {
                    break 'calls;
                }
            }
        }

        let (calls_x, calls_y) = walk.calls();
        st.stats.chunks_fetched = (calls_x + calls_y) as u64;
        Ok(JoinOutcome {
            // Short of `k`, the walk ran to its end: both axes drained
            // and every loaded tile processed.
            exhausted: results.len() < target_k,
            results,
            calls_x,
            calls_y,
            tiles,
            tile_representatives: tile_reps,
            degraded: false,
            stats: st.stats,
        })
    }

    /// Runs the join with graceful degradation over branches that
    /// (partially) failed upstream.
    ///
    /// `x_failed` / `y_failed` declare that a branch lost tuples to a
    /// service failure. The join itself runs normally over whatever
    /// survived — partial pairs are still correct pairs. But when the
    /// failed branch contributed *nothing* and the join is therefore
    /// empty, the executor passes the surviving branch's composites
    /// through unjoined, in their own rank order, truncated at the `k`
    /// target — a partial answer beats no answer, and the caller sees
    /// `degraded = true` on the outcome (and the missing atoms on each
    /// composite) to tell the two cases apart.
    pub fn run_with_degradation(
        &self,
        x: &mut dyn ChunkStream,
        y: &mut dyn ChunkStream,
        x_failed: bool,
        y_failed: bool,
    ) -> Result<JoinOutcome, JoinError> {
        let mut outcome = self.run(x, y)?;
        outcome.degraded = x_failed || y_failed;
        if outcome.results.is_empty() && (x_failed != y_failed) {
            let survivor: &mut dyn ChunkStream = if x_failed { y } else { x };
            let target_k = if self.k == 0 { usize::MAX } else { self.k };
            let mut passed = Vec::new();
            let mut idx = 0usize;
            loop {
                let chunk = survivor.fetch_chunk(idx)?;
                idx += 1;
                let more = chunk.has_more;
                let room = target_k - passed.len();
                passed.extend(chunk.composites.iter().take(room).cloned());
                if passed.len() >= target_k || !more {
                    break;
                }
            }
            outcome.results = passed;
            outcome.exhausted = false;
        }
        Ok(outcome)
    }

    /// Joins one tile, emitting results in the exact (i, j) order of a
    /// nested loop.
    ///
    /// Pairs are *merged*, not concatenated: branches with common
    /// ancestry (the Fig. 2 diamond) share atoms, and a pair whose
    /// shared components differ is not a candidate at all.
    ///
    /// Each X row's candidates come from the Y chunk's [`KeyIndex`]
    /// (built lazily once per chunk) when an equi key applies, else
    /// they are the whole chunk. Candidates are judged one at a time by
    /// `compiled`, the run's one compiled predicate set.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn join_tile(
        &self,
        compiled: &CompiledPredicates,
        chunk_x: &CompositeChunk,
        chunk_y: &CompositeChunk,
        xi: usize,
        yi: usize,
        st: &mut RunState,
        out: &mut Vec<CompositeTuple>,
    ) -> Result<(), JoinError> {
        let cx = &chunk_x.composites;
        let cy = &chunk_y.composites;
        // The tests' scalar reference: every pair a candidate, judged
        // one at a time.
        if !crate::accelerated() {
            let ctx = TileCtx {
                compiled,
                cx,
                cy,
                probe: None,
            };
            let RunState { ws, stats, .. } = st;
            return self.join_rows(&ctx, ws, stats, out);
        }

        // Build (or reuse) the Y chunk's index.
        if st.indexes_y.len() <= yi {
            st.indexes_y.resize_with(yi + 1, || None);
        }
        if st.indexes_y[yi].is_none() {
            let built = cy
                .first()
                .and_then(|sample| KeyPlan::build(compiled.equi_candidates(), sample))
                .map(|plan| {
                    let plan_id = st.plans.iter().position(|p| *p == plan).unwrap_or_else(|| {
                        st.plans.push(plan);
                        st.plans.len() - 1
                    });
                    st.stats.index_builds += 1;
                    let mut side = st.plans[plan_id].y_side();
                    (plan_id, KeyIndex::build(cy.len(), |j| side.key(&cy[j])))
                });
            st.indexes_y[yi] = Some(built);
        }

        // The ensure phase ends here; split the run state so the row
        // loop can read the caches while writing scratch, stats, and
        // results.
        if st.probes_x.len() <= xi {
            st.probes_x.resize_with(xi + 1, Vec::new);
        }
        let RunState {
            ws,
            plans,
            indexes_y,
            probes_x,
            stats,
        } = st;
        // Extract (or reuse) the X chunk's probe keys when the Y chunk
        // has an index (`None`: compiled nested loop, no equi key
        // applies to this chunk).
        let probe = indexes_y[yi]
            .as_ref()
            .and_then(Option::as_ref)
            .map(|(plan_id, index)| {
                let cached = &mut probes_x[xi];
                let at = cached
                    .iter()
                    .position(|(id, _)| id == plan_id)
                    .unwrap_or_else(|| {
                        let mut side = plans[*plan_id].x_side();
                        let keys = ProbeKeys::build(cx.len(), |i| side.key(&cx[i]));
                        cached.push((*plan_id, keys));
                        cached.len() - 1
                    });
                (index, &cached[at].1)
            });
        // Index-emptiness pruning: when every composite on both sides is
        // keyed and no probe key is indexed, every pair mismatches on an
        // equi conjunct — the tile cannot contribute a result.
        if probe.is_some_and(|(index, keys)| index.misses_all(keys)) {
            stats.tiles_pruned += 1;
            stats.pairs_skipped += (cx.len() * cy.len()) as u64;
            return Ok(());
        }
        let ctx = TileCtx {
            compiled,
            cx,
            cy,
            probe,
        };
        self.join_rows(&ctx, ws, stats, out)
    }

    /// Evaluates the tile's X rows against the Y chunk: per row, its
    /// candidates, each merged and judged scalar.
    fn join_rows(
        &self,
        ctx: &TileCtx<'_>,
        ws: &mut RowScratch,
        stats: &mut JoinStats,
        out: &mut Vec<CompositeTuple>,
    ) -> Result<(), JoinError> {
        let RowScratch { scratch, cand } = ws;
        let cy = ctx.cy;
        for (i, a) in ctx.cx.iter().enumerate() {
            let cands = match ctx.probe {
                Some((index, keys)) => index.candidates(keys.at(i), cy.len(), stats, cand),
                None => Candidates::All(cy.len()),
            };
            for j in cands.iter() {
                let Some(candidate) = a.merge(&cy[j]) else {
                    continue;
                };
                stats.predicate_evals += 1;
                if ctx.compiled.eval(&candidate, scratch)? {
                    out.push(candidate);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seco_model::{
        Adornment, AttributeDef, AttributePath, Comparator, DataType, ScoreDecay, ServiceSchema,
        Tuple, Value,
    };
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

    /// Builds a ranked composite list over a small city domain.
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

    /// A stream that must never be asked for a chunk.
    struct Unfetched;

    impl ChunkStream for Unfetched {
        fn fetch_chunk(&mut self, _: usize) -> Result<Arc<CompositeChunk>, JoinError> {
            panic!("a set that does not compile must fail before any fetch")
        }
    }

    #[test]
    fn a_set_that_does_not_compile_fails_before_any_fetch() {
        let sa = schema("A1");
        let sb = schema("B1");
        let (_, schemas) = setup(&sa, &sb);
        let preds = vec![ResolvedPredicate::Join(JoinPredicate {
            left: QualifiedPath::new("A", AttributePath::atomic("City")),
            op: Comparator::Eq,
            right: QualifiedPath::new("B", AttributePath::atomic("Bogus")),
        })];
        let expected = CompiledPredicates::compile(&preds, &schemas).unwrap_err();
        for scalar in [false, true] {
            let exec = ParallelJoinExecutor::new(&preds, &schemas);
            let out = crate::with_scalar(scalar, || exec.run(&mut Unfetched, &mut Unfetched));
            assert_eq!(out, Err(JoinError::Query(expected.clone())), "{scalar}");
            let rank = crate::RankJoin {
                join: ParallelJoinExecutor { k: 3, ..exec },
                space: None,
            };
            let out = crate::with_scalar(scalar, || rank.run(&mut Unfetched, &mut Unfetched));
            assert_eq!(
                out,
                Err(JoinError::Query(expected.clone())),
                "rank, {scalar}"
            );
        }
        let groups = vec![
            stream_data("A", &sa, 4, ScoreDecay::Linear),
            stream_data("B", &sb, 4, ScoreDecay::Linear),
        ];
        let stage = crate::NaryStage {
            predicates: &preds,
            invocation: Invocation::merge_scan_even(),
            completion: Completion::Rectangular,
            h: 1,
            k: 0,
            left_chunk: 2,
            right_chunk: 2,
        };
        let kernel = crate::NaryJoin { schemas: &schemas };
        let out = kernel.run(&groups, &[stage]);
        assert_eq!(out, Err(JoinError::Query(expected)), "n-ary");
    }

    #[test]
    fn join_finds_all_matches_when_exhaustive() {
        let sa = schema("A1");
        let sb = schema("B1");
        let (preds, schemas) = setup(&sa, &sb);
        let a = stream_data("A", &sa, 6, ScoreDecay::Linear);
        let b = stream_data("B", &sb, 6, ScoreDecay::Linear);
        let expected = a
            .iter()
            .flat_map(|x| b.iter().map(move |y| (x, y)))
            .filter(|(x, y)| x.components[0].atomic_at(0) == y.components[0].atomic_at(0))
            .count();
        let exec = ParallelJoinExecutor::new(&preds, &schemas);
        let mut ms_a = MemoryStream::new(a, 2);
        let mut ms_b = MemoryStream::new(b, 2);
        let out = exec.run(&mut ms_a, &mut ms_b).unwrap();
        assert_eq!(out.results.len(), expected);
        assert!(out.exhausted);
        assert_eq!((out.calls_x, out.calls_y), (3, 3));
        assert_eq!(out.tiles.len(), 9);
        // Every result satisfies the predicate and has both atoms.
        for r in &out.results {
            assert_eq!(r.arity(), 2);
        }
    }

    #[test]
    fn join_stops_at_k() {
        let sa = schema("A1");
        let sb = schema("B1");
        let (preds, schemas) = setup(&sa, &sb);
        let a = stream_data("A", &sa, 20, ScoreDecay::Linear);
        let b = stream_data("B", &sb, 20, ScoreDecay::Linear);
        let exec = ParallelJoinExecutor {
            completion: Completion::Triangular,
            k: 3,
            ..ParallelJoinExecutor::new(&preds, &schemas)
        };
        let mut ms_a = MemoryStream::new(a, 2);
        let mut ms_b = MemoryStream::new(b, 2);
        let out = exec.run(&mut ms_a, &mut ms_b).unwrap();
        assert_eq!(out.results.len(), 3);
        assert!(!out.exhausted);
        // Early termination saves calls: far fewer than the full 10+10.
        assert!(
            out.calls_x + out.calls_y < 20,
            "stopped early with {} + {} calls",
            out.calls_x,
            out.calls_y
        );
    }

    #[test]
    fn nested_loop_prefers_the_first_stream() {
        let sa = schema("A1");
        let sb = schema("B1");
        let (preds, schemas) = setup(&sa, &sb);
        let a = stream_data(
            "A",
            &sa,
            8,
            ScoreDecay::Step {
                h: 2,
                high: 0.95,
                low: 0.05,
            },
        );
        let b = stream_data("B", &sb, 8, ScoreDecay::Linear);
        let exec = ParallelJoinExecutor {
            invocation: Invocation::NestedLoop,
            h: 2,
            ..ParallelJoinExecutor::new(&preds, &schemas)
        };
        let mut ms_a = MemoryStream::new(a, 2);
        let mut ms_b = MemoryStream::new(b, 2);
        let out = exec.run(&mut ms_a, &mut ms_b).unwrap();
        // NL drains h=2 chunks of A right after the opening pair.
        assert_eq!(out.tiles[0], Tile::new(0, 0));
        assert!(out.exhausted);
        assert_eq!((out.calls_x, out.calls_y), (4, 4));
    }

    #[test]
    fn empty_stream_joins_to_nothing() {
        let sa = schema("A1");
        let sb = schema("B1");
        let (preds, schemas) = setup(&sa, &sb);
        let exec = ParallelJoinExecutor::new(&preds, &schemas);
        let mut ms_a = MemoryStream::new(Vec::new(), 2);
        let mut ms_b = MemoryStream::new(stream_data("B", &sb, 4, ScoreDecay::Linear), 2);
        let out = exec.run(&mut ms_a, &mut ms_b).unwrap();
        assert!(out.results.is_empty());
        assert!(out.exhausted);
    }

    #[test]
    fn degraded_join_passes_the_surviving_branch_through_in_rank_order() {
        let sa = schema("A1");
        let sb = schema("B1");
        let (preds, schemas) = setup(&sa, &sb);
        let survivors = stream_data("A", &sa, 8, ScoreDecay::Linear);
        let exec = ParallelJoinExecutor {
            k: 3,
            ..ParallelJoinExecutor::new(&preds, &schemas)
        };
        // B's branch lost everything to an outage upstream.
        let mut ms_a = MemoryStream::new(survivors.clone(), 2);
        let mut ms_b = MemoryStream::new(Vec::new(), 2);
        let out = exec
            .run_with_degradation(&mut ms_a, &mut ms_b, false, true)
            .unwrap();
        assert!(out.degraded);
        assert_eq!(out.results.len(), 3, "k-answer termination still applies");
        // Pass-through preserves the survivor's rank order.
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(r, &survivors[i]);
            assert_eq!(
                r.arity(),
                1,
                "the failed atom is missing from the composite"
            );
        }
        // A branch that degraded but still joined keeps real pairs.
        let mut ms_a = MemoryStream::new(survivors.clone(), 2);
        let mut ms_b = MemoryStream::new(stream_data("B", &sb, 4, ScoreDecay::Linear), 2);
        let joined = exec
            .run_with_degradation(&mut ms_a, &mut ms_b, false, true)
            .unwrap();
        assert!(joined.degraded);
        assert!(joined.results.iter().all(|r| r.arity() == 2));
        // Both branches down: nothing to pass through.
        let mut ms_a = MemoryStream::new(Vec::new(), 2);
        let mut ms_b = MemoryStream::new(Vec::new(), 2);
        let none = exec
            .run_with_degradation(&mut ms_a, &mut ms_b, true, true)
            .unwrap();
        assert!(none.degraded && none.results.is_empty());
        // No failures: identical to a plain run.
        let mut ms_a = MemoryStream::new(survivors, 2);
        let mut ms_b = MemoryStream::new(stream_data("B", &sb, 4, ScoreDecay::Linear), 2);
        let clean = exec
            .run_with_degradation(&mut ms_a, &mut ms_b, false, false)
            .unwrap();
        assert!(!clean.degraded);
    }

    #[test]
    fn service_stream_adapts_requests() {
        use seco_model::{ServiceInterface, ServiceKind, ServiceStats};
        use seco_services::synthetic::{DomainMap, SyntheticService};
        let iface = ServiceInterface::new(
            "S1",
            "S",
            ServiceSchema::new(
                "S1",
                vec![
                    AttributeDef::atomic("K", DataType::Text, Adornment::Input),
                    AttributeDef::atomic("V", DataType::Text, Adornment::Output),
                    AttributeDef::atomic("Score", DataType::Float, Adornment::Ranked),
                ],
            )
            .unwrap(),
            ServiceKind::Search,
            ServiceStats::new(5.0, 2, 1.0, 1.0).unwrap(),
            ScoreDecay::Linear,
        )
        .unwrap();
        let svc = SyntheticService::new(iface, DomainMap::new(), 3);
        let req = Request::unbound().bind(AttributePath::atomic("K"), Value::text("x"));
        let mut stream = ServiceStream::new("A", &svc, req);
        let chunk = stream.fetch_chunk(0).unwrap();
        assert_eq!(chunk.len(), 2);
        assert!(chunk.has_more);
        assert_eq!(chunk.composites[0].atom_names(), vec!["A"]);
        // The representative rides on the chunk header and matches the
        // head composite's score product.
        assert!((chunk.representative - chunk.composites[0].score_product()).abs() < 1e-12);
        let last = stream.fetch_chunk(2).unwrap();
        assert_eq!(last.len(), 1);
        assert!(!last.has_more);
    }

    #[test]
    fn tile_representatives_ride_on_chunk_headers() {
        let sa = schema("A1");
        let sb = schema("B1");
        let (preds, schemas) = setup(&sa, &sb);
        let a = stream_data("A", &sa, 6, ScoreDecay::Linear);
        let b = stream_data("B", &sb, 6, ScoreDecay::Linear);
        let exec = ParallelJoinExecutor::new(&preds, &schemas);
        let mut ms_a = MemoryStream::new(a.clone(), 2);
        let mut ms_b = MemoryStream::new(b.clone(), 2);
        let out = exec.run(&mut ms_a, &mut ms_b).unwrap();
        assert_eq!(out.tile_representatives.len(), out.tiles.len());
        for (t, rep) in out.tiles.iter().zip(&out.tile_representatives) {
            // Each observed representative is the product of the two
            // head composites' scores for that tile.
            let expected = a[t.x * 2].score_product() * b[t.y * 2].score_product();
            assert!((rep - expected).abs() < 1e-12);
        }
        // Representatives never increase along either axis (ranked
        // streams decay), so tile (0,0) dominates.
        let first = out.tile_representatives[out
            .tiles
            .iter()
            .position(|t| *t == Tile::new(0, 0))
            .unwrap()];
        for rep in &out.tile_representatives {
            assert!(*rep <= first + 1e-12);
        }
    }

    /// The join inputs of the kernel grid.
    #[derive(Debug, Clone, Copy)]
    enum Pair {
        /// A seeded synthetic service pair under these decays, joined
        /// on `Link` by this comparator: `=` keys through the index,
        /// `<` judges every pair of a tile.
        Decays(ScoreDecay, ScoreDecay, Comparator),
        /// A join-key edge case.
        Edge(seco_bench::KeyEdge),
    }

    /// Every pair of the grid: synthetic pairs, keyed and unkeyed, and
    /// the exactness rules the index owns — a separator inside a two-conjunct `Text` key, a
    /// raw `NaN`, and `Int` and `Float` keys that promote to one value.
    fn pairs() -> impl Iterator<Item = Pair> {
        let step = ScoreDecay::Step {
            h: 2,
            high: 0.9,
            low: 0.1,
        };
        let decays = [
            (ScoreDecay::Linear, ScoreDecay::Quadratic),
            (step, ScoreDecay::Linear),
        ];
        (decays.into_iter())
            .flat_map(|(dx, dy)| {
                [Comparator::Eq, Comparator::Lt].map(|op| Pair::Decays(dx, dy, op))
            })
            .chain(seco_bench::KeyEdge::ALL.map(Pair::Edge))
    }

    /// Runs one join method over `pair`, on the scalar reference path
    /// (`scalar`) or the production one.
    fn run_method(
        pair: Pair,
        (invocation, completion): (Invocation, Completion),
        (chunk, k): (usize, usize),
        scalar: bool,
    ) -> Result<JoinOutcome, JoinError> {
        let (sx, sy, predicates, h): (Arc<dyn Service>, Arc<dyn Service>, _, _) = match pair {
            Pair::Decays(dx, dy, op) => {
                let (sx, sy) = seco_bench::join_pair_with_width(dx, dy, 40, chunk, 23, 10);
                let link = vec![ResolvedPredicate::Join(JoinPredicate {
                    left: QualifiedPath::new("X", AttributePath::atomic("Link")),
                    op,
                    right: QualifiedPath::new("Y", AttributePath::atomic("Link")),
                })];
                (sx, sy, link, dx.step_chunks().unwrap_or(1))
            }
            Pair::Edge(edge) => {
                let (sx, sy) = (
                    edge.service("X1", 0, 24, chunk),
                    edge.service("Y1", 1, 24, chunk),
                );
                (sx, sy, edge.predicates("X", "Y"), 1)
            }
        };
        let req = Request::unbound().bind(AttributePath::atomic("Key"), Value::text("q"));
        let mut x = ServiceStream::new("X", sx.as_ref(), req.clone());
        let mut y = ServiceStream::new("Y", sy.as_ref(), req);
        let mut schemas = SchemaMap::new();
        schemas.insert("X".into(), &sx.interface().schema);
        schemas.insert("Y".into(), &sy.interface().schema);
        let exec = ParallelJoinExecutor {
            invocation,
            completion,
            h,
            k,
            ..ParallelJoinExecutor::new(&predicates, &schemas)
        };
        crate::with_scalar(scalar, || exec.run(&mut x, &mut y))
    }

    /// The full outcome (or error) but the work counters; two runs are
    /// byte-identical iff these strings are equal.
    fn render(out: &Result<JoinOutcome, JoinError>) -> String {
        let Ok(out) = out else {
            return format!("{out:?}");
        };
        let rows: String = (out.results.iter())
            .map(|c| format!("{:?};", c.materialize()))
            .collect();
        format!(
            "{rows}|tiles={:?}|reps={:?}|calls={}/{}|exhausted={}|degraded={}",
            out.tiles,
            out.tile_representatives,
            out.calls_x,
            out.calls_y,
            out.exhausted,
            out.degraded
        )
    }

    /// For every join method, decay, chunk size and `k`, the tile kernel
    /// (key index and emptiness pruning) reproduces the scalar nested loop
    /// byte for byte: same combinations in the same emission order, same
    /// tiles and representatives, same calls, same errors. Only the work
    /// counters may differ, and the index must pay for itself.
    #[test]
    fn the_tile_kernel_equals_the_nested_loop_across_join_methods() {
        let methods = [
            Invocation::NestedLoop,
            Invocation::merge_scan_even(),
            Invocation::MergeScan { r1: 1, r2: 3 },
        ]
        .into_iter()
        .flat_map(|i| [Completion::Rectangular, Completion::Triangular].map(|c| (i, c)));
        let (mut nested_evals, mut keyed_evals, mut failed) = (0, 0, 0);
        for pair in pairs() {
            for method in methods.clone() {
                for at in [(3, 0), (5, 0), (3, 7), (5, 7)] {
                    let reference = run_method(pair, method, at, true);
                    let production = run_method(pair, method, at, false);
                    assert_eq!(
                        render(&reference),
                        render(&production),
                        "{pair:?} {method:?} (chunk, k) = {at:?}"
                    );
                    let (Ok(reference), Ok(production)) = (reference, production) else {
                        failed += 1;
                        continue;
                    };
                    let (r, p) = (reference.stats, production.stats);
                    assert_eq!(
                        (r.index_builds, r.batch_evals, r.columns_scanned),
                        (0, 0, 0)
                    );
                    if let Pair::Decays(.., Comparator::Eq) = pair {
                        nested_evals += r.predicate_evals;
                        keyed_evals += p.predicate_evals;
                    }
                }
            }
        }
        // At the pair's ~0.1 selectivity the index must pay for itself.
        assert!(
            keyed_evals * 3 <= nested_evals,
            "expected ≥3x fewer predicate evaluations, got {nested_evals} vs {keyed_evals}"
        );
        assert!(failed > 0, "the NaN case must reach its error");
    }
}
