//! `join_bench` — benchmarks of the zero-copy tuple data plane
//! (shared immutable tuples, interned symbols, thin composites),
//! emitting `results/BENCH_join.json`.
//!
//! Usage:
//!   cargo run --release -p seco-bench --bin join_bench            # full  -> results/BENCH_join.json
//!   cargo run --release -p seco-bench --bin join_bench -- --smoke # CI    -> target/smoke/BENCH_join.json
//!
//! Eight benchmarks:
//!
//! * **data-plane** — the chunk→composite→merge path of a tile-space
//!   join, twice over identical inputs: the zero-copy plane (handle
//!   bumps, `ptr_eq` merge fast path) vs an in-binary emulation of the
//!   pre-change baseline (owned `String` atoms, one deep `Tuple` copy
//!   per handoff, as the data plane did before tuples were
//!   `Arc`-shared). Reports tuples/sec and bytes cloned for both and
//!   checks the ≥2× throughput / ≥10× bytes-cloned targets;
//! * **cache-hits** — N hits against a warm cache: the zero-copy plane
//!   must report 0 clone events / 0 bytes cloned (hits are handle
//!   bumps), vs the emulated deep-copy-per-hit baseline;
//! * **E1** — the Fig. 2/3 travel plan end-to-end, run twice: wall
//!   clock, combinations, and byte-identical seeded output;
//! * **index-vs-nested** — the tile-space join at varying equi-join
//!   selectivity (`Link` domain width 2/10/50) and chunk size (5/20),
//!   once with the nested-loop kernel (`--join-index off`) and once
//!   with the hash index (+ tile pruning): byte-identical results are
//!   asserted, and the candidate pairs actually evaluated must drop
//!   ≥3× at selectivity ≤ 0.1;
//! * **columnar-vs-row** — the vectorized batch predicate kernels vs
//!   the scalar row loop at varying selectivity: a pure predicate
//!   kernel microbenchmark (≥2× evals/sec at selectivity 0.02) plus a
//!   full tile-space join under both data planes, byte-identical, with
//!   the `batch_evals` / `columns_scanned` / `rows_materialized`
//!   counters reported;
//! * **rank-vs-full** — the rank-join operator at k=5 on the
//!   deep-chain scenario (selectivity 0.02, chunk 20) vs full
//!   enumeration + sort: the top-k must be the sorted prefix with ≥3×
//!   fewer chunk fetches and a ≥2× faster time-to-kth;
//! * **nary-vs-cascade** — the n-ary kernel over three services vs
//!   the materializing two-stage binary cascade: byte-identical, all
//!   intermediates elided, join-loop wall clock compared;
//! * **parallel-vs-serial** — the morsel executor at 1/2/4/8 workers
//!   over large-chunk tile joins (batch-scan and hash-probe configs):
//!   byte-identical at every count, with measured wall clock and the
//!   modeled makespan speedup (≥2x at 4 workers full, ≥1.3x smoke;
//!   see DESIGN.md on single-core hosts).

use std::time::Instant;

use seco_bench::{join_pair, join_pair_with_width};
use seco_engine::{execute_plan, EngineConfig};
use seco_join::executor::{JoinOutcome, ParallelJoinExecutor, ServiceStream};
use seco_join::{ColumnarOptions, JoinIndexMode, JoinIndexOptions};
use seco_model::{
    AttributePath, Comparator, CompositeTuple, ScoreDecay, SharedTuple, Symbol, Tuple, Value,
};
use seco_plan::{Completion, Invocation, PlanNode, QueryPlan};
use seco_query::predicate::{ResolvedPredicate, SchemaMap};
use seco_query::QueryBuilder;
use seco_services::cache::CachingService;
use seco_services::domains::travel;
use seco_services::invocation::{ChunkResponse, Request};
use seco_services::recorder::CallRecorder;
use seco_services::wire::chunk_wire_size;
use seco_services::Service;

type DynError = Box<dyn std::error::Error>;

/// The owned-composite representation the data plane used before the
/// zero-copy refactor: `String` atom keys and deep-copied rows.
struct LegacyComposite {
    atoms: Vec<String>,
    components: Vec<Tuple>,
}

/// Deep-copies one tuple the way every pre-change handoff did,
/// charging its wire size to the clone counter.
fn legacy_copy(t: &Tuple, bytes: &mut u64) -> Tuple {
    *bytes += chunk_wire_size(std::slice::from_ref(t)) as u64;
    t.clone()
}

/// The chunk→composite→merge data plane over identical pre-fetched
/// chunks, in both representations.
fn bench_data_plane(
    iters: usize,
    total: usize,
    chunk: usize,
) -> Result<serde_json::Value, DynError> {
    let (sx, sy) = join_pair(ScoreDecay::Linear, ScoreDecay::Quadratic, total, chunk, 5);
    let req = Request::unbound().bind(AttributePath::atomic("Key"), Value::text("q"));

    // Pre-fetch every chunk of both sides once, outside the timed
    // loops: the benchmark measures the data plane, not the services.
    let fetch_all = |s: &dyn Service| -> Result<Vec<ChunkResponse>, DynError> {
        let mut chunks = Vec::new();
        let mut idx = 0;
        loop {
            let resp = s.fetch(&req.at_chunk(idx))?;
            let more = resp.has_more();
            chunks.push(resp);
            if !more {
                return Ok(chunks);
            }
            idx += 1;
        }
    };
    let chunks_x = fetch_all(sx.as_ref())?;
    let chunks_y = fetch_all(sy.as_ref())?;
    let tuples_per_iter: usize = chunks_x.iter().map(|c| c.len()).sum::<usize>()
        + chunks_y.iter().map(|c| c.len()).sum::<usize>();

    // Zero-copy plane: composites hold handles, merging bumps Arcs,
    // only the emitted pair materializes (ranked output).
    let mut zc_bytes = 0u64;
    let mut zc_pairs = 0u64;
    let start = Instant::now();
    for _ in 0..iters {
        let build = |chunks: &[ChunkResponse], atom: Symbol| -> Vec<Vec<CompositeTuple>> {
            chunks
                .iter()
                .map(|c| {
                    c.tuples()
                        .iter()
                        .map(|t| CompositeTuple::single(atom, t.clone()))
                        .collect()
                })
                .collect()
        };
        let cx = build(&chunks_x, Symbol::from("X"));
        let cy = build(&chunks_y, Symbol::from("Y"));
        for tx in &cx {
            for ty in &cy {
                for a in tx {
                    for b in ty {
                        if let Some(pair) = a.merge(b) {
                            zc_pairs += 1;
                            // Final output is the one deep copy.
                            if zc_pairs.is_multiple_of(1000) {
                                for (_, row) in pair.materialize() {
                                    zc_bytes += chunk_wire_size(std::slice::from_ref(&row)) as u64;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    let zc_ms = start.elapsed().as_secs_f64() * 1e3;

    // Legacy emulation: the same traversal with the pre-change
    // representation — a deep copy per chunk-serve handoff, an owned
    // `String` + deep copy per composite, and deep copies per merge.
    let mut legacy_bytes = 0u64;
    let mut legacy_pairs = 0u64;
    let start = Instant::now();
    for _ in 0..iters {
        let build =
            |chunks: &[ChunkResponse], atom: &str, bytes: &mut u64| -> Vec<Vec<LegacyComposite>> {
                chunks
                    .iter()
                    .map(|c| {
                        c.tuples()
                            .iter()
                            .map(|t| {
                                // Chunk serving handed out an owned copy…
                                let served = legacy_copy(t, bytes);
                                // …and composite construction copied again.
                                LegacyComposite {
                                    atoms: vec![atom.to_owned()],
                                    components: vec![legacy_copy(&served, bytes)],
                                }
                            })
                            .collect()
                    })
                    .collect()
            };
        let cx = build(&chunks_x, "X", &mut legacy_bytes);
        let cy = build(&chunks_y, "Y", &mut legacy_bytes);
        for tx in &cx {
            for ty in &cy {
                for a in tx {
                    for b in ty {
                        // Merging owned composites copied every
                        // component row of both sides.
                        let mut atoms = a.atoms.clone();
                        atoms.extend(b.atoms.iter().cloned());
                        let mut components: Vec<Tuple> = a
                            .components
                            .iter()
                            .map(|t| legacy_copy(t, &mut legacy_bytes))
                            .collect();
                        components.extend(
                            b.components
                                .iter()
                                .map(|t| legacy_copy(t, &mut legacy_bytes)),
                        );
                        let pair = LegacyComposite { atoms, components };
                        if !pair.components.is_empty() {
                            legacy_pairs += 1;
                        }
                    }
                }
            }
        }
    }
    let legacy_ms = start.elapsed().as_secs_f64() * 1e3;

    assert_eq!(
        zc_pairs, legacy_pairs,
        "both planes must traverse identical candidate pairs"
    );
    let tuples_handled = (tuples_per_iter * iters) as f64;
    let zc_tps = tuples_handled / (zc_ms / 1e3);
    let legacy_tps = tuples_handled / (legacy_ms / 1e3);
    let speedup = zc_tps / legacy_tps;
    let bytes_reduction = legacy_bytes as f64 / (zc_bytes.max(1)) as f64;
    println!(
        "data-plane ({iters} iters, {total}x2 tuples, chunk {chunk}): \
         zero-copy {zc_ms:.1} ms ({zc_tps:.0} tuples/s, {zc_bytes} B cloned), \
         legacy {legacy_ms:.1} ms ({legacy_tps:.0} tuples/s, {legacy_bytes} B cloned), \
         {speedup:.1}x throughput, {bytes_reduction:.0}x fewer bytes"
    );
    Ok(serde_json::json!({
        "iters": iters,
        "tuples_per_side": total,
        "chunk_size": chunk,
        "candidate_pairs": zc_pairs,
        "zero_copy": {
            "wall_ms": zc_ms,
            "tuples_per_sec": zc_tps,
            "bytes_cloned": zc_bytes,
            "deep_tuple_allocations_per_combination": 0,
        },
        "legacy_emulation": {
            "wall_ms": legacy_ms,
            "tuples_per_sec": legacy_tps,
            "bytes_cloned": legacy_bytes,
            "deep_tuple_allocations_per_combination": 2,
        },
        "speedup_tuples_per_sec": speedup,
        "bytes_cloned_reduction": bytes_reduction,
        "meets_2x_throughput_target": speedup >= 2.0,
        "meets_10x_bytes_target": bytes_reduction >= 10.0,
    }))
}

/// N hits against a warm cache: the zero-copy plane serves handle
/// bumps (0 clone events), the legacy emulation deep-copied the stored
/// response on every hit.
fn bench_cache_hits(hits: usize) -> Result<serde_json::Value, DynError> {
    let (inner, _) = join_pair(ScoreDecay::Linear, ScoreDecay::Linear, 50, 10, 9);
    let recorder = CallRecorder::new(inner);
    let cache = CachingService::sharded(recorder.clone(), 64, 4);
    let req = Request::unbound().bind(AttributePath::atomic("Key"), Value::text("hot"));
    let warm = cache.fetch(&req)?; // miss: populate
    let start = Instant::now();
    for _ in 0..hits {
        let resp = cache.fetch(&req)?;
        assert!(std::sync::Arc::ptr_eq(resp.body(), warm.body()));
    }
    let zc_ms = start.elapsed().as_secs_f64() * 1e3;
    let stats = recorder.stats();
    assert_eq!(
        (stats.clone_events, stats.bytes_cloned),
        (0, 0),
        "cache hits must not clone tuple data"
    );

    // Legacy emulation: each hit deep-copies the stored chunk.
    let mut legacy_bytes = 0u64;
    let start = Instant::now();
    for _ in 0..hits {
        let copied: Vec<Tuple> = warm
            .tuples()
            .iter()
            .map(|t| legacy_copy(t, &mut legacy_bytes))
            .collect();
        let copied: Vec<SharedTuple> = copied.into_iter().map(SharedTuple::new).collect();
        std::hint::black_box(&copied);
    }
    let legacy_ms = start.elapsed().as_secs_f64() * 1e3;
    println!(
        "cache-hits ({hits} hits, {}-tuple chunk): zero-copy {zc_ms:.2} ms / 0 B, \
         legacy {legacy_ms:.2} ms / {legacy_bytes} B",
        warm.len()
    );
    Ok(serde_json::json!({
        "hits": hits,
        "chunk_tuples": warm.len(),
        "zero_copy_wall_ms": zc_ms,
        "zero_copy_bytes_cloned": stats.bytes_cloned,
        "zero_copy_clone_events": stats.clone_events,
        "legacy_wall_ms": legacy_ms,
        "legacy_bytes_cloned": legacy_bytes,
    }))
}

/// The E1 travel plan (Fig. 2/3) end-to-end, twice: wall clock and
/// byte-identical seeded output through the zero-copy plane.
fn bench_e1() -> Result<serde_json::Value, DynError> {
    let run = || -> Result<(f64, usize, String, usize), DynError> {
        let registry = travel::build_registry(5)?;
        let query = QueryBuilder::new()
            .atom("C", "Conference1")
            .atom("W", "Weather1")
            .atom("F", "Flight1")
            .atom("H", "Hotel1")
            .pattern("Forecast", "C", "W")
            .pattern("ReachedBy", "C", "F")
            .pattern("StayAt", "C", "H")
            .pattern("SameTrip", "F", "H")
            .select_const("C", "Topic", Comparator::Eq, Value::text("databases"))
            .select_const("W", "AvgTemp", Comparator::Gt, Value::Int(26))
            .build()?;
        let joins = query.expanded_joins(&registry)?;
        let same_trip: Vec<_> = joins
            .iter()
            .filter(|j| j.connects("F", "H"))
            .cloned()
            .collect();
        let mut plan = QueryPlan::new(query.clone());
        let c = plan.add(PlanNode::Service(seco_plan::ServiceNode::new(
            "C",
            "Conference1",
        )));
        let w = plan.add(PlanNode::Service(seco_plan::ServiceNode::new(
            "W", "Weather1",
        )));
        let sel = plan.add(PlanNode::Selection(
            seco_plan::SelectionNode::new(vec![query.selections[1].clone()]).with_selectivity(0.25),
        ));
        let f = plan.add(PlanNode::Service(
            seco_plan::ServiceNode::new("F", "Flight1").with_fetches(2),
        ));
        let h = plan.add(PlanNode::Service(
            seco_plan::ServiceNode::new("H", "Hotel1").with_fetches(2),
        ));
        let j = plan.add(PlanNode::ParallelJoin(seco_plan::JoinSpec {
            invocation: Invocation::merge_scan_even(),
            completion: Completion::Rectangular,
            predicates: same_trip,
            selectivity: 1.0,
        }));
        plan.connect(plan.input(), c)?;
        plan.connect(c, w)?;
        plan.connect(w, sel)?;
        plan.connect(sel, f)?;
        plan.connect(sel, h)?;
        plan.connect(f, j)?;
        plan.connect(h, j)?;
        plan.connect(j, plan.output())?;
        let start = Instant::now();
        let outcome = execute_plan(
            &plan,
            &registry,
            EngineConfig {
                join_k: 10,
                ..Default::default()
            },
        )?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let render: String = outcome
            .results
            .iter()
            .map(|c| format!("{:?};", c.materialize()))
            .collect();
        Ok((ms, outcome.results.len(), render, outcome.total_calls))
    };
    let (ms_a, n_a, render_a, calls) = run()?;
    let (ms_b, n_b, render_b, _) = run()?;
    let identical = render_a == render_b;
    assert!(identical, "seeded E1 runs must be byte-identical");
    println!(
        "e1 (travel plan, k=10): {n_a} combinations, {calls} calls, \
         {ms_a:.1} / {ms_b:.1} ms, byte-identical={identical}"
    );
    Ok(serde_json::json!({
        "combinations": n_a,
        "combinations_second_run": n_b,
        "total_calls": calls,
        "wall_ms_first": ms_a,
        "wall_ms_second": ms_b,
        "byte_identical_seeded_output": identical,
    }))
}

/// One tile-space join over a seeded service pair, under the given
/// join-kernel options. Returns the outcome and the wall time in ms.
fn run_indexed_join(
    total: usize,
    chunk: usize,
    width: usize,
    options: JoinIndexOptions,
    columnar: ColumnarOptions,
) -> Result<(JoinOutcome, f64), DynError> {
    run_pooled_join(total, chunk, width, options, columnar, None)
}

/// [`run_indexed_join`] with an optional morsel pool: the kernel fans
/// each tile's row loop across the pool's workers and the ordered
/// reducer reassembles the output in row order.
fn run_pooled_join(
    total: usize,
    chunk: usize,
    width: usize,
    options: JoinIndexOptions,
    columnar: ColumnarOptions,
    pool: Option<std::sync::Arc<seco_exec::ExecPool>>,
) -> Result<(JoinOutcome, f64), DynError> {
    let (sx, sy) = join_pair_with_width(
        ScoreDecay::Linear,
        ScoreDecay::Quadratic,
        total,
        chunk,
        17,
        width,
    );
    let req = Request::unbound().bind(AttributePath::atomic("Key"), Value::text("q"));
    let mut x = ServiceStream::new("X", sx.as_ref(), req.clone());
    let mut y = ServiceStream::new("Y", sy.as_ref(), req);
    let predicates = vec![ResolvedPredicate::Join(seco_query::JoinPredicate {
        left: seco_query::QualifiedPath::new("X", AttributePath::atomic("Link")),
        op: Comparator::Eq,
        right: seco_query::QualifiedPath::new("Y", AttributePath::atomic("Link")),
    })];
    let mut schemas = SchemaMap::new();
    schemas.insert("X".into(), &sx.interface().schema);
    schemas.insert("Y".into(), &sy.interface().schema);
    let exec = ParallelJoinExecutor {
        predicates: &predicates,
        schemas: &schemas,
        invocation: Invocation::merge_scan_even(),
        completion: Completion::Rectangular,
        h: 1,
        k: 0,
        options,
        columnar,
        pool,
    };
    let start = Instant::now();
    let out = exec.run(&mut x, &mut y)?;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    Ok((out, ms))
}

/// The morsel executor vs the serial kernel on large-chunk configs:
/// workers ∈ {1, 2, 4, 8} over the same tile-space join,
/// byte-identical output asserted at every count.
///
/// Speedup accounting: this is a wall-clock sweep on a machine that
/// may have a single core, where real parallel speedup is physically
/// impossible. The pool therefore keeps two duration counters from
/// the *measured* per-morsel execution times: `serial_micros` (their
/// sum — the one-thread cost of exactly the work that ran) and
/// `makespan_micros` (per batch, `max(longest morsel, sum/workers)` —
/// the greedy-scheduling lower bound on the batch's completion time
/// at the configured worker count). Their ratio is the modeled
/// speedup an N-core host gets from this exact morsel decomposition;
/// measured wall clock is reported alongside so nothing hides.
fn bench_parallel_vs_serial(
    total: usize,
    chunk: usize,
    target: f64,
) -> Result<serde_json::Value, DynError> {
    let configs = [
        // Nested loop + batch predicate eval: every row scans the
        // whole Y tile through the vectorized kernels — the heaviest
        // per-row work, decomposed as row-segment morsels.
        ("batch-scan", JoinIndexMode::Off, 10usize),
        // Hash probe: per-row index probes on a sparse link domain.
        ("hash-probe", JoinIndexMode::Hash, 50usize),
    ];
    let mut out_configs = Vec::new();
    let mut speedup_at_4 = f64::INFINITY;
    for (label, mode, width) in configs {
        let options = JoinIndexOptions {
            mode,
            ..JoinIndexOptions::default()
        };
        let columnar = ColumnarOptions::default();
        let (reference, serial_ms) = run_indexed_join(total, chunk, width, options, columnar)?;
        let mut sweeps = vec![serde_json::json!({
            "workers": 1usize,
            "wall_ms": serial_ms,
            "serial_us": serde_json::Value::Null,
            "makespan_us": serde_json::Value::Null,
            "modeled_speedup": 1.0,
            "morsels": 0u64,
            "steals": 0u64,
            "identical": true,
        })];
        for workers in [2usize, 4, 8] {
            let pool = std::sync::Arc::new(seco_exec::ExecPool::new(workers));
            let (out, wall_ms) =
                run_pooled_join(total, chunk, width, options, columnar, Some(pool.clone()))?;
            let stats = pool.stats();
            pool.shutdown();
            assert_eq!(
                out.results, reference.results,
                "{label}: pooled output diverged at {workers} workers"
            );
            assert!(
                stats.morsels > 0,
                "{label}: the sweep must actually engage the morsel path"
            );
            let modeled = stats.serial_micros as f64 / (stats.makespan_micros.max(1)) as f64;
            if workers == 4 {
                speedup_at_4 = speedup_at_4.min(modeled);
            }
            sweeps.push(serde_json::json!({
                "workers": workers,
                "wall_ms": wall_ms,
                "serial_us": stats.serial_micros,
                "makespan_us": stats.makespan_micros,
                "modeled_speedup": modeled,
                "morsels": stats.morsels,
                "steals": stats.steals,
                "identical": true,
            }));
            println!(
                "  parallel-vs-serial {label} workers={workers}: wall {wall_ms:.1} ms \
                 (serial {serial_ms:.1} ms), modeled speedup {modeled:.2}x \
                 ({} morsels, {} steals)",
                stats.morsels, stats.steals
            );
        }
        out_configs.push(serde_json::json!({
            "config": label,
            "mode": format!("{mode:?}"),
            "total": total,
            "chunk": chunk,
            "width": width,
            "results": reference.results.len(),
            "sweep": sweeps,
        }));
    }
    let pass = speedup_at_4 >= target;
    assert!(
        pass,
        "modeled speedup at 4 workers {speedup_at_4:.2}x misses the {target:.1}x target"
    );
    Ok(serde_json::json!({
        "host_cores": std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        "note": "wall clock is measured on this host; modeled speedup is \
                 serial_micros/makespan_micros from measured per-morsel times \
                 under the greedy-scheduling bound (see DESIGN.md)",
        "configs": out_configs,
        "modeled_speedup_at_4_workers": speedup_at_4,
        "target": target,
        "pass": pass,
    }))
}

/// The hash-index kernel vs the nested loop at varying selectivity and
/// chunk size: byte-identical answers, fewer evaluated candidate pairs.
fn bench_index_vs_nested(total: usize) -> Result<serde_json::Value, DynError> {
    let mut cases = Vec::new();
    for &width in &[2usize, 10, 50] {
        for &chunk in &[5usize, 20] {
            let selectivity = 1.0 / width as f64;
            let (nested, nested_ms) = run_indexed_join(
                total,
                chunk,
                width,
                JoinIndexOptions {
                    mode: JoinIndexMode::Off,
                    tile_prune: false,
                },
                ColumnarOptions::default(),
            )?;
            let (hashed, hashed_ms) = run_indexed_join(
                total,
                chunk,
                width,
                JoinIndexOptions {
                    mode: JoinIndexMode::Hash,
                    tile_prune: true,
                },
                ColumnarOptions::default(),
            )?;
            let render = |out: &JoinOutcome| -> String {
                out.results
                    .iter()
                    .map(|c| format!("{:?};", c.materialize()))
                    .collect()
            };
            assert_eq!(
                render(&nested),
                render(&hashed),
                "hash kernel must be byte-identical at width {width}, chunk {chunk}"
            );
            assert_eq!(nested.tiles, hashed.tiles);
            assert_eq!(nested.tile_representatives, hashed.tile_representatives);
            // The nested loop evaluates the predicates on every
            // candidate pair; the index only on surviving candidates.
            let reduction =
                nested.stats.predicate_evals as f64 / hashed.stats.predicate_evals.max(1) as f64;
            if selectivity <= 0.1 {
                assert!(
                    reduction >= 3.0,
                    "expected ≥3x fewer evaluated pairs at selectivity {selectivity} \
                     (chunk {chunk}), got {reduction:.1}x"
                );
            }
            println!(
                "index-vs-nested (sel {selectivity:.2}, chunk {chunk:>2}): \
                 nested {} evals / {nested_ms:.1} ms, \
                 hash {} evals / {hashed_ms:.1} ms ({} probes, {} pairs skipped, \
                 {} tiles pruned), {reduction:.1}x fewer evals",
                nested.stats.predicate_evals,
                hashed.stats.predicate_evals,
                hashed.stats.probes,
                hashed.stats.pairs_skipped,
                hashed.stats.tiles_pruned,
            );
            cases.push(serde_json::json!({
                "selectivity": selectivity,
                "link_domain_width": width,
                "chunk_size": chunk,
                "tuples_per_side": total,
                "combinations": hashed.results.len(),
                "byte_identical_to_nested_loop": true,
                "nested_loop": {
                    "wall_ms": nested_ms,
                    "predicate_evals": nested.stats.predicate_evals,
                },
                "hash_index": {
                    "wall_ms": hashed_ms,
                    "predicate_evals": hashed.stats.predicate_evals,
                    "index_builds": hashed.stats.index_builds,
                    "probes": hashed.stats.probes,
                    "pairs_skipped": hashed.stats.pairs_skipped,
                    "tiles_pruned": hashed.stats.tiles_pruned,
                },
                "candidate_pair_reduction": reduction,
                "meets_3x_reduction_at_low_selectivity": selectivity > 0.1 || reduction >= 3.0,
            }));
        }
    }
    Ok(serde_json::Value::Array(cases))
}

/// The vectorized batch kernels vs the scalar row loop.
///
/// Two measurements per selectivity (`Link` domain width 2/10/50, i.e.
/// 0.5/0.1/0.02):
///
/// * a **kernel microbenchmark** — one probe composite evaluated
///   against a resident chunk of `rows` composites, repeatedly, once
///   through `BatchPlan::eval_mask` over typed columns and once
///   through the scalar merge-and-evaluate loop the row plane runs per
///   candidate. Reports predicate evaluations per second for both and
///   checks the ≥2× batch speedup target at selectivity 0.02;
/// * a **full tile-space join** under both data planes
///   (`ColumnarOptions::default()` vs `row_plane()`): byte-identical
///   outcomes are asserted and the columnar counters
///   (`batch_evals`, `columns_scanned`, `rows_materialized`) reported.
fn bench_columnar_vs_row(total: usize, evals_target: u64) -> Result<serde_json::Value, DynError> {
    use seco_model::{Adornment, AttributeDef, BitMask, DataType, ServiceSchema};
    use seco_query::{CompiledPredicates, EvalScratch};

    let schema = ServiceSchema::new(
        "S",
        vec![AttributeDef::atomic(
            "Link",
            DataType::Int,
            Adornment::Output,
        )],
    )?;
    let mut cases = Vec::new();
    for &width in &[2usize, 10, 50] {
        let selectivity = 1.0 / width as f64;

        // --- kernel microbenchmark ---------------------------------
        let rows = 4_096usize;
        let mk = |alias: &str, link: i64, rank: usize| -> CompositeTuple {
            CompositeTuple::single(
                alias,
                Tuple::builder(&schema)
                    .set("Link", Value::Int(link))
                    .score(1.0 - rank as f64 / rows as f64)
                    .source_rank(rank)
                    .build()
                    .expect("valid tuple"),
            )
        };
        let probe = mk("X", 0, 0);
        let chunk: Vec<CompositeTuple> =
            (0..rows).map(|i| mk("Y", (i % width) as i64, i)).collect();
        let predicates = vec![ResolvedPredicate::Join(seco_query::JoinPredicate {
            left: seco_query::QualifiedPath::new("X", AttributePath::atomic("Link")),
            op: Comparator::Eq,
            right: seco_query::QualifiedPath::new("Y", AttributePath::atomic("Link")),
        })];
        let mut schemas = SchemaMap::new();
        schemas.insert("X".into(), &schema);
        schemas.insert("Y".into(), &schema);
        let compiled =
            CompiledPredicates::compile(&predicates, &schemas).ok_or("predicates must compile")?;
        let plan = compiled
            .batch_plan(&[Symbol::intern("X")], &[Symbol::intern("Y")])
            .ok_or("equi-join must have a batch plan")?;
        let columns = plan
            .gather_columns(&chunk)
            .ok_or("uniform chunk must gather")?;
        let refs: Vec<_> = columns.iter().map(|c| c.as_ref()).collect();
        let reps = (evals_target / rows as u64).max(1);

        let mut mask = BitMask::default();
        let mut batch_selected = 0u64;
        let batch_start = Instant::now();
        for _ in 0..reps {
            mask.reset_ones(rows);
            assert!(plan.eval_mask(Some(&probe), &refs, &mut mask));
            batch_selected += mask.count_ones() as u64;
        }
        let batch_secs = batch_start.elapsed().as_secs_f64();

        let mut scratch = EvalScratch::default();
        let mut scalar_selected = 0u64;
        let scalar_start = Instant::now();
        for _ in 0..reps {
            for y in &chunk {
                let candidate = probe.merge(y).expect("disjoint atoms merge");
                if compiled.eval(&candidate, &mut scratch)? {
                    scalar_selected += 1;
                }
            }
        }
        let scalar_secs = scalar_start.elapsed().as_secs_f64();
        assert_eq!(
            batch_selected, scalar_selected,
            "kernel and scalar loop must select the same rows at width {width}"
        );
        let evals = reps * rows as u64;
        let batch_eps = evals as f64 / batch_secs.max(1e-9);
        let scalar_eps = evals as f64 / scalar_secs.max(1e-9);
        let speedup = batch_eps / scalar_eps;

        // --- full tile-space join under both planes ----------------
        let (col, col_ms) = run_indexed_join(
            total,
            10,
            width,
            JoinIndexOptions::default(),
            ColumnarOptions::default(),
        )?;
        let (row, row_ms) = run_indexed_join(
            total,
            10,
            width,
            JoinIndexOptions::default(),
            ColumnarOptions::row_plane(),
        )?;
        let render = |out: &JoinOutcome| -> String {
            out.results
                .iter()
                .map(|c| format!("{:?};", c.materialize()))
                .collect()
        };
        assert_eq!(
            render(&col),
            render(&row),
            "columnar plane must be byte-identical at width {width}"
        );
        assert_eq!(col.stats.predicate_evals, row.stats.predicate_evals);
        assert_eq!(row.stats.batch_evals, 0);
        assert_eq!(row.stats.columns_scanned, 0);

        println!(
            "columnar-vs-row (sel {selectivity:.2}): kernel {batch_eps:.2e} evals/s vs \
             scalar {scalar_eps:.2e} ({speedup:.1}x); full join {col_ms:.1} ms vs \
             {row_ms:.1} ms, {} batch evals, {} columns scanned, {} rows materialized",
            col.stats.batch_evals, col.stats.columns_scanned, col.stats.rows_materialized
        );
        cases.push(serde_json::json!({
            "selectivity": selectivity,
            "kernel": {
                "rows_per_batch": rows,
                "predicate_evals": evals,
                "batch_evals_per_sec": batch_eps,
                "scalar_evals_per_sec": scalar_eps,
                "batch_speedup": speedup,
                "meets_2x_at_low_selectivity": selectivity > 0.02 || speedup >= 2.0,
            },
            "full_join": {
                "byte_identical_to_row_plane": true,
                "predicate_evals": col.stats.predicate_evals,
                "columnar": {
                    "wall_ms": col_ms,
                    "batch_evals": col.stats.batch_evals,
                    "columns_scanned": col.stats.columns_scanned,
                    "rows_materialized": col.stats.rows_materialized,
                },
                "row_plane": {
                    "wall_ms": row_ms,
                    "batch_evals": row.stats.batch_evals,
                    "columns_scanned": row.stats.columns_scanned,
                    "rows_materialized": row.stats.rows_materialized,
                },
            },
        }));
    }
    Ok(serde_json::Value::Array(cases))
}

/// The rank-join operator vs enumerate-then-sort on the deep-chain
/// scenario (equi-join selectivity 0.02, chunk 20): the threshold
/// bound must cut chunk fetches ≥3× at k=5 and reach the provably
/// final k-th result ≥2× sooner than full enumeration can.
fn bench_rank_vs_full(total: usize) -> Result<serde_json::Value, DynError> {
    use seco_join::{score_order, RankJoin, TileSpace};
    use seco_model::ScoringFunction;

    let width = 50usize; // selectivity 1/50 = 0.02
    let chunk = 20usize;
    let k = 5usize;
    let (sx, sy) = join_pair_with_width(
        ScoreDecay::Linear,
        ScoreDecay::Quadratic,
        total,
        chunk,
        17,
        width,
    );
    let req = Request::unbound().bind(AttributePath::atomic("Key"), Value::text("q"));
    let predicates = vec![ResolvedPredicate::Join(seco_query::JoinPredicate {
        left: seco_query::QualifiedPath::new("X", AttributePath::atomic("Link")),
        op: Comparator::Eq,
        right: seco_query::QualifiedPath::new("Y", AttributePath::atomic("Link")),
    })];
    let mut schemas = SchemaMap::new();
    schemas.insert("X".into(), &sx.interface().schema);
    schemas.insert("Y".into(), &sy.interface().schema);

    // Full enumeration: fetch everything, join, sort, truncate. The
    // k-th result is only known once the whole answer is in hand, so
    // its time-to-kth is the entire run.
    let full_exec = ParallelJoinExecutor {
        predicates: &predicates,
        schemas: &schemas,
        invocation: Invocation::merge_scan_even(),
        completion: Completion::Rectangular,
        h: 1,
        k: 0,
        options: JoinIndexOptions::default(),
        columnar: ColumnarOptions::default(),
        pool: None,
    };
    let mut x = ServiceStream::new("X", sx.as_ref(), req.clone());
    let mut y = ServiceStream::new("Y", sy.as_ref(), req.clone());
    let start = Instant::now();
    let full = full_exec.run(&mut x, &mut y)?;
    let mut prefix = full.results.clone();
    prefix.sort_by(score_order);
    prefix.truncate(k);
    let full_kth_us = (start.elapsed().as_micros() as u64).max(1);

    // Rank join: frontier-driven pulls under the threshold bound. The
    // tile space gives it the total chunk counts, so it can also
    // report how many fetches the bound provably saved.
    let rank_exec = ParallelJoinExecutor {
        predicates: &predicates,
        schemas: &schemas,
        invocation: Invocation::merge_scan_even(),
        completion: Completion::Rectangular,
        h: 1,
        k,
        options: JoinIndexOptions::default(),
        columnar: ColumnarOptions::default(),
        pool: None,
    };
    let space = TileSpace::new(
        ScoringFunction::new(ScoreDecay::Linear, total, chunk)?,
        ScoringFunction::new(ScoreDecay::Quadratic, total, chunk)?,
    );
    let rank = RankJoin {
        join: rank_exec,
        space: Some(space),
    };
    let mut x = ServiceStream::new("X", sx.as_ref(), req.clone());
    let mut y = ServiceStream::new("Y", sy.as_ref(), req);
    let start = Instant::now();
    let ranked = rank.run(&mut x, &mut y)?;
    let rank_us = (start.elapsed().as_micros() as u64).max(1);

    let render = |rows: &[CompositeTuple]| -> String {
        rows.iter()
            .map(|c| format!("{:?};", c.materialize()))
            .collect()
    };
    assert_eq!(
        render(&ranked.results),
        render(&prefix),
        "rank-join top-{k} must be the sorted full-enumeration prefix"
    );
    let rank_kth_us = ranked.stats.time_to_kth_us.max(1);
    let chunk_reduction =
        full.stats.chunks_fetched as f64 / ranked.stats.chunks_fetched.max(1) as f64;
    let kth_speedup = full_kth_us as f64 / rank_kth_us as f64;
    assert!(
        chunk_reduction >= 3.0,
        "rank join must fetch ≥3x fewer chunks at k={k} (full {}, rank {})",
        full.stats.chunks_fetched,
        ranked.stats.chunks_fetched,
    );
    assert!(
        kth_speedup >= 2.0,
        "rank join must reach the k-th result ≥2x sooner \
         (full {full_kth_us} us, rank {rank_kth_us} us)"
    );
    println!(
        "rank-vs-full (sel 0.02, chunk {chunk}, k={k}): \
         full {} chunks / kth at {full_kth_us} us, \
         rank {} chunks ({} saved, {} bound checks) / kth at {rank_kth_us} us, \
         {chunk_reduction:.1}x fewer chunks, {kth_speedup:.1}x faster to kth",
        full.stats.chunks_fetched,
        ranked.stats.chunks_fetched,
        ranked.stats.chunks_saved,
        ranked.stats.bound_checks,
    );
    Ok(serde_json::json!({
        "tuples_per_side": total,
        "chunk_size": chunk,
        "selectivity": 1.0 / width as f64,
        "k": k,
        "top_k_is_sorted_prefix": true,
        "full_enumeration": {
            "chunks_fetched": full.stats.chunks_fetched,
            "combinations": full.results.len(),
            "time_to_kth_us": full_kth_us,
        },
        "rank_join": {
            "chunks_fetched": ranked.stats.chunks_fetched,
            "chunks_saved": ranked.stats.chunks_saved,
            "bound_checks": ranked.stats.bound_checks,
            "time_to_kth_us": rank_kth_us,
            "wall_us": rank_us,
        },
        "chunk_fetch_reduction": chunk_reduction,
        "time_to_kth_speedup": kth_speedup,
        "meets_3x_chunk_target": chunk_reduction >= 3.0,
        "meets_2x_kth_target": kth_speedup >= 2.0,
    }))
}

/// The n-ary kernel vs the two-stage binary cascade over three
/// services: byte-identical answers, all intermediate composites
/// elided, and a faster join loop.
fn bench_nary_vs_cascade(rows: usize, iters: usize) -> Result<serde_json::Value, DynError> {
    use seco_join::executor::MemoryStream;
    use seco_join::{NaryJoin, NaryStage};
    use seco_model::{Adornment, AttributeDef, DataType, ScoringFunction, ServiceSchema};

    let width = 10usize;
    let chunk = 20usize;
    let schema = |name: &str| -> Result<ServiceSchema, DynError> {
        Ok(ServiceSchema::new(
            name,
            vec![
                AttributeDef::atomic("Link", DataType::Text, Adornment::Output),
                AttributeDef::atomic("Score", DataType::Float, Adornment::Ranked),
            ],
        )?)
    };
    let (sa, sb, sc) = (schema("A")?, schema("B")?, schema("C")?);
    let f = ScoringFunction::new(ScoreDecay::Linear, rows, chunk)?;
    let data =
        |atom: &str, s: &ServiceSchema, phase: usize| -> Result<Vec<CompositeTuple>, DynError> {
            (0..rows)
                .map(|i| {
                    let t = Tuple::builder(s)
                        .set(
                            "Link",
                            Value::Text(format!("hub-{}", (i * 7 + phase) % width)),
                        )
                        .set("Score", Value::float(f.score_at(i)))
                        .score(f.score_at(i))
                        .source_rank(i)
                        .build()?;
                    Ok(CompositeTuple::single(atom, t))
                })
                .collect()
        };
    let a = data("A", &sa, 0)?;
    let b = data("B", &sb, 1)?;
    let c = data("C", &sc, 2)?;
    let mut schemas = SchemaMap::new();
    schemas.insert("A".into(), &sa);
    schemas.insert("B".into(), &sb);
    schemas.insert("C".into(), &sc);
    let eq = |la: &str, ra: &str| -> ResolvedPredicate {
        ResolvedPredicate::Join(seco_query::JoinPredicate {
            left: seco_query::QualifiedPath::new(la, AttributePath::atomic("Link")),
            op: Comparator::Eq,
            right: seco_query::QualifiedPath::new(ra, AttributePath::atomic("Link")),
        })
    };
    let p1 = vec![eq("A", "B")];
    let p2 = vec![eq("A", "C")];
    let e1 = ParallelJoinExecutor {
        predicates: &p1,
        schemas: &schemas,
        invocation: Invocation::merge_scan_even(),
        completion: Completion::Rectangular,
        h: 1,
        k: 0,
        options: JoinIndexOptions::default(),
        columnar: ColumnarOptions::default(),
        pool: None,
    };
    let e2 = ParallelJoinExecutor {
        predicates: &p2,
        pool: None,
        ..e1
    };

    // Binary cascade: materialize A⋈B, then join the intermediates
    // against C through a second full tile-space pass.
    let mut cascade_out = Vec::new();
    let mut mid_rows = 0usize;
    let start = Instant::now();
    for _ in 0..iters {
        let mut x = MemoryStream::new(a.clone(), chunk);
        let mut yb = MemoryStream::new(b.clone(), chunk);
        let mid = e1.run(&mut x, &mut yb)?.results;
        mid_rows = mid.len();
        let mut m = MemoryStream::new(mid, chunk);
        let mut yc = MemoryStream::new(c.clone(), chunk);
        cascade_out = e2.run(&mut m, &mut yc)?.results;
    }
    let cascade_ms = start.elapsed().as_secs_f64() * 1e3;

    // N-ary kernel: one pass, prefix rows stay flat row-id tuples.
    let s1 = NaryStage {
        predicates: &p1,
        invocation: Invocation::merge_scan_even(),
        completion: Completion::Rectangular,
        h: 1,
        k: 0,
        left_chunk: chunk,
        right_chunk: chunk,
    };
    let s2 = NaryStage {
        predicates: &p2,
        ..s1
    };
    let nj = NaryJoin {
        schemas: &schemas,
        tile_prune: false,
        pool: None,
    };
    let groups = [a, b, c];
    let stages = [s1, s2];
    let mut nary_out = None;
    let start = Instant::now();
    for _ in 0..iters {
        nary_out = nj.run(&groups, &stages)?;
    }
    let nary_ms = start.elapsed().as_secs_f64() * 1e3;
    let nary_out = nary_out.ok_or("three uniform ranked services must be n-ary eligible")?;

    let render = |rows: &[CompositeTuple]| -> String {
        rows.iter()
            .map(|c| format!("{:?};", c.materialize()))
            .collect()
    };
    assert_eq!(
        render(&nary_out.results),
        render(&cascade_out),
        "n-ary kernel must be byte-identical to the binary cascade"
    );
    assert_eq!(
        nary_out.stats.intermediates_elided as usize, mid_rows,
        "every intermediate the cascade materialized must be elided"
    );
    let speedup = cascade_ms / nary_ms.max(1e-9);
    assert!(
        speedup >= 1.0,
        "n-ary kernel must beat the binary cascade on join-loop wall \
         clock (cascade {cascade_ms:.1} ms, nary {nary_ms:.1} ms)"
    );
    println!(
        "nary-vs-cascade ({rows}x3 tuples, {iters} iters): \
         cascade {cascade_ms:.1} ms ({mid_rows} intermediates), \
         nary {nary_ms:.1} ms ({} elided), {speedup:.2}x join-loop speedup",
        nary_out.stats.intermediates_elided,
    );
    Ok(serde_json::json!({
        "tuples_per_service": rows,
        "iters": iters,
        "chunk_size": chunk,
        "combinations": nary_out.results.len(),
        "byte_identical_to_cascade": true,
        "cascade": {
            "wall_ms": cascade_ms,
            "intermediates_materialized": mid_rows,
        },
        "nary": {
            "wall_ms": nary_ms,
            "intermediates_elided": nary_out.stats.intermediates_elided,
        },
        "join_loop_speedup": speedup,
        "nary_beats_cascade": speedup >= 1.0,
    }))
}

/// Tile representatives come off chunk headers: a quick self-check
/// that the real executor path reports them without rescans.
fn check_tile_representatives() -> Result<(), DynError> {
    let (sx, sy) = join_pair(ScoreDecay::Linear, ScoreDecay::Quadratic, 30, 5, 11);
    let req = Request::unbound().bind(AttributePath::atomic("Key"), Value::text("q"));
    let mut x = ServiceStream::new("X", sx.as_ref(), req.clone());
    let mut y = ServiceStream::new("Y", sy.as_ref(), req);
    let predicates = vec![ResolvedPredicate::Join(seco_query::JoinPredicate {
        left: seco_query::QualifiedPath::new("X", AttributePath::atomic("Link")),
        op: Comparator::Eq,
        right: seco_query::QualifiedPath::new("Y", AttributePath::atomic("Link")),
    })];
    let mut schemas = SchemaMap::new();
    schemas.insert("X".into(), &sx.interface().schema);
    schemas.insert("Y".into(), &sy.interface().schema);
    let exec = ParallelJoinExecutor {
        predicates: &predicates,
        schemas: &schemas,
        invocation: Invocation::merge_scan_even(),
        completion: Completion::Rectangular,
        h: 1,
        k: 0,
        options: JoinIndexOptions::default(),
        columnar: ColumnarOptions::default(),
        pool: None,
    };
    let out = exec.run(&mut x, &mut y)?;
    assert_eq!(out.tiles.len(), out.tile_representatives.len());
    assert!(out
        .tile_representatives
        .iter()
        .all(|r| (0.0..=1.0).contains(r)));
    Ok(())
}

fn main() -> Result<(), DynError> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (iters, total, hits) = if smoke {
        (3, 60, 2_000)
    } else {
        (20, 200, 50_000)
    };
    println!("join_bench ({} mode)", if smoke { "smoke" } else { "full" });
    check_tile_representatives()?;
    let value = serde_json::json!({
        "mode": if smoke { "smoke" } else { "full" },
        "data_plane": bench_data_plane(iters, total, 10)?,
        "cache_hits": bench_cache_hits(hits)?,
        "e1": bench_e1()?,
        "index_vs_nested": bench_index_vs_nested(total)?,
        "columnar_vs_row": bench_columnar_vs_row(total, if smoke { 500_000 } else { 5_000_000 })?,
        "rank_vs_full": bench_rank_vs_full(if smoke { 400 } else { 1_000 })?,
        "nary_vs_cascade": bench_nary_vs_cascade(
            if smoke { 100 } else { 200 },
            if smoke { 3 } else { 10 },
        )?,
        "parallel_vs_serial": if smoke {
            // CI floor: the modeled speedup must clear 1.3x at 4
            // workers even on the small smoke shapes.
            bench_parallel_vs_serial(240, 120, 1.3)?
        } else {
            bench_parallel_vs_serial(1_200, 400, 2.0)?
        },
    });
    seco_bench::write_report("join", smoke, &value)?;
    Ok(())
}
