//! Exactness of the hash-accelerated join kernel: for every join
//! method, decay model, chunk size, and `k`, the indexed executor must
//! be *byte-identical* to the nested-loop baseline — same combinations
//! in the same emission order, same tiles, same tile representatives,
//! same call counts. The index may only change how much work is done,
//! never what is produced.

use search_computing::join::executor::{
    JoinOutcome, MemoryStream, ParallelJoinExecutor, ServiceStream,
};
use search_computing::join::{
    ColumnarOptions, JoinError, JoinIndexMode, JoinIndexOptions, NaryJoin, NaryStage,
};
use search_computing::plan::{JoinSpec, PlanNode, SelectionNode, ServiceNode};
use search_computing::prelude::*;
use search_computing::query::predicate::{ResolvedPredicate, SchemaMap};
use search_computing::query::{JoinPredicate, QualifiedPath};
use search_computing::services::domains::travel;
use search_computing::services::invocation::{Request, Service};
use seco_bench::{join_pair_with_width, KeyEdge};
use seco_model::{Adornment, AttributeDef, AttributePath, DataType, ServiceSchema, Tuple};
use std::sync::Arc;

const OFF: JoinIndexOptions = JoinIndexOptions {
    mode: JoinIndexMode::Off,
};
const HASH: JoinIndexOptions = JoinIndexOptions {
    mode: JoinIndexMode::Hash,
};

/// The data-plane configurations a tile join tells apart: full
/// columnar (the default) and the row-at-a-time baseline. A tile join
/// reads only `batch_eval`, so columnar access without batch kernels is
/// the row plane again. Both must be byte-identical.
const COL: ColumnarOptions = ColumnarOptions {
    columnar: true,
    batch_eval: true,
};
const ROW: ColumnarOptions = ColumnarOptions {
    columnar: false,
    batch_eval: false,
};

/// Owned render of the full outcome (or error); two runs are
/// byte-identical iff these strings are equal.
fn render(out: &Result<JoinOutcome, JoinError>) -> String {
    let Ok(out) = out else {
        return format!("{out:?}");
    };
    let rows: String = out
        .results
        .iter()
        .map(|c| format!("{:?};", c.materialize()))
        .collect();
    format!(
        "{rows}|tiles={:?}|reps={:?}|calls={}/{}|exhausted={}",
        out.tiles, out.tile_representatives, out.calls_x, out.calls_y, out.exhausted
    )
}

/// The join inputs of the grid.
#[derive(Debug, Clone, Copy)]
enum Pair {
    /// A seeded synthetic service pair under these decays, joined on
    /// `Link`.
    Decays(ScoreDecay, ScoreDecay),
    /// A join-key edge case.
    Edge(KeyEdge),
}

/// Runs one join method over `pair`.
#[allow(clippy::too_many_arguments)]
fn run_method(
    pair: Pair,
    invocation: Invocation,
    completion: Completion,
    chunk: usize,
    k: usize,
    options: JoinIndexOptions,
    columnar: ColumnarOptions,
) -> Result<JoinOutcome, JoinError> {
    let (sx, sy, predicates, h): (Arc<dyn Service>, Arc<dyn Service>, _, _) = match pair {
        Pair::Decays(dx, dy) => {
            let (sx, sy) = join_pair_with_width(dx, dy, 40, chunk, 23, 10);
            let link = vec![ResolvedPredicate::Join(JoinPredicate {
                left: QualifiedPath::new("X", AttributePath::atomic("Link")),
                op: Comparator::Eq,
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
        predicates: &predicates,
        schemas: &schemas,
        invocation,
        completion,
        h,
        k,
        options,
        columnar,
        pool: None,
    };
    exec.run(&mut x, &mut y)
}

/// Every (kernel, data plane) reproduces the row-plane nested loop's
/// results, order and errors, over synthetic pairs and over the
/// exactness rules the index owns: a separator inside a two-conjunct
/// `Text` key, a raw `NaN`, and `Int` and `Float` keys that promote to
/// one value.
#[test]
fn hash_kernel_is_byte_identical_across_join_methods() {
    let decays = [
        (ScoreDecay::Linear, ScoreDecay::Quadratic),
        (
            ScoreDecay::Step {
                h: 2,
                high: 0.9,
                low: 0.1,
            },
            ScoreDecay::Linear,
        ),
    ];
    let pairs = (decays.map(|(dx, dy)| Pair::Decays(dx, dy)).into_iter())
        .chain(KeyEdge::ALL.map(Pair::Edge));
    let invocations = [
        Invocation::NestedLoop,
        Invocation::merge_scan_even(),
        Invocation::MergeScan { r1: 1, r2: 3 },
    ];
    let completions = [Completion::Rectangular, Completion::Triangular];
    let (mut nested_evals, mut hashed_evals, mut failed) = (0u64, 0u64, 0);
    for pair in pairs {
        for &inv in &invocations {
            for &comp in &completions {
                for &k in &[0usize, 7] {
                    for &chunk in &[3usize, 5] {
                        let base = run_method(pair, inv, comp, chunk, k, OFF, ROW);
                        // Every (kernel, data-plane) combination must
                        // reproduce the row-plane nested loop byte for
                        // byte.
                        for opts in [OFF, HASH] {
                            for plane in [COL, ROW] {
                                let accel = run_method(pair, inv, comp, chunk, k, opts, plane);
                                assert_eq!(
                                    render(&base),
                                    render(&accel),
                                    "divergence at {pair:?} {inv:?} {comp:?} k={k} \
                                     chunk={chunk} opts={opts:?} plane={plane:?}"
                                );
                                let Ok(accel) = accel else { continue };
                                // The data plane may move work between
                                // scalar and batch kernels, but never
                                // change how many candidates are judged.
                                let row = run_method(pair, inv, comp, chunk, k, opts, ROW);
                                assert_eq!(
                                    accel.stats.predicate_evals,
                                    row.expect("as the plane did").stats.predicate_evals,
                                    "plane {plane:?} changed predicate_evals under {opts:?}"
                                );
                                if !plane.batch_eval {
                                    assert_eq!(accel.stats.batch_evals, 0);
                                }
                                if !plane.columnar && !plane.batch_eval {
                                    assert_eq!(accel.stats.columns_scanned, 0);
                                    assert_eq!(accel.stats.batch_evals, 0);
                                }
                            }
                        }
                        let hashed = run_method(pair, inv, comp, chunk, k, HASH, COL);
                        if let (Pair::Decays(..), Ok(base), Ok(hashed)) = (pair, &base, hashed) {
                            nested_evals += base.stats.predicate_evals;
                            hashed_evals += hashed.stats.predicate_evals;
                        }
                        failed += usize::from(base.is_err());
                    }
                }
            }
        }
    }
    // At the pair's ~0.1 selectivity the index must pay for itself.
    assert!(
        hashed_evals * 3 <= nested_evals,
        "expected ≥3x fewer predicate evaluations, got {nested_evals} vs {hashed_evals}"
    );
    assert!(failed > 0, "the NaN case must reach its error");
}

/// Composites with clustered text keys: chunk `c` carries only the key
/// `city-<c/base>`, so whole tiles have no key overlap and the indexed
/// kernel can prove them empty without touching a single pair.
fn clustered(
    atom: &str,
    schema: &ServiceSchema,
    n: usize,
    first_city: usize,
) -> Vec<CompositeTuple> {
    (0..n)
        .map(|i| {
            CompositeTuple::single(
                atom,
                Tuple::builder(schema)
                    .set("L", Value::Text(format!("city-{}", first_city + i / 10)))
                    .score(1.0 - i as f64 / n as f64)
                    .source_rank(i)
                    .build()
                    .unwrap(),
            )
        })
        .collect()
}

#[test]
fn empty_key_tiles_are_pruned_without_changing_the_answer() {
    let schema = ServiceSchema::new(
        "S",
        vec![AttributeDef::atomic("L", DataType::Text, Adornment::Output)],
    )
    .unwrap();
    let predicates = vec![ResolvedPredicate::Join(JoinPredicate {
        left: QualifiedPath::new("X", AttributePath::atomic("L")),
        op: Comparator::Eq,
        right: QualifiedPath::new("Y", AttributePath::atomic("L")),
    })];
    let mut schemas = SchemaMap::new();
    schemas.insert("X".into(), &schema);
    schemas.insert("Y".into(), &schema);
    let run = |options: JoinIndexOptions| -> Result<JoinOutcome, JoinError> {
        let exec = ParallelJoinExecutor {
            predicates: &predicates,
            schemas: &schemas,
            invocation: Invocation::merge_scan_even(),
            completion: Completion::Rectangular,
            h: 1,
            k: 0,
            options,
            columnar: ColumnarOptions::default(),
            pool: None,
        };
        // X covers city-0..3, Y covers city-2..5: tiles between the
        // disjoint chunks share no key.
        let mut x = MemoryStream::new(clustered("X", &schema, 40, 0), 10);
        let mut y = MemoryStream::new(clustered("Y", &schema, 40, 2), 10);
        exec.run(&mut x, &mut y)
    };
    let (base, accel) = (run(OFF), run(HASH));
    assert_eq!(render(&base), render(&accel));
    let (base, accel) = (base.expect("join runs"), accel.expect("join runs"));
    assert!(
        !accel.results.is_empty(),
        "the overlapping cities must match"
    );
    assert!(
        accel.stats.tiles_pruned > 0,
        "disjoint-key tiles must be pruned: {:?}",
        accel.stats
    );
    assert!(accel.stats.pairs_skipped > 0);
    assert!(accel.stats.predicate_evals < base.stats.predicate_evals);
    assert_eq!(base.stats.index_builds, 0);
    assert!(accel.stats.index_builds > 0);
}

/// The E1 travel plan (Fig. 2/3), used to compare whole-engine runs
/// with the kernel on and off.
fn e1_plan(seed: u64) -> (QueryPlan, ServiceRegistry) {
    let registry = travel::build_registry(seed).unwrap();
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
        .build()
        .unwrap();
    let joins = query.expanded_joins(&registry).unwrap();
    let same_trip: Vec<_> = joins
        .iter()
        .filter(|j| j.connects("F", "H"))
        .cloned()
        .collect();
    let mut plan = QueryPlan::new(query.clone());
    let c = plan.add(PlanNode::Service(ServiceNode::new("C", "Conference1")));
    let w = plan.add(PlanNode::Service(ServiceNode::new("W", "Weather1")));
    let sel = plan.add(PlanNode::Selection(
        SelectionNode::new(vec![query.selections[1].clone()]).with_selectivity(0.25),
    ));
    let f = plan.add(PlanNode::Service(
        ServiceNode::new("F", "Flight1").with_fetches(2),
    ));
    let h = plan.add(PlanNode::Service(
        ServiceNode::new("H", "Hotel1").with_fetches(2),
    ));
    let j = plan.add(PlanNode::ParallelJoin(JoinSpec {
        invocation: Invocation::merge_scan_even(),
        completion: Completion::Rectangular,
        predicates: same_trip,
        selectivity: 1.0,
    }));
    plan.connect(plan.input(), c).unwrap();
    plan.connect(c, w).unwrap();
    plan.connect(w, sel).unwrap();
    plan.connect(sel, f).unwrap();
    plan.connect(sel, h).unwrap();
    plan.connect(f, j).unwrap();
    plan.connect(h, j).unwrap();
    plan.connect(j, plan.output()).unwrap();
    (plan, registry)
}

#[test]
fn both_executors_agree_with_and_without_the_index() {
    let opts_of = |join_index: JoinIndexOptions| EngineConfig {
        join_k: 10,
        join_index,
        ..Default::default()
    };
    // Deterministic executor: identical emission order and counters,
    // and the hash run must actually have built indexes.
    let (plan, registry) = e1_plan(5);
    let base = execute_plan(&plan, &registry, opts_of(OFF)).unwrap();
    let (plan, registry) = e1_plan(5);
    let accel = execute_plan(&plan, &registry, opts_of(HASH)).unwrap();
    assert_eq!(base.results, accel.results);
    assert_eq!(base.total_calls, accel.total_calls);
    assert_eq!(base.critical_ms, accel.critical_ms);
    assert!(accel.join_stats.index_builds > 0);
    // This plan's branches are cluster-aligned per conference (the
    // probed bucket spans the whole chunk), so the index changes nothing
    // about the work done — only byte-identity and the counters can be
    // asserted.
    assert!(accel.join_stats.probes > 0);
    assert!(accel.join_stats.predicate_evals <= base.join_stats.predicate_evals);
    assert_eq!(base.join_stats.index_builds, 0);
    assert_eq!(base.join_stats.probes, 0);
    assert!(base.join_stats.predicate_evals > 0);

    // The columnar data plane must not change whole-engine results,
    // calls, virtual time, or how many candidates are judged.
    let (plan, registry) = e1_plan(5);
    let mut row_cfg = opts_of(OFF);
    row_cfg.columnar = ROW;
    let row_plane = execute_plan(&plan, &registry, row_cfg).unwrap();
    assert_eq!(base.results, row_plane.results);
    assert_eq!(base.total_calls, row_plane.total_calls);
    assert_eq!(base.critical_ms, row_plane.critical_ms);
    assert_eq!(
        base.join_stats.predicate_evals,
        row_plane.join_stats.predicate_evals
    );
    assert_eq!(row_plane.join_stats.batch_evals, 0);
    assert_eq!(row_plane.join_stats.columns_scanned, 0);

    // Pipelined executor: same combinations either way.
    let (plan, registry) = e1_plan(5);
    let par_base = execute_parallel(&plan, &registry, opts_of(OFF)).unwrap();
    let (plan, registry) = e1_plan(5);
    let par_accel = execute_parallel(&plan, &registry, opts_of(HASH)).unwrap();
    assert_eq!(par_base.results, par_accel.results);
    assert!(par_accel.join_stats.index_builds > 0);
    // The recorders saw the counters too (CLI `join:` line source).
    assert!(registry.total_stats().predicate_evals > 0);
}

/// `Int` keys above 2^53 promote to one `f64`, so the key of `2^53`
/// and of `2^53 + 1` is one key. The n-ary kernel must still judge
/// every such candidate by `=`, which tells the two apart: its answer
/// equals the binary cascade's, with the index on and off.
#[test]
fn large_int_keys_that_promote_to_one_float_still_join_by_equality() {
    let schema = ServiceSchema::new(
        "S",
        vec![AttributeDef::atomic("K", DataType::Int, Adornment::Output)],
    )
    .unwrap();
    let big = 1i64 << 53;
    let group = |atom: &str, keys: &[i64]| -> Vec<CompositeTuple> {
        (keys.iter().enumerate())
            .map(|(i, &k)| {
                let row = Tuple::builder(&schema)
                    .set("K", Value::Int(k))
                    .score(1.0 - i as f64 / 8.0)
                    .source_rank(i)
                    .build()
                    .unwrap();
                CompositeTuple::single(atom, row)
            })
            .collect()
    };
    let groups = [
        group("A", &[big, big + 1, big, 3]),
        group("B", &[big + 1, big, big + 1, 3]),
        group("C", &[big, big + 1, 3, big]),
    ];
    let eq = |l: &str, r: &str| {
        vec![ResolvedPredicate::Join(JoinPredicate {
            left: QualifiedPath::new(l, AttributePath::atomic("K")),
            op: Comparator::Eq,
            right: QualifiedPath::new(r, AttributePath::atomic("K")),
        })]
    };
    let (ab, bc) = (eq("A", "B"), eq("B", "C"));
    let mut schemas = SchemaMap::new();
    for atom in ["A", "B", "C"] {
        schemas.insert(atom.into(), &schema);
    }
    let cascade = |options: JoinIndexOptions| {
        let exec = ParallelJoinExecutor {
            predicates: &ab,
            schemas: &schemas,
            invocation: Invocation::merge_scan_even(),
            completion: Completion::Rectangular,
            h: 1,
            k: 0,
            options,
            columnar: ColumnarOptions::default(),
            pool: None,
        };
        let mut a = MemoryStream::new(groups[0].clone(), 2);
        let mut b = MemoryStream::new(groups[1].clone(), 2);
        let mid = exec.run(&mut a, &mut b).unwrap().results;
        let exec = ParallelJoinExecutor {
            predicates: &bc,
            ..exec
        };
        let mut mid = MemoryStream::new(mid, 2);
        let mut c = MemoryStream::new(groups[2].clone(), 2);
        exec.run(&mut mid, &mut c).unwrap().results
    };
    let stage = |predicates| NaryStage {
        predicates,
        invocation: Invocation::merge_scan_even(),
        completion: Completion::Rectangular,
        h: 1,
        k: 0,
        left_chunk: 2,
        right_chunk: 2,
    };
    let nary = NaryJoin { schemas: &schemas }
        .run(&groups, &[stage(&ab), stage(&bc)])
        .unwrap()
        .expect("disjoint single-atom groups with equi keys take the n-ary kernel");

    let (off, hash) = (cascade(OFF), cascade(HASH));
    assert_eq!(off, hash, "the binary index agrees with the nested loop");
    // A=2^53 meets B=2^53 (row 1), B=2^53 meets C rows 0 and 3, and
    // likewise for 2^53+1 and for 3: every one is a true equality.
    assert!(!off.is_empty());
    for c in &off {
        let keys: Vec<&Value> = c.components.iter().map(|t| t.atomic_at(0)).collect();
        assert!(keys.iter().all(|k| *k == keys[0]), "{keys:?}");
    }
    assert_eq!(
        nary.results, off,
        "the n-ary kernel agrees with the cascade"
    );
}
