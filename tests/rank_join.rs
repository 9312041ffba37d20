//! Correctness of the two top-k kernels added to the join layer:
//!
//! * the **rank join** must return exactly the first `k` entries of the
//!   score-sorted full enumeration (not just "k good tuples"), for any
//!   invocation, completion, decay, and chunking;
//! * the **n-ary kernel** must be *byte-identical* to the binary
//!   cascade it replaces — same combinations in the same emission
//!   order — across the grid of join methods the tile kernel's own
//!   tests use, while materializing no intermediate composites;
//! * both engine executors must honor the `rank_join` configuration flag
//!   end to end.

use search_computing::join::executor::{MemoryStream, ParallelJoinExecutor, ServiceStream};
use search_computing::join::{score_order, JoinError, NaryJoin, NaryStage, RankJoin, TileSpace};
use search_computing::plan::{JoinSpec, PlanNode, ServiceNode};
use search_computing::prelude::*;
use search_computing::query::predicate::{ResolvedPredicate, SchemaMap};
use search_computing::query::{JoinPredicate, QualifiedPath};
use search_computing::services::invocation::Request;
use seco_bench::{join_pair_with_width, star_scenario, KeyEdge};
use seco_model::{
    Adornment, AttributeDef, AttributePath, DataType, ScoringFunction, ServiceSchema, Tuple,
};

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

/// A ranked stream of `n` single-atom composites: scores follow the
/// decay model (non-increasing, as search services emit), join keys
/// cycle through `modulus` cities shifted by `phase`.
fn stream_data(
    atom: &str,
    schema: &ServiceSchema,
    n: usize,
    decay: ScoreDecay,
    modulus: usize,
    phase: usize,
) -> Vec<CompositeTuple> {
    let f = ScoringFunction::new(decay, n, 2).unwrap();
    (0..n)
        .map(|i| {
            let t = Tuple::builder(schema)
                .set(
                    "City",
                    Value::Text(format!("city-{}", (i + phase) % modulus)),
                )
                .set("Score", Value::float(f.score_at(i)))
                .score(f.score_at(i))
                .source_rank(i)
                .build()
                .unwrap();
            CompositeTuple::single(atom, t)
        })
        .collect()
}

fn eq_pred(la: &str, ra: &str) -> ResolvedPredicate {
    eq_pred_on("City", la, ra)
}

/// The equi-join of `la` and `ra` on their `attr` attributes.
fn eq_pred_on(attr: &str, la: &str, ra: &str) -> ResolvedPredicate {
    ResolvedPredicate::Join(JoinPredicate {
        left: QualifiedPath::new(la, AttributePath::atomic(attr)),
        op: Comparator::Eq,
        right: QualifiedPath::new(ra, AttributePath::atomic(attr)),
    })
}

/// Seeded property test: for random decays, sizes, chunkings and join
/// methods, the rank join's output at k ∈ {1, 5, 20}
/// equals the first k entries of the full enumeration sorted by the
/// canonical score order — ties included, bound checks performed.
#[test]
fn rank_join_top_k_is_the_sorted_enumeration_prefix() {
    let sa = schema("A1");
    let sb = schema("B1");
    let preds = vec![eq_pred("A", "B")];
    let mut schemas = SchemaMap::new();
    schemas.insert("A".into(), &sa);
    schemas.insert("B".into(), &sb);

    // xorshift64*, fully determined by the seed.
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let decays = [
        ScoreDecay::Linear,
        ScoreDecay::Quadratic,
        ScoreDecay::Step {
            h: 2,
            high: 0.9,
            low: 0.1,
        },
    ];
    let invocations = [
        Invocation::NestedLoop,
        Invocation::merge_scan_even(),
        Invocation::MergeScan { r1: 1, r2: 3 },
    ];
    let completions = [Completion::Rectangular, Completion::Triangular];

    for trial in 0..12 {
        let dx = decays[(next() % 3) as usize];
        let dy = decays[(next() % 3) as usize];
        let na = 16 + (next() % 32) as usize;
        let nb = 16 + (next() % 32) as usize;
        let modulus = 2 + (next() % 5) as usize;
        let chunk = 2 + (next() % 5) as usize;
        let inv = invocations[(next() % 3) as usize];
        let comp = completions[(next() % 2) as usize];
        let a = stream_data("A", &sa, na, dx, modulus, 0);
        let b = stream_data("B", &sb, nb, dy, modulus, (next() % 3) as usize);

        // The reference: exhaustive enumeration, canonically sorted.
        let full = ParallelJoinExecutor::new(&preds, &schemas);
        let mut sx = MemoryStream::new(a.clone(), chunk);
        let mut sy = MemoryStream::new(b.clone(), chunk);
        let mut baseline = full.run(&mut sx, &mut sy).unwrap().results;
        baseline.sort_by(score_order);

        for k in [1usize, 5, 20] {
            let rj = RankJoin {
                join: ParallelJoinExecutor {
                    invocation: inv,
                    completion: comp,
                    k,
                    pool: None,
                    ..full
                },
                space: None,
            };
            let mut sx = MemoryStream::new(a.clone(), chunk);
            let mut sy = MemoryStream::new(b.clone(), chunk);
            let out = rj.run(&mut sx, &mut sy).unwrap();
            let want: Vec<_> = baseline.iter().take(k).cloned().collect();
            assert_eq!(
                out.results, want,
                "trial {trial}: k={k} na={na} nb={nb} modulus={modulus} \
                 chunk={chunk} inv={inv:?} comp={comp:?}"
            );
            assert!(out.stats.bound_checks > 0, "trial {trial}: no bound checks");
            assert_eq!(out.stats.chunks_fetched, (out.calls_x + out.calls_y) as u64);
        }
    }

    // One sparse case over services rather than memory streams (400
    // tuples a side in chunks of 20, equi-join selectivity 1/50, k = 5):
    // besides being the prefix, the threshold bound must stop the rank
    // join at a third of the full enumeration's chunk fetches or fewer.
    let (total, chunk, k) = (400usize, 20usize, 5usize);
    let (sx, sy) = join_pair_with_width(
        ScoreDecay::Linear,
        ScoreDecay::Quadratic,
        total,
        chunk,
        17,
        50,
    );
    let preds = vec![eq_pred_on("Link", "X", "Y")];
    let mut schemas = SchemaMap::new();
    schemas.insert("X".into(), &sx.interface().schema);
    schemas.insert("Y".into(), &sy.interface().schema);
    let req = Request::unbound().bind(AttributePath::atomic("Key"), Value::text("q"));
    let full = ParallelJoinExecutor::new(&preds, &schemas);
    let mut x = ServiceStream::new("X", sx.as_ref(), req.clone());
    let mut y = ServiceStream::new("Y", sy.as_ref(), req.clone());
    let enumerated = full.run(&mut x, &mut y).unwrap();
    let mut want = enumerated.results.clone();
    want.sort_by(score_order);
    want.truncate(k);
    let rj = RankJoin {
        join: ParallelJoinExecutor { k, ..full },
        space: Some(TileSpace::new(
            ScoringFunction::new(ScoreDecay::Linear, total, chunk).unwrap(),
            ScoringFunction::new(ScoreDecay::Quadratic, total, chunk).unwrap(),
        )),
    };
    let mut x = ServiceStream::new("X", sx.as_ref(), req.clone());
    let mut y = ServiceStream::new("Y", sy.as_ref(), req);
    let ranked = rj.run(&mut x, &mut y).unwrap();
    assert_eq!(ranked.results, want);
    assert!(
        3 * ranked.stats.chunks_fetched <= enumerated.stats.chunks_fetched,
        "rank join must fetch at least 3x fewer chunks at k={k} (full {}, rank {})",
        enumerated.stats.chunks_fetched,
        ranked.stats.chunks_fetched,
    );
    assert!(ranked.stats.chunks_saved > 0);
}

/// The reference for the n-ary kernel: two chained binary runs with
/// identical parameters, the middle materialized as usual.
#[allow(clippy::too_many_arguments)]
fn cascade(
    schemas: &SchemaMap<'_>,
    groups: (&[CompositeTuple], &[CompositeTuple], &[CompositeTuple]),
    p1: &[ResolvedPredicate],
    p2: &[ResolvedPredicate],
    invocation: Invocation,
    completion: Completion,
    k: usize,
    chunk: usize,
) -> Result<Vec<CompositeTuple>, JoinError> {
    let e1 = ParallelJoinExecutor {
        invocation,
        completion,
        k,
        ..ParallelJoinExecutor::new(p1, schemas)
    };
    let mut sa = MemoryStream::new(groups.0.to_vec(), chunk);
    let mut sb = MemoryStream::new(groups.1.to_vec(), chunk);
    let mid = e1.run(&mut sa, &mut sb)?.results;
    let e2 = ParallelJoinExecutor {
        predicates: p2,
        ..e1
    };
    let mut sm = MemoryStream::new(mid, chunk);
    let mut sc = MemoryStream::new(groups.2.to_vec(), chunk);
    Ok(e2.run(&mut sm, &mut sc)?.results)
}

/// Across the tile kernel's grid of decays × invocations ×
/// completions × k × chunk sizes, and on key-encoding edge cases (a
/// separator inside a two-conjunct `Text` key, a raw `NaN`, `Int` and
/// `Float` keys that promote to one value), the n-ary kernel must emit
/// exactly what the binary cascade emits — or fail with its error —
/// while eliding the intermediate composites the cascade materializes.
#[test]
fn nary_kernel_is_byte_identical_to_the_cascade_across_the_grid() {
    const ALIASES: [&str; 3] = ["A", "B", "C"];
    let sides_of = |schema: &dyn Fn(usize) -> ServiceSchema| [0, 1, 2].map(schema);
    let city = sides_of(&|s| schema(&format!("{}1", ALIASES[s])));
    let edges = KeyEdge::ALL.map(|e| (e, sides_of(&|s| e.schema(&format!("{}1", ALIASES[s]), s))));
    fn schemas_of(sides: &[ServiceSchema; 3]) -> SchemaMap<'_> {
        ALIASES
            .iter()
            .zip(sides)
            .map(|(a, s)| ((*a).into(), s))
            .collect()
    }
    // (case, schemas, the three groups, stage predicates)
    type Case<'s> = (
        String,
        SchemaMap<'s>,
        [Vec<CompositeTuple>; 3],
        [Vec<ResolvedPredicate>; 2],
    );
    let mut cases: Vec<Case<'_>> = Vec::new();
    for (da, db) in [
        (ScoreDecay::Linear, ScoreDecay::Quadratic),
        (
            ScoreDecay::Step {
                h: 2,
                high: 0.9,
                low: 0.1,
            },
            ScoreDecay::Linear,
        ),
    ] {
        let groups = [
            stream_data("A", &city[0], 18, da, 3, 0),
            stream_data("B", &city[1], 15, db, 3, 1),
            stream_data("C", &city[2], 21, ScoreDecay::Linear, 4, 2),
        ];
        let preds = [vec![eq_pred("A", "B")], vec![eq_pred("B", "C")]];
        cases.push((format!("{da:?}/{db:?}"), schemas_of(&city), groups, preds));
    }
    for (edge, sides) in &edges {
        let groups = [(0, 18), (1, 15), (2, 21)].map(|(s, n)| {
            (edge.rows(&sides[s], s, n).into_iter())
                .map(|t| CompositeTuple::single(ALIASES[s], t))
                .collect()
        });
        let preds = [edge.predicates("A", "B"), edge.predicates("B", "C")];
        cases.push((format!("{edge:?}"), schemas_of(sides), groups, preds));
    }

    let mut failed = 0;
    for (case, schemas, [a, b, c], [p1, p2]) in &cases {
        for inv in [
            Invocation::NestedLoop,
            Invocation::merge_scan_even(),
            Invocation::MergeScan { r1: 1, r2: 3 },
        ] {
            for comp in [Completion::Rectangular, Completion::Triangular] {
                for (k, chunk) in [(0, 3), (0, 5), (7, 3), (7, 5)] {
                    let want = cascade(schemas, (a, b, c), p1, p2, inv, comp, k, chunk);
                    let stage = |predicates| NaryStage {
                        predicates,
                        invocation: inv,
                        completion: comp,
                        h: 1,
                        k,
                        left_chunk: chunk,
                        right_chunk: chunk,
                    };
                    let nj = NaryJoin { schemas };
                    let got = nj
                        .run(&[a.clone(), b.clone(), c.clone()], &[stage(p1), stage(p2)])
                        .map(|out| out.expect("an equi chain is eligible"));
                    let at = format!("{case} {inv:?} {comp:?} k={k} chunk={chunk}");
                    let results = got.as_ref().map(|out| &out.results);
                    assert_eq!(format!("{want:?}"), format!("{results:?}"), "{at}");
                    if let (0, Ok(out)) = (k, &got) {
                        assert!(
                            out.results.is_empty() || out.stats.intermediates_elided > 0,
                            "{at}: a non-empty full run must elide intermediates"
                        );
                    }
                    failed += usize::from(want.is_err());
                }
            }
        }
    }
    assert!(failed > 0, "the NaN case must reach its error");
}

/// With `rank_join` on, the engine must return the true top-k of
/// the join — the prefix of the full enumeration under the canonical
/// score order — not the first k emitted.
#[test]
fn engine_rank_join_returns_the_true_top_k() {
    let star_pair_plan = |seed: u64| -> (QueryPlan, ServiceRegistry) {
        let (registry, query) = star_scenario(2, seed);
        let joins = query.expanded_joins(&registry).unwrap();
        let mut plan = QueryPlan::new(query.clone());
        let s1 = plan.add(PlanNode::Service(
            ServiceNode::new("A1", "Star1").with_fetches(4),
        ));
        let s2 = plan.add(PlanNode::Service(
            ServiceNode::new("A2", "Star2").with_fetches(4),
        ));
        let j = plan.add(PlanNode::ParallelJoin(JoinSpec {
            invocation: Invocation::merge_scan_even(),
            completion: Completion::Rectangular,
            predicates: joins,
            selectivity: 1.0,
        }));
        plan.connect(plan.input(), s1).unwrap();
        plan.connect(plan.input(), s2).unwrap();
        plan.connect(s1, j).unwrap();
        plan.connect(s2, j).unwrap();
        plan.connect(j, plan.output()).unwrap();
        (plan, registry)
    };

    // The reference: exhaustive run, canonically sorted.
    let (plan, registry) = star_pair_plan(7);
    let full = execute_plan(
        &plan,
        &registry,
        EngineConfig {
            join_k: 0,
            ..Default::default()
        },
    )
    .unwrap();
    let mut want = full.results.clone();
    want.sort_by(score_order);
    let k = 5usize;
    assert!(want.len() > k, "reference must overfill k");
    want.truncate(k);

    let cfg = EngineConfig {
        join_k: k,
        rank_join: true,
        ..Default::default()
    };
    let (plan, registry) = star_pair_plan(7);
    let ranked = execute_plan(&plan, &registry, cfg).unwrap();
    assert_eq!(ranked.results, want);
    assert!(ranked.join_stats.bound_checks > 0);
    assert!(
        ranked.join_stats.chunks_fetched > 0,
        "rank join must report its chunk pulls"
    );
}
