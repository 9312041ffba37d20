//! The key index at the engine's surface. Its byte-identity with the
//! nested loop, across every join method, decay, chunk size and `k`, is
//! held by `seco-join`'s own unit tests against their scalar reference;
//! these tests check what only whole runs show: tiles proved empty by
//! their keys, keys that collide without being equal, and whole E1
//! runs that agree, on both entries of the walk, with the index-free
//! oracle.

use search_computing::join::executor::{JoinOutcome, MemoryStream, ParallelJoinExecutor};
use search_computing::join::{JoinError, NaryJoin, NaryStage};
use search_computing::plan::{JoinSpec, PlanNode, SelectionNode, ServiceNode};
use search_computing::prelude::*;
use search_computing::query::predicate::{ResolvedPredicate, SchemaMap};
use search_computing::query::{JoinPredicate, QualifiedPath};
use search_computing::services::domains::travel;
use seco_model::{Adornment, AttributeDef, AttributePath, DataType, ServiceSchema, Tuple};

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
    // X covers city-0..3, Y covers city-2..5: tiles between the
    // disjoint chunks share no key.
    let (xs, ys) = (
        clustered("X", &schema, 40, 0),
        clustered("Y", &schema, 40, 2),
    );
    let exec = ParallelJoinExecutor::new(&predicates, &schemas);
    let out: Result<JoinOutcome, JoinError> = exec.run(
        &mut MemoryStream::new(xs.clone(), 10),
        &mut MemoryStream::new(ys.clone(), 10),
    );
    let out = out.expect("join runs");
    // The answer is every equal-key pair.
    let key = |c: &CompositeTuple| c.components[0].atomic_at(0).clone();
    let expected = (xs.iter())
        .map(|x| ys.iter().filter(|y| key(x) == key(y)).count())
        .sum::<usize>();
    assert!(expected > 0, "the overlapping cities must match");
    assert_eq!(out.results.len(), expected);
    assert!(out
        .results
        .iter()
        .all(|c| c.components[0].atomic_at(0) == c.components[1].atomic_at(0)));
    assert_eq!(out.tiles.len(), 16, "every tile is visited");
    assert!(
        out.stats.tiles_pruned > 0,
        "disjoint-key tiles must be pruned: {:?}",
        out.stats
    );
    assert!(out.stats.pairs_skipped > 0);
    assert!(out.stats.index_builds > 0);
    // A nested loop judges all 40 × 40 pairs.
    assert!(out.stats.predicate_evals < 40 * 40);
}

/// The E1 travel plan (Fig. 2/3): Conference → Weather → selection →
/// (Flight ∥ Hotel) → parallel join on `SameTrip`.
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

/// Each combination as its components' Debug renders in query atom
/// order, sorted into a multiset.
fn combinations(query: &Query, results: &[CompositeTuple]) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = (results.iter())
        .map(|c| {
            (query.atoms.iter())
                .map(|a| format!("{:?}", c.component(&a.alias)))
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

/// Both entries of the walk — on the virtual clock, and streamed on the
/// wall clock — key the E1 `SameTrip` join through the index, and
/// deliver the same combinations, each of which the index-free oracle
/// (every chunk fetched, every candidate judged by the interpreted
/// evaluator) also finds.
#[test]
fn both_executors_agree_with_and_without_the_index() {
    let config = EngineConfig {
        join_k: 10,
        ..Default::default()
    };
    let (plan, registry) = e1_plan(5);
    let det = execute_plan(&plan, &registry, config).unwrap();
    let (plan, registry) = e1_plan(5);
    let pip = execute_parallel_session(&plan, &registry, config, None, None).unwrap();
    let found = combinations(&plan.query, &det.results);
    assert!(!found.is_empty(), "E1 must produce combinations");
    assert_eq!(found, combinations(&plan.query, &pip.results));
    // The branches are cluster-aligned per conference (a probed bucket
    // spans its whole chunk), so the index saves no evaluation here; it
    // must still be built and probed by both.
    for stats in [&det.join_stats, &pip.join_stats] {
        assert!(stats.index_builds > 0 && stats.probes > 0, "{stats:?}");
        assert!(stats.predicate_evals > 0, "{stats:?}");
    }

    let (_, registry) = e1_plan(5);
    let oracle = combinations(
        &plan.query,
        &evaluate_oracle(&plan.query, &registry).expect("the oracle evaluates"),
    );
    for row in &found {
        assert!(
            oracle.binary_search(row).is_ok(),
            "an indexed combination the oracle does not find: {row:?}"
        );
    }
}

/// `Int` keys above 2^53 promote to one `f64`, so the key of `2^53`
/// and of `2^53 + 1` is one key. Both kernels must still judge every
/// such candidate by `=`, which tells the two apart: the binary cascade
/// finds exactly the equal-key triples, and the n-ary kernel agrees.
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
    let cascade = {
        let exec = ParallelJoinExecutor::new(&ab, &schemas);
        let mut a = MemoryStream::new(groups[0].clone(), 2);
        let mut b = MemoryStream::new(groups[1].clone(), 2);
        let mid = exec.run(&mut a, &mut b).unwrap().results;
        let exec = ParallelJoinExecutor::new(&bc, &schemas);
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

    // A=2^53 meets B=2^53 (row 1), B=2^53 meets C rows 0 and 3, and
    // likewise for 2^53+1 and for 3: every one is a true equality, and
    // every true equality is found.
    let equal_triples = (groups[0].iter())
        .flat_map(|a| groups[1].iter().map(move |b| (a, b)))
        .flat_map(|(a, b)| groups[2].iter().map(move |c| [a, b, c]))
        .filter(|t| {
            t.iter()
                .all(|c| c.components[0].atomic_at(0) == t[0].components[0].atomic_at(0))
        })
        .count();
    assert_eq!(cascade.len(), equal_triples);
    for c in &cascade {
        let keys: Vec<&Value> = c.components.iter().map(|t| t.atomic_at(0)).collect();
        assert!(keys.iter().all(|k| *k == keys[0]), "{keys:?}");
    }
    assert_eq!(
        nary.results, cascade,
        "the n-ary kernel agrees with the cascade"
    );
}
