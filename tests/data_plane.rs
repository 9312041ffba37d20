//! Zero-copy data plane invariants: identical seeds must produce
//! identical ranked output regardless of executor, and repeated seeded
//! runs must be byte-identical.
//!
//! These are the determinism guards for the shared-tuple refactor: if
//! interned symbols or `Arc`-shared chunks ever perturbed hashing,
//! iteration order, or score arithmetic, the ranked combinations would
//! drift and these tests would catch it.

use search_computing::plan::{JoinSpec, PlanNode, SelectionNode, ServiceNode};
use search_computing::prelude::*;
use search_computing::services::domains::travel;

/// The E1 travel plan of the `repro` harness (Fig. 2/3): Conference →
/// Weather → selection → (Flight ∥ Hotel) → parallel join.
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

/// Canonically ranked, fully materialized output: score-descending with
/// the components' source ranks as a deterministic tiebreak, rendered
/// to owned rows. Two runs agree iff these byte-render identically.
fn ranked_render(query: &Query, results: &[CompositeTuple]) -> Vec<String> {
    let weights = query.ranking.weights();
    let mut ranked: Vec<&CompositeTuple> = results.iter().collect();
    ranked.sort_by(|a, b| {
        b.global_score(weights)
            .partial_cmp(&a.global_score(weights))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                let ka: Vec<usize> = a.components.iter().map(|t| t.source_rank).collect();
                let kb: Vec<usize> = b.components.iter().map(|t| t.source_rank).collect();
                ka.cmp(&kb)
            })
    });
    ranked
        .iter()
        .map(|c| format!("{:.12}|{:?}", c.global_score(weights), c.materialize()))
        .collect()
}

#[test]
fn deterministic_and_parallel_executors_rank_identically_on_e1() {
    let (plan, registry) = e1_plan(5);
    let opts = EngineConfig {
        join_k: 10,
        ..Default::default()
    };
    let sequential = execute_plan(&plan, &registry, opts).unwrap();
    let (plan2, registry2) = e1_plan(5);
    let parallel = execute_parallel(&plan2, &registry2, opts).unwrap().results;
    let seq_render = ranked_render(&plan.query, &sequential.results);
    let par_render = ranked_render(&plan2.query, &parallel);
    assert!(!seq_render.is_empty(), "E1 must produce combinations");
    assert_eq!(
        seq_render, par_render,
        "same seeds must yield identical ranked combinations on both executors"
    );
}

#[test]
fn seeded_e1_runs_are_byte_identical() {
    let opts = EngineConfig {
        join_k: 10,
        ..Default::default()
    };
    let (plan_a, reg_a) = e1_plan(5);
    let (plan_b, reg_b) = e1_plan(5);
    let a = execute_plan(&plan_a, &reg_a, opts).unwrap();
    let b = execute_plan(&plan_b, &reg_b, opts).unwrap();
    // Emission order itself is deterministic for the sequential
    // executor, not just the ranked view.
    let render = |o: &[CompositeTuple]| -> Vec<String> {
        o.iter().map(|c| format!("{:?}", c.materialize())).collect()
    };
    assert_eq!(render(&a.results), render(&b.results));
    assert_eq!(
        ranked_render(&plan_a.query, &a.results),
        ranked_render(&plan_b.query, &b.results)
    );
    // A different seed genuinely changes the data (the guard is not
    // vacuous).
    let (plan_c, reg_c) = e1_plan(7);
    let c = execute_plan(&plan_c, &reg_c, opts).unwrap();
    assert_ne!(render(&a.results), render(&c.results));
}

#[test]
fn columnar_and_row_planes_are_byte_identical_on_e1() {
    // The columnar chunk plane (typed columns + vectorized predicate
    // kernels) must reproduce the row-at-a-time baseline exactly:
    // same emission order, same calls, same virtual time, and the
    // same number of judged candidates — on both executors.
    let render = |o: &[CompositeTuple]| -> Vec<String> {
        o.iter().map(|c| format!("{:?}", c.materialize())).collect()
    };
    let col_cfg = EngineConfig::default().join_k(10);
    let row_cfg = col_cfg.columnar(false).batch_eval(false);
    let (plan_a, reg_a) = e1_plan(5);
    let (plan_b, reg_b) = e1_plan(5);
    let col = execute_plan(&plan_a, &reg_a, col_cfg).unwrap();
    let row = execute_plan(&plan_b, &reg_b, row_cfg).unwrap();
    assert_eq!(render(&col.results), render(&row.results));
    assert_eq!(col.total_calls, row.total_calls);
    assert_eq!(col.critical_ms, row.critical_ms);
    assert_eq!(
        col.join_stats.predicate_evals,
        row.join_stats.predicate_evals
    );
    // The default plane actually exercises the batch kernels and the
    // row plane never touches them.
    assert!(col.join_stats.batch_evals > 0, "{:?}", col.join_stats);
    assert!(col.join_stats.columns_scanned > 0);
    assert_eq!(row.join_stats.batch_evals, 0);
    assert_eq!(row.join_stats.columns_scanned, 0);

    // Pipelined executor: same combinations under either plane.
    let (plan_c, reg_c) = e1_plan(5);
    let (plan_d, reg_d) = e1_plan(5);
    let par_col = execute_parallel(&plan_c, &reg_c, col_cfg).unwrap().results;
    let par_row = execute_parallel(&plan_d, &reg_d, row_cfg).unwrap().results;
    assert_eq!(
        ranked_render(&plan_c.query, &par_col),
        ranked_render(&plan_d.query, &par_row)
    );
}

#[test]
fn delivered_components_are_the_cached_chunks_own_tuples() {
    // Handing combinations on by move must not have turned into row
    // copies anywhere: once the response cache answers every fetch, two
    // executions deliver handles to the very same tuples — the cached
    // chunks' row views — on the chain (pipe joins) and on the star
    // (parallel joins, a fanned-out input).
    for (registry, query) in [
        seco_bench::chain_scenario(4, 42),
        seco_bench::star_scenario(3, 42),
    ] {
        let best = optimize(&query, &registry, CostMetric::RequestCount).unwrap();
        let config = EngineConfig::default().cache_shards(4);
        let shared = SharedState::new();
        let run = || execute_plan_shared(&best.plan, &registry, config, &shared).unwrap();
        // Admission on proof: all hits from the third run on.
        for _ in 0..3 {
            run();
        }
        let calls = registry.total_stats().calls;
        let (first, second) = (run(), run());
        assert_eq!(registry.total_stats().calls, calls, "both runs are warm");
        assert!(!first.results.is_empty());
        assert_eq!(first.results.len(), second.results.len());
        for (a, b) in first.results.iter().zip(&second.results) {
            assert_eq!(a.arity(), query.atoms.len());
            for (x, y) in a.components.iter().zip(b.components.iter()) {
                assert!(
                    std::sync::Arc::ptr_eq(x, y),
                    "{a} holds a copy of a cached row"
                );
            }
        }
    }
}
