//! Property-style invariants of the optimizer stack, exercised over the
//! parameterized chain/star workload generators.

use search_computing::optimizer::exhaustive::optimize_exhaustive_with_costs;
use search_computing::plan::{annotate, AnnotationConfig, PlanNode};
use search_computing::prelude::*;
use seco_bench::{chain_scenario, star_scenario};

#[test]
fn bnb_matches_exhaustive_on_every_generated_scenario() {
    // §5.2: run to exhaustion, the returned plan is the optimal one —
    // so pruning must never change the optimum.
    // n = 4 is the star shape the cold-planning benchmark searches.
    for seed in [1u64, 7, 23] {
        for n in 2..=4 {
            for (label, scenario) in [
                ("chain", chain_scenario(n, seed)),
                ("star", star_scenario(n, seed)),
            ] {
                let (reg, query) = scenario;
                for metric in [CostMetric::RequestCount, CostMetric::ExecutionTime] {
                    let bnb = optimize(&query, &reg, metric)
                        .unwrap_or_else(|e| panic!("{label} n={n} seed={seed}: {e}"));
                    let (ex, costs) = optimize_exhaustive_with_costs(&query, &reg, metric).unwrap();
                    assert!(
                        (bnb.cost - ex.cost).abs() < 1e-9,
                        "{label} n={n} seed={seed} {metric}: bnb={} exhaustive={}",
                        bnb.cost,
                        ex.cost
                    );
                    // The optimum really is the minimum of all costed plans.
                    let min = costs.iter().cloned().fold(f64::INFINITY, f64::min);
                    assert!((min - ex.cost).abs() < 1e-9);
                }
            }
        }
    }
}

#[test]
fn annotation_is_monotone_in_every_fetch_factor() {
    // The bounding step's soundness rests on this (§5.2 monotonicity).
    let (reg, query) = star_scenario(3, 5);
    let best = optimize(&query, &reg, CostMetric::RequestCount).unwrap();
    let base = annotate(&best.plan, &reg, &AnnotationConfig::default()).unwrap();
    let base_cost = CostMetric::RequestCount
        .evaluate(&best.plan, &base, &reg)
        .unwrap();
    let base_time = CostMetric::ExecutionTime
        .evaluate(&best.plan, &base, &reg)
        .unwrap();
    for id in best.plan.node_ids().collect::<Vec<_>>() {
        let mut bumped = best.plan.clone();
        let is_service = matches!(bumped.node(id), Ok(PlanNode::Service(_)));
        if !is_service {
            continue;
        }
        if let PlanNode::Service(s) = bumped.node_mut(id).unwrap() {
            s.fetches += 2;
        }
        let ann = annotate(&bumped, &reg, &AnnotationConfig::default()).unwrap();
        assert!(
            ann.output_tuples >= base.output_tuples - 1e-9,
            "more fetches must never lose estimated answers"
        );
        let cost = CostMetric::RequestCount
            .evaluate(&bumped, &ann, &reg)
            .unwrap();
        let time = CostMetric::ExecutionTime
            .evaluate(&bumped, &ann, &reg)
            .unwrap();
        assert!(
            cost >= base_cost - 1e-9,
            "request count must be monotone in F"
        );
        assert!(
            time >= base_time - 1e-9,
            "execution time must be monotone in F"
        );
    }
}

#[test]
fn optimized_plans_meet_k_or_the_whole_space_fails() {
    for seed in [2u64, 9] {
        let (reg, mut query) = star_scenario(3, seed);
        for k in [1usize, 5, 20] {
            query.k = k;
            match optimize(&query, &reg, CostMetric::RequestCount) {
                Ok(best) => assert!(
                    best.annotated.output_tuples >= k as f64,
                    "seed={seed} k={k}: plan estimates {} answers",
                    best.annotated.output_tuples
                ),
                Err(search_computing::optimizer::OptError::Unreachable {
                    best_estimate, ..
                }) => {
                    assert!(best_estimate < k as f64)
                }
                Err(e) => panic!("unexpected optimizer error: {e}"),
            }
        }
    }
}

#[test]
fn star_queries_execute_end_to_end() {
    // Star plans contain nested parallel joins; execution must still
    // produce full-arity composites agreeing between both executors.
    let (reg, query) = star_scenario(3, 11);
    let best = optimize(&query, &reg, CostMetric::ExecutionTime).unwrap();
    let outcome = execute_plan(&best.plan, &reg, EngineConfig::default()).unwrap();
    for combo in &outcome.results {
        assert_eq!(combo.arity(), 3);
    }
    let par = execute_parallel(&best.plan, &reg, EngineConfig::default())
        .unwrap()
        .results;
    assert_eq!(par.len(), outcome.results.len());
    // Soundness against the oracle.
    let oracle = evaluate_oracle(&query, &reg).unwrap();
    for combo in &outcome.results {
        assert!(oracle.iter().any(|o| {
            query
                .atoms
                .iter()
                .all(|a| o.component(&a.alias) == combo.component(&a.alias))
        }));
    }
}

#[test]
fn chain_queries_execute_end_to_end() {
    // The piped chain actually produces composites covering all atoms.
    for n in 2..=4 {
        let (reg, query) = chain_scenario(n, 11);
        let best = optimize(&query, &reg, CostMetric::Sum).unwrap();
        let outcome = execute_plan(&best.plan, &reg, EngineConfig::default()).unwrap();
        assert!(
            !outcome.results.is_empty(),
            "chain n={n} should produce results (link domain 16, 50% pattern selectivity)"
        );
        for combo in &outcome.results {
            assert_eq!(combo.arity(), n);
        }
        // The pipelined executor agrees.
        let par = execute_parallel(&best.plan, &reg, EngineConfig::default())
            .unwrap()
            .results;
        assert_eq!(par.len(), outcome.results.len());
    }
}
