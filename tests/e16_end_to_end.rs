//! E16: end-to-end soundness — optimized plans, both executors, and the
//! declarative oracle agree.

use search_computing::prelude::*;
use search_computing::query::builder::running_example;
use search_computing::services::domains::{entertainment, travel};

/// Two composites describe the same answer when every atom's component
/// matches.
fn same_answer(q: &Query, a: &CompositeTuple, b: &CompositeTuple) -> bool {
    q.atoms
        .iter()
        .all(|atom| a.component(&atom.alias) == b.component(&atom.alias))
}

#[test]
fn running_example_engine_is_sound_wrt_oracle() {
    let registry = entertainment::build_registry(9).unwrap();
    let query = running_example();
    let oracle = evaluate_oracle(&query, &registry).unwrap();
    for metric in [CostMetric::RequestCount, CostMetric::ExecutionTime] {
        let best = optimize(&query, &registry, metric).unwrap();
        let outcome = execute_plan(&best.plan, &registry, EngineConfig::default()).unwrap();
        for combo in &outcome.results {
            assert!(
                oracle.iter().any(|o| same_answer(&query, o, combo)),
                "{metric}: engine emitted non-answer {combo}"
            );
        }
    }
}

#[test]
fn travel_query_engine_is_sound_wrt_oracle() {
    let registry = travel::build_registry(13).unwrap();
    let query = QueryBuilder::new()
        .atom("C", "Conference1")
        .atom("W", "Weather1")
        .atom("H", "Hotel1")
        .pattern("Forecast", "C", "W")
        .pattern("StayAt", "C", "H")
        .select_const("C", "Topic", Comparator::Eq, Value::text("ml"))
        .select_const("W", "AvgTemp", Comparator::Gt, Value::Int(20))
        .k(5)
        .build()
        .unwrap();
    let oracle = evaluate_oracle(&query, &registry).unwrap();
    let best = optimize(&query, &registry, CostMetric::Sum).unwrap();
    let outcome = execute_plan(&best.plan, &registry, EngineConfig::default()).unwrap();
    assert!(!outcome.results.is_empty());
    for combo in &outcome.results {
        assert!(oracle.iter().any(|o| same_answer(&query, o, combo)));
    }
}

#[test]
fn parallel_and_sequential_executors_agree() {
    let registry = entertainment::build_registry(21).unwrap();
    let query = running_example();
    let best = optimize(&query, &registry, CostMetric::RequestCount).unwrap();
    let sequential = execute_plan(&best.plan, &registry, EngineConfig::default()).unwrap();
    let parallel = execute_parallel(&best.plan, &registry, EngineConfig::default())
        .unwrap()
        .results;
    assert_eq!(sequential.results.len(), parallel.len());
    for combo in &parallel {
        assert!(sequential
            .results
            .iter()
            .any(|s| same_answer(&query, s, combo)));
    }
}

#[test]
fn parsed_query_round_trips_through_the_whole_stack() {
    let registry = entertainment::build_registry(5).unwrap();
    let query = parse_query(
        "Select Movie1 As M, Theatre1 as T \
         where Shows(M,T) and \
         M.Genres.Genre=\"drama\" and M.Openings.Country=\"country-1\" and \
         M.Openings.Date>=2009-01-01 and M.Language=\"it\" and \
         T.UAddress=\"piazza Leonardo 32\" and T.UCity=\"Milano\" and \
         T.UCountry=\"country-1\" \
         ranking (0.5, 0.5) top 5",
    )
    .unwrap();
    let best = optimize(&query, &registry, CostMetric::ExecutionTime).unwrap();
    let outcome = execute_plan(&best.plan, &registry, EngineConfig::default()).unwrap();
    let oracle = evaluate_oracle(&query, &registry).unwrap();
    for combo in &outcome.results {
        assert!(oracle.iter().any(|o| same_answer(&query, o, combo)));
    }
    // The ranked view is sorted.
    let rs = ResultSet::new(outcome.results, query.ranking.clone());
    let top = rs.top_k(5);
    for w in top.windows(2) {
        assert!(query.ranking.score(&w[0]) >= query.ranking.score(&w[1]) - 1e-12);
    }
}

#[test]
fn continuation_fetches_more_results() {
    // §3.2: "a plan execution can be continued, after an explicit user
    // request, thereby producing more tuples". Model the continuation
    // by raising the fetch factors of the chosen plan and re-executing:
    // the result set must grow monotonically (same prefix semantics).
    let registry = entertainment::build_registry(33).unwrap();
    let query = running_example();
    let best = optimize(&query, &registry, CostMetric::RequestCount).unwrap();
    let first = execute_plan(&best.plan, &registry, EngineConfig::default()).unwrap();

    let mut more_plan = best.plan.clone();
    for id in more_plan.node_ids().collect::<Vec<_>>() {
        if let search_computing::plan::PlanNode::Service(s) = more_plan.node_mut(id).unwrap() {
            if !s.keep_first {
                s.fetches += 1;
            }
        }
    }
    let second = execute_plan(&more_plan, &registry, EngineConfig::default()).unwrap();
    assert!(
        second.results.len() >= first.results.len(),
        "continuation must not lose answers: {} -> {}",
        first.results.len(),
        second.results.len()
    );
    assert!(second.total_calls > first.total_calls);
}
