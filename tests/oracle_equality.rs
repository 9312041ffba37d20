//! Under exhaustive fetch the engine *equals* the independent oracle.
//!
//! `evaluate_oracle` fetches every chunk of every binding combination
//! and filters with the interpreted §3.1 evaluator; the engine runs the
//! optimizer's plan through the compiled evaluator, the key index and
//! the batch kernels. With every service node set to fetch past the end
//! of its results (`fetches = 50`, `keep_first` off) and no join
//! target, both must deliver the same multiset of combinations — per
//! atom, the same component — through both entries of the walk: on the
//! virtual clock, and streamed with its fetch stacks on the wall clock.

use std::hash::{DefaultHasher, Hash, Hasher};

use search_computing::model::tuple::FieldSlot;
use search_computing::model::Tuple;
use search_computing::plan::PlanNode;
use search_computing::prelude::*;
use search_computing::query::builder::running_example;
use search_computing::services::domains::{entertainment, travel};
use seco_bench::{chain_scenario, star_scenario};

/// The optimizer's plan with every service node fetching exhaustively.
fn exhaustive_plan(query: &Query, registry: &ServiceRegistry) -> QueryPlan {
    let mut plan = optimize(query, registry, CostMetric::RequestCount)
        .expect("the scenario plans")
        .plan;
    let ids: Vec<_> = plan.node_ids().collect();
    for id in ids {
        if let Ok(PlanNode::Service(node)) = plan.node_mut(id) {
            node.fetches = 50;
            node.keep_first = false;
        }
    }
    plan
}

/// A component's content — rank, score and every value — as a hash.
fn content_hash(t: &Tuple) -> u64 {
    fn value(v: &Value, h: &mut DefaultHasher) {
        match v {
            Value::Null => 0u8.hash(h),
            Value::Bool(b) => (1u8, b).hash(h),
            Value::Int(i) => (2u8, i).hash(h),
            Value::Float(f) => (3u8, f.to_bits()).hash(h),
            Value::Text(s) => (4u8, s.as_str()).hash(h),
            Value::Date(d) => (5u8, d).hash(h),
        }
    }
    let mut h = DefaultHasher::new();
    (t.source_rank, t.score.to_bits()).hash(&mut h);
    for field in &t.fields {
        match field {
            FieldSlot::Atomic(v) => value(v, &mut h),
            FieldSlot::Group(rows) => {
                rows.len().hash(&mut h);
                for v in rows.iter().flat_map(|r| &r.values) {
                    value(v, &mut h);
                }
            }
        }
    }
    h.finish()
}

/// Each combination as its atoms' components (content hashes, in query
/// atom order; `None` for a missing atom), sorted into a multiset.
fn components(query: &Query, results: &[CompositeTuple]) -> Vec<Vec<Option<u64>>> {
    let mut rows: Vec<_> = results
        .iter()
        .map(|c| {
            (query.atoms.iter())
                .map(|a| c.component(&a.alias).map(|t| content_hash(t)))
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

fn travel_conference_weather() -> (ServiceRegistry, Query) {
    let registry = travel::build_registry(13).expect("registry builds");
    let query = QueryBuilder::new()
        .atom("C", "Conference1")
        .atom("W", "Weather1")
        .pattern("Forecast", "C", "W")
        .select_const("C", "Topic", Comparator::Eq, Value::text("ml"))
        .select_const("W", "AvgTemp", Comparator::Gt, Value::Int(20))
        .build()
        .expect("query is valid");
    (registry, query)
}

fn scenarios() -> Vec<(String, ServiceRegistry, Query)> {
    let mut out = Vec::new();
    for seed in [3, 42] {
        let (reg, q) = chain_scenario(2, seed);
        out.push((format!("chain 2 seed {seed}"), reg, q));
    }
    // 8 000 combinations per run: one seed is enough.
    let (reg, q) = chain_scenario(3, 42);
    out.push(("chain 3 seed 42".into(), reg, q));
    for n in 3..=4 {
        for seed in [3, 42] {
            let (reg, q) = star_scenario(n, seed);
            out.push((format!("star {n} seed {seed}"), reg, q));
        }
    }
    for seed in [1, 9] {
        let reg = entertainment::build_registry(seed).expect("registry builds");
        out.push((
            format!("running example seed {seed}"),
            reg,
            running_example(),
        ));
    }
    let (reg, q) = travel_conference_weather();
    out.push(("travel C-W".into(), reg, q));
    out
}

#[test]
fn exhaustive_runs_equal_the_oracle_on_both_schedulers() {
    let mut rows = 0;
    for (name, registry, query) in scenarios() {
        let expected = components(
            &query,
            &evaluate_oracle(&query, &registry).expect("the oracle evaluates"),
        );
        assert!(!expected.is_empty(), "{name}: the oracle finds answers");
        let plan = exhaustive_plan(&query, &registry);
        let config = EngineConfig::default().join_k(0);
        let det = execute_plan(&plan, &registry, config)
            .unwrap_or_else(|e| panic!("{name}: deterministic: {e}"));
        assert_eq!(
            components(&query, &det.results),
            expected,
            "{name}: deterministic"
        );
        let streamed = execute_parallel_session(&plan, &registry, config, None, None)
            .unwrap_or_else(|e| panic!("{name}: streamed: {e}"));
        assert_eq!(
            components(&query, &streamed.results),
            expected,
            "{name}: streamed"
        );
        rows += expected.len();
    }
    assert!(rows > 8_000, "the grid joins real volumes: {rows} rows");
}
