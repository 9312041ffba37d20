//! Property-style invariants of the optimizer stack, exercised over the
//! parameterized chain/star workload generators.

use search_computing::optimizer::exhaustive::optimize_exhaustive_with_costs;
use search_computing::optimizer::phase1::enumerate_assignments;
use search_computing::optimizer::phase2::{enumerate_topologies, Space, DEFAULT_MAX_TOPOLOGIES};
use search_computing::optimizer::{Phase1Heuristic, Phase2Heuristic};
use search_computing::plan::{annotate, AnnotatedPlan, AnnotationConfig, DeltaAnnotator, PlanNode};
use search_computing::prelude::*;
use search_computing::query::builder::running_example;
use search_computing::services::domains::{entertainment, travel};
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

/// One full annotation per visited topology: it serves both the lower
/// bound and phase 3, which only propagates deltas.
#[test]
fn each_visited_topology_is_annotated_in_full_once() {
    let reg = entertainment::build_registry(1).unwrap();
    let q = running_example();
    for metric in CostMetric::all() {
        let s = optimize(&q, &reg, metric).unwrap().stats;
        assert_eq!(s.annotate_full, s.instantiated + s.pruned, "{metric}");
    }
}

/// Anytime semantics (§5.2): a budget of one instantiates exactly one
/// plan, and that plan is feasible.
#[test]
fn a_budget_of_one_instantiates_exactly_one_feasible_plan() {
    let (reg, q) = star_scenario(3, 11);
    let mut opt = Optimizer::new(&reg, CostMetric::RequestCount);
    opt.budget = Some(1);
    let anytime = opt.optimize(&q).unwrap();
    anytime.plan.validate().unwrap();
    assert!(anytime.annotated.output_tuples >= q.k as f64);
    assert_eq!(anytime.stats.instantiated, 1);
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
    // produce full-arity composites.
    let (reg, query) = star_scenario(3, 11);
    let best = optimize(&query, &reg, CostMetric::ExecutionTime).unwrap();
    let outcome = execute_plan(&best.plan, &reg, EngineConfig::default()).unwrap();
    for combo in &outcome.results {
        assert_eq!(combo.arity(), 3);
    }
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
    }
}

/// The travel Conference–Weather pair: a piped chain with a selection
/// on each side.
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

/// The compact annotation equals `annotate()` of the materialized plan
/// node for node, bit for bit, and every metric costs both alike.
fn assert_costs_as_its_plan(
    compact: &DeltaAnnotator,
    plan: &QueryPlan,
    reg: &ServiceRegistry,
    what: &str,
) {
    let full: AnnotatedPlan = annotate(plan, reg, &AnnotationConfig::default()).unwrap();
    let ours = compact.to_annotated();
    for id in plan.node_ids() {
        let (a, b) = (ours.annotation(id), full.annotation(id));
        assert_eq!(a.tin.to_bits(), b.tin.to_bits(), "{what} {id}: tin");
        assert_eq!(a.tout.to_bits(), b.tout.to_bits(), "{what} {id}: tout");
        assert_eq!(a.calls.to_bits(), b.calls.to_bits(), "{what} {id}: calls");
    }
    assert_eq!(ours.annotations().len(), plan.len(), "{what}: nodes");
    assert_eq!(
        ours.output_tuples.to_bits(),
        full.output_tuples.to_bits(),
        "{what}: output"
    );
    assert_eq!(
        ours.calls_by_service, full.calls_by_service,
        "{what}: calls"
    );
    for metric in CostMetric::all() {
        let want = metric.evaluate(plan, &full, reg).unwrap();
        assert_eq!(
            metric.cost_of(compact).to_bits(),
            want.to_bits(),
            "{what} {metric}: {} vs {want}",
            metric.cost_of(compact)
        );
    }
}

/// The branch-and-bound costs compact topologies and builds a plan only
/// for a contender, so a topology's node table must cost exactly as the
/// plan it materializes into: at ⟨1, …, 1⟩ and along a seeded walk of
/// fetch-factor changes, for every topology of every assignment under
/// both phase-2 heuristics and every metric. This pins the summation
/// order: calls are summed per service in topological order, and the
/// services in name order. The materialized topologies are
/// `enumerate_topologies`' output, in order.
#[test]
fn compact_topologies_annotate_and_cost_exactly_as_their_plans() {
    let mut scenarios = vec![
        (
            "running example".to_owned(),
            entertainment::build_registry(1).unwrap(),
            running_example(),
        ),
        {
            let (reg, q) = travel_conference_weather();
            ("travel C-W".to_owned(), reg, q)
        },
    ];
    for seed in [1u64, 7] {
        for n in 2..=4 {
            let (reg, q) = chain_scenario(n, seed);
            scenarios.push((format!("chain {n} seed {seed}"), reg, q));
            let (reg, q) = star_scenario(n, seed);
            scenarios.push((format!("star {n} seed {seed}"), reg, q));
        }
    }
    let mut checked = 0;
    for (name, reg, query) in &scenarios {
        for a in enumerate_assignments(query, reg, Phase1Heuristic::BoundIsBetter).unwrap() {
            let space = Space::new(a.query.clone(), reg, &a.report).unwrap();
            for heuristic in [
                Phase2Heuristic::ParallelIsBetter,
                Phase2Heuristic::SelectiveFirst,
            ] {
                let topologies = space.topologies(heuristic, DEFAULT_MAX_TOPOLOGIES);
                let plans: Vec<QueryPlan> = topologies
                    .iter()
                    .map(|t| space.materialize(t, |_| 1).unwrap())
                    .collect();
                let listed = enumerate_topologies(
                    &a.query,
                    reg,
                    &a.report,
                    heuristic,
                    DEFAULT_MAX_TOPOLOGIES,
                )
                .unwrap();
                assert!(plans == listed, "{name} {heuristic:?}: materialized plans");
                for (i, (topology, plan)) in topologies.iter().zip(plans).enumerate() {
                    let what = format!("{name} {heuristic:?} topology {i}");
                    let mut compact = space.annotator(topology, &[]).unwrap();
                    assert_costs_as_its_plan(&compact, &plan, reg, &what);
                    let services: Vec<_> = plan
                        .node_ids()
                        .filter(|id| matches!(plan.node(*id), Ok(PlanNode::Service(_))))
                        .collect();
                    // xorshift64 walk, fully determined by the topology.
                    let mut state = (i as u64 + 1).wrapping_mul(2685821657736338717);
                    let mut next = || {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state
                    };
                    let mut bumped = plan.clone();
                    for step in 0..4 {
                        let id = services[(next() % services.len() as u64) as usize];
                        let fetches = (next() % 6 + 1) as u32;
                        compact.set_fetches(id, fetches).unwrap();
                        if let PlanNode::Service(s) = bumped.node_mut(id).unwrap() {
                            s.fetches = fetches;
                        }
                        let materialized = space
                            .materialize(topology, |id| compact.fetches(id).unwrap_or(1))
                            .unwrap();
                        assert!(materialized == bumped, "{what} step {step}: fetches");
                        assert_costs_as_its_plan(
                            &compact,
                            &bumped,
                            reg,
                            &format!("{what} step {step}"),
                        );
                    }
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 500, "{checked} topologies checked");
}
