//! Determinism and anytime guarantees of the parallel branch-and-bound,
//! plus the incremental-annotation equivalence property.

use search_computing::plan::{annotate, AnnotationConfig, DeltaAnnotator, PlanNode};
use search_computing::prelude::*;
use seco_bench::star_scenario;
use seco_query::builder::running_example;
use seco_services::domains::entertainment;

/// The winner must be byte-identical across worker counts: same cost
/// bits, same canonical plan key, same fetch vector — for every metric.
/// Every run annotates each visited topology in full exactly once.
#[test]
fn winner_is_identical_across_worker_counts_for_all_metrics() {
    let reg = entertainment::build_registry(1).unwrap();
    let q = running_example();
    for metric in CostMetric::all() {
        let mut reference: Option<(u64, String, String)> = None;
        for workers in [1usize, 2, 4, 8] {
            let mut opt = Optimizer::new(&reg, metric);
            opt.workers = workers;
            let best = opt.optimize(&q).unwrap();
            // One full annotation per visited topology: it serves both
            // the lower bound and phase 3, which only propagates deltas.
            let s = &best.stats;
            assert_eq!(
                s.annotate_full,
                s.instantiated + s.pruned,
                "{metric} workers={workers}: full annotations"
            );
            let ascii =
                search_computing::plan::display::ascii(&best.plan, Some(&best.annotated)).unwrap();
            let got = (best.cost.to_bits(), best.plan.canonical_key(), ascii);
            match &reference {
                None => reference = Some(got),
                Some(want) => {
                    assert_eq!(
                        got.0, want.0,
                        "{metric} workers={workers}: cost bits differ"
                    );
                    assert_eq!(
                        got.1, want.1,
                        "{metric} workers={workers}: plan key differs"
                    );
                    assert_eq!(
                        got.2, want.2,
                        "{metric} workers={workers}: rendering differs"
                    );
                }
            }
        }
    }
}

/// Serial and parallel searches must agree with the exhaustive oracle.
#[test]
fn parallel_search_matches_exhaustive() {
    use search_computing::optimizer::exhaustive::optimize_exhaustive;
    let reg = entertainment::build_registry(1).unwrap();
    let q = running_example();
    for metric in CostMetric::all() {
        let ex = optimize_exhaustive(&q, &reg, metric).unwrap();
        let mut opt = Optimizer::new(&reg, metric);
        opt.workers = 4;
        let par = opt.optimize(&q).unwrap();
        assert!(
            (par.cost - ex.cost).abs() < 1e-9,
            "{metric}: parallel={} exhaustive={}",
            par.cost,
            ex.cost
        );
    }
}

/// Anytime semantics under parallelism: a budget of 1 still returns a
/// feasible plan, and the global instantiation counter overshoots by at
/// most the worker count.
#[test]
fn budget_is_global_and_returns_a_feasible_plan() {
    let (reg, q) = star_scenario(3, 11);
    for workers in [1usize, 2, 4, 8] {
        let mut opt = Optimizer::new(&reg, CostMetric::RequestCount);
        opt.workers = workers;
        opt.budget = Some(1);
        let anytime = opt.optimize(&q).unwrap();
        anytime.plan.validate().unwrap();
        assert!(
            anytime.annotated.output_tuples >= q.k as f64,
            "workers={workers}: budgeted plan must still be feasible"
        );
        assert!(
            anytime.stats.instantiated >= 1,
            "workers={workers}: budget=1 must instantiate at least one plan"
        );
        assert!(
            anytime.stats.instantiated <= 1 + workers,
            "workers={workers}: overshoot {} exceeds worker count",
            anytime.stats.instantiated
        );
    }
}

/// Seeded property test: starting from ⟨1,…,1⟩ and applying a random
/// walk of fetch-factor changes, the incremental annotator's state must
/// equal a from-scratch `annotate()` node for node (bit-exact tin/tout/
/// calls), with matching per-service call totals — at every step.
#[test]
fn incremental_annotation_matches_full_reannotation_node_for_node() {
    let reg = entertainment::build_registry(1).unwrap();
    let config = AnnotationConfig::default();
    let base = {
        let mut opt = Optimizer::new(&reg, CostMetric::RequestCount);
        opt.workers = 2;
        opt.optimize(&running_example()).unwrap().plan
    };
    for seed in [3u64, 17, 4242] {
        let mut plan = base.clone();
        // Reset to the minimal vector, the annotator's starting point.
        for id in plan.node_ids().collect::<Vec<_>>() {
            if let PlanNode::Service(s) = plan.node_mut(id).unwrap() {
                s.fetches = 1;
            }
        }
        let services: Vec<_> = plan
            .node_ids()
            .filter(|id| matches!(plan.node(*id), Ok(PlanNode::Service(_))))
            .collect();
        let mut annotator = DeltaAnnotator::new(&plan, &reg, &config).unwrap();
        // xorshift64* walk, fully determined by the seed.
        let mut state = seed.wrapping_mul(2685821657736338717).max(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..40 {
            let id = services[(next() % services.len() as u64) as usize];
            let fetches = (next() % 8 + 1) as u32;
            annotator.set_fetches(id, fetches).unwrap();
            if let PlanNode::Service(s) = plan.node_mut(id).unwrap() {
                s.fetches = fetches;
            }
            let full = annotate(&plan, &reg, &config).unwrap();
            let incremental = annotator.to_annotated();
            for node in plan.node_ids() {
                let a = incremental.annotation(node);
                let b = full.annotation(node);
                assert_eq!(
                    a.tin.to_bits(),
                    b.tin.to_bits(),
                    "seed={seed} step={step} node={node:?}: tin diverged"
                );
                assert_eq!(
                    a.tout.to_bits(),
                    b.tout.to_bits(),
                    "seed={seed} step={step} node={node:?}: tout diverged"
                );
                assert_eq!(
                    a.calls.to_bits(),
                    b.calls.to_bits(),
                    "seed={seed} step={step} node={node:?}: calls diverged"
                );
            }
            assert_eq!(
                incremental.output_tuples.to_bits(),
                full.output_tuples.to_bits(),
                "seed={seed} step={step}: output estimate diverged"
            );
            assert_eq!(
                incremental.calls_by_service, full.calls_by_service,
                "seed={seed} step={step}: per-service call totals diverged"
            );
        }
    }
}
