//! The incremental annotator (`seco_plan::DeltaAnnotator`), which the
//! optimizer's phase 3 runs on, against from-scratch annotation.

use search_computing::plan::{annotate, AnnotationConfig, DeltaAnnotator, PlanNode};
use search_computing::prelude::*;
use seco_query::builder::running_example;
use seco_services::domains::entertainment;

/// Seeded property test: starting from ⟨1,…,1⟩ and applying a random
/// walk of fetch-factor changes, the incremental annotator's state must
/// equal a from-scratch `annotate()` node for node (bit-exact tin/tout/
/// calls), with matching per-service call totals — at every step.
#[test]
fn incremental_annotation_matches_full_reannotation_node_for_node() {
    let reg = entertainment::build_registry(1).unwrap();
    let config = AnnotationConfig::default();
    let base = optimize(&running_example(), &reg, CostMetric::RequestCount)
        .unwrap()
        .plan;
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
