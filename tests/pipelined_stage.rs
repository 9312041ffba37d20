//! The pipelined executor prepares a pipe stage once, however many
//! inputs stream through it.
//!
//! Alone in its binary: the count it reads is process-wide.

use search_computing::join::pipe_stages_prepared;
use search_computing::prelude::*;
use seco_bench::chain_scenario;

#[test]
fn a_pipelined_chain_prepares_each_stage_once() {
    let (registry, query) = chain_scenario(4, 42);
    let best = optimize(&query, &registry, CostMetric::RequestCount).expect("feasible");
    let sequential = execute_plan(&best.plan, &registry, EngineConfig::default()).expect("runs");
    assert!(sequential.results.len() > 100, "the stages see many inputs");

    let before = pipe_stages_prepared();
    let parallel = execute_parallel(&best.plan, &registry, EngineConfig::default())
        .expect("runs")
        .results;
    assert_eq!(
        pipe_stages_prepared() - before,
        4,
        "one preparation — one predicate compilation, one request template — per service node"
    );
    assert_eq!(parallel.len(), sequential.results.len());
}
