//! The walk prepares a pipe stage once, however many inputs stream
//! through it. A stage compiles no predicates: it borrows the set the
//! interpreter compiled once for the whole plan.
//!
//! Alone in its binary: the count it reads is process-wide.

use search_computing::join::pipe_stages_prepared;
use search_computing::prelude::*;
use seco_bench::chain_scenario;

#[test]
fn a_pipelined_chain_prepares_each_stage_once() {
    let (registry, query) = chain_scenario(4, 42);
    let best = optimize(&query, &registry, CostMetric::RequestCount).expect("feasible");
    let before = pipe_stages_prepared();
    let out = execute_plan(&best.plan, &registry, EngineConfig::default()).expect("runs");
    assert_eq!(
        pipe_stages_prepared() - before,
        4,
        "one preparation — one request template, over the plan's one compiled predicate set — \
         per service node"
    );
    assert!(out.results.len() > 100, "the stages see many inputs");
}
