//! The suffix re-planner pinned over a grid: six scenarios, every proper
//! prefix of the optimized plan's service atoms (in topological order)
//! as the executed set, and the deviation gate closed (observed =
//! estimate) or open (observed = 100 × estimate). Each row records the
//! returned plan's canonical key and cost bits, whether the re-planner
//! switched plans, and how many topologies it enumerated;
//! `replan_grid.expected` holds the rows the serial re-planner produced
//! before it shared the branch-and-bound's search loop.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;

use search_computing::optimizer::{CostMetric, Optimizer};
use search_computing::plan::PlanNode;
use seco_bench::{adaptive_query, adaptive_registry, chain_scenario, star_scenario};
use seco_query::builder::running_example;
use seco_query::Query;
use seco_services::domains::entertainment;
use seco_services::ServiceRegistry;

/// Optimizes `query` under `planned`, then re-plans it under `actual`
/// for every prefix × gate, one row each.
fn rows(
    label: &str,
    planned: &ServiceRegistry,
    actual: &ServiceRegistry,
    query: &Query,
    out: &mut String,
) {
    let best = Optimizer::new(planned, CostMetric::RequestCount)
        .optimize(query)
        .unwrap();
    let atoms: Vec<String> = best
        .plan
        .topo_order()
        .unwrap()
        .into_iter()
        .filter_map(|id| match best.plan.node(id) {
            Ok(PlanNode::Service(s)) => Some(s.atom.clone()),
            _ => None,
        })
        .collect();
    let opt = Optimizer::new(actual, CostMetric::RequestCount);
    for len in 0..atoms.len() {
        let executed: BTreeSet<String> = atoms[..len].iter().cloned().collect();
        for (gate, factor) in [("closed", 1.0), ("open", 100.0)] {
            let mut observed: BTreeMap<String, (f64, f64)> = BTreeMap::new();
            for alias in &executed {
                let id = best.plan.service_node_of(alias).unwrap();
                let estimate = best.annotated.annotation(id).tout;
                observed.insert(alias.clone(), (estimate, estimate * factor));
            }
            // The output checkpoint opens the gate on the empty prefix too.
            let estimate = best.annotated.output_tuples;
            observed.insert("(output)".to_owned(), (estimate, estimate * factor));
            let re = opt.replan_suffix(&best.plan, &executed, &observed).unwrap();
            writeln!(
                out,
                "{label} prefix=[{}] gate={gate} replans={} topologies={} cost={:016x} key={}",
                atoms[..len].join(","),
                re.stats.replans,
                re.stats.topologies,
                re.cost.to_bits(),
                re.plan.canonical_key()
            )
            .unwrap();
        }
    }
}

#[test]
fn replan_suffix_grid_is_pinned() {
    let mut got = String::new();
    let reg = entertainment::build_registry(1).unwrap();
    rows("running", &reg, &reg, &running_example(), &mut got);
    for n in [3, 4] {
        let (reg, q) = star_scenario(n, 7);
        rows(&format!("star{n}"), &reg, &reg, &q, &mut got);
        let (reg, q) = chain_scenario(n, 7);
        rows(&format!("chain{n}"), &reg, &reg, &q, &mut got);
    }
    let misdeclared = adaptive_registry(1, 10.0);
    rows(
        "adaptive",
        &misdeclared,
        &misdeclared,
        &adaptive_query(),
        &mut got,
    );
    // Planned on the 10×-misdeclared statistics, re-planned on the true
    // ones: the rows where the re-planner can switch.
    let truth = adaptive_registry(1, 1.0);
    rows(
        "adaptive-truth",
        &misdeclared,
        &truth,
        &adaptive_query(),
        &mut got,
    );

    let want = include_str!("replan_grid.expected");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "row {i}");
    }
    assert_eq!(got.lines().count(), want.lines().count(), "row count");
}
