//! The Fig. 2 scenario: conferences, weather, flights, hotels.
//!
//! Builds the chapter's example plan (exact proliferative Conference,
//! Weather made selective in context by the `AvgTemp > 26` condition,
//! Flight and Hotel joined by merge-scan), annotates it (Fig. 3), and
//! executes it both deterministically and with the pipelined
//! multi-threaded executor.
//!
//! Run with: `cargo run --example conference_trip`

use search_computing::plan::{display, PlanNode, SelectionNode, ServiceNode};
use search_computing::prelude::*;
use search_computing::services::domains::travel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let registry = travel::build_registry(11)?;

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
        .k(10)
        .build()?;
    println!("== The Fig. 2 trip-planning query ==\n{query}\n");

    // Build the Fig. 2 plan by hand (the optimizer would find an
    // equivalent one; the point here is to reproduce the figure).
    let joins = query.expanded_joins(&registry)?;
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
    let j = plan.add(PlanNode::ParallelJoin(search_computing::plan::JoinSpec {
        invocation: Invocation::merge_scan_even(),
        completion: Completion::Rectangular,
        predicates: same_trip,
        selectivity: 1.0,
    }));
    plan.connect(plan.input(), c)?;
    plan.connect(c, w)?;
    plan.connect(w, sel)?;
    plan.connect(sel, f)?;
    plan.connect(sel, h)?;
    plan.connect(f, j)?;
    plan.connect(h, j)?;
    plan.connect(j, plan.output())?;

    // Fig. 3: the fully instantiated (annotated) plan.
    let annotated = annotate(&plan, &registry, &AnnotationConfig::default())?;
    println!("== Fig. 3: fully instantiated plan ==");
    println!("{}", display::ascii(&plan, Some(&annotated))?);

    // Deterministic execution.
    let outcome = execute_plan(&plan, &registry, EngineConfig::default().join_k(10))?;
    println!(
        "deterministic executor: {} combinations, {} calls, {:.0} virtual ms",
        outcome.results.len(),
        outcome.total_calls,
        outcome.critical_ms
    );
    println!("{}", outcome.trace);

    // Pipelined execution on real threads.
    let parallel = execute_parallel(&plan, &registry, EngineConfig::default().join_k(10))?;
    println!(
        "pipelined executor: {} combinations (same set)",
        parallel.results.len()
    );

    for combo in outcome.results.iter().take(5) {
        println!("  {combo}");
    }
    Ok(())
}
