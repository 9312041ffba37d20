//! The streamed run delivers the walk's rows.
//!
//! [`execute_parallel_session`] (the daemon's `mode=par`) is the walk
//! with its resilient clients on the wall clock and the output node's
//! rows handed to a sink. Over chains, stars, the running example and
//! the Fig. 2 diamond — healthy and with a service hard down — and
//! under both failure modes, the sink's batches, concatenated, must be
//! the streamed run's own `results` in order, each batch full but the
//! last; those rows must be the plain walk's as a multiset, with the
//! same degraded services; and under `Abort` a downed service must fail
//! both.

use seco_bench::{
    chain_scenario, diamond_plan, registry_without_movie, star_scenario, travel_without_flight,
};
use std::cell::RefCell;

use seco_engine::executor::BATCH_SIZE;
use seco_engine::{
    execute_parallel_session, execute_plan_shared, EngineConfig, FailureMode, SharedState,
};
use seco_model::CompositeTuple;
use seco_optimizer::{optimize, CostMetric};
use seco_plan::QueryPlan;
use seco_query::builder::running_example;
use seco_services::domains::{entertainment, travel};
use seco_services::ServiceRegistry;

type Scenario = Box<dyn Fn() -> (ServiceRegistry, QueryPlan)>;

fn planned(
    (registry, query): (ServiceRegistry, seco_query::Query),
) -> (ServiceRegistry, QueryPlan) {
    let plan = optimize(&query, &registry, CostMetric::RequestCount)
        .expect("the scenario plans")
        .plan;
    (registry, plan)
}

fn running_plan() -> QueryPlan {
    let healthy = entertainment::build_registry(1).expect("registry builds");
    optimize(&running_example(), &healthy, CostMetric::RequestCount)
        .expect("the running example plans")
        .plan
}

/// `(name, scenario, has a downed service)`.
fn scenarios() -> Vec<(String, Scenario, bool)> {
    let mut out: Vec<(String, Scenario, bool)> = Vec::new();
    for n in 2..=5 {
        out.push((
            format!("chain {n}"),
            Box::new(move || planned(chain_scenario(n, 42))),
            false,
        ));
    }
    for n in 2..=4 {
        out.push((
            format!("star {n}"),
            Box::new(move || planned(star_scenario(n, 42))),
            false,
        ));
    }
    out.push((
        "running example".into(),
        Box::new(|| {
            (
                entertainment::build_registry(1).expect("builds"),
                running_plan(),
            )
        }),
        false,
    ));
    out.push((
        "running example, Movie down".into(),
        Box::new(|| (registry_without_movie(), running_plan())),
        true,
    ));
    out.push((
        "diamond".into(),
        Box::new(|| {
            let reg = travel::build_registry(5).expect("builds");
            let plan = diamond_plan(&reg);
            (reg, plan)
        }),
        false,
    ));
    out.push((
        "diamond, Flight down".into(),
        Box::new(|| {
            let reg = travel_without_flight();
            let plan = diamond_plan(&reg);
            (reg, plan)
        }),
        true,
    ));
    out
}

fn rendered(results: &[seco_model::CompositeTuple]) -> Vec<String> {
    let mut rows: Vec<String> = results.iter().map(ToString::to_string).collect();
    rows.sort();
    rows
}

#[test]
fn streamed_runs_deliver_the_walks_rows_across_the_grid() {
    let (mut rows, mut degraded, mut refused) = (0, 0, 0);
    let (mut fused, mut batched) = (0, 0);
    for (name, scenario, downed) in scenarios() {
        for mode in [FailureMode::Abort, FailureMode::Degrade] {
            let at = format!("{name}: mode={mode:?}");
            let config = EngineConfig::default()
                .join_k(0)
                .adaptive(false)
                .failure_mode(mode);
            let (reg, plan) = scenario();
            let walk = execute_plan_shared(&plan, &reg, config, &SharedState::new());
            let (reg, plan) = scenario();
            let batches: RefCell<Vec<Vec<CompositeTuple>>> = RefCell::new(Vec::new());
            let sink = |batch: &[CompositeTuple]| batches.borrow_mut().push(batch.to_vec());
            let shared = SharedState::new();
            let streamed =
                execute_parallel_session(&plan, &reg, config, Some(&shared), Some(&sink));
            if downed && mode == FailureMode::Abort {
                assert!(walk.is_err(), "{at}: the walk must fail");
                assert!(streamed.is_err(), "{at}: the streamed run must fail");
                assert!(batches.borrow().is_empty(), "{at}: nothing streamed");
                refused += 1;
                continue;
            }
            let walk = walk.unwrap_or_else(|e| panic!("{at}: walk: {e}"));
            let streamed = streamed.unwrap_or_else(|e| panic!("{at}: streamed: {e}"));
            let batches = batches.into_inner();
            if let Some((last, full)) = batches.split_last() {
                assert!(
                    !last.is_empty() && last.len() <= BATCH_SIZE,
                    "{at}: last batch"
                );
                assert!(
                    full.iter().all(|b| b.len() == BATCH_SIZE),
                    "{at}: full batches"
                );
            }
            assert_eq!(
                batches.concat(),
                streamed.results,
                "{at}: the sink saw the run's rows in order"
            );
            assert_eq!(
                rendered(&walk.results),
                rendered(&streamed.results),
                "{at}: result multisets"
            );
            assert_eq!(walk.degraded, streamed.degraded, "{at}: degraded services");
            assert_eq!(downed, walk.is_degraded(), "{at}: degradation flagged");
            rows += walk.results.len();
            degraded += usize::from(walk.is_degraded());
            fused += streamed.join_stats.intermediates_elided;
            batched = batched.max(batches.len());
        }
    }
    // The grid met what it is there for.
    assert!(rows > 0, "some combinations");
    assert!(degraded > 0, "a degraded run");
    assert!(refused > 0, "an aborted run");
    assert!(fused > 0, "an n-ary fusion on the streamed run");
    assert!(batched > 2, "a run streamed in many batches");
}
