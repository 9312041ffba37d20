//! Both schedulers of one plan agree.
//!
//! The deterministic (virtual-time) and pipelined (pool-scheduled)
//! executors interpret the same plan nodes; only the scheduling
//! differs. Over chains, stars, the running example and the Fig. 2
//! diamond — healthy and with a service hard down — and across failure
//! mode and worker count, both must deliver the same multiset of
//! rendered combinations and name the same degraded services, and under
//! `Abort` a downed service must fail both. Both fuse the stars' join
//! chains by default.

use seco_bench::{
    chain_scenario, diamond_plan, registry_without_movie, star_scenario, travel_without_flight,
};
use seco_engine::{
    execute_parallel_session, execute_plan_shared, EngineConfig, FailureMode, SharedState,
};
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
fn both_schedulers_agree_across_the_grid() {
    let (mut rows, mut degraded, mut refused) = (0, 0, 0);
    let (mut fused_det, mut fused_pip) = (0, 0);
    for (name, scenario, downed) in scenarios() {
        for mode in [FailureMode::Abort, FailureMode::Degrade] {
            for workers in [1, 4] {
                let at = format!("{name}: mode={mode:?} workers={workers}");
                let config = EngineConfig::default()
                    .join_k(0)
                    .adaptive(false)
                    .failure_mode(mode);
                let (reg, plan) = scenario();
                let det =
                    execute_plan_shared(&plan, &reg, config, &SharedState::for_daemon(workers));
                let (reg, plan) = scenario();
                let shared = SharedState::for_daemon(workers);
                let pip = execute_parallel_session(&plan, &reg, config, Some(&shared), None);
                if downed && mode == FailureMode::Abort {
                    assert!(det.is_err(), "{at}: deterministic must fail");
                    assert!(pip.is_err(), "{at}: pipelined must fail");
                    refused += 1;
                    continue;
                }
                let det = det.unwrap_or_else(|e| panic!("{at}: deterministic: {e}"));
                let pip = pip.unwrap_or_else(|e| panic!("{at}: pipelined: {e}"));
                assert_eq!(
                    rendered(&det.results),
                    rendered(&pip.results),
                    "{at}: result multisets"
                );
                assert_eq!(det.degraded, pip.degraded, "{at}: degraded services");
                assert_eq!(downed, det.is_degraded(), "{at}: degradation flagged");
                rows += det.results.len();
                degraded += usize::from(det.is_degraded());
                fused_det += det.join_stats.intermediates_elided;
                fused_pip += pip.join_stats.intermediates_elided;
            }
        }
    }
    // The grid met what it is there for.
    assert!(rows > 0, "some combinations");
    assert!(degraded > 0, "a degraded run");
    assert!(refused > 0, "an aborted run");
    assert!(
        fused_det > 0,
        "an n-ary fusion on the deterministic scheduler"
    );
    assert!(fused_pip > 0, "an n-ary fusion on the pipelined scheduler");
}
