//! End-to-end tests of the fetch layer: singleflight coalescing under
//! real thread races, the cache/breaker interaction, and speculative
//! prefetch staying invisible in the results.

use std::sync::{Arc, Barrier};

use search_computing::plan::{PlanNode, QueryPlan};
use search_computing::prelude::*;
use search_computing::services::synthetic::{DomainMap, SyntheticService};
use search_computing::services::{
    CachingService, CallRecorder, Request, ServiceError, VirtualClock,
};
use seco_bench::chain_scenario;
use seco_model::{Adornment, AttributeDef, DataType, ServiceKind, ServiceSchema, ServiceStats};

fn service(faults: FaultProfile) -> Arc<SyntheticService> {
    let schema = ServiceSchema::new(
        "F1",
        vec![
            AttributeDef::atomic("K", DataType::Text, Adornment::Input),
            AttributeDef::atomic("V", DataType::Text, Adornment::Output),
            AttributeDef::atomic("Score", DataType::Float, Adornment::Ranked),
        ],
    )
    .unwrap();
    let iface = ServiceInterface::new(
        "F1",
        "F",
        schema,
        ServiceKind::Search,
        ServiceStats::new(20.0, 10, 40.0, 1.0).unwrap(),
        ScoreDecay::Linear,
    )
    .unwrap();
    Arc::new(SyntheticService::new(iface, DomainMap::new(), 11).with_fault_profile(faults))
}

fn req(k: &str) -> Request {
    Request::unbound().bind(AttributePath::atomic("K"), Value::text(k))
}

/// Bumps every service node to a multi-chunk budget so the prefetcher
/// has something to run ahead of.
fn widen_fetches(plan: &mut QueryPlan) {
    for id in plan.node_ids().collect::<Vec<_>>() {
        if let Ok(PlanNode::Service(s)) = plan.node_mut(id) {
            s.fetches = 3;
        }
    }
}

#[test]
fn racing_threads_coalesce_to_one_underlying_call() {
    let inner = service(FaultProfile::none());
    let cache = Arc::new(CachingService::sharded(inner.clone(), 64, 8));
    let k = 8;
    let barrier = Barrier::new(k);
    std::thread::scope(|scope| {
        for _ in 0..k {
            let cache = &cache;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                cache.fetch(&req("contested")).unwrap();
            });
        }
    });
    assert_eq!(
        inner.calls_served(),
        1,
        "singleflight must admit exactly one call to the provider"
    );
    assert_eq!(cache.misses(), 1);
    assert_eq!(
        cache.hits() + cache.coalesced(),
        k as u64 - 1,
        "every racer either joined the flight or hit the fresh entry"
    );
}

#[test]
fn cache_hit_after_breaker_opens_issues_no_service_call() {
    // Healthy for the first three calls, hard-down forever after.
    let faults = FaultProfile {
        outage: Some((3, u64::MAX)),
        ..FaultProfile::none()
    };
    let rec = CallRecorder::new(service(faults));
    let client = ServiceClient::for_recorded(rec.clone())
        .retries(0)
        .breaker(2, 1_000_000.0)
        .virtual_clock(VirtualClock::new())
        .build();
    let cache = CachingService::new(Arc::new(client), 64).with_recorder(rec.clone());

    // Warm three keys while the provider is healthy.
    for k in ["warm-a", "warm-b", "warm-c"] {
        cache.fetch(&req(k)).unwrap();
    }
    assert_eq!(rec.stats().calls, 3);

    // Two cold keys reach the down provider and trip the breaker.
    cache.fetch(&req("down-a")).unwrap_err();
    cache.fetch(&req("down-b")).unwrap_err();
    assert_eq!(rec.stats().breaker_trips, 1);
    let calls_before = rec.stats().calls;

    // A cold key now short-circuits without touching the provider…
    let err = cache.fetch(&req("cold")).unwrap_err();
    assert!(matches!(err, ServiceError::CircuitOpen { .. }));
    assert_eq!(rec.stats().short_circuits, 1);
    assert_eq!(rec.stats().calls, calls_before);

    // …but warm keys still answer from the cache, above the breaker,
    // costing no service call at all.
    let resp = cache.fetch(&req("warm-a")).unwrap();
    assert_eq!(resp.elapsed_ms, 0.0, "hits are free");
    assert_eq!(rec.stats().calls, calls_before);
    assert_eq!(rec.stats().cache_hits, 1);
}

#[test]
fn prefetch_is_invisible_in_deterministic_results() {
    let (reg, query) = chain_scenario(3, 7);
    let best = optimize(&query, &reg, CostMetric::RequestCount).unwrap();
    let mut plan = best.plan;
    widen_fetches(&mut plan);
    let run = |fetch: FetchOptions| {
        reg.reset_stats();
        execute_plan(
            &plan,
            &reg,
            EngineConfig {
                fetch,
                ..Default::default()
            },
        )
        .unwrap()
    };
    let off = run(FetchOptions::cached(4));
    let on = run(FetchOptions::cached(4).with_prefetch());
    assert_eq!(
        format!("{:?}", off.results),
        format!("{:?}", on.results),
        "identical seeds must yield byte-identical results, prefetch on or off"
    );
    assert!(
        reg.total_stats().prefetches > 0,
        "speculation must actually have engaged"
    );
}

#[test]
fn parallel_prefetch_agrees_with_deterministic_results() {
    let (reg, query) = chain_scenario(3, 7);
    let best = optimize(&query, &reg, CostMetric::RequestCount).unwrap();
    let mut plan = best.plan;
    widen_fetches(&mut plan);
    let det = execute_plan(
        &plan,
        &reg,
        EngineConfig {
            fetch: FetchOptions::cached(4),
            ..Default::default()
        },
    )
    .unwrap();
    let par = execute_parallel(
        &plan,
        &reg,
        EngineConfig {
            fetch: FetchOptions::cached(4).with_prefetch(),
            ..Default::default()
        },
    )
    .unwrap();
    let sorted = |v: &[CompositeTuple]| {
        let mut s: Vec<String> = v.iter().map(|t| format!("{t:?}")).collect();
        s.sort();
        s
    };
    assert_eq!(
        sorted(&det.results),
        sorted(&par.results),
        "the pipelined executor with background prefetch must produce the same set"
    );
}
