//! End-to-end tests of the fetch layer: singleflight coalescing under
//! real thread races and the cache/breaker interaction.

use std::sync::{Arc, Barrier};

use search_computing::prelude::*;
use search_computing::services::synthetic::{DomainMap, SyntheticService};
use search_computing::services::{
    CachingService, CallRecorder, Request, ServiceError, VirtualClock,
};
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

/// Without a resilient client nothing in a fetch stack depends on the
/// clock, so both schedulers share one stack per service: bodies that
/// deterministic runs warmed answer a pipelined run of the same plan.
#[test]
fn both_schedulers_share_the_warm_stacks_when_no_client_binds_a_clock() {
    use search_computing::join::score_order;
    use search_computing::server::ServerConfig;
    use seco_bench::chain_scenario;

    let (registry, query) = chain_scenario(4, 42);
    let config = ServerConfig::default();
    assert!(
        config.engine.client.is_none(),
        "the daemon default has none"
    );
    let best = optimize(&query, &registry, config.metric).expect("chain plans");
    let shared = SharedState::new();
    let calls = || registry.total_stats().calls;
    let mut det = Vec::new();
    for _ in 0..3 {
        det = execute_plan_shared(&best.plan, &registry, config.engine, &shared)
            .expect("synthetic services never fail")
            .results;
    }
    let before = calls();
    execute_plan_shared(&best.plan, &registry, config.engine, &shared).expect("warm det run");
    assert_eq!(calls(), before, "a warm deterministic run calls nothing");
    let par = execute_parallel_session(&best.plan, &registry, config.engine, Some(&shared), None)
        .expect("warm pipelined run");
    assert_eq!(
        calls(),
        before,
        "the pipelined run finds the same warm bodies"
    );
    assert_eq!(shared.stack_count(), 4, "one stack per chain service");
    let (mut det, mut par) = (det, par.results);
    det.sort_by(score_order);
    par.sort_by(score_order);
    assert_eq!(par, det);
}
