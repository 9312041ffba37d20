//! Work budget of the shipped configuration: counts, never timings.
//!
//! A 4-chain and a 3-star run through `execute_plan_shared` under
//! `ServerConfig::default().engine` — the configuration `seco serve`
//! ships — on daemon state. The registry's counters are pinned for the
//! first run on fresh state (cold: every fetch reaches a service) and
//! for the third (warm: the response cache admits a body on its second
//! request, so the third run is the first it answers in full). The pins
//! are service calls, cache answers, delivered tuples, join work and
//! delivered combinations; a change that moves one on purpose updates
//! the pin and says why.

use search_computing::engine::ExecutionResult;
use search_computing::prelude::*;
use search_computing::server::ServerConfig;
use search_computing::services::CallStats;
use seco_bench::{chain_scenario, star_scenario};

/// What one run added to the registry's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    calls: u64,
    cache_hits: u64,
    coalesced: u64,
    tuples: u64,
    predicate_evals: u64,
    index_builds: u64,
    probes: u64,
    pairs_skipped: u64,
    batch_evals: u64,
    /// The run's own join counters. Unlike the registry's, they
    /// include the tile joins.
    join_index_builds: u64,
    join_probes: u64,
    join_pairs_skipped: u64,
    join_predicate_evals: u64,
    /// Combinations the run delivered.
    combinations: usize,
}

impl Work {
    fn between(before: &CallStats, after: &CallStats, out: &ExecutionResult) -> Self {
        let join = &out.join_stats;
        Work {
            calls: after.calls - before.calls,
            cache_hits: after.cache_hits - before.cache_hits,
            coalesced: after.coalesced - before.coalesced,
            tuples: after.tuples - before.tuples,
            predicate_evals: after.predicate_evals - before.predicate_evals,
            index_builds: after.index_builds - before.index_builds,
            probes: after.probes - before.probes,
            pairs_skipped: after.pairs_skipped - before.pairs_skipped,
            batch_evals: after.batch_evals - before.batch_evals,
            join_index_builds: join.index_builds,
            join_probes: join.probes,
            join_pairs_skipped: join.pairs_skipped,
            join_predicate_evals: join.predicate_evals,
            combinations: out.results.len(),
        }
    }
}

/// Plans the scenario once, then runs it three times on fresh daemon
/// state. Returns the work of the first (cold) and the third (warm) run.
fn cold_and_warm((registry, query): (ServiceRegistry, Query)) -> (Work, Work) {
    let config = ServerConfig::default();
    let best = optimize(&query, &registry, config.metric).expect("scenario is feasible");
    let shared = SharedState::new();
    let run = || {
        let before = registry.total_stats();
        let out = execute_plan_shared(&best.plan, &registry, config.engine, &shared)
            .expect("synthetic services never fail");
        Work::between(&before, &registry.total_stats(), &out)
    };
    let cold = run();
    run();
    let warm = run();
    shared.shutdown();
    (cold, warm)
}

/// Pins `expected`.
fn assert_work(name: &str, scenario: fn() -> (ServiceRegistry, Query), expected: (Work, Work)) {
    let got = cold_and_warm(scenario());
    println!("work_budget: {name} cold={:?}", got.0);
    println!("work_budget: {name} warm={:?}", got.1);
    assert_eq!(got, expected, "{name}");
}

#[test]
fn a_chain_does_the_same_work_on_every_pool_size() {
    let cold = Work {
        calls: 29,
        cache_hits: 127,
        coalesced: 0,
        tuples: 145,
        predicate_evals: 780,
        index_builds: 0,
        probes: 0,
        pairs_skipped: 0,
        batch_evals: 156,
        join_index_builds: 0,
        join_probes: 0,
        join_pairs_skipped: 0,
        join_predicate_evals: 780,
        combinations: 625,
    };
    let warm = Work {
        calls: 0,
        cache_hits: 156,
        coalesced: 0,
        tuples: 0,
        predicate_evals: 780,
        index_builds: 0,
        probes: 0,
        pairs_skipped: 0,
        batch_evals: 156,
        join_index_builds: 0,
        join_probes: 0,
        join_pairs_skipped: 0,
        join_predicate_evals: 780,
        combinations: 625,
    };
    assert_work("chain4", || chain_scenario(4, 7), (cold, warm));
}

#[test]
fn a_star_does_the_same_work_on_every_pool_size() {
    let cold = Work {
        calls: 10,
        cache_hits: 0,
        coalesced: 0,
        tuples: 40,
        predicate_evals: 40,
        index_builds: 0,
        probes: 0,
        pairs_skipped: 0,
        batch_evals: 10,
        join_index_builds: 6,
        join_probes: 105,
        join_pairs_skipped: 372,
        join_predicate_evals: 88,
        combinations: 29,
    };
    let warm = Work {
        calls: 0,
        cache_hits: 10,
        coalesced: 0,
        tuples: 0,
        predicate_evals: 40,
        index_builds: 0,
        probes: 0,
        pairs_skipped: 0,
        batch_evals: 10,
        join_index_builds: 6,
        join_probes: 105,
        join_pairs_skipped: 372,
        join_predicate_evals: 88,
        combinations: 29,
    };
    assert_work("star3", || star_scenario(3, 7), (cold, warm));
}
