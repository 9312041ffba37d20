//! What a long-lived daemon retains under traffic it has never seen.
//!
//! Every query below carries constants no earlier query used, so every
//! plan is a plan-cache miss and every service request a fetch-cache
//! miss — the traffic that made the daemon's memory linear in its
//! uptime. Both caches are bounded now; this test reads the bounds off
//! the daemon's own `/stats` document after far more one-off queries
//! than either cache can hold. Counts only, no timing.

use search_computing::model::Symbol;
use search_computing::optimizer::plan_cache::BUDGET_BYTES;
use search_computing::prelude::*;
use search_computing::query::Operand;
use search_computing::server::{ServerConfig, ServerState};
use seco_bench::star_scenario;

const QUERIES: usize = 2_000;

/// The value of `"key":<digits>` in a flat JSON document.
fn stat(doc: &str, key: &str) -> u64 {
    let at = doc
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("/stats has no {key}: {doc}"));
    doc[at + key.len() + 3..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{key} is not a count: {doc}"))
}

#[test]
fn never_seen_queries_leave_both_caches_within_their_bounds() {
    let (registry, template) = star_scenario(4, 7);
    let config = ServerConfig::default();
    let (shards, capacity) = config
        .engine
        .fetch
        .cache()
        .expect("the daemon caches fetches");
    let state = ServerState::new(registry, config);

    // One-off requests never leave probation: each stack holds at most
    // an eighth of its capacity (rounded up per shard), nothing proven.
    let unproven_bound = 4 * (shards * capacity.div_ceil(shards).div_ceil(8)) as u64;
    let mut peak_bodies = 0;
    // The interner holds vocabulary (attribute paths, atoms, aliases,
    // service names), never values: once the first queries have named
    // it all, no further query adds a symbol.
    let mut symbols_at_500 = 0;

    for n in 0..QUERIES {
        let mut query = template.clone();
        for (i, selection) in query.selections.iter_mut().enumerate() {
            selection.right = Operand::Const(Value::text(format!("never-seen-{n}-{i}")));
        }
        let (best, cached) = state.plan(&query).expect("plans");
        assert!(!cached, "query {n} is new to the plan cache");
        let (_, degraded, calls) = state
            .execute(&best.plan, false, query.k, None)
            .expect("executes");
        assert!(degraded.is_empty());
        assert!(calls > 0, "query {n} is new to the fetch caches");
        if n % 50 == 0 {
            let doc = state.stats_json();
            let bodies = stat(&doc, "fetch_cache_entries");
            assert_eq!(bodies, stat(&doc, "fetch_cache_unproven"), "{doc}");
            assert!(bodies <= unproven_bound, "{doc}");
            peak_bodies = peak_bodies.max(bodies);
        }
        if n + 1 == 500 {
            symbols_at_500 = Symbol::table_len();
        }
    }
    assert_eq!(
        Symbol::table_len(),
        symbols_at_500,
        "queries 501..{QUERIES} interned new symbols"
    );

    let doc = state.stats_json();
    let plans = stat(&doc, "plan_cache_entries");
    assert!(
        stat(&doc, "plan_cache_bytes") <= BUDGET_BYTES as u64,
        "{doc}"
    );
    assert!(plans > 0 && plans < QUERIES as u64, "{doc}");
    assert_eq!(
        stat(&doc, "plan_cache_evictions") + plans,
        QUERIES as u64,
        "every plan is held or was evicted: {doc}"
    );

    assert_eq!(stat(&doc, "fetch_stacks"), 4, "one stack per star service");
    assert!(peak_bodies > 0, "probation did hold first-time bodies");
    // …and a probation that never sees a hit stops holding bodies.
    assert_eq!(stat(&doc, "fetch_cache_entries"), 0, "{doc}");
    assert_eq!(stat(&doc, "fetch_cache_bytes"), 0, "{doc}");
    assert!(
        stat(&doc, "calls") > 8 * unproven_bound,
        "the traffic was many times what the caches may keep: {doc}"
    );
    state.shared.shutdown();
}
