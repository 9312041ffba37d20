//! What a long-lived daemon retains under traffic it has never seen.
//!
//! Every query below has a shape no earlier query had (its own ranking
//! weights) and constants no earlier query used, so every plan is a
//! plan-cache miss and every service request a fetch-cache miss — the
//! traffic that made the daemon's memory linear in its uptime. Both
//! caches are bounded now; this test reads the bounds off the daemon's
//! own `/stats` document after far more one-off queries than either
//! cache can hold. Then never-seen constants of one shape, which the
//! plan cache answers from one entry. Counts only, no timing.

use search_computing::model::Symbol;
use search_computing::optimizer::plan_cache::BUDGET_BYTES;
use search_computing::prelude::*;
use search_computing::query::{Operand, RankingFunction};
use search_computing::server::{ServerConfig, ServerState};
use seco_bench::star_scenario;

const QUERIES: usize = 2_000;

/// Never-seen constants of one shape, after the one-off shapes.
const SAME_SHAPE_QUERIES: usize = 200;

/// `template` with constants no other call passes: the `n`-th of
/// `round`.
fn never_seen(template: &Query, round: &str, n: usize) -> Query {
    let mut query = template.clone();
    for (i, selection) in query.selections.iter_mut().enumerate() {
        selection.right = Operand::Const(Value::text(format!("never-seen-{round}-{n}-{i}")));
    }
    query
}

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
        let mut query = never_seen(&template, "shape", n);
        // The ranking weights are part of the plan's key: one more
        // shape.
        query.ranking = RankingFunction::new(vec![1.0 + n as f64, 1.0, 1.0, 1.0]).expect("weights");
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

    // Never-seen constants of one shape: one plan-cache entry, hit from
    // the second query on, each instantiated with its own constants
    // (which the fetch caches have never seen either).
    let state = ServerState::new(star_scenario(4, 7).0, ServerConfig::default());
    for n in 0..SAME_SHAPE_QUERIES {
        let query = never_seen(&template, "constant", n);
        let (best, cached) = state.plan(&query).expect("plans");
        assert_eq!(
            cached,
            n > 0,
            "query {n}: the shape is cached after the first"
        );
        assert!(
            best.plan.query == query,
            "query {n} runs with its own constants"
        );
        let (_, degraded, calls) = state
            .execute(&best.plan, false, query.k, None)
            .expect("executes");
        assert!(degraded.is_empty());
        assert!(calls > 0, "query {n} is new to the fetch caches");
        assert_eq!(stat(&state.stats_json(), "plan_cache_entries"), 1);
    }
    let doc = state.stats_json();
    assert_eq!(stat(&doc, "plan_cache_evictions"), 0, "{doc}");
    assert_eq!(
        Symbol::table_len(),
        symbols_at_500,
        "constants of one shape interned new symbols"
    );
    state.shared.shutdown();
}
