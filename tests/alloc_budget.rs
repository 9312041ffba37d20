//! Allocation budget of the warm serving path, of a cold plan and of a
//! plan-cache hit: counts, never timings.
//!
//! A counting `#[global_allocator]` tallies the heap requests made by
//! the calling thread (every `alloc` and every `realloc`), so the tests
//! of this binary can run side by side and the figures repeat exactly.
//! The deterministic executor under `ServerConfig::default().engine`
//! runs a plan on the thread that calls it, and a one-worker optimizer
//! searches on it, which is what makes a per-thread count the whole
//! count.
//!
//! Each test prints an `alloc_budget:` line; `scripts/ci.sh` echoes
//! them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::sync::Arc;

use search_computing::optimizer::{PlanCache, SearchStats};
use search_computing::prelude::*;
use search_computing::query::Operand;
use search_computing::server::{ServerConfig, Session};
use seco_bench::{chain_scenario, star_scenario};

struct CountingAllocator;

thread_local! {
    static REQUESTS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A thread that is being torn down has no counter left; its
    // requests belong to no measurement.
    let _ = REQUESTS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a `const`-initialized
// thread-local `Cell` without a destructor, so touching it allocates
// nothing and cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Heap requests this thread makes while `f` runs.
fn requests_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = REQUESTS.with(Cell::get);
    let out = f();
    (out, REQUESTS.with(Cell::get) - before)
}

/// Plans the scenario, runs it against one `SharedState` until the
/// response cache answers every fetch, then counts one more run.
/// Returns `(allocations, combinations)`.
fn warm_execution((registry, query): (ServiceRegistry, Query)) -> (u64, usize) {
    let config = ServerConfig::default();
    let best = optimize(&query, &registry, config.metric).expect("scenario is feasible");
    let shared = SharedState::new();
    let run = || {
        execute_plan_shared(&best.plan, &registry, config.engine, &shared)
            .expect("synthetic services never fail")
    };
    // The cache admits a body on its second request: the third run is
    // the first that is all hits, the fourth repeats it.
    for _ in 0..3 {
        run();
    }
    let calls_before = registry.total_stats().calls;
    let (out, allocations) = requests_during(run);
    assert_eq!(
        registry.total_stats().calls,
        calls_before,
        "the measured run is warm: no service is called"
    );
    let combinations = out.results.len();
    drop(out);
    (allocations, combinations)
}

fn report(name: &str, allocations: u64, combinations: usize) -> f64 {
    let per = allocations as f64 / combinations as f64;
    println!(
        "alloc_budget: {name} allocations={allocations} combinations={combinations} per_combination={per:.2}"
    );
    per
}

/// The parent commit's figures, measured by this file's own
/// `warm_execution` on it: 7 542 heap requests for the 4-chain's 625
/// combinations (12.07 each), 1 193 for the 3-star's 14 (85.21 each —
/// a star also builds every single-atom composite and the first join's
/// intermediates, delivered or not, and pays its per-tile set-up for a
/// handful of rows).
const STAR3_PARENT_PER_COMBINATION: f64 = 85.21;

/// The 4-chain: 1 127 requests for its 625 combinations (1.80 each —
/// one per composite built, one per fetched chunk, the fixed cost of a
/// pass; 1 130 before an earlier change lowered the count without
/// re-pinning, 1 166 while each pipe stage compiled the plan's
/// predicate set itself, 1 184 before `QueryPlan::validate` and
/// `topo_order` stopped allocating per node). The warm pins are counts,
/// not ratios, so no rounding leaves headroom.
const CHAIN4_WARM: u64 = 1_127;

#[test]
fn a_warm_chain_builds_each_combination_in_under_three_allocations() {
    let (allocations, combinations) = warm_execution(chain_scenario(4, 11));
    let per = report("chain4", allocations, combinations);
    assert!(combinations >= 100, "{combinations} combinations");
    assert!(
        allocations <= CHAIN4_WARM && per <= 3.0,
        "{per:.2} allocations per delivered combination"
    );
}

/// The 3-star with its join chain fused into one n-ary pass: 324
/// requests for its 14 combinations, 23.14 each (24.29 before an
/// earlier change lowered the count without re-pinning; 26.36 while
/// each pipe stage compiled the plan's predicate set itself; 29.14
/// before `QueryPlan::validate`, `topo_order` and `atoms_at` stopped
/// allocating per node; 41.57 as a binary cascade, which builds the
/// first join's intermediates), pinned with no headroom; half the
/// parent's figure is 42.6.
const STAR3_WARM: u64 = 324;

#[test]
fn a_warm_star_allocates_at_most_half_of_what_the_parent_did() {
    let (allocations, combinations) = warm_execution(star_scenario(3, 11));
    let per = report("star3", allocations, combinations);
    assert!(combinations >= 10, "{combinations} combinations");
    assert!(
        allocations <= STAR3_WARM && per <= STAR3_PARENT_PER_COMBINATION / 2.0,
        "{per:.2} allocations per delivered combination, parent {STAR3_PARENT_PER_COMBINATION}"
    );
}

/// The 2-star: one lone parallel join, which runs the binary tile. 272
/// requests for its 24 combinations (11.33 each; 11.58 before an
/// earlier change lowered the count without re-pinning; 12.08 while
/// each pipe stage compiled the plan's predicate set itself; 13.00
/// before `QueryPlan::validate`, `topo_order` and `atoms_at` stopped
/// allocating per node, 13.50 with a hashed per-chunk index and pattern
/// bookkeeping for a pattern-free query), pinned with no headroom.
const STAR2_WARM: u64 = 272;

#[test]
fn a_warm_lone_join_keeps_its_tile_allocations_pinned() {
    let (allocations, combinations) = warm_execution(star_scenario(2, 11));
    let per = report("star2", allocations, combinations);
    assert!(combinations >= 10, "{combinations} combinations");
    assert!(
        allocations <= STAR2_WARM,
        "{per:.2} allocations per delivered combination"
    );
}

#[test]
fn absorbing_known_rows_allocates_nothing_per_row() {
    let (registry, query) = chain_scenario(4, 11);
    let best = optimize(&query, &registry, CostMetric::RequestCount).expect("feasible");
    let out = execute_plan(&best.plan, &registry, EngineConfig::default()).expect("runs");
    let rows = out.results.len();
    assert!(rows >= 100, "{rows} rows");
    let set = ResultSet::new(out.results.clone(), query.ranking.clone());
    let mut session = Session::new(1, "t".into(), query, best.plan, set);
    // The first absorb indexes the universe; from then on a known row
    // is a lookup.
    assert_eq!(session.absorb(out.results.clone()), 0);
    let again = out.results.clone();
    let (added, allocations) = requests_during(|| session.absorb(again));
    assert_eq!(added, 0);
    println!("alloc_budget: absorb_known allocations={allocations} rows={rows}");
    assert!(
        allocations <= 4,
        "{allocations} allocations for {rows} known rows"
    );
}

/// Heap requests of one serial cold `optimize` (no plan cache, one
/// worker, so the whole search runs on the calling thread). A first
/// call runs unmeasured, so nothing lazily built once per process is
/// charged to the measured one.
fn cold_plan(name: &str, (registry, query): (ServiceRegistry, Query)) -> u64 {
    let plan = || optimize(&query, &registry, CostMetric::RequestCount).expect("feasible");
    let first = plan();
    let (best, allocations) = requests_during(plan);
    assert_eq!(best.cost.to_bits(), first.cost.to_bits());
    assert_eq!(best.stats.instantiated, first.stats.instantiated);
    println!(
        "alloc_budget: cold_plan_{name} allocations={allocations} topologies={}",
        best.stats.topologies
    );
    allocations
}

/// The parent commit's figures, measured by `cold_plan` on it (debug
/// build): 12 695 heap requests for the 4-star's 126 topologies, 218
/// for the 4-chain's one. Phase 2 built and validated a whole
/// `QueryPlan` — its own `Query` clone and `String`s — for every
/// topology, each annotator resolved its services by name, and every
/// propagation re-summed a map keyed by service name. (The commit
/// before made 89 059 and 594: phase 2 carried a `QueryPlan` in every
/// state and built string signatures.)
const STAR4_COLD_PLAN_PARENT: u64 = 12_695;
const CHAIN4_COLD_PLAN_PARENT: u64 = 218;

/// The 4-star: 3 589 requests (3 585 in a release build), pinned with
/// no headroom. The search costs compact topologies and builds a
/// `QueryPlan` only for a topology that can still win — 6 of the 126.
const STAR4_COLD_PLAN: u64 = 3_589;

#[test]
fn a_cold_star_plan_makes_at_most_half_the_parents_heap_requests() {
    let allocations = cold_plan("star4", star_scenario(4, 7));
    assert!(
        allocations <= STAR4_COLD_PLAN && 2 * STAR4_COLD_PLAN <= STAR4_COLD_PLAN_PARENT,
        "{allocations} heap requests for one cold plan, parent {STAR4_COLD_PLAN_PARENT}"
    );
}

/// The 4-chain: 218 requests, pinned with no headroom. Its one
/// topology is a contender, so it is still built once, as before.
const CHAIN4_COLD_PLAN: u64 = 218;

#[test]
fn a_cold_chain_plan_keeps_its_heap_requests_pinned() {
    let allocations = cold_plan("chain4", chain_scenario(4, 7));
    assert!(
        allocations <= CHAIN4_COLD_PLAN && CHAIN4_COLD_PLAN <= CHAIN4_COLD_PLAN_PARENT,
        "{allocations} heap requests for one cold plan, parent {CHAIN4_COLD_PLAN_PARENT}"
    );
}

/// A plan-cache hit for constants the cache has never seen: 54 heap
/// requests — the template's clauses with the caller's constants, its
/// nodes with the caller's selections, the annotation — pinned with no
/// headroom. An
/// exact-repeat hit made 80 while the fingerprint formatted a `String`
/// per clause; a template hit must stay below that.
const STAR4_TEMPLATE_HIT: u64 = 54;

#[test]
fn a_template_hit_binds_new_constants_without_searching() {
    let (registry, query) = star_scenario(4, 7);
    let mut optimizer = Optimizer::new(&registry, CostMetric::RequestCount);
    optimizer.cache = Some(Arc::new(PlanCache::new()));
    let template = optimizer.optimize(&query).expect("feasible");
    assert_eq!(template.stats.cache_misses, 1);
    let mut fresh = query.clone();
    for (i, s) in fresh.selections.iter_mut().enumerate() {
        s.right = Operand::Const(Value::text(format!("never-seen-{i}")));
    }
    let (hit, allocations) = requests_during(|| optimizer.optimize(&fresh).expect("feasible"));
    let expected = SearchStats {
        cache_hits: 1,
        ..SearchStats::default()
    };
    assert_eq!(hit.stats, expected, "a hit searches nothing");
    assert!(
        hit.plan.query == fresh,
        "the hit carries the caller's constants"
    );
    assert_eq!(hit.cost.to_bits(), template.cost.to_bits());
    println!("alloc_budget: template_hit_star4 allocations={allocations}");
    assert!(
        allocations <= STAR4_TEMPLATE_HIT && STAR4_TEMPLATE_HIT <= 80,
        "{allocations} heap requests for one template hit"
    );
}
