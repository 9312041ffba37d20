//! Allocation budget of the warm serving path and of a cold plan:
//! counts, never timings.
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

use search_computing::prelude::*;
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

/// The 4-chain: 1 130 requests (1.81 per combination — one per
/// composite built, one per fetched chunk, the fixed cost of a pass;
/// 1 166 while each pipe stage compiled the plan's predicate set
/// itself, 1 184 before `QueryPlan::validate` and `topo_order` stopped
/// allocating per node), pinned with no headroom.
const CHAIN4_PER_COMBINATION: f64 = 1.81;

#[test]
fn a_warm_chain_builds_each_combination_in_under_three_allocations() {
    let (allocations, combinations) = warm_execution(chain_scenario(4, 11));
    let per = report("chain4", allocations, combinations);
    assert!(combinations >= 100, "{combinations} combinations");
    assert!(
        per <= CHAIN4_PER_COMBINATION && CHAIN4_PER_COMBINATION <= 3.0,
        "{per:.2} allocations per delivered combination"
    );
}

/// The 3-star with its join chain fused into one n-ary pass: 340
/// requests, 24.29 per combination (26.36 while each pipe stage
/// compiled the plan's predicate set itself; 29.14 before
/// `QueryPlan::validate`, `topo_order` and `atoms_at` stopped
/// allocating per node; 41.57 as a binary cascade, which builds the
/// first join's intermediates), pinned with no headroom; half the
/// parent's figure is 42.6.
const STAR3_PER_COMBINATION: f64 = 24.29;

#[test]
fn a_warm_star_allocates_at_most_half_of_what_the_parent_did() {
    let (allocations, combinations) = warm_execution(star_scenario(3, 11));
    let per = report("star3", allocations, combinations);
    assert!(combinations >= 10, "{combinations} combinations");
    assert!(
        per <= STAR3_PER_COMBINATION && STAR3_PER_COMBINATION <= STAR3_PARENT_PER_COMBINATION / 2.0,
        "{per:.2} allocations per delivered combination, parent {STAR3_PARENT_PER_COMBINATION}"
    );
}

/// The 2-star: one lone parallel join, which runs the binary tile. 278
/// requests for its 24 combinations (11.58 each; 12.08 while each pipe
/// stage compiled the plan's predicate set itself; 13.00 before
/// `QueryPlan::validate`, `topo_order` and `atoms_at` stopped allocating
/// per node, 13.50 with a hashed per-chunk index and pattern
/// bookkeeping for a pattern-free query), pinned with no headroom.
const STAR2_PER_COMBINATION: f64 = 11.59;

#[test]
fn a_warm_lone_join_keeps_its_tile_allocations_pinned() {
    let (allocations, combinations) = warm_execution(star_scenario(2, 11));
    let per = report("star2", allocations, combinations);
    assert!(combinations >= 10, "{combinations} combinations");
    assert!(
        per <= STAR2_PER_COMBINATION,
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

/// The parent commit's figures, measured by `cold_plan` on it (release
/// build): 89 059 heap requests for the 4-star's 126 topologies, 594
/// for the 4-chain's one. Phase 2 carried a whole `QueryPlan` (its
/// `Query` cloned) in every state and built string signatures, every
/// topology was validated and analyzed again by its annotator and
/// hashed into a phase-3 memo, and every trial vector was a key.
const STAR4_COLD_PLAN_PARENT: u64 = 89_059;
const CHAIN4_COLD_PLAN_PARENT: u64 = 594;

/// The 4-star: 12 695 requests (12 691 in a release build), pinned with
/// no headroom. About 30 of the 100 per topology are the `Query` clone
/// every emitted `QueryPlan` owns.
const STAR4_COLD_PLAN: u64 = 12_695;

#[test]
fn a_cold_star_plan_makes_at_most_half_the_parents_heap_requests() {
    let allocations = cold_plan("star4", star_scenario(4, 7));
    assert!(
        allocations <= STAR4_COLD_PLAN && 2 * STAR4_COLD_PLAN <= STAR4_COLD_PLAN_PARENT,
        "{allocations} heap requests for one cold plan, parent {STAR4_COLD_PLAN_PARENT}"
    );
}

/// The 4-chain: 218 requests, pinned with no headroom.
const CHAIN4_COLD_PLAN: u64 = 218;

#[test]
fn a_cold_chain_plan_keeps_its_heap_requests_pinned() {
    let allocations = cold_plan("chain4", chain_scenario(4, 7));
    assert!(
        allocations <= CHAIN4_COLD_PLAN && CHAIN4_COLD_PLAN <= CHAIN4_COLD_PLAN_PARENT,
        "{allocations} heap requests for one cold plan, parent {CHAIN4_COLD_PLAN_PARENT}"
    );
}
