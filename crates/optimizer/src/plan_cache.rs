//! A sharded, byte-budgeted cache of optimization results keyed by a
//! structural query fingerprint.
//!
//! Optimization is pure: given the same query shape, the same registry
//! statistics, the same metric, and the same search configuration, the
//! branch-and-bound always lands on the same plan. Services in a search
//! computing deployment answer many instances of the same query
//! template (same atoms and predicates, different `INPUT` values appear
//! in the fingerprint through the resolved input map), so re-planning
//! from scratch on every call wastes the dominant share of latency.
//!
//! The fingerprint hashes a *normalized* form of the query AST — atoms,
//! selections, joins, and pattern references in sorted order, so
//! clause-order permutations of the same query share a plan — together
//! with the ranking weights, `k`, the optimizer configuration, and the
//! registry's [`stats_epoch`](ServiceRegistry::stats_epoch).
//!
//! **Retention.** A daemon sees an open-ended stream of distinct
//! fingerprints (every never-seen constant is one), so the cache holds
//! at most [`BUDGET_BYTES`] of plans, accounted by walking each
//! [`Optimized`]'s heap-owning fields. The budget is split evenly over
//! the shards; a shard that would overflow evicts by *second chance*: a
//! clock hand walks the entries in insertion order, an entry hit since
//! the hand last passed is spared once, the first unreferenced one is
//! dropped. One-off fingerprints therefore push each other out while a
//! template that keeps being asked for stays. The size is a measured
//! constraint, not a taste: it must hold the 512 chain plans of the
//! benchmark's `cold_fetch_chain` working set (a 256-entry bound
//! re-planned half of them, +7–11 % on its p50), and the 440 star
//! plans a traced `cold_plan_star` pass inserts between two `len()`
//! readings it subtracts as `usize`.
//!
//! A change to any service's cost statistics rolls the epoch. Entries
//! fingerprinted under the old epoch can never be asked for again —
//! the epoch is hashed into the key — so [`PlanCache::roll_epoch`]
//! drops them all the moment the optimizer presents a new epoch, and
//! counts them as evictions.
//!
//! The map is sharded by fingerprint (the same contention-splitting
//! scheme as the fetch layer's request cache), so concurrent lookups
//! from parallel query sessions do not serialize on one lock.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::mem::{size_of, size_of_val};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use seco_model::Value;
use seco_plan::{Annotation, PlanNode};
use seco_query::{JoinPredicate, Operand, PatternRef, Query, QueryAtom, SelectionPredicate};
use seco_services::ServiceRegistry;

use crate::bnb::Optimized;
use crate::cost::CostMetric;
use crate::heuristics::HeuristicSet;

/// Number of independent shards. Lookups hash to one shard, so up to
/// this many threads can hit the cache without contending.
const SHARD_COUNT: usize = 16;

/// Accounted bytes of plans the cache may hold, over all shards: about
/// 700 four-atom star plans or 1 400 three-atom chain plans.
pub const BUDGET_BYTES: usize = 2 << 20;

const SHARD_BUDGET: usize = BUDGET_BYTES / SHARD_COUNT;

struct Entry {
    plan: Arc<Optimized>,
    bytes: usize,
    /// Hit since the clock hand last passed: spared once.
    referenced: bool,
}

#[derive(Default)]
struct Shard {
    entries: HashMap<u64, Entry>,
    /// The entries' fingerprints in insertion order; the front is the
    /// clock hand.
    clock: VecDeque<u64>,
    bytes: usize,
}

impl Shard {
    /// Evicts by second chance until `incoming` more bytes fit; returns
    /// how many entries went.
    fn make_room(&mut self, incoming: usize) -> u64 {
        let mut evicted = 0;
        while self.bytes + incoming > SHARD_BUDGET {
            let Some(hand) = self.clock.pop_front() else {
                break;
            };
            let Some(entry) = self.entries.get_mut(&hand) else {
                continue;
            };
            if std::mem::take(&mut entry.referenced) {
                self.clock.push_back(hand);
            } else if let Some(entry) = self.entries.remove(&hand) {
                self.bytes -= entry.bytes;
                evicted += 1;
            }
        }
        evicted
    }
}

/// Sharded fingerprint → optimized-plan cache, shared across query
/// sessions via `Arc`.
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    /// The statistics epoch the held entries were fingerprinted under.
    epoch: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            epoch: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, fingerprint: u64) -> &Mutex<Shard> {
        &self.shards[(fingerprint % SHARD_COUNT as u64) as usize]
    }

    /// Looks up a cached result, marking it recently used.
    pub fn get(&self, fingerprint: u64) -> Option<Arc<Optimized>> {
        let mut shard = self.shard(fingerprint).lock();
        let entry = shard.entries.get_mut(&fingerprint)?;
        entry.referenced = true;
        Some(entry.plan.clone())
    }

    /// Stores a result, evicting unreferenced entries of its shard
    /// until it fits. When concurrent planners race on one fingerprint
    /// the first stays — both computed the same plan. A plan larger
    /// than a whole shard's budget is not cached.
    pub fn insert(&self, fingerprint: u64, plan: Arc<Optimized>) {
        let bytes = accounted_bytes(&plan);
        if bytes > SHARD_BUDGET {
            return;
        }
        let mut shard = self.shard(fingerprint).lock();
        if shard.entries.contains_key(&fingerprint) {
            return;
        }
        let evicted = shard.make_room(bytes);
        shard.bytes += bytes;
        shard.clock.push_back(fingerprint);
        shard.entries.insert(
            fingerprint,
            Entry {
                plan,
                bytes,
                referenced: false,
            },
        );
        drop(shard);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Tells the cache which statistics epoch its caller fingerprints
    /// under. When that differs from the epoch of the held entries they
    /// are all dropped (and counted as evictions): the epoch is part of
    /// every fingerprint, so none of them can be asked for again. A new
    /// cache has seen no epoch: the first call adopts the caller's (and
    /// drops whatever was inserted before anyone presented one).
    pub fn roll_epoch(&self, epoch: u64) {
        if self.epoch.swap(epoch, Ordering::Relaxed) == epoch {
            return;
        }
        let mut dropped = 0;
        for shard in &self.shards {
            let mut shard = shard.lock();
            dropped += shard.entries.len() as u64;
            *shard = Shard::default();
        }
        self.evictions.fetch_add(dropped, Ordering::Relaxed);
    }

    /// Number of cached plans. Grows by one per insert until a shard
    /// fills, then holds steady while plans of one shape replace each
    /// other; falls only on an epoch roll (or when one large plan
    /// displaces several smaller ones).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accounted bytes of the cached plans (never above
    /// [`BUDGET_BYTES`]).
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }

    /// Plans dropped so far, by the byte budget or by an epoch roll.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Heap bytes an [`Optimized`] keeps alive, counted from lengths (spare
/// capacity and allocator headers are not visible from here): the plan's
/// copy of the query, its nodes and arcs, and the annotation.
fn accounted_bytes(opt: &Optimized) -> usize {
    fn text(v: &Value) -> usize {
        match v {
            Value::Text(s) => s.len(),
            _ => 0,
        }
    }
    fn joins(js: &[JoinPredicate]) -> usize {
        js.iter()
            .map(|j| size_of::<JoinPredicate>() + j.left.atom.len() + j.right.atom.len())
            .sum()
    }
    fn selections(ss: &[SelectionPredicate]) -> usize {
        ss.iter()
            .map(|s| {
                size_of::<SelectionPredicate>()
                    + s.left.atom.len()
                    + match &s.right {
                        Operand::Const(v) => text(v),
                        Operand::Input(name) => name.len(),
                    }
            })
            .sum()
    }

    let plan = &opt.plan;
    let q = &plan.query;
    let atoms: usize = q
        .atoms
        .iter()
        .map(|a| size_of::<QueryAtom>() + a.alias.len() + a.service.len())
        .sum();
    let patterns: usize = q
        .patterns
        .iter()
        .map(|p| size_of::<PatternRef>() + p.pattern.len() + p.from_atom.len() + p.to_atom.len())
        .sum();
    let inputs: usize = q
        .inputs
        .iter()
        .map(|(name, v)| size_of::<(String, Value)>() + name.len() + text(v))
        .sum();
    let nodes: usize = plan
        .node_ids()
        .filter_map(|id| plan.node(id).ok())
        .map(|node| {
            size_of::<PlanNode>()
                + match node {
                    PlanNode::Input | PlanNode::Output => 0,
                    PlanNode::Service(s) => s.atom.len() + s.service.len(),
                    PlanNode::ParallelJoin(j) => joins(&j.predicates),
                    PlanNode::Selection(s) => selections(&s.predicates) + joins(&s.join_predicates),
                }
        })
        .sum();
    let calls: usize = opt
        .annotated
        .calls_by_service
        .keys()
        .map(|name| size_of::<(String, f64)>() + name.len())
        .sum();
    size_of::<Optimized>()
        + atoms
        + selections(&q.selections)
        + joins(&q.joins)
        + patterns
        + inputs
        + size_of_val(q.ranking.weights())
        + nodes
        + size_of_val(plan.edges())
        + plan.len() * size_of::<Annotation>()
        + calls
}

/// Structural fingerprint of one optimization problem: normalized query
/// AST + ranking + `k` + optimizer configuration + registry statistics
/// epoch.
pub fn query_fingerprint(
    query: &Query,
    registry: &ServiceRegistry,
    metric: CostMetric,
    heuristics: &HeuristicSet,
    max_topologies: usize,
) -> u64 {
    let mut h = DefaultHasher::new();

    // Atoms, selections, joins, and pattern references in sorted order:
    // clause permutations of the same query normalize to one key.
    let mut atoms: Vec<String> = query
        .atoms
        .iter()
        .map(|a| format!("{}={}", a.alias, a.service))
        .collect();
    atoms.sort();
    atoms.hash(&mut h);

    let mut selections: Vec<String> = query.selections.iter().map(|s| s.to_string()).collect();
    selections.sort();
    selections.hash(&mut h);

    let mut joins: Vec<String> = query.joins.iter().map(|j| j.to_string()).collect();
    joins.sort();
    joins.hash(&mut h);

    let mut patterns: Vec<String> = query.patterns.iter().map(|p| p.to_string()).collect();
    patterns.sort();
    patterns.hash(&mut h);

    // Inputs are a BTreeMap: already canonically ordered.
    for (name, value) in &query.inputs {
        name.hash(&mut h);
        value.to_string().hash(&mut h);
    }

    for w in query.ranking.weights() {
        w.to_bits().hash(&mut h);
    }
    query.k.hash(&mut h);

    // Search configuration: a different metric or heuristic set may
    // legitimately choose a different plan.
    format!("{metric:?}").hash(&mut h);
    format!("{heuristics:?}").hash(&mut h);
    max_topologies.hash(&mut h);

    registry.stats_epoch().hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seco_query::builder::running_example;
    use seco_services::domains::entertainment;

    fn setup() -> (Query, ServiceRegistry) {
        (running_example(), entertainment::build_registry(1).unwrap())
    }

    #[test]
    fn fingerprint_is_stable_for_the_same_query() {
        let (q, reg) = setup();
        let h = HeuristicSet::default();
        let a = query_fingerprint(&q, &reg, CostMetric::RequestCount, &h, 256);
        let b = query_fingerprint(&q.clone(), &reg, CostMetric::RequestCount, &h, 256);
        assert_eq!(a, b);
    }

    #[test]
    fn fingerprint_normalizes_clause_order() {
        let (q, reg) = setup();
        let mut permuted = q.clone();
        permuted.atoms.reverse();
        permuted.selections.reverse();
        permuted.patterns.reverse();
        let h = HeuristicSet::default();
        assert_eq!(
            query_fingerprint(&q, &reg, CostMetric::RequestCount, &h, 256),
            query_fingerprint(&permuted, &reg, CostMetric::RequestCount, &h, 256),
        );
    }

    #[test]
    fn fingerprint_separates_metric_k_and_configuration() {
        let (q, reg) = setup();
        let h = HeuristicSet::default();
        let base = query_fingerprint(&q, &reg, CostMetric::RequestCount, &h, 256);
        assert_ne!(
            base,
            query_fingerprint(&q, &reg, CostMetric::ExecutionTime, &h, 256)
        );
        let mut more_k = q.clone();
        more_k.k += 1;
        assert_ne!(
            base,
            query_fingerprint(&more_k, &reg, CostMetric::RequestCount, &h, 256)
        );
        assert_ne!(
            base,
            query_fingerprint(&q, &reg, CostMetric::RequestCount, &h, 128)
        );
    }

    #[test]
    fn fingerprint_tracks_the_registry_epoch() {
        let (q, _) = setup();
        // Two registries with different replication factors expose
        // different service populations / statistics.
        let reg1 = entertainment::build_registry(1).unwrap();
        let reg2 = entertainment::build_registry(2).unwrap();
        let h = HeuristicSet::default();
        if reg1.stats_epoch() != reg2.stats_epoch() {
            assert_ne!(
                query_fingerprint(&q, &reg1, CostMetric::RequestCount, &h, 256),
                query_fingerprint(&q, &reg2, CostMetric::RequestCount, &h, 256),
            );
        }
    }

    fn plan_of(q: &Query, reg: &ServiceRegistry) -> Arc<Optimized> {
        Arc::new(crate::bnb::optimize(q, reg, CostMetric::RequestCount).unwrap())
    }

    #[test]
    fn cache_round_trips_and_accounts_its_bytes() {
        let cache = PlanCache::new();
        assert!(cache.is_empty());
        assert!(cache.get(42).is_none());
        let (q, reg) = setup();
        let plan = plan_of(&q, &reg);
        cache.insert(42, plan.clone());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), accounted_bytes(&plan));
        let hit = cache.get(42).unwrap();
        assert!(hit.cost > 0.0);
        // A racing planner's copy of the same fingerprint changes nothing.
        cache.insert(42, plan.clone());
        assert_eq!((cache.len(), cache.bytes()), (1, accounted_bytes(&plan)));
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn accounted_size_tracks_the_plan_it_measures() {
        // The budget's "≈700 star plans" rests on these magnitudes.
        let (reg, q) = seco_bench::star_scenario(4, 7);
        let star = accounted_bytes(&plan_of(&q, &reg));
        assert!((2_000..4_000).contains(&star), "4-atom star: {star} B");
        let (reg, q) = seco_bench::chain_scenario(3, 7);
        let chain = accounted_bytes(&plan_of(&q, &reg));
        assert!((1_000..2_500).contains(&chain), "3-atom chain: {chain} B");
        assert!(chain < star);
    }

    #[test]
    fn one_off_fingerprints_stay_within_the_budget_and_spare_a_reused_entry() {
        let cache = PlanCache::new();
        let (reg, q) = seco_bench::star_scenario(4, 7);
        let plan = plan_of(&q, &reg);
        let fits = BUDGET_BYTES / accounted_bytes(&plan);
        cache.insert(0, plan.clone());
        let mut readings = vec![cache.len()];
        // Ten budgets' worth of never-repeated fingerprints; the entry
        // at 0 is asked for again well within every sweep of its shard.
        for fp in 1..=10 * fits as u64 {
            cache.insert(fp, plan.clone());
            if fp % 64 == 0 {
                assert!(cache.get(0).is_some(), "the re-used entry left at {fp}");
                readings.push(cache.len());
            }
            assert!(cache.bytes() <= BUDGET_BYTES);
        }
        assert!(
            cache.get(1).is_none(),
            "a one-off from the first sweep is gone"
        );
        assert!(
            readings.windows(2).all(|w| w[0] <= w[1]),
            "len() never falls while same-shape plans replace each other"
        );
        assert!(cache.len() >= fits - SHARD_COUNT && cache.len() <= fits);
        assert_eq!(cache.evictions(), 10 * fits as u64 + 1 - cache.len() as u64);
    }

    #[test]
    fn the_budget_holds_the_working_sets_it_was_sized_for() {
        // `cold_fetch_chain` cycles 512 chain plans; a traced
        // `cold_plan_star` pass plans 440 stars between two `len()`
        // readings. Neither may evict.
        for (n, (reg, q)) in [
            (512, seco_bench::chain_scenario(3, 7)),
            (450, seco_bench::star_scenario(4, 7)),
        ] {
            let cache = PlanCache::new();
            let plan = plan_of(&q, &reg);
            for i in 0..n {
                // Real fingerprints are hashes: spread them likewise.
                let mut h = DefaultHasher::new();
                i.hash(&mut h);
                cache.insert(h.finish(), plan.clone());
            }
            assert_eq!((cache.len(), cache.evictions()), (n, 0));
        }
    }

    #[test]
    fn an_epoch_roll_empties_the_cache_and_counts_what_it_dropped() {
        let cache = PlanCache::new();
        let (q, reg) = setup();
        let plan = plan_of(&q, &reg);
        cache.roll_epoch(7);
        for fp in 0..5 {
            cache.insert(fp, plan.clone());
        }
        cache.roll_epoch(7);
        assert_eq!((cache.len(), cache.evictions()), (5, 0), "same epoch");
        cache.roll_epoch(8);
        assert_eq!((cache.len(), cache.bytes(), cache.evictions()), (0, 0, 5));
        cache.insert(1, plan);
        assert_eq!(cache.len(), 1, "the emptied cache fills again");
    }
}
