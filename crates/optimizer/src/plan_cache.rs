//! A sharded, byte-budgeted cache of optimization results keyed by
//! query *shape*.
//!
//! Optimization is pure: given the same query shape, the same registry
//! statistics, the same metric, and the same search configuration, the
//! branch-and-bound always lands on the same plan. By the chapter's
//! cost model (§5) the search reads a query's shape and the services'
//! statistical interfaces, never a constant: phase 1 reads a
//! selection's comparator, phase 2 its comparator, path and the
//! interface's distinct-value hints. Services in a search computing
//! deployment answer many instances of one query template, so the plan
//! is searched once per shape and bound to each caller's constants.
//!
//! The fingerprint ([`query_fingerprint`]) hashes the query with every
//! constant masked to its type and every `INPUT` value likewise —
//! atoms, selections, joins, and pattern references in sorted order, so
//! clause-order permutations of the same query share a plan — together
//! with the ranking weights, `k`, the optimizer configuration, and the
//! registry's [`stats_epoch`](ServiceRegistry::stats_epoch). It hashes
//! borrowed fields and allocates one small vector per clause list. On a
//! hit the cached result is *instantiated* for the caller
//! (`Optimized::instantiate`): its plan runs the template's clauses, in
//! the template's order, with the caller's constants and `INPUT`
//! values paired by shape and occurrence; nodes, fetch factors,
//! annotation and cost are the template's. The template's order
//! matters: which selection or join binds a service input depends on
//! clause order, so a clause-permuted caller runs the reordering of its
//! clauses that the plan was searched for. A caller whose clauses do
//! not pair up with the template's is searched instead.
//! `tests/plan_templates.rs` holds an instantiated hit equal to a fresh
//! search, field for field, for random constants, and a permuted hit
//! equal to the fresh search of the query it runs.
//!
//! **Retention.** The cache holds at most [`BUDGET_BYTES`] of plans,
//! accounted by walking each [`Optimized`]'s heap-owning fields, so the
//! budget bounds the number of distinct *shapes* held, not of queries:
//! never-seen constants of a known shape add nothing. The budget is
//! split evenly over the shards; a shard that would overflow evicts by
//! *second chance*: a clock hand walks the entries in insertion order,
//! an entry hit since the hand last passed is spared once, the first
//! unreferenced one is dropped. One-off shapes therefore push each
//! other out while a template that keeps being asked for stays.
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
use seco_model::{AttributePath, Value};
use seco_plan::{Annotation, PlanNode};
use seco_query::{JoinPredicate, Operand, PatternRef, Query, QueryAtom, SelectionPredicate};
use seco_services::ServiceRegistry;

use crate::bnb::{Optimized, SearchStats};
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

/// What a selection contributes to a query's shape: its atom, path and
/// comparator, and of its operand only the `INPUT` name or the
/// constant's type. Phase 1 and phase 2 read nothing else of it.
type SelectionShape<'q> = (&'q str, &'q AttributePath, u8, OperandShape<'q>);

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum OperandShape<'q> {
    Const(&'static str),
    Input(&'q str),
}

fn selection_shape(s: &SelectionPredicate) -> SelectionShape<'_> {
    let operand = match &s.right {
        Operand::Const(v) => OperandShape::Const(v.type_name()),
        Operand::Input(name) => OperandShape::Input(name),
    };
    (&s.left.atom, &s.left.path, s.op as u8, operand)
}

/// Hashes `items` by `key`, in key order: clause permutations of one
/// query hash alike.
fn hash_sorted<'q, T, K: Ord + Hash>(
    items: &'q [T],
    key: impl Fn(&'q T) -> K,
    h: &mut impl Hasher,
) {
    let mut keys: Vec<K> = items.iter().map(key).collect();
    keys.sort_unstable();
    keys.hash(h);
}

/// Shape fingerprint of one optimization problem: the query with its
/// constants masked (see `SelectionShape`; an `INPUT` value contributes
/// only its type), its atoms, joins and pattern references in sorted
/// order, the ranking weights, `k`, the optimizer configuration and the
/// registry's statistics epoch. Queries that differ only in constant
/// values share a fingerprint, and so a plan.
pub fn query_fingerprint(
    query: &Query,
    registry: &ServiceRegistry,
    metric: CostMetric,
    heuristics: &HeuristicSet,
    max_topologies: usize,
) -> u64 {
    let mut h = DefaultHasher::new();
    hash_sorted(&query.atoms, |a| (&a.alias, &a.service), &mut h);
    hash_sorted(&query.selections, selection_shape, &mut h);
    hash_sorted(
        &query.joins,
        |j| {
            (
                &j.left.atom,
                &j.left.path,
                j.op as u8,
                &j.right.atom,
                &j.right.path,
            )
        },
        &mut h,
    );
    hash_sorted(
        &query.patterns,
        |p| (&p.pattern, &p.from_atom, &p.to_atom),
        &mut h,
    );
    // Inputs are a BTreeMap: already canonically ordered.
    for (name, value) in &query.inputs {
        (name, value.type_name()).hash(&mut h);
    }
    for w in query.ranking.weights() {
        w.to_bits().hash(&mut h);
    }
    query.k.hash(&mut h);
    // Search configuration: a different metric or heuristic set may
    // legitimately choose a different plan.
    metric.hash(&mut h);
    heuristics.hash(&mut h);
    max_topologies.hash(&mut h);
    registry.stats_epoch().hash(&mut h);
    h.finish()
}

/// `a` and `b` hold the same clauses, counted with multiplicity.
fn same_clauses<T: PartialEq>(a: &[T], b: &[T]) -> bool {
    let count = |xs: &[T], x: &T| xs.iter().filter(|y| *y == x).count();
    a.len() == b.len() && a.iter().all(|x| count(a, x) == count(b, x))
}

impl Optimized {
    /// This cached result instantiated for `query`, which has its
    /// shape, or `None` when `query`'s clauses do not pair up with the
    /// template's (a fingerprint collision): the caller then searches.
    ///
    /// The plan runs the template's clauses in the template's order,
    /// each selection replaced by `query`'s selection of the same shape
    /// and occurrence, with `query`'s `INPUT` values. Clause order
    /// decides which selection or join binds a service input, so a
    /// clause-permuted `query` runs as a reordering of its own clauses
    /// that the plan was searched for. The atoms keep the interfaces
    /// phase 1 chose. Nodes, fetch factors, annotation and cost are the
    /// template's, because no phase of the search reads a constant.
    pub(crate) fn instantiate(&self, query: &Query) -> Option<Optimized> {
        let template = &self.plan.query;
        let aliases_match = template.atoms.len() == query.atoms.len()
            && template
                .atoms
                .iter()
                .all(|t| query.atoms.iter().any(|a| a.alias == t.alias));
        if !aliases_match
            || template.selections.len() != query.selections.len()
            || !same_clauses(&template.joins, &query.joins)
            || !same_clauses(&template.patterns, &query.patterns)
            || !template.inputs.keys().eq(query.inputs.keys())
            || template.k != query.k
        {
            return None;
        }
        // The i-th selection of a shape in the template takes the
        // caller's i-th of that shape. Equal lengths make the pairing
        // one to one.
        let mut selections = Vec::with_capacity(query.selections.len());
        for (i, t) in template.selections.iter().enumerate() {
            let shape = selection_shape(t);
            let occurrence = template.selections[..i]
                .iter()
                .filter(|s| selection_shape(s) == shape)
                .count();
            let mine = query
                .selections
                .iter()
                .filter(|s| selection_shape(s) == shape)
                .nth(occurrence)?;
            selections.push(mine.clone());
        }
        let bound = Query {
            atoms: template.atoms.clone(),
            selections,
            joins: template.joins.clone(),
            patterns: template.patterns.clone(),
            inputs: query.inputs.clone(),
            ranking: template.ranking.clone(),
            k: template.k,
        };
        // A node's predicates are copies of template selections. Equal
        // clauses share an atom and a path, so they sit in one node:
        // the i-th copy of a clause there is its i-th occurrence in the
        // template, and `bound` holds the caller's at that position.
        let plan = self.plan.rebind(bound, |bound, predicates| {
            predicates
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let occurrence = predicates[..i].iter().filter(|q| *q == p).count();
                    let (at, _) = template
                        .selections
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| *s == p)
                        .nth(occurrence)?;
                    Some(bound.selections[at].clone())
                })
                .collect()
        })?;
        Some(Optimized {
            plan,
            annotated: self.annotated.clone(),
            cost: self.cost,
            stats: SearchStats {
                cache_hits: 1,
                ..SearchStats::default()
            },
        })
    }
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

    #[test]
    fn fingerprint_ignores_constant_values_but_not_shape() {
        let (q, reg) = setup();
        let h = HeuristicSet::default();
        let fp = |q: &Query| query_fingerprint(q, &reg, CostMetric::RequestCount, &h, 256);
        let base = fp(&q);
        let edited = |edit: &dyn Fn(&mut Query)| {
            let mut q = q.clone();
            edit(&mut q);
            fp(&q)
        };
        let mut star = seco_bench::star_scenario(2, 7).1;
        let star_base = query_fingerprint(&star, &reg, CostMetric::RequestCount, &h, 256);

        // Values do not change the key: an INPUT's, or a constant's.
        assert_eq!(
            base,
            edited(&|q| {
                q.inputs.insert("INPUT1".into(), Value::text("drama"));
            })
        );
        star.selections[0].right = Operand::Const(Value::text("never-seen"));
        assert_eq!(
            star_base,
            query_fingerprint(&star, &reg, CostMetric::RequestCount, &h, 256)
        );

        // Its type does, and so do the comparator, the path, the INPUT
        // name and k.
        star.selections[0].right = Operand::Const(Value::Int(3));
        assert_ne!(
            star_base,
            query_fingerprint(&star, &reg, CostMetric::RequestCount, &h, 256)
        );
        assert_ne!(
            base,
            edited(&|q| {
                q.inputs.insert("INPUT1".into(), Value::Int(1));
            })
        );
        assert_ne!(
            base,
            edited(&|q| q.selections[0].op = seco_model::Comparator::Like)
        );
        assert_ne!(
            base,
            edited(&|q| q.selections[0].left.path = seco_model::AttributePath::atomic("Title"))
        );
        assert_ne!(
            base,
            edited(&|q| q.selections[0].right = Operand::Input("INPUT9".into()))
        );
        assert_ne!(base, edited(&|q| q.k += 1));
    }

    #[test]
    fn a_template_does_not_instantiate_another_shape() {
        let (q, reg) = setup();
        let template = plan_of(&q, &reg);
        let mut same_shape = q.clone();
        same_shape
            .inputs
            .insert("INPUT1".into(), Value::text("drama"));
        let hit = template.instantiate(&same_shape).expect("one shape");
        assert!(hit.plan.query.inputs == same_shape.inputs);

        // What a 64-bit collision could hand over: a template whose
        // clauses do not pair up with the caller's. Each is a miss.
        let edits: [&dyn Fn(&mut Query); 5] = [
            &|q| q.selections[0].op = seco_model::Comparator::Like,
            &|q| {
                q.selections.pop();
            },
            &|q| {
                q.patterns.pop();
            },
            &|q| q.atoms[0].alias = "X".into(),
            &|q| {
                q.inputs.clear();
            },
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut other = q.clone();
            edit(&mut other);
            assert!(template.instantiate(&other).is_none(), "edit {i}");
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
        // Sized while every constant was its own entry: 512 chain
        // plans (`cold_fetch_chain`'s constants) and 440 stars (a
        // traced `cold_plan_star` pass) may not evict. Under shape keys
        // each of those workloads is one entry, and the same room holds
        // as many shapes.
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
