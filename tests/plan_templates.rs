//! A plan cache keyed by query shape: one search serves every query
//! that differs from it only in constant values.
//!
//! The cache key masks each constant to its type and each `INPUT`
//! value likewise, so a hit hands back a plan searched for other
//! constants, instantiated with the caller's. That is sound only if no
//! decision of the search reads a value. These seeded properties check
//! it where it shows: for random constants and `INPUT` values, the
//! instantiated hit equals a fresh, uncached `optimize` of the same
//! query in every field — plan (nodes, fetch factors, query), canonical
//! key, cost bits, annotation.
//!
//! The key also sorts clauses, so a clause-permuted query hits its
//! twin's entry. Which clause binds a service input depends on clause
//! order, so such a hit runs the template's clause order with the
//! caller's clauses: its plan is exactly the search of the query it
//! carries, that query is a clause permutation of the caller's, and
//! every answer it returns satisfies the caller's predicates.

use std::sync::Arc;

use search_computing::optimizer::{PlanCache, SearchStats};
use search_computing::prelude::*;
use search_computing::query::builder::running_example;
use search_computing::query::feasibility::{analyze, BindingSource};
use search_computing::query::predicate::{resolve_predicates, satisfies_available, SchemaMap};
use search_computing::query::{Operand, QualifiedPath, SelectionPredicate};
use search_computing::services::domains::{entertainment, travel};
use seco_bench::{adaptive_query, adaptive_registry, chain_scenario, star_scenario};

/// Random queries per scenario and metric.
const TRIALS: usize = 12;

/// xorshift64: the draws are fully determined by the seed.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A value of `like`'s type, almost surely one no query used.
    fn value_like(&mut self, like: &Value) -> Value {
        let r = self.next();
        match like {
            Value::Null => Value::Null,
            Value::Bool(_) => Value::Bool(r.is_multiple_of(2)),
            Value::Int(_) => Value::Int((r % 2_001) as i64 - 1_000),
            Value::Float(_) => Value::float((r % 10_000) as f64 / 7.0),
            Value::Text(_) => Value::text(format!("v{}", r % 100_000)),
            Value::Date(_) => Value::Date(Date::from_ordinal(730_000 + (r % 5_000) as i64)),
        }
    }
}

/// `query` with every constant and every `INPUT` value redrawn.
fn redrawn(query: &Query, draws: &mut Draws) -> Query {
    let mut q = query.clone();
    for s in &mut q.selections {
        if let Operand::Const(v) = &s.right {
            s.right = Operand::Const(draws.value_like(v));
        }
    }
    for v in q.inputs.values_mut() {
        *v = draws.value_like(v);
    }
    q
}

fn selection(atom: &str, path: &str, op: Comparator, right: Operand) -> SelectionPredicate {
    SelectionPredicate {
        left: QualifiedPath::new(atom, AttributePath::parse(path).expect("a path")),
        op,
        right,
    }
}

/// The travel Conference–Weather pair: a piped chain with a selection
/// on each side.
fn travel_conference_weather() -> (ServiceRegistry, Query) {
    let registry = travel::build_registry(13).expect("registry builds");
    let query = QueryBuilder::new()
        .atom("C", "Conference1")
        .atom("W", "Weather1")
        .pattern("Forecast", "C", "W")
        .select_const("C", "Topic", Comparator::Eq, Value::text("ml"))
        .select_const("W", "AvgTemp", Comparator::Gt, Value::Int(20))
        .build()
        .expect("query is valid");
    (registry, query)
}

/// A 4-star whose selection nodes carry constants: a `Like` on an
/// output attribute, two selections sharing `(atom, path, op)`, and an
/// `INPUT` compared with an output attribute.
fn star_with_filters() -> (ServiceRegistry, Query) {
    let (registry, mut query) = star_scenario(4, 7);
    query.selections.extend([
        selection(
            "A2",
            "Link",
            Comparator::Like,
            Operand::Const(Value::text("h%")),
        ),
        selection(
            "A3",
            "Score",
            Comparator::Gt,
            Operand::Const(Value::float(0.1)),
        ),
        selection(
            "A4",
            "Payload",
            Comparator::Ge,
            Operand::Input("INPUT9".into()),
        ),
        selection(
            "A3",
            "Score",
            Comparator::Gt,
            Operand::Const(Value::float(0.3)),
        ),
    ]);
    query.inputs.insert("INPUT9".into(), Value::text("p"));
    query.k = 1;
    (registry, query)
}

/// A 2-star with an `=` and a `Like` on one input path. The first of
/// them in clause order binds `A1.Key`: an `=` answers the `Like` too,
/// while a `Like` binding leaves both to a selection node.
fn star_with_like_on_an_input() -> (ServiceRegistry, Query) {
    let (registry, mut query) = star_scenario(2, 7);
    query.selections.push(selection(
        "A1",
        "Key",
        Comparator::Like,
        Operand::Const(Value::text("k%")),
    ));
    (registry, query)
}

/// A 3-star whose third atom's input equals a link of each of the
/// others. Which of them pipes into `A3.Key` depends on the order of
/// the atoms and the joins.
fn star_with_two_pipes_into_one_input() -> (ServiceRegistry, Query) {
    let (registry, _) = star_scenario(3, 7);
    let query = QueryBuilder::new()
        .atom("A1", "Star1")
        .atom("A2", "Star2")
        .atom("A3", "Star3")
        .select_const("A1", "Key", Comparator::Eq, Value::text("k1"))
        .select_const("A2", "Key", Comparator::Eq, Value::text("k2"))
        .join("A1", "Link", Comparator::Eq, "A2", "Link")
        .join("A3", "Key", Comparator::Eq, "A2", "Link")
        .join("A3", "Key", Comparator::Eq, "A1", "Link")
        .k(1)
        .build()
        .expect("query is valid");
    (registry, query)
}

/// `query` with every clause list reversed.
fn reversed(query: &Query) -> Query {
    let mut q = query.clone();
    q.atoms.reverse();
    q.selections.reverse();
    q.joins.reverse();
    q.patterns.reverse();
    q
}

fn scenarios() -> Vec<(String, ServiceRegistry, Query)> {
    let (travel_reg, travel_q) = travel_conference_weather();
    let (filter_reg, filter_q) = star_with_filters();
    let (like_reg, like_q) = star_with_like_on_an_input();
    let (pipes_reg, pipes_q) = star_with_two_pipes_into_one_input();
    let mut out = vec![
        (
            "running example".to_owned(),
            entertainment::build_registry(1).expect("registry builds"),
            running_example(),
        ),
        ("travel C-W".to_owned(), travel_reg, travel_q),
        (
            "mart atom".to_owned(),
            adaptive_registry(3, 1.0),
            adaptive_query(),
        ),
        ("star 4 with filters".to_owned(), filter_reg, filter_q),
        (
            "star 2 with = and Like on an input".to_owned(),
            like_reg,
            like_q,
        ),
        (
            "star 3 with two pipes into an input".to_owned(),
            pipes_reg,
            pipes_q,
        ),
    ];
    for seed in [1u64, 7] {
        for n in 2..=4 {
            let (reg, q) = chain_scenario(n, seed);
            out.push((format!("chain {n} seed {seed}"), reg, q));
            let (reg, q) = star_scenario(n, seed);
            out.push((format!("star {n} seed {seed}"), reg, q));
        }
    }
    out
}

/// Every counter of a hit is 0 but `cache_hits`.
fn hit_stats() -> SearchStats {
    SearchStats {
        cache_hits: 1,
        ..SearchStats::default()
    }
}

/// An optimizer over `registry` answering through `cache`.
fn cached<'a>(
    registry: &'a ServiceRegistry,
    metric: CostMetric,
    cache: &Arc<PlanCache>,
) -> Optimizer<'a> {
    let mut opt = Optimizer::new(registry, metric);
    opt.cache = Some(Arc::clone(cache));
    opt
}

#[test]
fn an_instantiated_template_equals_a_fresh_search_for_random_constants() {
    let mut hits = 0;
    for (s, (name, registry, base)) in scenarios().iter().enumerate() {
        for metric in CostMetric::all() {
            let cache = Arc::new(PlanCache::new());
            let opt = cached(registry, metric, &cache);
            let mut draws = Draws(0x9E37_79B9_7F4A_7C15 ^ (s as u64 + 1));
            let template = opt.optimize(base).expect("the scenario plans");
            assert_eq!(template.stats.cache_misses, 1, "{name}: the template");
            for trial in 0..TRIALS {
                let what = format!("{name} {metric} trial {trial}");
                let query = redrawn(base, &mut draws);
                let hit = opt.optimize(&query).expect("plans");
                assert_eq!(hit.stats, hit_stats(), "{what}: a hit searches nothing");
                let fresh = Optimizer::new(registry, metric)
                    .optimize(&query)
                    .expect("plans");
                assert_eq!(
                    hit.plan.canonical_key(),
                    fresh.plan.canonical_key(),
                    "{what}: key"
                );
                assert_eq!(hit.cost.to_bits(), fresh.cost.to_bits(), "{what}: cost");
                assert!(hit.annotated == fresh.annotated, "{what}: annotation");
                assert!(hit.plan.query == fresh.plan.query, "{what}: query");
                assert!(
                    hit.plan == fresh.plan,
                    "{what}: nodes, arcs and fetch factors"
                );
                hits += 1;
            }
            assert_eq!(cache.len(), 1, "{name} {metric}: one shape, one entry");
        }
    }
    assert!(hits >= 900, "{hits} instantiated hits checked");
}

/// `a` and `b` hold the same items, counted with multiplicity.
fn same_items<T: PartialEq>(a: &[T], b: &[T]) -> bool {
    let count = |xs: &[T], x: &T| xs.iter().filter(|y| *y == x).count();
    a.len() == b.len() && a.iter().all(|x| count(a, x) == count(b, x))
}

/// `ran` is `asked` with its clauses reordered (and its atoms bound to
/// interfaces, which may rename a mart).
fn is_clause_permutation(ran: &Query, asked: &Query) -> bool {
    let aliases = |q: &Query| q.atoms.iter().map(|a| a.alias.clone()).collect::<Vec<_>>();
    same_items(&aliases(ran), &aliases(asked))
        && same_items(&ran.selections, &asked.selections)
        && same_items(&ran.joins, &asked.joins)
        && same_items(&ran.patterns, &asked.patterns)
        && ran.inputs == asked.inputs
        && ran.k == asked.k
}

#[test]
fn a_clause_permuted_query_runs_its_twins_plan_over_its_own_clauses() {
    for (s, (name, registry, base)) in scenarios().iter().enumerate() {
        let metric = CostMetric::RequestCount;
        let cache = Arc::new(PlanCache::new());
        let opt = cached(registry, metric, &cache);
        opt.optimize(base).expect("the scenario plans");
        let mut draws = Draws(0xD1B5_4A32_D192_ED03 ^ (s as u64 + 1));
        for trial in 0..TRIALS {
            let what = format!("{name} trial {trial}");
            let query = redrawn(base, &mut draws);
            let permuted = reversed(&query);
            let twin = opt.optimize(&query).expect("plans");
            let hit = opt.optimize(&permuted).expect("plans");
            assert_eq!(hit.stats, hit_stats(), "{what}");
            assert_eq!(
                hit.plan.canonical_key(),
                twin.plan.canonical_key(),
                "{what}: key"
            );
            assert_eq!(hit.cost.to_bits(), twin.cost.to_bits(), "{what}: cost");
            let ran = &hit.plan.query;
            assert!(
                is_clause_permutation(ran, &permuted),
                "{what}: the hit runs the caller's clauses"
            );
            let fresh = Optimizer::new(registry, metric)
                .optimize(ran)
                .expect("plans");
            assert!(
                hit.plan == fresh.plan,
                "{what}: the hit's plan is the search of the query it runs"
            );
            assert!(hit.annotated == fresh.annotated, "{what}: annotation");
            assert_eq!(hit.cost.to_bits(), fresh.cost.to_bits(), "{what}: cost");
        }
    }
}

/// What binds `atom`'s inputs in `query`: a constant's comparator or a
/// pipe's source atom, per input.
fn bindings(query: &Query, registry: &ServiceRegistry, atom: &str) -> Vec<String> {
    let report = analyze(query, registry).expect("feasible");
    report
        .bindings_of(atom)
        .iter()
        .map(|d| match &d.source {
            BindingSource::Constant { op, .. } => format!("{} {op:?}", d.input),
            BindingSource::Piped { from_atom, .. } => format!("{} from {from_atom}", d.input),
        })
        .collect()
}

#[test]
fn reversing_the_clauses_changes_what_binds_an_input() {
    let (registry, query) = star_with_like_on_an_input();
    assert_ne!(
        bindings(&query, &registry, "A1"),
        bindings(&reversed(&query), &registry, "A1"),
        "= or Like binds A1.Key"
    );
    let (registry, query) = star_with_two_pipes_into_one_input();
    assert_ne!(
        bindings(&query, &registry, "A3"),
        bindings(&reversed(&query), &registry, "A3"),
        "A1 or A2 pipes into A3.Key"
    );
}

/// Whether `combo` satisfies every predicate of `query`, with the
/// atoms' schemas taken from `plan_query` (which binds them to
/// interfaces).
fn answers(
    query: &Query,
    plan_query: &Query,
    registry: &ServiceRegistry,
    combo: &CompositeTuple,
) -> bool {
    let joins = query.expanded_joins(registry).expect("joins expand");
    let predicates = resolve_predicates(query, &joins).expect("predicates resolve");
    let mut schemas = SchemaMap::new();
    for atom in &plan_query.atoms {
        let iface = registry.interface(&atom.service).expect("a service");
        schemas.insert(atom.alias.clone(), &iface.schema);
    }
    satisfies_available(&predicates, combo, &schemas).expect("predicates evaluate")
}

#[test]
fn a_reordered_hit_returns_only_answers_to_the_callers_query() {
    let like = star_with_like_on_an_input();
    let pipes = star_with_two_pipes_into_one_input();
    for (name, (registry, base)) in [("= and Like", like), ("two pipes", pipes)] {
        let cache = Arc::new(PlanCache::new());
        let opt = cached(&registry, CostMetric::RequestCount, &cache);
        opt.optimize(&base).expect("the scenario plans");
        // New constants for A1.Key, in reversed clause order.
        let mut caller = base.clone();
        caller.selections[0].right = Operand::Const(Value::text("k7"));
        let caller = reversed(&caller);
        let hit = opt.optimize(&caller).expect("plans");
        assert_eq!(hit.stats, hit_stats(), "{name}");
        let run = execute_plan(&hit.plan, &registry, EngineConfig::default()).expect("runs");
        assert!(!run.results.is_empty(), "{name}: some answers");
        for combo in &run.results {
            assert!(
                answers(&caller, &hit.plan.query, &registry, combo),
                "{name}: {combo} is no answer to the caller's query"
            );
        }
    }
}
