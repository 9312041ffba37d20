//! Shared workload generators for the `repro` experiments and the tests.
//!
//! Experiments need service topologies beyond the two chapter domains:
//! parameterized *chains* (S1 → S2 → … → Sn, each piping into the
//! next) and *stars* (one hub, n − 1 independently reachable services
//! joined in parallel). Both are built from the same synthetic service
//! substrate so every experiment remains deterministic.

pub mod repro;

use std::sync::Arc;

use seco_model::{
    Adornment, AttributeDef, AttributePath, Comparator, ConnectionPattern, DataType, JoinPair,
    ScoreDecay, ServiceInterface, ServiceKind, ServiceSchema, ServiceStats, Tuple, Value,
};
use seco_plan::{Completion, Invocation, JoinSpec, PlanNode, QueryPlan, ServiceNode};
use seco_query::predicate::ResolvedPredicate;
use seco_query::{JoinPredicate, QualifiedPath, Query, QueryBuilder};
use seco_services::domains::{entertainment, travel};
use seco_services::invocation::{ChunkResponse, Request};
use seco_services::synthetic::{DomainMap, FaultProfile, SyntheticService, ValueDomain};
use seco_services::{MisdeclaredService, Service, ServiceError, ServiceRegistry};

/// Builds one search-service interface `name` with a `Key` input, a
/// `Link` output (shared `link` domain for joins), and a ranked score.
pub fn link_service(
    name: &str,
    avg: f64,
    chunk: usize,
    response_ms: f64,
    decay: ScoreDecay,
) -> ServiceInterface {
    let schema = ServiceSchema::new(
        name,
        vec![
            AttributeDef::atomic("Key", DataType::Text, Adornment::Input),
            AttributeDef::atomic("Link", DataType::Text, Adornment::Output),
            AttributeDef::atomic("Payload", DataType::Text, Adornment::Output),
            AttributeDef::atomic("Score", DataType::Float, Adornment::Ranked),
        ],
    )
    .expect("static schema is valid");
    ServiceInterface::new(
        name,
        name.trim_end_matches(|c: char| c.is_ascii_digit()),
        schema,
        ServiceKind::Search,
        ServiceStats::new(avg, chunk, response_ms, 1.0).expect("static stats are valid"),
        decay,
    )
    .expect("static interface is valid")
    .with_hint(AttributePath::atomic("Link"), 16)
}

/// A chain scenario: `Chain1 → Chain2 → … → Chainn`, where each
/// service's `Link` output pipes into the next one's `Key` input.
///
/// Returns the registry and a feasible query over all `n` services with
/// `ChainLinki` connection patterns.
pub fn chain_scenario(n: usize, seed: u64) -> (ServiceRegistry, Query) {
    assert!(n >= 1);
    let mut reg = ServiceRegistry::new();
    let link = ValueDomain::new("link", 16);
    for i in 1..=n {
        let iface = link_service(
            &format!("Chain{i}"),
            20.0,
            5,
            50.0 + 20.0 * i as f64,
            if i % 2 == 0 {
                ScoreDecay::Step {
                    h: 2,
                    high: 0.9,
                    low: 0.1,
                }
            } else {
                ScoreDecay::Linear
            },
        );
        let service = SyntheticService::new(
            iface,
            DomainMap::new().with(AttributePath::atomic("Link"), link.clone()),
            seed ^ ((i as u64) << 8),
        );
        reg.register_service(Arc::new(service))
            .expect("unique names");
    }
    for i in 1..n {
        reg.register_pattern(
            ConnectionPattern::new(
                format!("ChainLink{i}"),
                format!("Chain{i}"),
                format!("Chain{}", i + 1),
                vec![JoinPair::eq(
                    AttributePath::atomic("Link"),
                    AttributePath::atomic("Key"),
                )],
                0.5,
            )
            .expect("static pattern is valid"),
        )
        .expect("unique names");
    }
    let mut qb = QueryBuilder::new().atom("A1", "Chain1").select_const(
        "A1",
        "Key",
        Comparator::Eq,
        Value::text("start"),
    );
    for i in 2..=n {
        qb = qb.atom(&format!("A{i}"), &format!("Chain{i}")).pattern(
            &format!("ChainLink{}", i - 1),
            &format!("A{}", i - 1),
            &format!("A{i}"),
        );
    }
    let query = qb.k(5).build().expect("chain query is valid");
    (reg, query)
}

/// A star scenario: `n` independently reachable search services whose
/// `Link` outputs all join pairwise through a shared domain; the query
/// joins service 1 with each of the others.
pub fn star_scenario(n: usize, seed: u64) -> (ServiceRegistry, Query) {
    assert!(n >= 1);
    let mut reg = ServiceRegistry::new();
    let link = ValueDomain::new("hub", 8);
    for i in 1..=n {
        let iface = link_service(
            &format!("Star{i}"),
            16.0,
            4,
            40.0 + 10.0 * i as f64,
            ScoreDecay::Linear,
        );
        let service = SyntheticService::new(
            iface,
            DomainMap::new().with(AttributePath::atomic("Link"), link.clone()),
            seed ^ ((i as u64) << 4),
        );
        reg.register_service(Arc::new(service))
            .expect("unique names");
    }
    let mut qb = QueryBuilder::new();
    for i in 1..=n {
        qb = qb.atom(&format!("A{i}"), &format!("Star{i}")).select_const(
            &format!("A{i}"),
            "Key",
            Comparator::Eq,
            Value::Text(format!("k{i}")),
        );
    }
    for i in 2..=n {
        qb = qb.join("A1", "Link", Comparator::Eq, &format!("A{i}"), "Link");
    }
    let query = qb.k(5).build().expect("star query is valid");
    (reg, query)
}

/// The adaptive-optimization scenario: a hub service whose *declared*
/// cardinality understates the truth by `misestimate`, and a `Leaf`
/// mart offering two access patterns for the same data — a
/// cheap-per-call pipe (`LeafPipe1`, exact lookup by the hub's link)
/// that wins under the lie, and a single bulk scan (`LeafScan1`) that
/// wins under the truth.
///
/// With `misestimate = 1.0` the registry is *informed* (declared =
/// true); with `misestimate = 10.0` the declared-optimal plan (hub →
/// pipe, est. 140 virtual ms) really costs 1220 virtual ms, while the
/// scan-based parallel plan stays at 150 — exactly the situation
/// mid-flight re-planning exists for.
pub fn adaptive_registry(seed: u64, misestimate: f64) -> ServiceRegistry {
    assert!(misestimate >= 1.0);
    let mut reg = ServiceRegistry::new();
    let link = ValueDomain::new("leaflink", 2);

    // Hub: Key (const input) → ~20 links, 20 ms per chunk. Declared
    // cardinality is the truth divided by `misestimate`.
    let hub_schema = ServiceSchema::new(
        "Hub1",
        vec![
            AttributeDef::atomic("Key", DataType::Text, Adornment::Input),
            AttributeDef::atomic("Link", DataType::Text, Adornment::Output),
            AttributeDef::atomic("Score", DataType::Float, Adornment::Ranked),
        ],
    )
    .expect("static schema is valid");
    let hub_true = ServiceInterface::new(
        "Hub1",
        "Hub",
        hub_schema,
        ServiceKind::Search,
        ServiceStats::new(20.0, 20, 20.0, 1.0).expect("static stats are valid"),
        ScoreDecay::Linear,
    )
    .expect("static interface is valid")
    .with_hint(AttributePath::atomic("Link"), 2);
    let hub_inner = Arc::new(SyntheticService::new(
        hub_true,
        DomainMap::new().with(AttributePath::atomic("Link"), link.clone()),
        seed ^ 0x107,
    ));
    let declared =
        ServiceStats::new(20.0 / misestimate, 20, 20.0, 1.0).expect("static stats are valid");
    reg.register_service(Arc::new(MisdeclaredService::new(hub_inner, declared)))
        .expect("unique names");

    // LeafPipe1: exact lookup piped from Hub.Link — 60 ms per call.
    let pipe_schema = ServiceSchema::new(
        "LeafPipe1",
        vec![
            AttributeDef::atomic("LKey", DataType::Text, Adornment::Input),
            AttributeDef::atomic("Cat", DataType::Text, Adornment::Input),
            AttributeDef::atomic("Payload", DataType::Text, Adornment::Output),
            AttributeDef::atomic("Score", DataType::Float, Adornment::Ranked),
        ],
    )
    .expect("static schema is valid");
    let pipe = ServiceInterface::new(
        "LeafPipe1",
        "Leaf",
        pipe_schema,
        ServiceKind::Search,
        ServiceStats::new(1.0, 1, 60.0, 1.0).expect("static stats are valid"),
        ScoreDecay::Linear,
    )
    .expect("static interface is valid");
    reg.register_service(Arc::new(SyntheticService::new(
        pipe,
        DomainMap::new(),
        seed ^ 0x209,
    )))
    .expect("unique names");

    // LeafScan1: one bulk scan of the whole mart — 150 ms for the lot.
    let scan_schema = ServiceSchema::new(
        "LeafScan1",
        vec![
            AttributeDef::atomic("Cat", DataType::Text, Adornment::Input),
            AttributeDef::atomic("LKey", DataType::Text, Adornment::Output),
            AttributeDef::atomic("Payload", DataType::Text, Adornment::Output),
            AttributeDef::atomic("Score", DataType::Float, Adornment::Ranked),
        ],
    )
    .expect("static schema is valid");
    let scan = ServiceInterface::new(
        "LeafScan1",
        "Leaf",
        scan_schema,
        ServiceKind::Search,
        ServiceStats::new(30.0, 30, 150.0, 1.0).expect("static stats are valid"),
        ScoreDecay::Linear,
    )
    .expect("static interface is valid")
    .with_hint(AttributePath::atomic("LKey"), 2);
    reg.register_service(Arc::new(SyntheticService::new(
        scan,
        DomainMap::new().with(AttributePath::atomic("LKey"), link),
        seed ^ 0x30B,
    )))
    .expect("unique names");

    reg.register_pattern(
        ConnectionPattern::new(
            "Hop",
            "Hub",
            "Leaf",
            vec![JoinPair::eq(
                AttributePath::atomic("Link"),
                AttributePath::atomic("LKey"),
            )],
            0.5,
        )
        .expect("static pattern is valid"),
    )
    .expect("unique names");
    reg
}

/// The query over [`adaptive_registry`]: the `L` atom names the mart
/// (`Leaf`), so the optimizer — and the mid-flight re-planner — choose
/// between the pipe and scan access patterns.
pub fn adaptive_query() -> Query {
    QueryBuilder::new()
        .atom("H", "Hub1")
        .atom("L", "Leaf")
        .pattern("Hop", "H", "L")
        .select_const("H", "Key", Comparator::Eq, Value::text("start"))
        .select_const("L", "Cat", Comparator::Eq, Value::text("c"))
        .k(1)
        .build()
        .expect("adaptive query is valid")
}

/// The join-drift scenario: the informed [`adaptive_registry`] plus a
/// `Side1` service joined to the hub by a `Near` pattern whose declared
/// selectivity (0.01) understates the truth (about 0.47) — the hub and
/// side links share the two-valued `leaflink` domain. Under the lie the
/// hub–side join looks nearly empty, so piping `LeafPipe1` off it looks
/// cheap; only the join's checkpoint can reveal that it is not.
pub fn join_drift_registry(seed: u64) -> ServiceRegistry {
    let mut reg = adaptive_registry(seed, 1.0);
    let schema = ServiceSchema::new(
        "Side1",
        vec![
            AttributeDef::atomic("Key", DataType::Text, Adornment::Input),
            AttributeDef::atomic("Link", DataType::Text, Adornment::Output),
            AttributeDef::atomic("Score", DataType::Float, Adornment::Ranked),
        ],
    )
    .expect("static schema is valid");
    let side = ServiceInterface::new(
        "Side1",
        "Side",
        schema,
        ServiceKind::Search,
        ServiceStats::new(20.0, 20, 20.0, 1.0).expect("static stats are valid"),
        ScoreDecay::Linear,
    )
    .expect("static interface is valid")
    .with_hint(AttributePath::atomic("Link"), 2);
    let domains = DomainMap::new().with(
        AttributePath::atomic("Link"),
        ValueDomain::new("leaflink", 2),
    );
    reg.register_service(Arc::new(SyntheticService::new(side, domains, seed ^ 0x40D)))
        .expect("unique names");
    let link = AttributePath::atomic("Link");
    let pairs = vec![JoinPair::eq(link.clone(), link)];
    reg.register_pattern(
        ConnectionPattern::new("Near", "Hub", "Side", pairs, 0.01)
            .expect("static pattern is valid"),
    )
    .expect("unique names");
    reg
}

/// The query over [`join_drift_registry`]: [`adaptive_query`]'s hub and
/// leaf plus the side atom `S`, joined to the hub by `Near`.
pub fn join_drift_query() -> Query {
    QueryBuilder::new()
        .atom("H", "Hub1")
        .atom("S", "Side1")
        .atom("L", "Leaf")
        .pattern("Near", "H", "S")
        .pattern("Hop", "H", "L")
        .select_const("H", "Key", Comparator::Eq, Value::text("start"))
        .select_const("S", "Key", Comparator::Eq, Value::text("start"))
        .select_const("L", "Cat", Comparator::Eq, Value::text("c"))
        .k(1)
        .build()
        .expect("join-drift query is valid")
}

/// The entertainment registry with Movie hard down; Theatre and
/// Restaurant are healthy.
pub fn registry_without_movie() -> ServiceRegistry {
    let mut reg = ServiceRegistry::new();
    let services = [
        SyntheticService::new(entertainment::movie_interface(), DomainMap::new(), 1)
            .with_failure_every(1),
        SyntheticService::new(entertainment::theatre_interface(), DomainMap::new(), 2),
        SyntheticService::new(entertainment::restaurant_interface(), DomainMap::new(), 3),
    ];
    for service in services {
        reg.register_service(Arc::new(service))
            .expect("unique names");
    }
    reg.register_pattern(entertainment::shows_pattern())
        .expect("unique names");
    reg.register_pattern(entertainment::dinner_place_pattern())
        .expect("unique names");
    reg
}

/// The travel registry of [`diamond_plan`] with Flight hard down.
pub fn travel_without_flight() -> ServiceRegistry {
    let mut reg = ServiceRegistry::new();
    let city = ValueDomain::new("city", 12);
    let conference = DomainMap::new().with(AttributePath::atomic("City"), city);
    let services = [
        SyntheticService::new(travel::conference_interface(), conference, 5 ^ 0x11),
        SyntheticService::new(travel::flight_interface(), DomainMap::new(), 5 ^ 0x13)
            .with_fault_profile(FaultProfile {
                outage: Some((0, u64::MAX)),
                ..FaultProfile::none()
            }),
        SyntheticService::new(travel::hotel_interface(), DomainMap::new(), 5 ^ 0x14),
    ];
    for service in services {
        reg.register_service(Arc::new(service))
            .expect("unique names");
    }
    for pattern in [
        travel::reached_by_pattern(),
        travel::stay_at_pattern(),
        travel::same_trip_pattern(),
    ] {
        reg.register_pattern(pattern).expect("unique names");
    }
    reg
}

/// The Fig. 2 diamond over a travel registry: Conference feeds both
/// Flight and Hotel, whose branches meet in a parallel join.
pub fn diamond_plan(reg: &ServiceRegistry) -> QueryPlan {
    let q = QueryBuilder::new()
        .atom("C", "Conference1")
        .atom("F", "Flight1")
        .atom("H", "Hotel1")
        .pattern("ReachedBy", "C", "F")
        .pattern("StayAt", "C", "H")
        .pattern("SameTrip", "F", "H")
        .select_const("C", "Topic", Comparator::Eq, Value::text("ai"))
        .k(5)
        .build()
        .expect("diamond query is valid");
    let same_trip: Vec<_> = q
        .expanded_joins(reg)
        .expect("the registry knows every pattern")
        .into_iter()
        .filter(|j| j.connects("F", "H"))
        .collect();
    let mut p = QueryPlan::new(q);
    let c = p.add(PlanNode::Service(ServiceNode::new("C", "Conference1")));
    let f = p.add(PlanNode::Service(ServiceNode::new("F", "Flight1")));
    let h = p.add(PlanNode::Service(ServiceNode::new("H", "Hotel1")));
    let j = p.add(PlanNode::ParallelJoin(JoinSpec {
        invocation: Invocation::merge_scan_even(),
        completion: Completion::Triangular,
        predicates: same_trip,
        selectivity: 1.0,
    }));
    for (from, to) in [
        (p.input(), c),
        (c, f),
        (c, h),
        (f, j),
        (h, j),
        (j, p.output()),
    ] {
        p.connect(from, to).expect("the diamond is acyclic");
    }
    p
}

/// Builds a pair of standalone search services for join-method
/// experiments, with configurable decays.
pub fn join_pair(
    decay_x: ScoreDecay,
    decay_y: ScoreDecay,
    total: usize,
    chunk: usize,
    seed: u64,
) -> (Arc<SyntheticService>, Arc<SyntheticService>) {
    join_pair_with_width(decay_x, decay_y, total, chunk, seed, 10)
}

/// [`join_pair`] with an explicit `Link` domain width: the equi-join
/// selectivity is ~`1/width`, so wide domains make sparse joins (few
/// matching pairs) and narrow domains dense ones.
pub fn join_pair_with_width(
    decay_x: ScoreDecay,
    decay_y: ScoreDecay,
    total: usize,
    chunk: usize,
    seed: u64,
    width: usize,
) -> (Arc<SyntheticService>, Arc<SyntheticService>) {
    let link = ValueDomain::new("pairlink", width as u64);
    let make = |name: &str, decay: ScoreDecay, s: u64| {
        Arc::new(SyntheticService::new(
            link_service(name, total as f64, chunk, 50.0, decay),
            DomainMap::new().with(AttributePath::atomic("Link"), link.clone()),
            s,
        ))
    };
    (
        make("PairX1", decay_x, seed ^ 0xA),
        make("PairY1", decay_y, seed ^ 0xB),
    )
}

/// Join-key edge cases for the join kernels' exactness grids. Each
/// side (0, 1, 2, …) has two key columns `K1`, `K2` and a ranked
/// `Score`; its rows come in decreasing score order.
#[derive(Debug, Clone, Copy)]
pub enum KeyEdge {
    /// Two `Text` conjuncts whose values embed a separator character
    /// (U+001F), so distinct value pairs concatenate to one string.
    Separator,
    /// One `Float` conjunct with a raw `NaN` late on every side: it has
    /// no key, and `=` on it is an error.
    NaN,
    /// One conjunct, `Int` on even sides and `Float` on odd ones, whose
    /// values promote to equal numbers (`0 = -0.0`, `2 = 2.0`).
    Promotion,
}

impl KeyEdge {
    /// Every case.
    pub const ALL: [KeyEdge; 3] = [KeyEdge::Separator, KeyEdge::NaN, KeyEdge::Promotion];

    /// Side `side`'s schema, named `name`.
    pub fn schema(self, name: &str, side: usize) -> ServiceSchema {
        let key = match self {
            KeyEdge::Separator => DataType::Text,
            KeyEdge::Promotion if side.is_multiple_of(2) => DataType::Int,
            _ => DataType::Float,
        };
        let attr = |n: &str, t| AttributeDef::atomic(n, t, Adornment::Output);
        let ranked = AttributeDef::atomic("Score", DataType::Float, Adornment::Ranked);
        ServiceSchema::new(name, vec![attr("K1", key), attr("K2", key), ranked])
            .expect("static schema is valid")
    }

    /// The `=` conjuncts joining `left`'s keys to `right`'s.
    pub fn predicates(self, left: &str, right: &str) -> Vec<ResolvedPredicate> {
        let keys: &[&str] = match self {
            KeyEdge::Separator => &["K1", "K2"],
            _ => &["K1"],
        };
        (keys.iter())
            .map(|&k| {
                ResolvedPredicate::Join(JoinPredicate {
                    left: QualifiedPath::new(left, AttributePath::atomic(k)),
                    op: Comparator::Eq,
                    right: QualifiedPath::new(right, AttributePath::atomic(k)),
                })
            })
            .collect()
    }

    /// `n` rows of side `side` under `schema` (see [`KeyEdge::schema`]).
    pub fn rows(self, schema: &ServiceSchema, side: usize, n: usize) -> Vec<Tuple> {
        // K2 repeats K1 where only K1 is joined on.
        let key = |i: usize| -> [Value; 2] {
            let at = i + side;
            let k1 = match self {
                KeyEdge::Separator => {
                    let pool = [
                        ("a\u{1f}tb", "c"),
                        ("a", "b\u{1f}tc"),
                        ("a", "b"),
                        ("b", "c"),
                    ];
                    let (k1, k2) = pool[at % pool.len()];
                    return [Value::text(k1), Value::text(k2)];
                }
                KeyEdge::NaN if i + 2 + side == n => Value::Float(f64::NAN),
                KeyEdge::NaN => Value::Float([1.0, 2.0, 3.0][at % 3]),
                KeyEdge::Promotion if side.is_multiple_of(2) => Value::Int([-1, 0, 2, 3][at % 4]),
                KeyEdge::Promotion => Value::Float([-1.0, -0.0, 2.0, 0.5, 3.0][at % 5]),
            };
            [k1.clone(), k1]
        };
        (0..n)
            .map(|i| {
                let [k1, k2] = key(i);
                let score = 1.0 - i as f64 / n as f64;
                Tuple::builder(schema)
                    .set("K1", k1)
                    .set("K2", k2)
                    .set("Score", Value::Float(score))
                    .score(score)
                    .source_rank(i)
                    .build()
                    .expect("edge rows conform")
            })
            .collect()
    }

    /// A search service named `name` serving `n` rows of side `side` in
    /// columnar chunks of `chunk`.
    pub fn service(self, name: &str, side: usize, n: usize, chunk: usize) -> Arc<dyn Service> {
        let schema = self.schema(name, side);
        let rows = self.rows(&schema, side, n);
        let iface = ServiceInterface::new(
            name,
            name,
            schema,
            ServiceKind::Search,
            ServiceStats::new(n as f64, chunk, 1.0, 1.0).expect("static stats are valid"),
            ScoreDecay::Linear,
        )
        .expect("static interface is valid");
        Arc::new(FixedRows { iface, rows })
    }
}

/// A search service over fixed rows whose chunk bodies are columnar.
struct FixedRows {
    iface: ServiceInterface,
    rows: Vec<Tuple>,
}

impl Service for FixedRows {
    fn interface(&self) -> &ServiceInterface {
        &self.iface
    }

    fn fetch(&self, request: &Request) -> Result<ChunkResponse, ServiceError> {
        let size = self.iface.stats.chunk_size;
        let start = (request.chunk * size).min(self.rows.len());
        let end = (start + size).min(self.rows.len());
        let tuples = self.rows[start..end].to_vec();
        Ok(ChunkResponse::new(tuples, end < self.rows.len(), 0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seco_optimizer::{optimize, CostMetric};

    #[test]
    fn chain_scenarios_are_feasible_and_optimizable() {
        for n in 1..=4 {
            let (reg, query) = chain_scenario(n, 7);
            let best = optimize(&query, &reg, CostMetric::RequestCount)
                .unwrap_or_else(|e| panic!("chain n={n}: {e}"));
            assert!(best.cost > 0.0);
        }
    }

    #[test]
    fn star_scenarios_are_feasible_and_optimizable() {
        for n in 1..=3 {
            let (reg, query) = star_scenario(n, 7);
            let best = optimize(&query, &reg, CostMetric::ExecutionTime)
                .unwrap_or_else(|e| panic!("star n={n}: {e}"));
            assert!(best.cost > 0.0);
        }
    }

    #[test]
    fn adaptive_scenario_flips_the_optimum_with_the_truth() {
        let q = adaptive_query();
        let informed = adaptive_registry(7, 1.0);
        let lied = adaptive_registry(7, 10.0);
        let best_i = optimize(&q, &informed, CostMetric::ExecutionTime).unwrap();
        let best_l = optimize(&q, &lied, CostMetric::ExecutionTime).unwrap();
        assert_ne!(
            best_i.plan.canonical_key(),
            best_l.plan.canonical_key(),
            "the misdeclared statistics must change the winning plan"
        );
        assert!(
            best_l.plan.canonical_key().contains("LeafPipe1"),
            "under the lie the cheap-per-call pipe wins: {}",
            best_l.plan.canonical_key()
        );
        assert!(
            best_i.plan.canonical_key().contains("LeafScan1"),
            "under the truth the bulk scan wins: {}",
            best_i.plan.canonical_key()
        );
    }

    #[test]
    fn join_pair_services_answer() {
        let (x, y) = join_pair(ScoreDecay::Linear, ScoreDecay::Quadratic, 20, 5, 3);
        let req = Request::unbound().bind(AttributePath::atomic("Key"), Value::text("q"));
        assert_eq!(x.fetch(&req).unwrap().len(), 5);
        assert_eq!(y.fetch(&req).unwrap().len(), 5);
    }
}
