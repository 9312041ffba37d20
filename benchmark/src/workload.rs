//! The five workloads: registry generators, query texts and op scripts.
//!
//! Everything here is a pure function of `(workload, seed)`: the same
//! seed gives the same registry, the same query texts and the same op
//! sequence; another seed gives other service data and other constants.
//! The program under test only ever sees the generated inputs — a
//! registry handed to `ServerState::new` and request bytes on a socket.
//!
//! Generator parameters are frozen here (and quoted in `README.md`);
//! changing one changes what the committed trajectory measures.

use std::sync::Arc;

use seco_model::{
    Adornment, AttributeDef, AttributePath, ConnectionPattern, DataType, JoinPair, ScoreDecay,
    ServiceInterface, ServiceKind, ServiceSchema, ServiceStats,
};
use seco_query::{parse_query, Query};
use seco_services::synthetic::{DomainMap, SyntheticService, ValueDomain};
use seco_services::ServiceRegistry;

/// Closed-loop client threads driving the daemon (one request in flight
/// each: a liquid-query caller waits for a page before asking for the
/// next, so load falls when the daemon slows).
pub const CLIENTS: usize = 2;

/// Ops replayed by the traced pass (in-process, then over the socket).
pub const TRACED_OPS: usize = 200;

/// Service topology of a workload's registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `S1 → S2 → … → Sn`, each `Link` piped into the next `Key`.
    Chain,
    /// `n` independently reachable services equi-joined on `Link`.
    Star,
}

/// What one op of the workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Script {
    /// `POST /query?mode=det&k=K` then `DELETE`.
    OneShot,
    /// `POST /query?mode=det&stream=1` then `DELETE`.
    StreamDet,
    /// `POST /query?mode=par&stream=1&k=200&chunk=50` then `DELETE`.
    StreamPar,
    /// query → more×4 → rerank → expand → more → `DELETE`.
    Liquid,
}

/// One workload: registry shape, query family and op script.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (which layers carry it).
    pub why: &'static str,
    /// Registry topology.
    pub shape: Shape,
    /// Services in the registry (= atoms in the query).
    pub services: usize,
    /// Declared and realised result-list length per binding.
    pub avg: f64,
    /// Chunk size of every service.
    pub chunk: usize,
    /// Size of the shared `Link` value domain (join selectivity 1/size).
    pub domain: u64,
    /// Distinct start constants the ops cycle over (0 = every op
    /// carries a never-before-seen constant).
    pub constants: usize,
    /// `k` values cycled (each is its own plan-cache fingerprint).
    pub ks: &'static [usize],
    /// Op script.
    pub script: Script,
    /// Warm-up passes over the cycled (constant, k) set per client.
    pub warm_passes: usize,
}

/// The workloads, in the interleaving order of a full set.
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "warm_chain",
        why: "daemon steady state: parse, plan-cache hit, ~150 fetch-cache hits, pipe joins, rank, session, render, socket; optimizer and service-miss path idle",
        shape: Shape::Chain,
        services: 4,
        avg: 20.0,
        chunk: 5,
        domain: 16,
        constants: 1,
        ks: &[5, 6, 7, 8, 9, 10],
        script: Script::OneShot,
        warm_passes: 100,
    },
    Spec {
        name: "cold_plan_star",
        why: "every op carries a never-seen constant, so the plan cache misses and optimizer phases 1-3 (and their pool fan-out) are >90% of the op",
        shape: Shape::Star,
        services: 4,
        avg: 16.0,
        chunk: 4,
        domain: 8,
        constants: 0,
        ks: &[5],
        script: Script::StreamDet,
        warm_passes: 20,
    },
    Spec {
        name: "cold_fetch_chain",
        why: "working set larger than the 4096-entry never-evicting response cache: synthetic generation, columnar chunk build, insert-at-capacity, recorder and interner do the work at hit ratio ~0.5",
        shape: Shape::Chain,
        services: 3,
        avg: 20.0,
        chunk: 5,
        domain: 65_536,
        constants: 512,
        ks: &[5],
        script: Script::OneShot,
        warm_passes: 2,
    },
    Spec {
        name: "par_stream_star",
        why: "pipelined executor, tile-join kernel, pool blocking tier, BatchSink and chunked framing carry the op; first rows arrive well before the last",
        shape: Shape::Star,
        services: 3,
        avg: 400.0,
        chunk: 20,
        domain: 10,
        constants: 64,
        ks: &[200],
        script: Script::StreamPar,
        warm_passes: 1,
    },
    Spec {
        name: "liquid_star",
        why: "same registry and queries as par_stream_star, used statefully through the deterministic executor: cursor paging, re-weighting and deepening, so a one-shot gain that costs paging shows",
        shape: Shape::Star,
        services: 3,
        avg: 400.0,
        chunk: 20,
        domain: 10,
        constants: 64,
        ks: &[200],
        script: Script::Liquid,
        warm_passes: 1,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// splitmix64: the benchmark's only source of randomness.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_add(b.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn link_service(name: &str, spec: &Spec, response_ms: f64, decay: ScoreDecay) -> ServiceInterface {
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
        ServiceStats::new(spec.avg, spec.chunk, response_ms, 1.0).expect("static stats are valid"),
        decay,
    )
    .expect("static interface is valid")
    .with_hint(AttributePath::atomic("Link"), spec.domain)
}

fn service_prefix(shape: Shape) -> &'static str {
    match shape {
        Shape::Chain => "Chain",
        Shape::Star => "Star",
    }
}

/// Builds the workload's registry from `seed` (service data seeds are
/// derived from it; statistics are declared truthfully).
pub fn build_registry(spec: &Spec, seed: u64) -> ServiceRegistry {
    let mut reg = ServiceRegistry::new();
    let prefix = service_prefix(spec.shape);
    let link = ValueDomain::new("link", spec.domain);
    for i in 1..=spec.services {
        let (response_ms, decay) = match spec.shape {
            Shape::Chain if i % 2 == 0 => (
                50.0 + 20.0 * i as f64,
                ScoreDecay::Step {
                    h: 2,
                    high: 0.9,
                    low: 0.1,
                },
            ),
            Shape::Chain => (50.0 + 20.0 * i as f64, ScoreDecay::Linear),
            Shape::Star => (40.0 + 10.0 * i as f64, ScoreDecay::Linear),
        };
        let iface = link_service(&format!("{prefix}{i}"), spec, response_ms, decay);
        let service = SyntheticService::new(
            iface,
            DomainMap::new().with(AttributePath::atomic("Link"), link.clone()),
            mix(seed, i as u64),
        );
        reg.register_service(Arc::new(service))
            .expect("unique names");
    }
    if spec.shape == Shape::Chain {
        for i in 1..spec.services {
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
    }
    reg
}

/// The query text whose input keys are bound to `constant`.
pub fn query_text(spec: &Spec, constant: &str) -> String {
    let prefix = service_prefix(spec.shape);
    let n = spec.services;
    let atoms: Vec<String> = (1..=n).map(|i| format!("{prefix}{i} As A{i}")).collect();
    let mut clauses: Vec<String> = Vec::new();
    match spec.shape {
        Shape::Chain => {
            for i in 1..n {
                clauses.push(format!("ChainLink{i}(A{i},A{})", i + 1));
            }
            clauses.push(format!("A1.Key=\"{constant}\""));
        }
        Shape::Star => {
            for i in 2..=n {
                clauses.push(format!("A1.Link=A{i}.Link"));
            }
            // Every branch is keyed by the op's constant, so each
            // constant draws independent data for every service and
            // the join's size averages out over the cycle.
            clauses.push(format!("A1.Key=\"{constant}\""));
            for i in 2..=n {
                clauses.push(format!("A{i}.Key=\"{constant}.{i}\""));
            }
        }
    }
    format!(
        "Select {} where {}",
        atoms.join(", "),
        clauses.join(" and ")
    )
}

/// One HTTP request of an op (session ids are filled in at run time).
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// `POST /query?<params>` with the query text as body.
    Query {
        /// Query-string parameters (`mode=…&k=…`).
        params: String,
        /// Query text.
        text: String,
    },
    /// `POST /session/<id>/more?n=<n>`.
    More(usize),
    /// `POST /session/<id>/rerank` with the weights as body.
    Rerank(&'static str),
    /// `POST /session/<id>/expand?atom=<atom>&extra=<extra>`.
    Expand(&'static str, u32),
    /// `DELETE /session/<id>` (inside the op for throughput and CPU,
    /// outside its latency).
    Delete,
}

/// Re-weighting the liquid script applies (3 atoms).
pub const RERANK_WEIGHTS: &str = "0.2,0.5,0.3";
/// Atom the liquid script deepens, and by how many fetches.
pub const EXPAND: (&str, u32) = ("A2", 1);
/// Page size of the liquid script's `more` calls.
pub const PAGE: usize = 50;

/// What one caller waits for: a query (or a whole liquid script).
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Start constant bound to `A1.Key`.
    pub constant: String,
    /// The query's `k`.
    pub k: usize,
    /// The op's requests, in order.
    pub steps: Vec<Step>,
}

impl Op {
    /// The op's query as the daemon will parse it, `k` applied.
    pub fn query(&self) -> Query {
        let Some(Step::Query { text, .. }) = self.steps.first() else {
            unreachable!("every op starts with its query");
        };
        let mut query = parse_query(text).expect("generated query text parses");
        query.k = self.k;
        query
    }
}

impl Spec {
    /// Number of distinct (constant, k) pairs the ops cycle over, or
    /// `None` when every op is unique.
    pub fn cycle(&self) -> Option<usize> {
        (self.constants > 0).then(|| self.constants * self.ks.len())
    }

    /// The `index`-th op of `stream` (0 and 1 are the two clients'
    /// measured streams; warm-up of never-repeating workloads draws
    /// from stream 2 so its constants are never seen again).
    pub fn op(&self, seed: u64, stream: u64, index: u64) -> Op {
        let (constant, k) = match self.cycle() {
            Some(cycle) => {
                // Clients start half a cycle apart so they rarely ask
                // for the same key at the same moment.
                let slot = (index + stream * cycle as u64 / 2) % cycle as u64;
                let c = slot as usize / self.ks.len();
                let k = self.ks[slot as usize % self.ks.len()];
                (format!("s{:x}-{c}", mix(seed, 0xA1) & 0xFFFF_FFFF), k)
            }
            None => (
                format!("u{:x}-{stream}-{index}", mix(seed, 0xA1) & 0xFFFF_FFFF),
                self.ks[index as usize % self.ks.len()],
            ),
        };
        let text = query_text(self, &constant);
        let query = |params: String| Step::Query { params, text };
        let steps = match self.script {
            Script::OneShot => vec![query(format!("mode=det&k={k}")), Step::Delete],
            Script::StreamDet => vec![query(format!("mode=det&stream=1&k={k}")), Step::Delete],
            Script::StreamPar => vec![
                query(format!("mode=par&stream=1&k={k}&chunk={PAGE}")),
                Step::Delete,
            ],
            Script::Liquid => vec![
                query(format!("mode=det&k={k}")),
                Step::More(PAGE),
                Step::More(PAGE),
                Step::More(PAGE),
                Step::More(PAGE),
                Step::Rerank(RERANK_WEIGHTS),
                Step::Expand(EXPAND.0, EXPAND.1),
                Step::More(PAGE),
                Step::Delete,
            ],
        };
        Op { constant, k, steps }
    }

    /// Ops each client runs before measurement starts. Cycled
    /// workloads: the clients (half a cycle apart) together cover every
    /// (constant, k) pair `warm_passes` times, so plans and chunks are
    /// cached. Never-repeating workloads: `warm_passes` throwaway ops
    /// that warm the fetch stacks and the pool only.
    pub fn warmup_ops(&self, seed: u64, client: u64) -> Vec<Op> {
        match self.cycle() {
            Some(cycle) => (0..(cycle * self.warm_passes).div_ceil(CLIENTS) as u64)
                .map(|i| self.op(seed, client, i))
                .collect(),
            None => (0..self.warm_passes as u64)
                .map(|i| self.op(seed, 2, client * self.warm_passes as u64 + i))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_texts_and_scripts_other_seed_differs() {
        for spec in &WORKLOADS {
            for stream in 0..2 {
                for i in [0u64, 1, 7, 1000] {
                    assert_eq!(
                        spec.op(11, stream, i),
                        spec.op(11, stream, i),
                        "{}",
                        spec.name
                    );
                    assert_ne!(
                        spec.op(11, stream, i),
                        spec.op(12, stream, i),
                        "{}",
                        spec.name
                    );
                }
            }
            assert_eq!(spec.warmup_ops(11, 0), spec.warmup_ops(11, 0));
        }
    }

    #[test]
    fn never_repeating_workload_never_repeats_a_constant() {
        let spec = spec("cold_plan_star").expect("workload exists");
        let mut seen = std::collections::BTreeSet::new();
        for client in 0..CLIENTS as u64 {
            for op in spec.warmup_ops(3, client) {
                assert!(seen.insert(op.constant));
            }
            for i in 0..500 {
                assert!(seen.insert(spec.op(3, client, i).constant));
            }
        }
    }

    #[test]
    fn cycled_workloads_revisit_exactly_their_cycle() {
        let spec = spec("warm_chain").expect("workload exists");
        let cycle = spec.cycle().expect("cycled") as u64;
        assert_eq!(cycle, 6);
        assert_eq!(spec.op(5, 0, 0), spec.op(5, 0, cycle));
        let ks: std::collections::BTreeSet<usize> =
            (0..cycle).map(|i| spec.op(5, 0, i).k).collect();
        assert_eq!(ks.len(), 6, "six fingerprints");
    }

    #[test]
    fn generated_queries_parse_and_registries_answer() {
        for spec in &WORKLOADS {
            let query = spec.op(9, 0, 0).query();
            assert_eq!(query.atoms.len(), spec.services);
            assert_eq!(query.k, spec.ks[0]);
            let registry = build_registry(spec, 9);
            assert_eq!(registry.service_names().len(), spec.services);
        }
    }
}
