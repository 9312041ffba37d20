//! What every response must contain, computed without the daemon.
//!
//! Expected rows come from a one-shot `optimize` + `execute_plan` +
//! `ResultSet::top_k` + `render_rows` on a *fresh* registry of the same
//! seed, under the engine's plain default configuration (no cache, no
//! pool) — a different configuration from the daemon's, so agreement is
//! not a tautology:
//!
//! * `mode=det` rows and every `more` page must be byte-identical to
//!   the ranked prefix / next undelivered slice;
//! * `mode=par` streamed rows must equal the deterministic full result
//!   as a multiset;
//! * `rerank` must return the head under the new weights, `expand` the
//!   head over the union with the deeper run, whose size must match
//!   (so the post-expand set ⊇ the pre-expand set);
//! * the plan key the daemon reports must be the oracle's.
//!
//! The liquid-script emulation below re-states the session cursor's
//! contract (ranked, never repeating, cursor kept across `rerank`,
//! `expand` unions deduplicated) in its own words rather than calling
//! `seco_server::Session`.
//!
//! Optimization is by far the dearest step and its outcome does not
//! depend on the constant bound to `A1.Key` (statistics are per
//! service, not per binding), so the oracle plans once per `k` and
//! re-binds the constant; the plan-key check fails the op if the daemon
//! ever disagrees.

use std::collections::{BTreeMap, BTreeSet};

use seco_engine::{execute_plan, EngineConfig, ResultSet};
use seco_model::CompositeTuple;
use seco_optimizer::optimize;
use seco_plan::{PlanNode, QueryPlan};
use seco_query::{Query, RankingFunction};
use seco_server::{render_rows, ServerConfig};
use seco_services::ServiceRegistry;

use crate::client::{hash_bytes, RowsDigest};
use crate::workload::{build_registry, Op, Spec, Step};

/// What the client saw in one response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Seen {
    /// Transport succeeded and the status was 200.
    pub ok: bool,
    /// Digest of the response's rows.
    pub rows: RowsDigest,
    /// Hash of the reported plan key (0 when the response has none).
    pub plan: u64,
    /// The response's `combinations` field (0 when it has none).
    pub combinations: u64,
}

/// What one response must contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// Digest of the expected rows.
    pub rows: RowsDigest,
    /// Rows must match in order (ranked delivery) or only as a
    /// multiset (streamed emission order).
    pub ordered: bool,
    /// Hash of the expected plan key, where the response reports one.
    pub plan: Option<u64>,
    /// Expected `combinations`, where the response reports it.
    pub combinations: Option<u64>,
}

impl Expect {
    /// True when `seen` satisfies this expectation.
    pub fn accepts(&self, seen: &Seen) -> bool {
        let rows_match = seen.rows.count == self.rows.count
            && if self.ordered {
                seen.rows.ordered == self.rows.ordered
            } else {
                seen.rows.bag == self.rows.bag
            };
        seen.ok
            && rows_match
            && self.plan.is_none_or(|p| p == seen.plan)
            && self.combinations.is_none_or(|c| c == seen.combinations)
    }
}

fn digest(ranking: &RankingFunction, combos: &[CompositeTuple]) -> RowsDigest {
    let mut d = RowsDigest::new();
    for row in render_rows(ranking, combos) {
        d.push(row.to_string().as_bytes());
    }
    d
}

/// The independent evaluator of one workload at one seed.
pub struct Oracle {
    spec: &'static Spec,
    registry: ServiceRegistry,
    /// One optimized plan per `k`, planned for a template constant.
    plans: BTreeMap<usize, QueryPlan>,
    memo: BTreeMap<(String, usize), Vec<Expect>>,
}

/// The cursor contract of a liquid-query session, re-stated: a universe
/// in emission order, a current ranking, and the set already delivered.
struct Cursor {
    universe: Vec<CompositeTuple>,
    ranking: RankingFunction,
    delivered: BTreeSet<String>,
}

impl Cursor {
    fn ranked(&self, n: usize) -> Vec<CompositeTuple> {
        ResultSet::new(self.universe.clone(), self.ranking.clone()).top_k(n)
    }

    fn next(&mut self, n: usize) -> Vec<CompositeTuple> {
        let mut page = Vec::with_capacity(n);
        for combo in self.ranked(self.universe.len()) {
            if page.len() == n {
                break;
            }
            if self.delivered.insert(combo.to_string()) {
                page.push(combo);
            }
        }
        page
    }

    fn absorb(&mut self, deeper: Vec<CompositeTuple>) {
        let mut known: BTreeSet<String> = self.universe.iter().map(|c| c.to_string()).collect();
        for combo in deeper {
            if known.insert(combo.to_string()) {
                self.universe.push(combo);
            }
        }
    }
}

impl Oracle {
    /// An oracle over a fresh registry generated from `seed`.
    pub fn new(spec: &'static Spec, seed: u64) -> Self {
        Oracle {
            spec,
            registry: build_registry(spec, seed),
            plans: BTreeMap::new(),
            memo: BTreeMap::new(),
        }
    }

    /// The plan for `query`: optimized once per `k`, re-bound to this
    /// query's constants.
    fn plan_for(&mut self, query: &Query) -> QueryPlan {
        let template = self.plans.entry(query.k).or_insert_with(|| {
            optimize(query, &self.registry, ServerConfig::default().metric)
                .expect("generated query is feasible")
                .plan
        });
        let mut plan = template.clone();
        plan.query = query.clone();
        plan
    }

    fn run(&self, plan: &QueryPlan) -> Vec<CompositeTuple> {
        execute_plan(plan, &self.registry, EngineConfig::default())
            .expect("synthetic services never fail")
            .results
    }

    /// The expectations for `op`, one per step (memoized per distinct
    /// (constant, k), so cycled workloads pay once per fingerprint).
    pub fn expect(&mut self, op: &Op) -> Vec<Expect> {
        let key = (op.constant.clone(), op.k);
        if let Some(hit) = self.memo.get(&key) {
            return hit.clone();
        }
        let expects = self.evaluate(op);
        if self.spec.cycle().is_some() {
            self.memo.insert(key, expects.clone());
        }
        expects
    }

    fn evaluate(&mut self, op: &Op) -> Vec<Expect> {
        let query = op.query();
        let plan = self.plan_for(&query);
        let plan_key = serde_json::json!(plan.canonical_key()).to_string();
        let plan_hash = hash_bytes(plan_key.trim_matches('"').as_bytes());
        let full = self.run(&plan);
        let total = full.len() as u64;
        let mut cursor = Cursor {
            universe: full,
            ranking: query.ranking.clone(),
            delivered: BTreeSet::new(),
        };
        let mut plan = plan;
        op.steps
            .iter()
            .map(|step| match step {
                Step::Query { params, .. } if params.contains("mode=par") => Expect {
                    rows: digest(&cursor.ranking, &cursor.universe),
                    ordered: false,
                    plan: Some(plan_hash),
                    combinations: Some(total),
                },
                Step::Query { .. } => Expect {
                    rows: digest(&cursor.ranking.clone(), &cursor.next(op.k)),
                    ordered: true,
                    plan: Some(plan_hash),
                    combinations: Some(total),
                },
                Step::More(n) => Expect {
                    rows: digest(&cursor.ranking.clone(), &cursor.next(*n)),
                    ordered: true,
                    plan: None,
                    combinations: None,
                },
                Step::Rerank(weights) => {
                    let weights = weights
                        .split(',')
                        .map(|w| w.parse().expect("static weights parse"))
                        .collect();
                    cursor.ranking = RankingFunction::new(weights).expect("static weights valid");
                    Expect {
                        rows: digest(&cursor.ranking, &cursor.ranked(op.k)),
                        ordered: true,
                        plan: None,
                        combinations: None,
                    }
                }
                Step::Expand(atom, extra) => {
                    let node = plan
                        .service_node_of(atom)
                        .expect("script expands an atom of the query");
                    if let Ok(PlanNode::Service(svc)) = plan.node_mut(node) {
                        svc.fetches += extra;
                    }
                    cursor.absorb(self.run(&plan));
                    Expect {
                        rows: digest(&cursor.ranking, &cursor.ranked(op.k)),
                        ordered: true,
                        plan: None,
                        combinations: Some(cursor.universe.len() as u64),
                    }
                }
                Step::Delete => Expect {
                    rows: RowsDigest::new(),
                    ordered: true,
                    plan: None,
                    combinations: None,
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{spec, WORKLOADS};

    #[test]
    fn rebinding_the_template_plan_equals_planning_from_scratch() {
        for spec in &WORKLOADS {
            let mut oracle = Oracle::new(spec, 21);
            // Plan the template on op 0, then re-bind for op 1 (another
            // constant for every workload but the single-constant one).
            let _ = oracle.expect(&spec.op(21, 0, 0));
            let op = spec.op(21, 1, 1);
            let query = op.query();
            let rebound = oracle.plan_for(&query);
            let fresh = optimize(&query, &oracle.registry, ServerConfig::default().metric)
                .expect("feasible")
                .plan;
            assert_eq!(rebound, fresh, "{}", spec.name);
        }
    }

    #[test]
    fn a_corrupted_row_is_rejected() {
        let spec = spec("warm_chain").expect("workload exists");
        let mut oracle = Oracle::new(spec, 4);
        let op = spec.op(4, 0, 0);
        let expect = oracle.expect(&op)[0];
        assert!(expect.rows.count > 0, "the query has answers");

        // What an honest daemon would send.
        let query = op.query();
        let plan = oracle.plan_for(&query);
        let rows = ResultSet::new(oracle.run(&plan), query.ranking.clone()).top_k(op.k);
        let rendered: Vec<String> = render_rows(&query.ranking, &rows)
            .iter()
            .map(|r| r.to_string())
            .collect();
        let body = |rows: &[String]| format!("{{\"rows\":[{}],\"calls\":0}}", rows.join(","));
        let seen = |body: String| Seen {
            ok: true,
            rows: RowsDigest::of_body(body.as_bytes()),
            plan: expect.plan.expect("query steps check the plan"),
            combinations: expect.combinations.expect("query steps check the total"),
        };
        assert!(expect.accepts(&seen(body(&rendered))));

        let mut corrupted = rendered.clone();
        corrupted[0] = corrupted[0].replacen("#0", "#1", 1);
        assert_ne!(corrupted, rendered, "the corruption changed a row");
        assert!(!expect.accepts(&seen(body(&corrupted))));

        let mut swapped = rendered.clone();
        swapped.swap(0, 1);
        assert!(
            !expect.accepts(&seen(body(&swapped))),
            "ranked order is checked"
        );

        let mut short = rendered;
        short.pop();
        assert!(
            !expect.accepts(&seen(body(&short))),
            "a missing row is caught"
        );
    }

    #[test]
    fn streamed_rows_are_checked_as_a_multiset() {
        let spec = spec("par_stream_star").expect("workload exists");
        let mut oracle = Oracle::new(spec, 4);
        let op = spec.op(4, 0, 0);
        let expect = oracle.expect(&op)[0];
        let query = op.query();
        let plan = oracle.plan_for(&query);
        let mut rows: Vec<String> = render_rows(&query.ranking, &oracle.run(&plan))
            .iter()
            .map(|r| r.to_string())
            .collect();
        rows.reverse();
        let mut seen = Seen {
            ok: true,
            rows: RowsDigest::of_body(format!("{{\"rows\":[{}]}}", rows.join(",")).as_bytes()),
            plan: expect.plan.expect("checked"),
            combinations: expect.combinations.expect("checked"),
        };
        assert!(expect.accepts(&seen), "emission order is free");
        seen.plan ^= 1;
        assert!(!expect.accepts(&seen), "another plan is caught");
    }

    #[test]
    fn liquid_pages_never_repeat_and_expansion_only_adds() {
        let spec = spec("liquid_star").expect("workload exists");
        let mut oracle = Oracle::new(spec, 4);
        let op = spec.op(4, 0, 0);
        let expects = oracle.expect(&op);
        assert_eq!(expects.len(), op.steps.len());
        let before = expects[0].combinations.expect("query reports its total");
        let after = expects[6].combinations.expect("expand reports the union");
        assert!(after >= before, "expand ⊇ pre-expand ({before} -> {after})");
    }
}
