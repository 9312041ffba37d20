//! Phase 3: choice of the number of fetches (§5.5).
//!
//! "Whenever a query includes chunked services cs1, …, csM, we need to
//! provide an estimate of the number of chunks that will be fetched per
//! input tuple at each csi — the *fetching factors* ⟨F1, …, FM⟩.
//! Initially, all fetching factors are set to 1, which is the lowest
//! admissible value […]. Clearly, if the n-tuple ⟨1, 1, …, 1⟩ already
//! determines h ≥ k results, then it is also the optimal solution.
//! Otherwise, the fetching factors have to be incremented until h ≥ k."
//!
//! Two increment policies are provided: **greedy** (increment the
//! factor with the highest estimated output gain per unit of cost) and
//! **square-is-better** (keep the explored tuple counts of all chunked
//! services balanced).
//!
//! Annotation is **incremental**: the topology is annotated once at
//! ⟨1, …, 1⟩ (a [`DeltaAnnotator`]), and every trial or committed
//! increment propagates only the changed node's downstream cone. Trial
//! evaluations are additionally memoized across topologies by
//! (topology shape, fetch vector), so re-instantiating a shape the
//! search has already explored never re-derives the same estimate.

use std::collections::{BTreeMap, HashMap};

use parking_lot::Mutex;
use seco_plan::{AnnotatedPlan, AnnotationConfig, DeltaAnnotator, NodeId, PlanNode, QueryPlan};
use seco_services::ServiceRegistry;

use crate::cost::CostMetric;
use crate::error::OptError;
use crate::heuristics::Phase3Heuristic;

/// Safety valve on increment rounds.
const MAX_ROUNDS: usize = 10_000;

/// Annotation-work counters of one phase-3 run (aggregated into
/// [`crate::SearchStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Phase3Stats {
    /// Full-plan annotations (validate + feasibility + every node).
    pub annotate_full: usize,
    /// Delta propagations (downstream cone of one changed node).
    pub annotate_delta: usize,
    /// Trial evaluations answered by the (shape, fetch-vector) memo.
    pub memo_hits: usize,
}

/// Memoized trial estimates keyed by (topology-shape hash, fetch
/// vector): expected output tuples and metric cost. Shared across the
/// branch-and-bound's workers under one optimization run (the registry
/// statistics and metric are fixed for the run, so entries never go
/// stale within it).
pub type AnnotationMemo = HashMap<(u64, Vec<u32>), (f64, f64)>;

/// Fetch factors fixed by atom alias: a suffix re-plan pins its executed
/// services here, whose fetches are a fact of the past, not a degree of
/// freedom. Empty for a full search.
pub type FetchPins = BTreeMap<String, u32>;

/// Sets every service node's fetch factor to its pin, or to 1, the
/// lowest admissible value.
pub(crate) fn reset_fetches(plan: &mut QueryPlan, pins: &FetchPins) -> Result<(), OptError> {
    for id in plan.node_ids().collect::<Vec<_>>() {
        if let PlanNode::Service(s) = plan.node_mut(id)? {
            s.fetches = pins.get(&s.atom).copied().unwrap_or(1);
        }
    }
    Ok(())
}

/// Assigns fetch factors in place, from ⟨1, …, 1⟩, until the annotated
/// plan yields at least `k` expected answers; returns the final
/// annotation.
///
/// Fails with [`OptError::Unreachable`] when even maximal fetching
/// cannot reach `k` (e.g. the services simply do not hold enough
/// matching data).
pub fn assign_fetches(
    plan: &mut QueryPlan,
    registry: &ServiceRegistry,
    k: usize,
    heuristic: Phase3Heuristic,
    metric: CostMetric,
) -> Result<AnnotatedPlan, OptError> {
    let pins = FetchPins::new();
    reset_fetches(plan, &pins)?;
    let annotator = DeltaAnnotator::new(plan, registry, &AnnotationConfig::default())?;
    let mut stats = Phase3Stats::default();
    assign_fetches_seeded(
        plan, registry, k, heuristic, metric, annotator, None, &pins, &mut stats,
    )
}

/// Phase 3 starting from a pre-built annotator positioned at the plan's
/// current fetch vector — the branch-and-bound reuses the annotator it
/// already built for the lower bound, so a surviving topology costs
/// exactly one full annotation. Service nodes whose atom is in `pins`
/// keep their current fetch factor.
#[allow(clippy::too_many_arguments)]
pub fn assign_fetches_seeded(
    plan: &mut QueryPlan,
    registry: &ServiceRegistry,
    k: usize,
    heuristic: Phase3Heuristic,
    metric: CostMetric,
    mut annotator: DeltaAnnotator,
    memo: Option<(&Mutex<AnnotationMemo>, u64)>,
    pins: &FetchPins,
    stats: &mut Phase3Stats,
) -> Result<AnnotatedPlan, OptError> {
    // Service-node ordinals in node-id order: position of each service
    // node within the fetch vector (the memo key layout).
    let service_nodes: Vec<NodeId> = plan
        .node_ids()
        .filter(|id| matches!(plan.node(*id), Ok(PlanNode::Service(_))))
        .collect();
    let ordinal_of = |id: NodeId| service_nodes.iter().position(|s| *s == id);

    for _ in 0..MAX_ROUNDS {
        if annotator.output_tuples() >= k as f64 {
            return Ok(annotator.into_annotated());
        }
        let candidates = incrementable(plan, registry, pins)?;
        if candidates.is_empty() {
            return Err(OptError::Unreachable {
                best_estimate: annotator.output_tuples(),
                k,
            });
        }
        let chosen = match heuristic {
            Phase3Heuristic::Greedy => pick_greedy(
                plan,
                registry,
                &mut annotator,
                &candidates,
                metric,
                memo,
                &ordinal_of,
                stats,
            )?,
            Phase3Heuristic::SquareIsBetter => pick_square(plan, registry, &candidates)?,
        };
        let Some(chosen) = chosen else {
            // No increment improves the estimate: the output is capped
            // by the data, not by fetching.
            return Err(OptError::Unreachable {
                best_estimate: annotator.output_tuples(),
                k,
            });
        };
        let next = annotator.fetches(chosen).unwrap_or(1) + 1;
        annotator.set_fetches(chosen, next)?;
        stats.annotate_delta += 1;
        if let PlanNode::Service(s) = plan.node_mut(chosen)? {
            s.fetches = next;
        }
    }
    Err(OptError::Unreachable {
        best_estimate: annotator.output_tuples(),
        k,
    })
}

/// Unpinned chunked service nodes whose factor can still usefully grow
/// (below the service's expected chunk count, and not `keep_first`).
fn incrementable(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    pins: &FetchPins,
) -> Result<Vec<NodeId>, OptError> {
    let mut out = Vec::new();
    for id in plan.node_ids() {
        if let PlanNode::Service(node) = plan.node(id)? {
            let iface = registry.interface(&node.service)?;
            if !iface.kind.is_chunked() || node.keep_first || pins.contains_key(&node.atom) {
                continue;
            }
            let max_chunks = iface.stats.expected_chunks().max(1) as u32;
            if node.fetches < max_chunks {
                out.push(id);
            }
        }
    }
    Ok(out)
}

/// Greedy over delta propagations: each candidate's trial bumps one
/// factor, reads the new estimate and cost, and reverts — two cone
/// recomputations, unless the (shape, vector) memo already knows the
/// answer. Picks the candidate with the highest Δoutput / Δcost.
#[allow(clippy::too_many_arguments)]
fn pick_greedy(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    annotator: &mut DeltaAnnotator,
    candidates: &[NodeId],
    metric: CostMetric,
    memo: Option<(&Mutex<AnnotationMemo>, u64)>,
    ordinal_of: &dyn Fn(NodeId) -> Option<usize>,
    stats: &mut Phase3Stats,
) -> Result<Option<NodeId>, OptError> {
    let base_out = annotator.output_tuples();
    let base_cost = metric.evaluate(plan, annotator.annotated(), registry)?;
    let base_vector = annotator.fetch_vector();
    let mut best: Option<(NodeId, f64)> = None;
    for &id in candidates {
        let current = annotator.fetches(id).unwrap_or(1);
        let (out, cost) = {
            let trial_key = memo.and_then(|(_, shape)| {
                let ord = ordinal_of(id)?;
                let mut v = base_vector.clone();
                v[ord] += 1;
                Some((shape, v))
            });
            let cached = trial_key
                .as_ref()
                .and_then(|key| memo.map(|(m, _)| m.lock().get(key).copied()))
                .flatten();
            if let Some(hit) = cached {
                stats.memo_hits += 1;
                hit
            } else {
                annotator.set_fetches(id, current + 1)?;
                stats.annotate_delta += 1;
                let out = annotator.output_tuples();
                let cost = metric.evaluate(plan, annotator.annotated(), registry)?;
                annotator.set_fetches(id, current)?;
                stats.annotate_delta += 1;
                if let (Some((m, _)), Some(key)) = (memo, trial_key) {
                    m.lock().insert(key, (out, cost));
                }
                (out, cost)
            }
        };
        let gain = out - base_out;
        if gain <= 0.0 {
            continue;
        }
        let cost_delta = (cost - base_cost).max(1e-9);
        let sensitivity = gain / cost_delta;
        if best.map(|(_, s)| sensitivity > s).unwrap_or(true) {
            best = Some((id, sensitivity));
        }
    }
    Ok(best.map(|(id, _)| id))
}

/// Square-is-better: the candidate whose explored-tuple count
/// `F × chunk_size` is currently smallest.
fn pick_square(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    candidates: &[NodeId],
) -> Result<Option<NodeId>, OptError> {
    let mut best: Option<(NodeId, f64)> = None;
    for &id in candidates {
        if let PlanNode::Service(node) = plan.node(id)? {
            let iface = registry.interface(&node.service)?;
            let explored = node.fetches as f64 * iface.stats.chunk_size as f64;
            if best.map(|(_, e)| explored < e).unwrap_or(true) {
                best = Some((id, explored));
            }
        }
    }
    Ok(best.map(|(id, _)| id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::Phase2Heuristic;
    use crate::phase2::enumerate_topologies;
    use seco_query::builder::running_example;
    use seco_query::feasibility::analyze;
    use seco_services::domains::entertainment;

    fn parallel_topology() -> (QueryPlan, seco_services::ServiceRegistry) {
        let reg = entertainment::build_registry(1).unwrap();
        let q = running_example();
        let report = analyze(&q, &reg).unwrap();
        let plans =
            enumerate_topologies(&q, &reg, &report, Phase2Heuristic::ParallelIsBetter, 64).unwrap();
        let plan = plans
            .into_iter()
            .find(|p| {
                p.node_ids()
                    .any(|id| matches!(p.node(id), Ok(PlanNode::ParallelJoin(_))))
            })
            .unwrap();
        (plan, reg)
    }

    #[test]
    fn fetches_grow_until_k_is_reached() {
        let (mut plan, reg) = parallel_topology();
        let ann = assign_fetches(
            &mut plan,
            &reg,
            5,
            Phase3Heuristic::SquareIsBetter,
            CostMetric::RequestCount,
        )
        .unwrap();
        assert!(ann.output_tuples >= 5.0);
        // Some factor must have grown beyond the initial 1 to get there.
        let grew = plan
            .node_ids()
            .any(|id| matches!(plan.node(id), Ok(PlanNode::Service(s)) if s.fetches > 1));
        assert!(grew);
    }

    #[test]
    fn trivial_k_keeps_all_factors_at_one() {
        let (mut plan, reg) = parallel_topology();
        // k=1 is reachable at F=⟨1,…,1⟩ for this plan? Check the
        // estimate first; if ⟨1⟩ suffices the factors must stay 1.
        let ann = assign_fetches(
            &mut plan,
            &reg,
            1,
            Phase3Heuristic::Greedy,
            CostMetric::RequestCount,
        );
        if let Ok(ann) = ann {
            if ann.output_tuples >= 1.0 {
                let at_one = plan
                    .node_ids()
                    .filter_map(|id| match plan.node(id) {
                        Ok(PlanNode::Service(s)) => Some(s.fetches),
                        _ => None,
                    })
                    .all(|f| f <= 2);
                assert!(at_one, "k=1 should need minimal fetching");
            }
        }
    }

    #[test]
    fn greedy_and_square_both_reach_k() {
        for h in [Phase3Heuristic::Greedy, Phase3Heuristic::SquareIsBetter] {
            let (mut plan, reg) = parallel_topology();
            let ann = assign_fetches(&mut plan, &reg, 8, h, CostMetric::RequestCount).unwrap();
            assert!(ann.output_tuples >= 8.0, "{h} must reach k=8");
        }
    }

    #[test]
    fn unreachable_k_errors_with_best_estimate() {
        let (mut plan, reg) = parallel_topology();
        // The services cannot produce thousands of combinations.
        let err = assign_fetches(
            &mut plan,
            &reg,
            1_000_000,
            Phase3Heuristic::SquareIsBetter,
            CostMetric::RequestCount,
        )
        .unwrap_err();
        match err {
            OptError::Unreachable { best_estimate, k } => {
                assert_eq!(k, 1_000_000);
                assert!(best_estimate < 1_000_000.0);
                assert!(best_estimate > 0.0);
            }
            other => panic!("expected Unreachable, got {other}"),
        }
    }

    #[test]
    fn square_is_better_balances_explored_tuples() {
        let (mut plan, reg) = parallel_topology();
        assign_fetches(
            &mut plan,
            &reg,
            10,
            Phase3Heuristic::SquareIsBetter,
            CostMetric::RequestCount,
        )
        .unwrap();
        // Movie chunks are 20-wide, Theatre 5-wide: balancing explored
        // tuples means Theatre gets more fetches than Movie, not fewer.
        let f = |atom: &str| {
            let id = plan.service_node_of(atom).unwrap();
            match plan.node(id) {
                Ok(PlanNode::Service(s)) => s.fetches,
                _ => 0,
            }
        };
        assert!(f("T") >= f("M"), "theatre F={} movie F={}", f("T"), f("M"));
    }

    /// The memo answers repeated trial evaluations for the same
    /// (shape, vector) without propagating.
    #[test]
    fn memo_short_circuits_repeated_shapes() {
        let (plan, reg) = parallel_topology();
        let memo = Mutex::new(AnnotationMemo::new());
        let shape = 0xfeed_beefu64;
        let run = || {
            let mut p = plan.clone();
            let pins = FetchPins::new();
            reset_fetches(&mut p, &pins).unwrap();
            let annotator = DeltaAnnotator::new(&p, &reg, &AnnotationConfig::default()).unwrap();
            let mut stats = Phase3Stats::default();
            assign_fetches_seeded(
                &mut p,
                &reg,
                10,
                Phase3Heuristic::Greedy,
                CostMetric::RequestCount,
                annotator,
                Some((&memo, shape)),
                &pins,
                &mut stats,
            )
            .unwrap();
            stats
        };
        let first = run();
        assert_eq!(first.memo_hits, 0, "cold memo cannot hit");
        let second = run();
        assert!(
            second.memo_hits > 0,
            "re-instantiating the same shape must hit the memo"
        );
        assert!(
            second.annotate_delta < first.annotate_delta,
            "memo hits must replace delta propagations ({} !< {})",
            second.annotate_delta,
            first.annotate_delta
        );
    }
}
