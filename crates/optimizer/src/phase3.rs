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
//! Annotation is **incremental**: the topology's node table is
//! annotated once at ⟨1, …, 1⟩ (a [`DeltaAnnotator`]), and every trial
//! or committed increment propagates only the changed node's
//! downstream cone and is costed on the same table
//! ([`CostMetric::cost_of`]).

use std::collections::BTreeMap;

use seco_plan::{
    AnnotatedPlan, AnnotationConfig, DeltaAnnotator, NodeId, NodeParams, NodeTable, PlanNode,
    QueryPlan,
};
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
    /// Full annotations (every node of a topology's table).
    pub annotate_full: usize,
    /// Delta propagations (downstream cone of one changed node).
    pub annotate_delta: usize,
}

/// Fetch factors fixed by atom alias: a suffix re-plan pins its executed
/// services here, whose fetches are a fact of the past, not a degree of
/// freedom. Empty for a full search.
pub type FetchPins = BTreeMap<String, u32>;

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
    for i in 0..plan.len() {
        if let PlanNode::Service(s) = plan.node_mut(NodeId(i))? {
            s.fetches = 1;
        }
    }
    let mut annotator = DeltaAnnotator::new(plan, registry, &AnnotationConfig::default())?;
    let growable = growable(annotator.table(), |_| false);
    let outcome = instantiate(
        &mut annotator,
        &growable,
        k,
        heuristic,
        metric,
        &mut Phase3Stats::default(),
    );
    for g in &growable {
        if let PlanNode::Service(s) = plan.node_mut(g.id)? {
            s.fetches = annotator.fetches(g.id).unwrap_or(1);
        }
    }
    outcome.map(|()| annotator.into_annotated())
}

/// Phase 3 on an annotator positioned at its table's current fetch
/// vector: raises the factors of the `growable` nodes until the
/// annotation yields at least `k` answers. The branch-and-bound reuses
/// the annotator it already built for the lower bound, so a surviving
/// topology costs exactly one full annotation.
pub(crate) fn instantiate(
    annotator: &mut DeltaAnnotator,
    growable: &[Growable],
    k: usize,
    heuristic: Phase3Heuristic,
    metric: CostMetric,
    stats: &mut Phase3Stats,
) -> Result<(), OptError> {
    let mut candidates = Vec::with_capacity(growable.len());
    for _ in 0..MAX_ROUNDS {
        if annotator.output_tuples() >= k as f64 {
            return Ok(());
        }
        // The nodes whose factor can still usefully grow.
        candidates.clear();
        candidates.extend(
            growable
                .iter()
                .filter(|g| annotator.fetches(g.id).unwrap_or(1) < g.max_chunks),
        );
        if candidates.is_empty() {
            return Err(OptError::Unreachable {
                best_estimate: annotator.output_tuples(),
                k,
            });
        }
        let chosen = match heuristic {
            Phase3Heuristic::Greedy => pick_greedy(annotator, &candidates, metric, stats)?,
            Phase3Heuristic::SquareIsBetter => pick_square(annotator, &candidates),
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
    }
    Err(OptError::Unreachable {
        best_estimate: annotator.output_tuples(),
        k,
    })
}

/// A service node whose fetch factor phase 3 may raise: unpinned,
/// chunked and not `keep_first`. Its factor can usefully grow while it
/// is below `max_chunks`, the service's expected chunk count.
#[derive(Clone, Copy)]
pub(crate) struct Growable {
    id: NodeId,
    max_chunks: u32,
    chunk_size: f64,
}

/// The table's growable service nodes, in node-id order; `pinned` says
/// which service nodes keep their factor.
pub(crate) fn growable(table: &NodeTable, pinned: impl Fn(usize) -> bool) -> Vec<Growable> {
    (0..table.len())
        .filter_map(|i| match table.node(i) {
            NodeParams::Service(s) if s.chunked && !s.keep_first && !pinned(i) => Some(Growable {
                id: NodeId(i),
                max_chunks: s.expected_chunks.max(1) as u32,
                chunk_size: s.chunk_size,
            }),
            _ => None,
        })
        .collect()
}

/// Greedy over delta propagations: each candidate's trial bumps one
/// factor, reads the new estimate and cost, and reverts — two cone
/// recomputations. Picks the candidate with the highest Δoutput /
/// Δcost.
fn pick_greedy(
    annotator: &mut DeltaAnnotator,
    candidates: &[Growable],
    metric: CostMetric,
    stats: &mut Phase3Stats,
) -> Result<Option<NodeId>, OptError> {
    let base_out = annotator.output_tuples();
    let base_cost = metric.cost_of(annotator);
    let mut best: Option<(NodeId, f64)> = None;
    for &Growable { id, .. } in candidates {
        let current = annotator.fetches(id).unwrap_or(1);
        annotator.set_fetches(id, current + 1)?;
        stats.annotate_delta += 1;
        let out = annotator.output_tuples();
        let cost = metric.cost_of(annotator);
        annotator.set_fetches(id, current)?;
        stats.annotate_delta += 1;
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
fn pick_square(annotator: &DeltaAnnotator, candidates: &[Growable]) -> Option<NodeId> {
    let mut best: Option<(NodeId, f64)> = None;
    for &Growable { id, chunk_size, .. } in candidates {
        let explored = annotator.fetches(id).unwrap_or(1) as f64 * chunk_size;
        if best.map(|(_, e)| explored < e).unwrap_or(true) {
            best = Some((id, explored));
        }
    }
    best.map(|(id, _)| id)
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
}
