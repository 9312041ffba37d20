//! Exhaustive (unpruned) plan enumeration — the optimality oracle.
//!
//! Walks exactly the same three-phase space as [`crate::bnb`] but never
//! prunes, fully instantiating every topology of every feasible
//! assignment. Tests compare its optimum against the branch-and-bound
//! result ("if let run up to exhaustion of the search space, the
//! returned plan is the optimal one", §5.2), and the E8 experiment
//! reports the node counts of both to measure what pruning saves.

use seco_query::Query;
use seco_services::ServiceRegistry;

use crate::bnb::{Optimized, SearchStats};
use crate::cost::CostMetric;
use crate::error::OptError;
use crate::heuristics::HeuristicSet;
use crate::phase1::enumerate_assignments;
use crate::phase2::{Space, DEFAULT_MAX_TOPOLOGIES};
use crate::phase3::{growable, instantiate, Phase3Stats};

/// Fully enumerates and costs the plan space; returns the optimum and
/// the per-plan costs of everything explored.
pub fn optimize_exhaustive(
    query: &Query,
    registry: &ServiceRegistry,
    metric: CostMetric,
) -> Result<Optimized, OptError> {
    let (best, _) = optimize_exhaustive_with_costs(query, registry, metric)?;
    Ok(best)
}

/// Like [`optimize_exhaustive`] but also returns the cost of every
/// fully instantiated plan, in enumeration order.
pub fn optimize_exhaustive_with_costs(
    query: &Query,
    registry: &ServiceRegistry,
    metric: CostMetric,
) -> Result<(Optimized, Vec<f64>), OptError> {
    let heuristics = HeuristicSet::default();
    let mut stats = SearchStats::default();
    let mut incumbent: Option<Optimized> = None;
    let mut costs = Vec::new();
    let mut last_unreachable: Option<OptError> = None;

    let assignments = enumerate_assignments(query, registry, heuristics.phase1)?;
    stats.assignments = assignments.len();
    for assignment in assignments {
        let space = Space::new(assignment.query, registry, &assignment.report)?;
        let topologies = space.topologies(heuristics.phase2, DEFAULT_MAX_TOPOLOGIES);
        stats.topologies += topologies.len();
        for topology in &topologies {
            let mut annotator = space.annotator(topology, &[])?;
            let growable = growable(annotator.table(), |_| false);
            let instantiation = instantiate(
                &mut annotator,
                &growable,
                query.k,
                heuristics.phase3,
                metric,
                &mut Phase3Stats::default(),
            );
            match instantiation {
                Ok(()) => {
                    stats.instantiated += 1;
                    let cost = metric.cost_of(&annotator);
                    costs.push(cost);
                    let better = incumbent.as_ref().map(|b| cost < b.cost).unwrap_or(true);
                    if better {
                        let plan =
                            space.materialize(topology, |id| annotator.fetches(id).unwrap_or(1))?;
                        incumbent = Some(Optimized {
                            plan,
                            annotated: annotator.into_annotated(),
                            cost,
                            stats: SearchStats::default(),
                        });
                    }
                }
                Err(e @ OptError::Unreachable { .. }) => {
                    stats.instantiated += 1;
                    last_unreachable = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
    }
    match incumbent {
        Some(mut best) => {
            best.stats = stats;
            Ok((best, costs))
        }
        None => Err(last_unreachable.unwrap_or(OptError::Unreachable {
            best_estimate: 0.0,
            k: query.k,
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seco_query::builder::running_example;
    use seco_services::domains::entertainment;

    #[test]
    fn exhaustive_explores_everything() {
        let reg = entertainment::build_registry(1).unwrap();
        let q = running_example();
        let (best, costs) =
            optimize_exhaustive_with_costs(&q, &reg, CostMetric::RequestCount).unwrap();
        assert_eq!(best.stats.pruned, 0);
        assert_eq!(best.stats.instantiated, best.stats.topologies);
        assert!(!costs.is_empty());
        let min = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        assert_eq!(min, best.cost);
    }

    #[test]
    fn exhaustive_matches_bnb_but_works_harder() {
        let reg = entertainment::build_registry(1).unwrap();
        let q = running_example();
        let ex = optimize_exhaustive(&q, &reg, CostMetric::ExecutionTime).unwrap();
        let bnb = crate::bnb::optimize(&q, &reg, CostMetric::ExecutionTime).unwrap();
        assert!((ex.cost - bnb.cost).abs() < 1e-9);
        assert!(ex.stats.instantiated >= bnb.stats.instantiated);
    }
}
