//! Mid-flight suffix re-planning: the planner half of the adaptive
//! optimization loop.
//!
//! When the engine observes node cardinalities far from the plan-time
//! estimates, a full re-optimization would discard everything already
//! executed. [`Optimizer::replan_suffix`] instead re-runs the phase-2
//! search restricted to plans that *share the executed prefix*: the
//! already-invoked services keep their assignment and their fetch
//! factors (facts of the past, not degrees of freedom), while the
//! unexecuted suffix — remaining access-pattern choices, topology, and
//! fetch factors — is re-searched under the current (possibly promoted)
//! registry statistics.
//!
//! The re-plan is not a search of its own: it hands the restricted
//! topologies to the branch-and-bound's `Optimizer::search` with the
//! original plan seeded as the incumbent at tie-break rank 0, so a
//! challenger must *strictly* beat it under the `(cost, canonical key,
//! rank)` order, and pruning and the budget are the full search's. The incumbent is costed like every challenger, under the
//! registry's current statistics: its joins' plan-time selectivities are
//! re-derived from the (possibly promoted) pattern statistics first.
//!
//! With observations that do not deviate past
//! [`Optimizer::replan_threshold`], the search is skipped entirely and
//! the original plan is returned byte-identically.

use std::collections::{BTreeMap, BTreeSet};

use seco_plan::{AnnotationConfig, DeltaAnnotator, NodeId, PlanNode, QueryPlan};
use seco_query::JoinPredicate;
use seco_services::{drift_ratio, ServiceRegistry};

use crate::bnb::{Optimized, Optimizer, SearchStats, Seed};
use crate::error::OptError;
use crate::phase3::FetchPins;

/// Structural signature of node `id`: its kind, service assignment or
/// predicates, and the signatures of everything upstream of it. Fetch
/// factors and baked-in selectivities are excluded, so two plans that
/// run the same work to reach a node give it the same signature.
pub fn node_signature(plan: &QueryPlan, id: NodeId) -> String {
    let preds = plan.predecessors(id);
    let sub = |i: usize| node_signature(plan, preds[i]);
    match plan.node(id) {
        Ok(PlanNode::Input) => "I".to_owned(),
        Ok(PlanNode::Output) => format!("O({})", sub(0)),
        Ok(PlanNode::Service(s)) => format!(
            "S[{}={},kf={}]({})",
            s.atom,
            s.service,
            u8::from(s.keep_first),
            sub(0)
        ),
        Ok(PlanNode::Selection(s)) => {
            let mut clauses: Vec<String> = (s.predicates.iter().map(|p| p.to_string()))
                .chain(s.join_predicates.iter().map(|p| p.to_string()))
                .collect();
            clauses.sort();
            format!("F[{}]({})", clauses.join(","), sub(0))
        }
        Ok(PlanNode::ParallelJoin(spec)) => {
            let mut subs: Vec<String> = (0..preds.len()).map(sub).collect();
            subs.sort();
            let mut clauses: Vec<String> = spec.predicates.iter().map(|p| p.to_string()).collect();
            clauses.sort();
            format!(
                "J[{},{},{}]({})",
                spec.invocation,
                spec.completion,
                clauses.join(","),
                subs.join("|")
            )
        }
        Err(_) => "?".to_owned(),
    }
}

/// Structural signature of the already-executed part of a plan: the
/// sorted [`node_signature`]s of every node whose inputs are fully
/// covered by the executed atoms. Fetch factors are excluded — the
/// suffix search pins them separately — so a candidate topology matches
/// iff the executed work embeds into it unchanged.
pub fn prefix_signature(plan: &QueryPlan, executed: &BTreeSet<String>) -> String {
    let mut sigs: Vec<String> = plan
        .node_ids()
        .filter(|id| !matches!(plan.node(*id), Ok(PlanNode::Output)))
        .filter(|id| plan.atoms_at(*id).is_subset(executed))
        .map(|id| node_signature(plan, id))
        .collect();
    sigs.sort();
    sigs.join(";")
}

/// `plan` with the selectivity of every join — parallel joins and join
/// filters — re-derived from the registry's current pattern statistics,
/// the way phase 2 derives a challenger's: the product, over the
/// distinct atom pairs its predicates connect, of the pair selectivity.
fn restamped(plan: &QueryPlan, registry: &ServiceRegistry) -> Result<QueryPlan, OptError> {
    let selectivity = |predicates: &[JoinPredicate]| -> Result<f64, OptError> {
        let mut counted: Vec<(&str, &str)> = Vec::new();
        let mut sel = 1.0;
        for j in predicates {
            let (a, b) = (j.left.atom.as_str(), j.right.atom.as_str());
            let pair = if a <= b { (a, b) } else { (b, a) };
            if !counted.contains(&pair) {
                counted.push(pair);
                sel *= plan.query.join_selectivity(registry, pair.0, pair.1)?;
            }
        }
        Ok(sel)
    };
    let mut out = plan.clone();
    for id in plan.node_ids() {
        match out.node_mut(id)? {
            PlanNode::ParallelJoin(spec) => spec.selectivity = selectivity(&spec.predicates)?,
            PlanNode::Selection(s) if s.predicates.is_empty() && !s.join_predicates.is_empty() => {
                s.selectivity = selectivity(&s.join_predicates)?.clamp(0.0, 1.0);
            }
            _ => {}
        }
    }
    Ok(out)
}

impl Optimizer<'_> {
    /// Re-plans the unexecuted suffix of `plan`.
    ///
    /// `executed_prefix` names the atoms whose service stages have
    /// already run; `observed` maps atom aliases to
    /// `(plan-time estimated, observed)` output cardinalities. When no
    /// observation deviates by at least
    /// [`replan_threshold`](Optimizer::replan_threshold), the original
    /// plan is returned **byte-identically** without searching. When
    /// one does, phases 1–3 re-run under the current registry
    /// statistics through `Optimizer::search`, restricted to plans
    /// embedding the executed prefix (same services, same upstream
    /// structure, fetch factors pinned); the original plan stays the
    /// incumbent unless a candidate strictly beats it. The search
    /// honours [`budget`](Optimizer::budget) as a full optimization
    /// does.
    pub fn replan_suffix(
        &self,
        plan: &QueryPlan,
        executed_prefix: &BTreeSet<String>,
        observed: &BTreeMap<String, (f64, f64)>,
    ) -> Result<Optimized, OptError> {
        let deviated = observed
            .values()
            .any(|(est, obs)| drift_ratio(*obs, *est) >= self.replan_threshold);
        // The challengers are costed under the registry's current
        // statistics, so the incumbent is too: its joins carry the
        // selectivities of plan time, which a promotion may have moved.
        let incumbent = match deviated {
            true => restamped(plan, self.registry)?,
            false => plan.clone(),
        };
        let annotator =
            DeltaAnnotator::new(&incumbent, self.registry, &AnnotationConfig::default())?;
        let cost = self.metric.cost_of(&annotator);
        let annotated = annotator.into_annotated();
        if !deviated {
            return Ok(Optimized {
                plan: incumbent,
                annotated,
                cost,
                stats: SearchStats {
                    annotate_full: 1,
                    ..SearchStats::default()
                },
            });
        }

        // The executed services' fetch factors are history; pin them.
        let pins: FetchPins = executed_prefix
            .iter()
            .filter_map(|alias| match plan.node(plan.service_node_of(alias)?) {
                Ok(PlanNode::Service(s)) => Some((alias.clone(), s.fetches)),
                _ => None,
            })
            .collect();

        // Phase 1 restricted: executed atoms stay on their assigned
        // interface; unexecuted atoms re-open to every interface of
        // their mart.
        let mut relaxed = plan.query.clone();
        for atom in &mut relaxed.atoms {
            if !executed_prefix.contains(&atom.alias) {
                if let Ok(iface) = self.registry.interface(&atom.service) {
                    atom.service = iface.mart.clone();
                }
            }
        }
        // Phase 2 restricted: only topologies the executed work embeds
        // into unchanged, which takes their plans to tell. `topologies`
        // still counts every one.
        let (mut topologies, mut stats) = self.enumerate(&relaxed)?;
        let target = prefix_signature(plan, executed_prefix);
        for (space, topology) in std::mem::take(&mut topologies.items) {
            let candidate = topologies.spaces[space].materialize(&topology, |_| 1)?;
            if prefix_signature(&candidate, executed_prefix) == target {
                topologies.items.push((space, topology));
            }
        }
        stats.annotate_full = 1;
        let seed = Seed {
            pins,
            plan: incumbent,
            annotated,
            cost,
        };
        let mut re = self.search(topologies, plan.query.k, Some(seed), stats)?;
        if re.stats.replans == 0 {
            // The incumbent held: hand back the plan as it was given.
            re.plan = plan.clone();
        }
        Ok(re)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostMetric;
    use seco_query::builder::running_example;
    use seco_services::domains::entertainment;

    #[test]
    fn unchanged_observations_return_the_original_byte_identically() {
        let reg = entertainment::build_registry(1).unwrap();
        let q = running_example();
        let opt = Optimizer::new(&reg, CostMetric::RequestCount);
        let original = opt.optimize(&q).unwrap();

        let executed: BTreeSet<String> = ["M".to_string()].into();
        let observed: BTreeMap<String, (f64, f64)> = [("M".to_string(), (20.0, 20.0))].into();
        let replanned = opt
            .replan_suffix(&original.plan, &executed, &observed)
            .unwrap();
        assert_eq!(replanned.plan, original.plan, "plan must be byte-identical");
        assert_eq!(replanned.stats.replans, 0);
        assert_eq!(replanned.stats.topologies, 0, "the search must not run");
    }

    #[test]
    fn deviating_observations_search_but_keep_prefix_structure() {
        let reg = entertainment::build_registry(1).unwrap();
        let q = running_example();
        let opt = Optimizer::new(&reg, CostMetric::RequestCount);
        let original = opt.optimize(&q).unwrap();

        let executed: BTreeSet<String> = ["M".to_string()].into();
        // Observed 100× the estimate: the gate opens. The statistics
        // have not actually changed, so the original stays optimal —
        // but now by winning the restricted search, not by skipping it.
        let observed: BTreeMap<String, (f64, f64)> = [("M".to_string(), (1.0, 100.0))].into();
        let replanned = opt
            .replan_suffix(&original.plan, &executed, &observed)
            .unwrap();
        assert!(replanned.stats.topologies > 0, "the search must run");
        let sig = prefix_signature(&original.plan, &executed);
        assert_eq!(prefix_signature(&replanned.plan, &executed), sig);
        assert!(replanned.cost <= original.cost + 1e-9);
    }

    #[test]
    fn prefix_signature_ignores_fetches_but_not_structure() {
        let reg = entertainment::build_registry(1).unwrap();
        let q = running_example();
        let opt = Optimizer::new(&reg, CostMetric::RequestCount);
        let original = opt.optimize(&q).unwrap();
        let executed: BTreeSet<String> = ["M".to_string()].into();
        let sig = prefix_signature(&original.plan, &executed);
        let mut refetched = original.plan.clone();
        for id in refetched.node_ids().collect::<Vec<_>>() {
            if let PlanNode::Service(s) = refetched.node_mut(id).unwrap() {
                s.fetches += 7;
            }
        }
        assert_eq!(prefix_signature(&refetched, &executed), sig);
        let none: BTreeSet<String> = BTreeSet::new();
        assert_ne!(prefix_signature(&original.plan, &none), sig);
    }
}
