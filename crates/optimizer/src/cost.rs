//! Cost metrics (§5.1).
//!
//! A cost metric maps a fully instantiated plan to a scalar. All five
//! chapter metrics are provided:
//!
//! * **Execution time** — expected time from submission to the `k`-th
//!   answer: the slowest input→output path, where a service node
//!   contributes `calls × response_time` (its calls are sequential
//!   within the node, branches run in parallel).
//! * **Sum** — the sum of every operator's cost; service invocations
//!   charge `calls × cost_per_call`.
//! * **Request count** — the sum cost metric "simplification \[where\]
//!   every service invocation has the same cost": counts calls.
//! * **Bottleneck** — the execution time of the slowest single service
//!   in the plan (the WSMS metric of \[22\]; "not advised in our
//!   context").
//! * **Time-to-screen** — time until the *first* output tuple: the
//!   slowest input→output path with one call per service node.
//!
//! All metrics are **monotonic**: adding nodes or increasing fetch
//! factors never decreases cost. Branch-and-bound relies on this
//! (§5.2).

use std::fmt;

use seco_plan::{AnnotatedPlan, Annotation, DeltaAnnotator, NodeParams, NodeTable, QueryPlan};
use seco_query::feasibility::analyze;
use seco_services::ServiceRegistry;

use crate::error::OptError;

/// The cost metric to optimize for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostMetric {
    /// Expected elapsed time to the k-th answer (ms).
    ExecutionTime,
    /// Sum of all operator costs (abstract units).
    Sum,
    /// Number of request-responses.
    RequestCount,
    /// Execution time of the slowest service (ms).
    Bottleneck,
    /// Expected elapsed time to the first answer (ms).
    TimeToScreen,
}

impl CostMetric {
    /// All five metrics, for comparison experiments (E14).
    pub fn all() -> [CostMetric; 5] {
        [
            CostMetric::ExecutionTime,
            CostMetric::Sum,
            CostMetric::RequestCount,
            CostMetric::Bottleneck,
            CostMetric::TimeToScreen,
        ]
    }

    /// The metric over a node table, its nodes' annotations (by node
    /// index) and its per-service call sums (in the table's service
    /// order): the one cost arithmetic, which every other entry runs.
    pub fn cost(
        &self,
        table: &NodeTable,
        annotations: &[Annotation],
        service_calls: &[f64],
    ) -> f64 {
        let calls = |i: usize| annotations.get(i).map_or(0.0, |a| a.calls);
        let services = (0..table.len()).filter_map(|i| match table.node(i) {
            NodeParams::Service(s) => Some((i, s)),
            _ => None,
        });
        match self {
            CostMetric::ExecutionTime => critical_path(table, calls, false),
            CostMetric::TimeToScreen => critical_path(table, calls, true),
            CostMetric::Sum => {
                let mut total = 0.0;
                for (i, s) in services {
                    total += calls(i) * s.cost_per_call;
                }
                total
            }
            CostMetric::RequestCount => service_calls.iter().sum(),
            CostMetric::Bottleneck => {
                let mut worst: f64 = 0.0;
                for (i, s) in services {
                    worst = worst.max(calls(i) * s.response_time_ms);
                }
                worst
            }
        }
    }

    /// The metric of an annotator's current annotation.
    pub fn cost_of(&self, annotator: &DeltaAnnotator) -> f64 {
        self.cost(
            annotator.table(),
            annotator.annotations(),
            annotator.service_calls(),
        )
    }

    /// Evaluates the metric on an annotated plan: [`Self::cost`] over the
    /// plan's [`NodeTable`].
    pub fn evaluate(
        &self,
        plan: &QueryPlan,
        annotated: &AnnotatedPlan,
        registry: &ServiceRegistry,
    ) -> Result<f64, OptError> {
        let report = analyze(&plan.query, registry)?;
        let table = NodeTable::from_plan(plan, registry, &report)?;
        let service_calls: Vec<f64> = annotated.calls_by_service.values().copied().collect();
        Ok(self.cost(&table, annotated.annotations(), &service_calls))
    }
}

impl fmt::Display for CostMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CostMetric::ExecutionTime => "execution-time",
            CostMetric::Sum => "sum",
            CostMetric::RequestCount => "request-count",
            CostMetric::Bottleneck => "bottleneck",
            CostMetric::TimeToScreen => "time-to-screen",
        };
        f.write_str(s)
    }
}

/// Longest-path elapsed time: a service node contributes `calls ×
/// response_time`, every other node nothing ("once a chunk is retrieved
/// […] join requires simple main-memory comparison operations and can be
/// neglected", §4.1). `first_tuple` switches every service node to a
/// single call (time-to-screen).
fn critical_path(table: &NodeTable, calls: impl Fn(usize) -> f64, first_tuple: bool) -> f64 {
    let mut finish = vec![0.0f64; table.len()];
    for id in table.topo() {
        let start = table
            .preds(id.0)
            .iter()
            .map(|p| finish[*p])
            .fold(0.0f64, f64::max);
        let own = match table.node(id.0) {
            NodeParams::Service(s) => {
                let calls = if first_tuple { 1.0 } else { calls(id.0) };
                calls * s.response_time_ms
            }
            _ => 0.0,
        };
        finish[id.0] = start + own;
    }
    finish[table.output()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use seco_plan::{annotate, AnnotationConfig, PlanNode, QueryPlan, ServiceNode};
    use seco_query::builder::running_example;
    use seco_query::QueryBuilder;
    use seco_services::domains::entertainment;

    /// The Fig. 10 plan (same construction as the plan crate's tests).
    fn fig10() -> (QueryPlan, seco_services::ServiceRegistry) {
        let reg = entertainment::build_registry(1).unwrap();
        let query = running_example();
        let mut p = QueryPlan::new(query.clone());
        let m = p.add(PlanNode::Service(
            ServiceNode::new("M", "Movie1").with_fetches(5),
        ));
        let t = p.add(PlanNode::Service(
            ServiceNode::new("T", "Theatre1").with_fetches(5),
        ));
        let joins = query.expanded_joins(&reg).unwrap();
        let shows: Vec<_> = joins
            .iter()
            .filter(|j| j.connects("M", "T"))
            .cloned()
            .collect();
        let j = p.add(PlanNode::ParallelJoin(seco_plan::JoinSpec {
            invocation: seco_plan::Invocation::merge_scan_even(),
            completion: seco_plan::Completion::Triangular,
            predicates: shows,
            selectivity: entertainment::SHOWS_SELECTIVITY,
        }));
        let r = p.add(PlanNode::Service(
            ServiceNode::new("R", "Restaurant1").with_keep_first(),
        ));
        p.connect(p.input(), m).unwrap();
        p.connect(p.input(), t).unwrap();
        p.connect(m, j).unwrap();
        p.connect(t, j).unwrap();
        p.connect(j, r).unwrap();
        p.connect(r, p.output()).unwrap();
        (p, reg)
    }

    #[test]
    fn request_count_counts_calls() {
        let (plan, reg) = fig10();
        let ann = annotate(&plan, &reg, &AnnotationConfig::default()).unwrap();
        let c = CostMetric::RequestCount
            .evaluate(&plan, &ann, &reg)
            .unwrap();
        // 5 Movie + 5 Theatre + 25 Restaurant.
        assert_eq!(c, 35.0);
    }

    #[test]
    fn sum_uses_per_call_costs() {
        let (plan, reg) = fig10();
        let ann = annotate(&plan, &reg, &AnnotationConfig::default()).unwrap();
        let c = CostMetric::Sum.evaluate(&plan, &ann, &reg).unwrap();
        // All cost_per_call are 1 in the entertainment domain.
        assert_eq!(c, 35.0);
    }

    #[test]
    fn execution_time_takes_the_slowest_path() {
        let (plan, reg) = fig10();
        let ann = annotate(&plan, &reg, &AnnotationConfig::default()).unwrap();
        let c = CostMetric::ExecutionTime
            .evaluate(&plan, &ann, &reg)
            .unwrap();
        // Movie branch: 5 × 120 = 600; Theatre branch: 5 × 80 = 400.
        // Restaurant: 25 × 60 = 1500. Critical path = 600 + 1500.
        assert_eq!(c, 2100.0);
    }

    #[test]
    fn bottleneck_is_the_slowest_service() {
        let (plan, reg) = fig10();
        let ann = annotate(&plan, &reg, &AnnotationConfig::default()).unwrap();
        let c = CostMetric::Bottleneck.evaluate(&plan, &ann, &reg).unwrap();
        assert_eq!(c, 1500.0, "Restaurant's 25 × 60 ms dominates");
    }

    #[test]
    fn time_to_screen_uses_one_call_per_service() {
        let (plan, reg) = fig10();
        let ann = annotate(&plan, &reg, &AnnotationConfig::default()).unwrap();
        let c = CostMetric::TimeToScreen
            .evaluate(&plan, &ann, &reg)
            .unwrap();
        // max(120, 80) + 60 = 180.
        assert_eq!(c, 180.0);
    }

    #[test]
    fn metrics_are_monotone_in_fetch_factors() {
        let (mut plan, reg) = fig10();
        let ann1 = annotate(&plan, &reg, &AnnotationConfig::default()).unwrap();
        let m = plan.service_node_of("M").unwrap();
        if let PlanNode::Service(s) = plan.node_mut(m).unwrap() {
            s.fetches += 3;
        }
        let ann2 = annotate(&plan, &reg, &AnnotationConfig::default()).unwrap();
        for metric in CostMetric::all() {
            let c1 = metric.evaluate(&plan, &ann1, &reg).unwrap();
            let c2 = metric.evaluate(&plan, &ann2, &reg).unwrap();
            assert!(c2 >= c1, "{metric} must be monotone in F ({c1} -> {c2})");
        }
    }

    #[test]
    fn single_service_costs() {
        let reg = entertainment::build_registry(1).unwrap();
        let q = QueryBuilder::new()
            .atom("M", "Movie1")
            .select_input("M", "Genres.Genre", seco_model::Comparator::Eq, "I1")
            .select_input("M", "Language", seco_model::Comparator::Eq, "I2")
            .select_input("M", "Openings.Country", seco_model::Comparator::Eq, "I3")
            .select_input("M", "Openings.Date", seco_model::Comparator::Gt, "I4")
            .input("I1", seco_model::Value::text("x"))
            .input("I2", seco_model::Value::text("x"))
            .input("I3", seco_model::Value::text("x"))
            .input(
                "I4",
                seco_model::Value::Date(seco_model::Date::new(2009, 1, 1)),
            )
            .build()
            .unwrap();
        let mut p = QueryPlan::new(q);
        let m = p.add(PlanNode::Service(
            ServiceNode::new("M", "Movie1").with_fetches(2),
        ));
        p.connect(p.input(), m).unwrap();
        p.connect(m, p.output()).unwrap();
        let ann = annotate(&p, &reg, &AnnotationConfig::default()).unwrap();
        assert_eq!(
            CostMetric::RequestCount.evaluate(&p, &ann, &reg).unwrap(),
            2.0
        );
        assert_eq!(
            CostMetric::ExecutionTime.evaluate(&p, &ann, &reg).unwrap(),
            240.0
        );
        assert_eq!(
            CostMetric::TimeToScreen.evaluate(&p, &ann, &reg).unwrap(),
            120.0
        );
        assert_eq!(
            CostMetric::Bottleneck.evaluate(&p, &ann, &reg).unwrap(),
            240.0
        );
    }

    #[test]
    fn metric_display_names() {
        assert_eq!(CostMetric::ExecutionTime.to_string(), "execution-time");
        assert_eq!(CostMetric::all().len(), 5);
    }
}
