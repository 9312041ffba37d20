//! Cardinality annotation: from a plan to a *fully instantiated query
//! plan* (§3.2, Figs. 3 and 10).
//!
//! For each node the annotation records the expected number of input
//! tuples `tin`, output tuples `tout`, and request-responses `calls`,
//! derived from the service statistics under the chapter's independence
//! and uniform-distribution assumptions:
//!
//! * exact services: `tout = tin × avg_cardinality`;
//! * search services: `tout = tin × chunk_size × F` (capped by the
//!   expected total result size), where `F` is the node's fetch factor;
//! * pipe-joined services additionally multiply by the pipe join's
//!   selectivity, and a `keep_first` node keeps one tuple per
//!   *successful* invocation (the §5.6 `Restaurant` choice);
//! * selection nodes: `tout = tin × selectivity`;
//! * parallel joins: `candidates = tout_left × tout_right ×
//!   coverage(completion)` and `tout = candidates × selectivity` — the
//!   triangular strategy's ½ factor is §5.6's "only the half of the most
//!   promising combinations are considered".

use std::collections::BTreeMap;

use seco_services::ServiceRegistry;

use crate::dag::{NodeId, QueryPlan};
use crate::delta::DeltaAnnotator;
use crate::error::PlanError;

/// Per-node annotation of a fully instantiated plan.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Annotation {
    /// Expected tuples flowing into the node. For parallel joins this is
    /// the number of *candidate combinations* examined
    /// (`tout_left × tout_right × coverage`).
    pub tin: f64,
    /// Expected tuples flowing out of the node.
    pub tout: f64,
    /// Expected request-responses issued by the node (0 for non-service
    /// nodes).
    pub calls: f64,
}

/// Knobs of the annotation arithmetic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnotationConfig {
    /// Cap each search service's per-input-tuple output at its expected
    /// total result size (`avg_cardinality`). On by default: fetching 50
    /// chunks of a 100-tuple list still yields 100 tuples.
    pub cap_by_total: bool,
}

impl Default for AnnotationConfig {
    fn default() -> Self {
        AnnotationConfig { cap_by_total: true }
    }
}

/// A plan together with its per-node annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotatedPlan {
    annotations: Vec<Annotation>,
    /// Per-service expected calls, keyed by interface name (summed over
    /// nodes; inputs to the cost metrics).
    pub calls_by_service: BTreeMap<String, f64>,
    /// Expected tuples delivered to the output node.
    pub output_tuples: f64,
}

impl AnnotatedPlan {
    /// The annotation of a node.
    pub fn annotation(&self, id: NodeId) -> Annotation {
        self.annotations.get(id.0).copied().unwrap_or_default()
    }

    /// Total expected request-responses of the plan.
    pub fn total_calls(&self) -> f64 {
        self.calls_by_service.values().sum()
    }

    /// Every node's annotation, by node index.
    pub fn annotations(&self) -> &[Annotation] {
        &self.annotations
    }

    /// Assembles an annotated plan from precomputed parts (the
    /// incremental annotator keeps them in compact form).
    pub(crate) fn from_parts(
        annotations: Vec<Annotation>,
        calls_by_service: BTreeMap<String, f64>,
        output_tuples: f64,
    ) -> Self {
        AnnotatedPlan {
            annotations,
            calls_by_service,
            output_tuples,
        }
    }
}

/// Annotates a validated plan. See the module docs for the arithmetic,
/// which lives in [`DeltaAnnotator`]: this is a freshly built one.
pub fn annotate(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    config: &AnnotationConfig,
) -> Result<AnnotatedPlan, PlanError> {
    DeltaAnnotator::new(plan, registry, config).map(DeltaAnnotator::into_annotated)
}

/// Back-propagates the output target `K` through the plan (§5.6: "The
/// value of K can be 'back-propagated' through the nodes of the plan"),
/// returning for each node the number of output tuples it must produce
/// so that the plan yields `k` answers.
///
/// Inverse arithmetic of [`annotate`]:
///
/// * output / input: pass through;
/// * selection: `required_in = required_out / selectivity`;
/// * pipe-joined service: `required_in = required_out / (pipe_sel ×
///   per_input)` — e.g. the §5.6 step "tRestaurant_out = 10 implies
///   tRestaurant_in = 25, by virtue of the selectivity of the pipe
///   join";
/// * parallel join: `candidates = required_out / selectivity`, split
///   evenly (in the geometric-mean sense) between the branches — the
///   *square-is-better* reading of the chapter's "the space of possible
///   solutions opens up quite widely" remark.
pub fn back_propagate(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    k: f64,
) -> Result<BTreeMap<NodeId, f64>, PlanError> {
    Ok(DeltaAnnotator::new(plan, registry, &AnnotationConfig::default())?.required(k))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dag::QueryPlan;
    use crate::node::{Completion, Invocation, JoinSpec, PlanNode, SelectionNode, ServiceNode};
    use seco_model::{Comparator, Value};
    use seco_query::builder::running_example;
    use seco_query::{QueryBuilder, SelectionPredicate};
    use seco_services::domains::{entertainment, travel};

    /// Builds the Fig. 10 plan: Input → {Movie(F=5), Theatre(F=5)} →
    /// MS-join (triangular) → Restaurant (keep-first) → Output.
    pub fn fig10_plan() -> QueryPlan {
        let query = running_example();
        let mut p = QueryPlan::new(query.clone());
        let m = p.add(PlanNode::Service(
            ServiceNode::new("M", "Movie1").with_fetches(5),
        ));
        let t = p.add(PlanNode::Service(
            ServiceNode::new("T", "Theatre1").with_fetches(5),
        ));
        let reg = entertainment::build_registry(1).unwrap();
        let joins = query.expanded_joins(&reg).unwrap();
        let shows: Vec<_> = joins
            .iter()
            .filter(|j| j.connects("M", "T"))
            .cloned()
            .collect();
        let j = p.add(PlanNode::ParallelJoin(JoinSpec {
            invocation: Invocation::merge_scan_even(),
            completion: Completion::Triangular,
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
        p
    }

    #[test]
    fn fig10_arithmetic_is_reproduced_exactly() {
        // §5.6: 5 fetches of 20 movies = 100; 5 fetches of 5 theatres
        // = 25; triangular halves 2500 → 1250 candidates; 2% Shows
        // selectivity → tMS_out = 25; DinnerPlace 40% with keep-first →
        // tRestaurant_out = 10 = K.
        let reg = entertainment::build_registry(1).unwrap();
        let plan = fig10_plan();
        let ann = annotate(&plan, &reg, &AnnotationConfig::default()).unwrap();

        let m = plan.service_node_of("M").unwrap();
        let t = plan.service_node_of("T").unwrap();
        let r = plan.service_node_of("R").unwrap();
        let j = plan
            .node_ids()
            .find(|id| matches!(plan.node(*id).unwrap(), PlanNode::ParallelJoin(_)))
            .unwrap();

        assert_eq!(ann.annotation(m).tout, 100.0, "tMovie_out");
        assert_eq!(ann.annotation(m).calls, 5.0, "5 Movie fetches");
        assert_eq!(ann.annotation(t).tout, 25.0, "tTheatre_out");
        assert_eq!(ann.annotation(t).calls, 5.0, "5 Theatre fetches");
        assert_eq!(ann.annotation(j).tin, 1250.0, "1250 candidate combinations");
        assert_eq!(ann.annotation(j).tout, 25.0, "tMS_out");
        assert_eq!(ann.annotation(r).tin, 25.0, "tRestaurant_in");
        assert_eq!(ann.annotation(r).tout, 10.0, "tRestaurant_out = K = 10");
        assert_eq!(ann.output_tuples, 10.0);
        assert_eq!(
            ann.annotation(r).calls,
            25.0,
            "one call per piped theatre location"
        );
        assert_eq!(ann.total_calls(), 35.0);
    }

    /// Builds the Fig. 2/3 plan: Input → Conference → Weather →
    /// σ(AvgTemp>26) → {Flight, Hotel} → MS-join → Output.
    fn fig3_plan() -> (QueryPlan, seco_services::ServiceRegistry) {
        let reg = travel::build_registry(5).unwrap();
        let query = QueryBuilder::new()
            .atom("C", "Conference1")
            .atom("W", "Weather1")
            .atom("F", "Flight1")
            .atom("H", "Hotel1")
            .pattern("Forecast", "C", "W")
            .pattern("ReachedBy", "C", "F")
            .pattern("StayAt", "C", "H")
            .pattern("SameTrip", "F", "H")
            .select_const("C", "Topic", Comparator::Eq, Value::text("databases"))
            .select_const("W", "AvgTemp", Comparator::Gt, Value::Int(26))
            .build()
            .unwrap();
        let mut p = QueryPlan::new(query.clone());
        let c = p.add(PlanNode::Service(ServiceNode::new("C", "Conference1")));
        let w = p.add(PlanNode::Service(ServiceNode::new("W", "Weather1")));
        let sel = p.add(PlanNode::Selection(
            SelectionNode::new(vec![SelectionPredicate {
                left: seco_query::QualifiedPath::new(
                    "W",
                    seco_model::AttributePath::atomic("AvgTemp"),
                ),
                op: Comparator::Gt,
                right: seco_query::Operand::Const(Value::Int(26)),
            }])
            .with_selectivity(0.25),
        ));
        let f = p.add(PlanNode::Service(
            ServiceNode::new("F", "Flight1").with_fetches(2),
        ));
        let h = p.add(PlanNode::Service(
            ServiceNode::new("H", "Hotel1").with_fetches(2),
        ));
        let joins = query.expanded_joins(&reg).unwrap();
        let same_trip: Vec<_> = joins
            .iter()
            .filter(|j| j.connects("F", "H"))
            .cloned()
            .collect();
        let j = p.add(PlanNode::ParallelJoin(JoinSpec {
            invocation: Invocation::merge_scan_even(),
            completion: Completion::Rectangular,
            predicates: same_trip,
            selectivity: 1.0,
        }));
        p.connect(p.input(), c).unwrap();
        p.connect(c, w).unwrap();
        p.connect(w, sel).unwrap();
        p.connect(sel, f).unwrap();
        p.connect(sel, h).unwrap();
        p.connect(f, j).unwrap();
        p.connect(h, j).unwrap();
        p.connect(j, p.output()).unwrap();
        (p, reg)
    }

    #[test]
    fn fig3_annotation_shape() {
        let (plan, reg) = fig3_plan();
        let ann = annotate(&plan, &reg, &AnnotationConfig::default()).unwrap();
        let c = plan.service_node_of("C").unwrap();
        let w = plan.service_node_of("W").unwrap();
        let f = plan.service_node_of("F").unwrap();
        // Conference: 1 call, 20 conferences (proliferative).
        assert_eq!(ann.annotation(c).calls, 1.0);
        assert_eq!(ann.annotation(c).tout, 20.0);
        // Weather: 20 calls, one forecast each.
        assert_eq!(ann.annotation(w).calls, 20.0);
        assert_eq!(ann.annotation(w).tout, 20.0);
        // Selection keeps a quarter: 5 warm conferences.
        let sel_id = plan
            .node_ids()
            .find(|id| matches!(plan.node(*id).unwrap(), PlanNode::Selection(_)))
            .unwrap();
        assert_eq!(ann.annotation(sel_id).tout, 5.0);
        // Flight: 5 input tuples × 2 fetches = 10 calls, 5×2×10=100 tuples.
        assert_eq!(ann.annotation(f).calls, 10.0);
        assert_eq!(ann.annotation(f).tout, 100.0);
        assert!(ann.output_tuples > 0.0);
        assert_eq!(ann.calls_by_service["Weather1"], 20.0);
    }

    #[test]
    fn search_output_is_capped_by_total_results() {
        // Theatre has 25 expected results; asking for 10 chunks of 5
        // cannot produce more than 25 tuples.
        let reg = entertainment::build_registry(1).unwrap();
        let mut plan = fig10_plan();
        let t = plan.service_node_of("T").unwrap();
        if let PlanNode::Service(s) = plan.node_mut(t).unwrap() {
            s.fetches = 10;
        }
        let ann = annotate(&plan, &reg, &AnnotationConfig::default()).unwrap();
        assert_eq!(ann.annotation(t).tout, 25.0);
        // Without the cap the naive arithmetic would say 50.
        let ann = annotate(
            &plan,
            &reg,
            &AnnotationConfig {
                cap_by_total: false,
            },
        )
        .unwrap();
        assert_eq!(ann.annotation(t).tout, 50.0);
    }

    #[test]
    fn back_propagation_reproduces_the_section_5_6_steps() {
        // "K = 10 implies tRestaurant_out = 10 […] tRestaurant_in = 25
        // […] this in turn implies tMS_out = 25".
        let reg = entertainment::build_registry(1).unwrap();
        let plan = fig10_plan();
        let required = back_propagate(&plan, &reg, 10.0).unwrap();
        let r = plan.service_node_of("R").unwrap();
        let j = plan
            .node_ids()
            .find(|id| matches!(plan.node(*id).unwrap(), PlanNode::ParallelJoin(_)))
            .unwrap();
        assert_eq!(required[&plan.output()], 10.0);
        assert_eq!(
            required[&r], 10.0,
            "the restaurant node must output K tuples"
        );
        assert_eq!(required[&j], 25.0, "tMS_out = tRestaurant_in = 25");
        // The join's branches split the 1250 required candidates
        // geometrically: sqrt(2500) = 50 per side.
        let m = plan.service_node_of("M").unwrap();
        let t = plan.service_node_of("T").unwrap();
        assert_eq!(required[&m], 50.0);
        assert_eq!(required[&t], 50.0);
    }

    #[test]
    fn back_propagation_inverts_selection_nodes() {
        let (plan, reg) = fig3_plan();
        let required = back_propagate(&plan, &reg, 8.0).unwrap();
        let sel = plan
            .node_ids()
            .find(|id| matches!(plan.node(*id).unwrap(), PlanNode::Selection(_)))
            .unwrap();
        let w = plan.service_node_of("W").unwrap();
        // The 0.25 selection quadruples the requirement upstream.
        let sel_req = required[&sel];
        assert!((required[&w] - sel_req / 0.25).abs() < 1e-9);
    }

    #[test]
    fn annotation_rejects_invalid_plans() {
        let reg = entertainment::build_registry(1).unwrap();
        let q = running_example();
        let p = QueryPlan::new(q); // no service nodes at all
        assert!(annotate(&p, &reg, &AnnotationConfig::default()).is_err());
    }
}
