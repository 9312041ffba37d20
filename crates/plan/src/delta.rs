//! The annotation arithmetic, and its incremental (delta) form.
//!
//! Phase 3 of the optimizer perturbs exactly one fetch factor per trial
//! and re-reads the plan's expected output and cost. Validating the
//! plan, running feasibility analysis and resolving every node's
//! statistics is invariant across trials, so the [`DeltaAnnotator`]
//! does that work once, then propagates a fetch-factor change only
//! through the *downstream cone* of the changed node (the nodes
//! reachable from it), reusing every other node's annotation unchanged.
//!
//! This is the only place the arithmetic is written:
//! [`annotate`](crate::annotate::annotate) is a freshly built annotator
//! and [`back_propagate`](crate::annotate::back_propagate) inverts the
//! same per-node rules. A cone propagation performs the same operations
//! in the same order on the same `f64`s as a fresh build, so the two
//! agree exactly (property-tested in `tests/optimizer_parallel.rs`),
//! which is what lets the parallel branch-and-bound stay byte-identical
//! to the serial one.

use std::collections::BTreeMap;

use seco_query::feasibility::{analyze, BindingSource, FeasibilityReport};
use seco_services::ServiceRegistry;

use crate::annotate::{AnnotatedPlan, Annotation, AnnotationConfig};
use crate::dag::{NodeId, QueryPlan};
use crate::error::PlanError;
use crate::node::PlanNode;

/// Everything the annotation arithmetic needs about one node, resolved
/// once at construction so propagation touches no registry, query, or
/// feasibility state.
#[derive(Debug, Clone)]
enum NodeParams {
    Input,
    Output,
    Selection { selectivity: f64 },
    Join { selectivity: f64, coverage: f64 },
    Service(ServiceParams),
}

/// A service node's resolved statistics.
#[derive(Debug, Clone)]
struct ServiceParams {
    service: String,
    fetches: u32,
    keep_first: bool,
    chunked: bool,
    chunk_size: f64,
    avg_cardinality: f64,
    pipe_selectivity: f64,
}

impl ServiceParams {
    /// Tuples one input tuple yields before the pipe join's selectivity
    /// (§5.5): one for a `keep_first` node, chunk size × fetches for a
    /// search service (capped by its expected total when `cap_by_total`),
    /// the average cardinality for an exact service.
    fn per_input(&self, cap_by_total: bool) -> f64 {
        if self.keep_first {
            1.0
        } else if self.chunked {
            let fetched = self.chunk_size * self.fetches as f64;
            if cap_by_total {
                fetched.min(self.avg_cardinality.max(1.0))
            } else {
                fetched
            }
        } else {
            self.avg_cardinality
        }
    }
}

/// The pipe-join selectivity applying to a service node: the product of
/// the join selectivities between this atom and each distinct atom that
/// pipes values into it.
fn pipe_selectivity(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    report: &FeasibilityReport,
    atom: &str,
) -> Result<f64, PlanError> {
    let mut sel = 1.0;
    let mut seen: Vec<&str> = Vec::new();
    for dep in report.dependencies.iter().filter(|d| d.to_atom == atom) {
        if let BindingSource::Piped { from_atom, .. } = &dep.source {
            if !seen.contains(&from_atom.as_str()) {
                seen.push(from_atom);
                sel *= plan.query.join_selectivity(registry, from_atom, atom)?;
            }
        }
    }
    Ok(sel)
}

/// An annotated plan that can be re-annotated incrementally after a
/// fetch-factor change, recomputing only the changed node's downstream
/// cone.
#[derive(Debug, Clone)]
pub struct DeltaAnnotator {
    params: Vec<NodeParams>,
    preds: Vec<Vec<usize>>,
    /// Topological order of node indices (full recomputes walk it; cone
    /// nodes are recomputed in it).
    topo: Vec<usize>,
    /// Node index → position in `topo`.
    topo_pos: Vec<usize>,
    /// Scratch cone membership of a propagation.
    in_cone: Vec<bool>,
    output: usize,
    cap_by_total: bool,
    ann: AnnotatedPlan,
    /// Node annotations recomputed by delta propagations (observable
    /// work; a full annotation recomputes `len()` nodes).
    nodes_recomputed: usize,
    /// Delta propagations performed.
    propagations: usize,
}

impl DeltaAnnotator {
    /// Builds the annotator: validates the plan, resolves every node's
    /// parameters, and annotates it at its current fetch vector.
    pub fn new(
        plan: &QueryPlan,
        registry: &ServiceRegistry,
        config: &AnnotationConfig,
    ) -> Result<Self, PlanError> {
        plan.validate()?;
        let report = analyze(&plan.query, registry)?;
        Self::with_report(plan, registry, &report, config)
    }

    /// [`Self::new`] for a caller that already holds what it computes: a
    /// plan that passed [`QueryPlan::validate`] and `report`, the
    /// feasibility analysis of `plan.query` under `registry`. The
    /// optimizer validates each topology once, in phase 2, and analyzes
    /// each interface assignment once, in phase 1. Node arities are
    /// still checked, so a plan that breaks the contract is an error,
    /// never a panic.
    pub fn with_report(
        plan: &QueryPlan,
        registry: &ServiceRegistry,
        report: &FeasibilityReport,
        config: &AnnotationConfig,
    ) -> Result<Self, PlanError> {
        let n = plan.len();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(from, to) in plan.edges() {
            preds[to.0].push(from.0);
        }
        let mut params = Vec::with_capacity(n);
        for id in plan.node_ids() {
            let node = plan.node(id)?;
            let arity = match node {
                PlanNode::Input => 0,
                PlanNode::ParallelJoin(_) => 2,
                _ => 1,
            };
            if preds[id.0].len() != arity {
                return Err(PlanError::Invalid {
                    detail: format!("{id} has {} predecessors, wants {arity}", preds[id.0].len()),
                });
            }
            let p = match node {
                PlanNode::Input => NodeParams::Input,
                PlanNode::Output => NodeParams::Output,
                PlanNode::Selection(sel) => NodeParams::Selection {
                    selectivity: sel.selectivity,
                },
                PlanNode::ParallelJoin(spec) => NodeParams::Join {
                    selectivity: spec.selectivity,
                    coverage: spec.completion.coverage_factor(),
                },
                PlanNode::Service(node) => {
                    let iface = registry
                        .interface(&node.service)
                        .map_err(|e| PlanError::Query(e.into()))?;
                    NodeParams::Service(ServiceParams {
                        service: node.service.clone(),
                        fetches: node.fetches,
                        keep_first: node.keep_first,
                        chunked: iface.kind.is_chunked(),
                        chunk_size: iface.stats.chunk_size as f64,
                        avg_cardinality: iface.stats.avg_cardinality,
                        pipe_selectivity: pipe_selectivity(plan, registry, report, &node.atom)?,
                    })
                }
            };
            params.push(p);
        }
        let topo: Vec<usize> = plan.topo_order()?.iter().map(|id| id.0).collect();
        let mut topo_pos = vec![0usize; n];
        for (pos, &node) in topo.iter().enumerate() {
            topo_pos[node] = pos;
        }
        let mut out = DeltaAnnotator {
            params,
            preds,
            topo,
            topo_pos,
            in_cone: Vec::new(),
            output: plan.output().0,
            cap_by_total: config.cap_by_total,
            ann: AnnotatedPlan::from_parts(vec![Annotation::default(); n], BTreeMap::new(), 0.0),
            nodes_recomputed: 0,
            propagations: 0,
        };
        for i in 0..out.topo.len() {
            let node = out.topo[i];
            let ann = out.compute_node(node);
            out.ann.set_annotation(node, ann);
        }
        out.resum();
        Ok(out)
    }

    /// The current annotation (kept consistent with every applied
    /// fetch-factor change).
    pub fn annotated(&self) -> &AnnotatedPlan {
        &self.ann
    }

    /// The current annotation, consuming the annotator.
    pub fn into_annotated(self) -> AnnotatedPlan {
        self.ann
    }

    /// Expected tuples delivered to the output node.
    pub fn output_tuples(&self) -> f64 {
        self.ann.output_tuples
    }

    /// The fetch factor of a service node, `None` for other kinds.
    pub fn fetches(&self, id: NodeId) -> Option<u32> {
        match self.params.get(id.0) {
            Some(NodeParams::Service(s)) => Some(s.fetches),
            _ => None,
        }
    }

    /// Node annotations recomputed by delta propagations so far.
    pub fn nodes_recomputed(&self) -> usize {
        self.nodes_recomputed
    }

    /// Delta propagations performed so far.
    pub fn propagations(&self) -> usize {
        self.propagations
    }

    /// Sets a service node's fetch factor and re-annotates only its
    /// downstream cone. Errors when `id` is not a service node.
    pub fn set_fetches(&mut self, id: NodeId, fetches: u32) -> Result<(), PlanError> {
        match self.params.get_mut(id.0) {
            Some(NodeParams::Service(s)) => s.fetches = fetches,
            Some(_) | None => {
                return Err(PlanError::Invalid {
                    detail: format!("{id} is not a service node"),
                })
            }
        }
        self.propagate_from(id.0);
        Ok(())
    }

    /// The output tuples each node must produce for the plan to yield
    /// `k` answers: the per-node rules of [`Self::compute_node`] run
    /// backwards from the output (see
    /// [`back_propagate`](crate::annotate::back_propagate)).
    pub(crate) fn required(&self, k: f64) -> BTreeMap<NodeId, f64> {
        let mut required: BTreeMap<NodeId, f64> = BTreeMap::new();
        required.insert(NodeId(self.output), k);
        for &node in self.topo.iter().rev() {
            let Some(&req_out) = required.get(&NodeId(node)) else {
                continue;
            };
            let preds = &self.preds[node];
            match &self.params[node] {
                NodeParams::Input => {}
                NodeParams::Output => {
                    required.insert(NodeId(preds[0]), req_out);
                }
                NodeParams::Selection { selectivity } => {
                    required.insert(NodeId(preds[0]), req_out / selectivity.max(1e-9));
                }
                NodeParams::Service(s) => {
                    let per_input = s.per_input(self.cap_by_total);
                    required.insert(
                        NodeId(preds[0]),
                        req_out / (s.pipe_selectivity * per_input).max(1e-9),
                    );
                }
                NodeParams::Join {
                    selectivity,
                    coverage,
                } => {
                    let candidates = req_out / selectivity.max(1e-9);
                    let per_side = (candidates / coverage.max(1e-9)).sqrt();
                    required.insert(NodeId(preds[0]), per_side);
                    required.insert(NodeId(preds[1]), per_side);
                }
            }
        }
        required
    }

    /// Re-derives `calls_by_service` and `output_tuples` from the node
    /// annotations, accumulating in topological order (a fixed
    /// summation order, so the `f64` sums never depend on which nodes a
    /// propagation touched). The services never change, so after the
    /// first sum the map is re-summed in place.
    fn resum(&mut self) {
        let calls = self.ann.calls_by_service_mut();
        calls.values_mut().for_each(|sum| *sum = 0.0);
        for &node in &self.topo {
            if let NodeParams::Service(s) = &self.params[node] {
                let add = self.ann.annotation(NodeId(node)).calls;
                let calls = self.ann.calls_by_service_mut();
                match calls.get_mut(&s.service) {
                    Some(sum) => *sum += add,
                    None => {
                        calls.insert(s.service.clone(), 0.0 + add);
                    }
                }
            }
        }
        let out = self.ann.annotation(NodeId(self.output)).tout;
        self.ann.set_output_tuples(out);
    }

    /// Re-annotates the downstream cone of `start` (inclusive), in
    /// topological order, then re-derives the per-service call sums.
    fn propagate_from(&mut self, start: usize) {
        self.propagations += 1;
        // One pass in global topological order from `start`: a node is
        // in the cone (reachable from `start`) when one of its
        // predecessors is, and every predecessor, in or out of the cone,
        // is final when read.
        let mut in_cone = std::mem::take(&mut self.in_cone);
        in_cone.clear();
        in_cone.resize(self.params.len(), false);
        for pos in self.topo_pos[start]..self.topo.len() {
            let node = self.topo[pos];
            if node != start && !self.preds[node].iter().any(|&p| in_cone[p]) {
                continue;
            }
            in_cone[node] = true;
            let new = self.compute_node(node);
            self.nodes_recomputed += 1;
            self.ann.set_annotation(node, new);
        }
        self.in_cone = in_cone;
        self.resum();
    }

    /// One node's annotation from its predecessors' (the module docs of
    /// [`crate::annotate`] state the rules).
    fn compute_node(&self, node: usize) -> Annotation {
        let preds = &self.preds[node];
        let tin_of = |i: usize| self.ann.annotation(NodeId(preds[i])).tout;
        match &self.params[node] {
            NodeParams::Input => Annotation {
                tin: 1.0,
                tout: 1.0,
                calls: 0.0,
            },
            NodeParams::Output => {
                let tin = tin_of(0);
                Annotation {
                    tin,
                    tout: tin,
                    calls: 0.0,
                }
            }
            NodeParams::Selection { selectivity } => {
                let tin = tin_of(0);
                Annotation {
                    tin,
                    tout: tin * selectivity,
                    calls: 0.0,
                }
            }
            NodeParams::Join {
                selectivity,
                coverage,
            } => {
                let candidates = tin_of(0) * tin_of(1) * coverage;
                Annotation {
                    tin: candidates,
                    tout: candidates * selectivity,
                    calls: 0.0,
                }
            }
            NodeParams::Service(s) => {
                let tin = tin_of(0);
                Annotation {
                    tin,
                    tout: tin * s.pipe_selectivity * s.per_input(self.cap_by_total),
                    calls: tin * s.fetches as f64,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::annotate;
    use crate::node::{PlanNode, ServiceNode};
    use seco_query::builder::running_example;
    use seco_services::domains::entertainment;

    /// The Fig. 10 plan from the annotate tests.
    fn fig10() -> (QueryPlan, ServiceRegistry) {
        let reg = entertainment::build_registry(1).unwrap();
        (crate::annotate::tests::fig10_plan(), reg)
    }

    fn assert_same(a: &AnnotatedPlan, b: &AnnotatedPlan, plan: &QueryPlan) {
        for id in plan.node_ids() {
            let (x, y) = (a.annotation(id), b.annotation(id));
            assert_eq!(x.tin.to_bits(), y.tin.to_bits(), "{id} tin");
            assert_eq!(x.tout.to_bits(), y.tout.to_bits(), "{id} tout");
            assert_eq!(x.calls.to_bits(), y.calls.to_bits(), "{id} calls");
        }
        assert_eq!(a.output_tuples.to_bits(), b.output_tuples.to_bits());
        assert_eq!(a.calls_by_service, b.calls_by_service);
    }

    #[test]
    fn construction_matches_full_annotation() {
        let (plan, reg) = fig10();
        let config = AnnotationConfig::default();
        let full = annotate(&plan, &reg, &config).unwrap();
        let delta = DeltaAnnotator::new(&plan, &reg, &config).unwrap();
        assert_same(&full, delta.annotated(), &plan);
    }

    #[test]
    fn single_change_matches_full_reannotation_bit_for_bit() {
        let (mut plan, reg) = fig10();
        let config = AnnotationConfig::default();
        let mut delta = DeltaAnnotator::new(&plan, &reg, &config).unwrap();
        let m = plan.service_node_of("M").unwrap();
        for f in [2u32, 7, 1, 3] {
            delta.set_fetches(m, f).unwrap();
            if let PlanNode::Service(s) = plan.node_mut(m).unwrap() {
                s.fetches = f;
            }
            let full = annotate(&plan, &reg, &config).unwrap();
            assert_same(&full, delta.annotated(), &plan);
        }
    }

    #[test]
    fn propagation_touches_only_the_downstream_cone() {
        let (plan, reg) = fig10();
        let config = AnnotationConfig::default();
        let mut delta = DeltaAnnotator::new(&plan, &reg, &config).unwrap();
        // The Theatre branch is upstream-independent of Movie: changing
        // Movie's factor must not recompute Theatre.
        let m = plan.service_node_of("M").unwrap();
        let before = delta.nodes_recomputed();
        delta.set_fetches(m, 4).unwrap();
        let touched = delta.nodes_recomputed() - before;
        assert!(
            touched < plan.len(),
            "cone ({touched} nodes) must be smaller than the plan ({})",
            plan.len()
        );
        // M, join, R, output — but neither Input nor T.
        assert_eq!(touched, 4, "M → join → R → output");
    }

    #[test]
    fn non_service_nodes_are_rejected() {
        let (plan, reg) = fig10();
        let mut delta = DeltaAnnotator::new(&plan, &reg, &AnnotationConfig::default()).unwrap();
        assert!(delta.set_fetches(plan.input(), 2).is_err());
        assert!(delta.set_fetches(plan.output(), 2).is_err());
    }

    #[test]
    fn fetches_track_changes() {
        let reg = entertainment::build_registry(1).unwrap();
        let q = running_example();
        let mut p = QueryPlan::new(q);
        let m = p.add(PlanNode::Service(ServiceNode::new("M", "Movie1")));
        let t = p.add(PlanNode::Service(ServiceNode::new("T", "Theatre1")));
        let r = p.add(PlanNode::Service(
            ServiceNode::new("R", "Restaurant1").with_keep_first(),
        ));
        p.connect(p.input(), m).unwrap();
        p.connect(m, t).unwrap();
        p.connect(t, r).unwrap();
        p.connect(r, p.output()).unwrap();
        let mut delta = DeltaAnnotator::new(&p, &reg, &AnnotationConfig::default()).unwrap();
        let fetches = |d: &DeltaAnnotator| [m, t, r].map(|id| d.fetches(id));
        assert_eq!(fetches(&delta), [Some(1); 3]);
        delta.set_fetches(t, 3).unwrap();
        assert_eq!(fetches(&delta), [Some(1), Some(3), Some(1)]);
        assert_eq!(delta.fetches(p.input()), None);
        assert_eq!(delta.propagations(), 1);
    }
}
