//! The annotation arithmetic, and its incremental (delta) form.
//!
//! Phase 3 of the optimizer perturbs exactly one fetch factor per trial
//! and re-reads the plan's expected output and cost. Validating the
//! plan, running feasibility analysis and resolving every node's
//! statistics is invariant across trials, so the work is split in two:
//! a [`NodeTable`] holds every node's resolved parameters, its
//! predecessors and a topological order, and the [`DeltaAnnotator`]
//! annotates that table once, then propagates a fetch-factor change only
//! through the *downstream cone* of the changed node (the nodes
//! reachable from it), reusing every other node's annotation unchanged.
//!
//! This is the only place the arithmetic is written:
//! [`annotate`](crate::annotate::annotate) is a freshly built annotator
//! and [`back_propagate`](crate::annotate::back_propagate) inverts the
//! same per-node rules. A cone propagation performs the same operations
//! in the same order on the same `f64`s as a fresh build, so the two
//! agree exactly (property-tested in `tests/delta_annotation.rs`): an
//! annotator's state depends only on its current fetch factors, never
//! on the trials that led there.
//!
//! A table need not come from a [`QueryPlan`]: the optimizer builds one
//! straight from a phase-2 topology (small vectors, no strings), and a
//! table built from the plan that topology materializes into is equal
//! to it, so both annotate and cost alike.

use std::collections::BTreeMap;
use std::sync::Arc;

use seco_query::feasibility::{analyze, BindingSource, FeasibilityReport};
use seco_query::Query;
use seco_services::ServiceRegistry;

use crate::annotate::{AnnotatedPlan, Annotation, AnnotationConfig};
use crate::dag::{topo_sort, NodeId, QueryPlan};
use crate::error::PlanError;
use crate::node::PlanNode;

/// Everything the annotation arithmetic and the cost metrics read about
/// one node, resolved once so that neither touches a registry, a query
/// or a feasibility analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeParams {
    /// The input node.
    Input,
    /// The output node.
    Output,
    /// A selection (or join-filter) node.
    Selection {
        /// Its selectivity estimate.
        selectivity: f64,
    },
    /// A parallel join.
    Join {
        /// The join selectivity.
        selectivity: f64,
        /// The completion strategy's share of the candidate space.
        coverage: f64,
    },
    /// A service invocation.
    Service(ServiceParams),
}

impl NodeParams {
    /// Predecessors a node of this kind takes.
    fn arity(&self) -> usize {
        match self {
            NodeParams::Input => 0,
            NodeParams::Join { .. } => 2,
            _ => 1,
        }
    }
}

/// A service node's resolved statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceParams {
    /// Rank of the node's service among the table's services, which are
    /// kept in name order ([`NodeTable::services`]).
    pub service: u32,
    /// The fetch factor `F`.
    pub fetches: u32,
    /// Keeps one tuple per successful invocation.
    pub keep_first: bool,
    /// A search (chunked) service.
    pub chunked: bool,
    /// Tuples per chunk.
    pub chunk_size: f64,
    /// Expected total result size per invocation.
    pub avg_cardinality: f64,
    /// Chunks an invocation is expected to have.
    pub expected_chunks: usize,
    /// The pipe-join selectivity applying to the node
    /// ([`pipe_selectivity`]).
    pub pipe_selectivity: f64,
    /// Expected response time of one call (ms).
    pub response_time_ms: f64,
    /// Cost of one call (abstract units).
    pub cost_per_call: f64,
}

impl ServiceParams {
    /// The statistics of interface `service`, at fetch factor 1 and
    /// without `keep_first`.
    pub fn resolve(
        registry: &ServiceRegistry,
        service: &str,
        rank: u32,
        pipe_selectivity: f64,
    ) -> Result<Self, PlanError> {
        let iface = registry
            .interface(service)
            .map_err(|e| PlanError::Query(e.into()))?;
        Ok(ServiceParams {
            service: rank,
            fetches: 1,
            keep_first: false,
            chunked: iface.kind.is_chunked(),
            chunk_size: iface.stats.chunk_size as f64,
            avg_cardinality: iface.stats.avg_cardinality,
            expected_chunks: iface.stats.expected_chunks(),
            pipe_selectivity,
            response_time_ms: iface.stats.response_time_ms,
            cost_per_call: iface.stats.cost_per_call,
        })
    }

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

/// The pipe-join selectivity applying to `atom`'s service node: the
/// product of the join selectivities between `atom` and each distinct
/// atom that pipes values into it under `report`.
pub fn pipe_selectivity(
    query: &Query,
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
                sel *= query.join_selectivity(registry, from_atom, atom)?;
            }
        }
    }
    Ok(sel)
}

/// A plan as the annotation arithmetic and the cost metrics read it:
/// every node's [`NodeParams`] by node index, its predecessors in arc
/// order, and one topological order.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTable {
    nodes: Vec<NodeParams>,
    /// Predecessors by node; the first `arity` entries are used.
    preds: Vec<[usize; 2]>,
    topo: Vec<NodeId>,
    output: usize,
    /// The distinct services of the service nodes, in name order.
    services: Arc<[String]>,
}

impl NodeTable {
    /// A table over `nodes` (by node index) and the arcs between them.
    /// Every node must have its kind's number of predecessors, the arcs
    /// must form a DAG, and each service rank must index `services`.
    /// The topological order is [`QueryPlan::topo_order`]'s over the
    /// same arc sequence.
    pub fn new(
        nodes: Vec<NodeParams>,
        edges: &[(NodeId, NodeId)],
        output: NodeId,
        services: Arc<[String]>,
    ) -> Result<Self, PlanError> {
        let n = nodes.len();
        let mut preds = vec![[0usize; 2]; n];
        let mut indeg = vec![0usize; n];
        for &(from, to) in edges {
            if from.0 >= n || to.0 >= n {
                return Err(PlanError::UnknownNode(from.0.max(to.0)));
            }
            if let Some(slot) = preds[to.0].get_mut(indeg[to.0]) {
                *slot = from.0;
            }
            indeg[to.0] += 1;
        }
        for (i, node) in nodes.iter().enumerate() {
            let arity = node.arity();
            if indeg[i] != arity {
                return Err(PlanError::Invalid {
                    detail: format!("{} has {} predecessors, wants {arity}", NodeId(i), indeg[i]),
                });
            }
            if let NodeParams::Service(s) = node {
                if s.service as usize >= services.len() {
                    return Err(PlanError::Invalid {
                        detail: format!("{} names service rank {}", NodeId(i), s.service),
                    });
                }
            }
        }
        if output.0 >= n {
            return Err(PlanError::UnknownNode(output.0));
        }
        Ok(NodeTable {
            topo: topo_sort(n, edges)?,
            nodes,
            preds,
            output: output.0,
            services,
        })
    }

    /// The table of `plan`, a plan that passed [`QueryPlan::validate`],
    /// with `report` the feasibility analysis of `plan.query` under
    /// `registry`.
    pub fn from_plan(
        plan: &QueryPlan,
        registry: &ServiceRegistry,
        report: &FeasibilityReport,
    ) -> Result<Self, PlanError> {
        let mut services: Vec<&str> = Vec::new();
        for id in plan.node_ids() {
            if let PlanNode::Service(s) = plan.node(id)? {
                services.push(&s.service);
            }
        }
        services.sort_unstable();
        services.dedup();
        let mut nodes = Vec::with_capacity(plan.len());
        for id in plan.node_ids() {
            nodes.push(match plan.node(id)? {
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
                    let rank = services.partition_point(|s| *s < node.service.as_str());
                    let pipe = pipe_selectivity(&plan.query, registry, report, &node.atom)?;
                    let params =
                        ServiceParams::resolve(registry, &node.service, rank as u32, pipe)?;
                    NodeParams::Service(ServiceParams {
                        fetches: node.fetches,
                        keep_first: node.keep_first,
                        ..params
                    })
                }
            });
        }
        let services = services.into_iter().map(str::to_owned).collect();
        NodeTable::new(nodes, plan.edges(), plan.output(), services)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Never true: [`Self::new`] requires the output node.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node `i`'s parameters.
    pub fn node(&self, i: usize) -> &NodeParams {
        &self.nodes[i]
    }

    /// Node `i`'s predecessors, in arc order.
    pub fn preds(&self, i: usize) -> &[usize] {
        &self.preds[i][..self.nodes[i].arity()]
    }

    /// The nodes in topological order.
    pub fn topo(&self) -> &[NodeId] {
        &self.topo
    }

    /// The output node's index.
    pub fn output(&self) -> usize {
        self.output
    }

    /// The services of the service nodes, in name order; a
    /// [`ServiceParams::service`] rank indexes this.
    pub fn services(&self) -> &[String] {
        &self.services
    }
}

/// An annotated plan that can be re-annotated incrementally after a
/// fetch-factor change, recomputing only the changed node's downstream
/// cone.
#[derive(Debug, Clone)]
pub struct DeltaAnnotator {
    table: NodeTable,
    /// Node index → position in the table's topological order.
    topo_pos: Vec<usize>,
    /// Scratch cone membership of a propagation.
    in_cone: Vec<bool>,
    cap_by_total: bool,
    annotations: Vec<Annotation>,
    /// Expected calls per service, by rank.
    service_calls: Vec<f64>,
    output_tuples: f64,
    /// Node annotations recomputed by delta propagations (observable
    /// work; a full annotation recomputes `len()` nodes).
    nodes_recomputed: usize,
    /// Delta propagations performed.
    propagations: usize,
}

impl DeltaAnnotator {
    /// Builds the annotator: validates the plan, analyzes its query,
    /// resolves its [`NodeTable`], and annotates it at its current fetch
    /// vector.
    pub fn new(
        plan: &QueryPlan,
        registry: &ServiceRegistry,
        config: &AnnotationConfig,
    ) -> Result<Self, PlanError> {
        plan.validate()?;
        let report = analyze(&plan.query, registry)?;
        let table = NodeTable::from_plan(plan, registry, &report)?;
        Ok(Self::from_table(table, config))
    }

    /// Annotates `table` at its current fetch vector.
    pub fn from_table(table: NodeTable, config: &AnnotationConfig) -> Self {
        let n = table.len();
        let mut topo_pos = vec![0usize; n];
        for (pos, node) in table.topo.iter().enumerate() {
            topo_pos[node.0] = pos;
        }
        let mut out = DeltaAnnotator {
            service_calls: vec![0.0; table.services.len()],
            table,
            topo_pos,
            in_cone: Vec::new(),
            cap_by_total: config.cap_by_total,
            annotations: vec![Annotation::default(); n],
            output_tuples: 0.0,
            nodes_recomputed: 0,
            propagations: 0,
        };
        for i in 0..n {
            let node = out.table.topo[i].0;
            out.annotations[node] = out.compute_node(node);
        }
        out.resum();
        out
    }

    /// The table this annotator annotates.
    pub fn table(&self) -> &NodeTable {
        &self.table
    }

    /// Every node's current annotation, by node index.
    pub fn annotations(&self) -> &[Annotation] {
        &self.annotations
    }

    /// Current expected calls per service, in the order of
    /// [`NodeTable::services`]: each sums its nodes' calls in
    /// topological order.
    pub fn service_calls(&self) -> &[f64] {
        &self.service_calls
    }

    /// The current annotation as an [`AnnotatedPlan`].
    pub fn to_annotated(&self) -> AnnotatedPlan {
        let calls = self
            .table
            .services
            .iter()
            .cloned()
            .zip(self.service_calls.iter().copied())
            .collect();
        AnnotatedPlan::from_parts(self.annotations.clone(), calls, self.output_tuples)
    }

    /// The current annotation, consuming the annotator.
    pub fn into_annotated(self) -> AnnotatedPlan {
        self.to_annotated()
    }

    /// Expected tuples delivered to the output node.
    pub fn output_tuples(&self) -> f64 {
        self.output_tuples
    }

    /// The fetch factor of a service node, `None` for other kinds.
    pub fn fetches(&self, id: NodeId) -> Option<u32> {
        match self.table.nodes.get(id.0) {
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
        match self.table.nodes.get_mut(id.0) {
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
        required.insert(NodeId(self.table.output), k);
        for &node in self.table.topo.iter().rev() {
            let Some(&req_out) = required.get(&node) else {
                continue;
            };
            let preds = self.table.preds(node.0);
            match self.table.node(node.0) {
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

    /// Re-derives the per-service calls and `output_tuples` from the
    /// node annotations, accumulating in topological order (a fixed
    /// summation order, so the `f64` sums never depend on which nodes a
    /// propagation touched).
    fn resum(&mut self) {
        self.service_calls.iter_mut().for_each(|sum| *sum = 0.0);
        for node in &self.table.topo {
            if let NodeParams::Service(s) = &self.table.nodes[node.0] {
                self.service_calls[s.service as usize] += self.annotations[node.0].calls;
            }
        }
        self.output_tuples = self.annotations[self.table.output].tout;
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
        in_cone.resize(self.table.len(), false);
        for pos in self.topo_pos[start]..self.table.topo.len() {
            let node = self.table.topo[pos].0;
            if node != start && !self.table.preds(node).iter().any(|&p| in_cone[p]) {
                continue;
            }
            in_cone[node] = true;
            self.annotations[node] = self.compute_node(node);
            self.nodes_recomputed += 1;
        }
        self.in_cone = in_cone;
        self.resum();
    }

    /// One node's annotation from its predecessors' (the module docs of
    /// [`crate::annotate`] state the rules).
    fn compute_node(&self, node: usize) -> Annotation {
        let preds = self.table.preds(node);
        let tin_of = |i: usize| self.annotations[preds[i]].tout;
        match self.table.node(node) {
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
        assert_same(&full, &delta.to_annotated(), &plan);
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
            assert_same(&full, &delta.to_annotated(), &plan);
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
