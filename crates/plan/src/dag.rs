//! The plan DAG: nodes, dataflow arcs, validation, traversal.

use std::collections::BTreeSet;
use std::fmt;

use seco_query::{Query, SelectionPredicate};

use crate::error::PlanError;
use crate::node::{PlanNode, SelectionNode};

/// Index of a node within a [`QueryPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A query plan: a DAG over [`PlanNode`]s with the query it implements.
///
/// Invariants (checked by [`QueryPlan::validate`]):
/// * exactly one `Input` and one `Output` node;
/// * the graph is acyclic and every node lies on a path from input to
///   output;
/// * every query atom appears in exactly one service node;
/// * parallel-join nodes have exactly two predecessors, service and
///   selection nodes exactly one, output exactly one, input none.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// The query this plan implements.
    pub query: Query,
    nodes: Vec<PlanNode>,
    edges: Vec<(NodeId, NodeId)>,
}

impl QueryPlan {
    /// Starts a plan containing only the input and output nodes.
    pub fn new(query: Query) -> Self {
        QueryPlan {
            query,
            nodes: vec![PlanNode::Input, PlanNode::Output],
            edges: Vec::new(),
        }
    }

    /// The designated input node.
    pub fn input(&self) -> NodeId {
        NodeId(0)
    }

    /// The designated output node.
    pub fn output(&self) -> NodeId {
        NodeId(1)
    }

    /// This plan's nodes and arcs over `query`, with each selection
    /// node's predicates replaced by what `bind` makes of them in
    /// `query`: how a cached plan of one query shape serves another
    /// query of that shape. `None` when `bind` finds no counterpart for
    /// some node.
    pub fn rebind(
        &self,
        query: Query,
        mut bind: impl FnMut(&Query, &[SelectionPredicate]) -> Option<Vec<SelectionPredicate>>,
    ) -> Option<QueryPlan> {
        let mut nodes = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            nodes.push(match node {
                PlanNode::Selection(s) => PlanNode::Selection(SelectionNode {
                    predicates: bind(&query, &s.predicates)?,
                    join_predicates: s.join_predicates.clone(),
                    selectivity: s.selectivity,
                }),
                other => other.clone(),
            });
        }
        Some(QueryPlan {
            query,
            nodes,
            edges: self.edges.clone(),
        })
    }

    /// Adds a node, returning its id.
    pub fn add(&mut self, node: PlanNode) -> NodeId {
        self.nodes.push(node);
        NodeId(self.nodes.len() - 1)
    }

    /// Adds a dataflow arc `from → to`.
    pub fn connect(&mut self, from: NodeId, to: NodeId) -> Result<(), PlanError> {
        if from.0 >= self.nodes.len() {
            return Err(PlanError::UnknownNode(from.0));
        }
        if to.0 >= self.nodes.len() {
            return Err(PlanError::UnknownNode(to.0));
        }
        if !self.edges.contains(&(from, to)) {
            self.edges.push((from, to));
        }
        Ok(())
    }

    /// The node payload.
    pub fn node(&self, id: NodeId) -> Result<&PlanNode, PlanError> {
        self.nodes.get(id.0).ok_or(PlanError::UnknownNode(id.0))
    }

    /// Mutable node payload.
    pub fn node_mut(&mut self, id: NodeId) -> Result<&mut PlanNode, PlanError> {
        self.nodes.get_mut(id.0).ok_or(PlanError::UnknownNode(id.0))
    }

    /// Number of nodes (including input/output).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false: a plan has at least its input and output nodes.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// All arcs.
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// Direct predecessors of a node, in insertion order.
    pub fn predecessors(&self, id: NodeId) -> Vec<NodeId> {
        self.edges
            .iter()
            .filter(|(_, t)| *t == id)
            .map(|(f, _)| *f)
            .collect()
    }

    /// Direct successors of a node, in insertion order.
    pub fn successors(&self, id: NodeId) -> Vec<NodeId> {
        self.edges
            .iter()
            .filter(|(f, _)| *f == id)
            .map(|(_, t)| *t)
            .collect()
    }

    /// The service node producing a given atom, if present.
    pub fn service_node_of(&self, atom: &str) -> Option<NodeId> {
        self.node_ids()
            .find(|id| matches!(&self.nodes[id.0], PlanNode::Service(s) if s.atom == atom))
    }

    /// The set of atoms available (already joined into the dataflow) at
    /// a node's output: every service atom on some path from the input
    /// to this node.
    pub fn atoms_at(&self, id: NodeId) -> BTreeSet<String> {
        self.atom_names_at(id)
            .into_iter()
            .map(str::to_owned)
            .collect()
    }

    /// [`Self::atoms_at`], borrowing the names.
    fn atom_names_at(&self, id: NodeId) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        let mut stack = vec![id];
        let mut seen = vec![false; self.nodes.len()];
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut seen[n.0], true) {
                continue;
            }
            if let PlanNode::Service(s) = &self.nodes[n.0] {
                out.insert(s.atom.as_str());
            }
            stack.extend(self.edges.iter().filter(|(_, t)| *t == n).map(|(f, _)| *f));
        }
        out
    }

    /// A canonical structural key of the fully specified plan: node
    /// kinds, atoms, services, fetch factors, keep-first flags, and
    /// join strategies, rendered from the output node with the branch
    /// subkeys of every parallel join sorted. Two plans that differ
    /// only in node insertion order map to the same key, so the key is
    /// a schedule-independent tie-breaker for equal-cost plans in the
    /// parallel branch-and-bound.
    pub fn canonical_key(&self) -> String {
        fn key_of(plan: &QueryPlan, id: NodeId) -> String {
            match plan.node(id) {
                Ok(PlanNode::Input) => "I".to_owned(),
                Ok(PlanNode::Output) => {
                    let preds = plan.predecessors(id);
                    format!("O({})", key_of(plan, preds[0]))
                }
                Ok(PlanNode::Service(s)) => {
                    let preds = plan.predecessors(id);
                    format!(
                        "S[{}={},F={},kf={}]({})",
                        s.atom,
                        s.service,
                        s.fetches,
                        u8::from(s.keep_first),
                        key_of(plan, preds[0])
                    )
                }
                Ok(PlanNode::Selection(s)) => {
                    let preds = plan.predecessors(id);
                    let mut clauses: Vec<String> = s
                        .predicates
                        .iter()
                        .map(|p| p.to_string())
                        .chain(s.join_predicates.iter().map(|p| p.to_string()))
                        .collect();
                    clauses.sort();
                    format!(
                        "F[{};sel={:x}]({})",
                        clauses.join(","),
                        s.selectivity.to_bits(),
                        key_of(plan, preds[0])
                    )
                }
                Ok(PlanNode::ParallelJoin(spec)) => {
                    let preds = plan.predecessors(id);
                    let mut subs: Vec<String> = preds.iter().map(|p| key_of(plan, *p)).collect();
                    subs.sort();
                    let mut clauses: Vec<String> =
                        spec.predicates.iter().map(|p| p.to_string()).collect();
                    clauses.sort();
                    format!(
                        "J[{},{},{};sel={:x}]({})",
                        spec.invocation,
                        spec.completion,
                        clauses.join(","),
                        spec.selectivity.to_bits(),
                        subs.join("|")
                    )
                }
                Err(_) => "?".to_owned(),
            }
        }
        key_of(self, self.output())
    }

    /// Topological order (input first). Errors on cycles.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, PlanError> {
        topo_sort(self.nodes.len(), &self.edges)
    }

    /// Structural validation (see the type-level invariants).
    pub fn validate(&self) -> Result<(), PlanError> {
        let invalid = |detail: String| Err(PlanError::Invalid { detail });
        // Arity of each node kind.
        let mut indeg = vec![0usize; self.nodes.len()];
        let mut outdeg = vec![0usize; self.nodes.len()];
        for (f, t) in &self.edges {
            outdeg[f.0] += 1;
            indeg[t.0] += 1;
        }
        for id in self.node_ids() {
            let (preds, succs) = (indeg[id.0], outdeg[id.0]);
            match &self.nodes[id.0] {
                PlanNode::Input => {
                    if preds != 0 {
                        return invalid(format!("input node has {preds} predecessors"));
                    }
                    if succs == 0 {
                        return invalid("input node has no successors".into());
                    }
                }
                PlanNode::Output => {
                    if succs != 0 {
                        return invalid(format!("output node has {succs} successors"));
                    }
                    if preds != 1 {
                        return invalid(format!("output node has {preds} predecessors, wants 1"));
                    }
                }
                PlanNode::Service(s) => {
                    if preds != 1 {
                        return invalid(format!(
                            "service node `{}` has {preds} predecessors, wants 1",
                            s.atom
                        ));
                    }
                    if succs == 0 {
                        return invalid(format!("service node `{}` is a dead end", s.atom));
                    }
                }
                PlanNode::ParallelJoin(_) => {
                    if preds != 2 {
                        return invalid(format!(
                            "parallel join {id} has {preds} predecessors, wants 2"
                        ));
                    }
                    if succs == 0 {
                        return invalid(format!("parallel join {id} is a dead end"));
                    }
                }
                PlanNode::Selection(_) => {
                    if preds != 1 {
                        return invalid(format!(
                            "selection node {id} has {preds} predecessors, wants 1"
                        ));
                    }
                    if succs == 0 {
                        return invalid(format!("selection node {id} is a dead end"));
                    }
                }
            }
        }
        // Acyclicity.
        self.topo_order()?;
        // Each query atom appears exactly once.
        for atom in &self.query.atoms {
            let count = self
                .node_ids()
                .filter(
                    |id| matches!(&self.nodes[id.0], PlanNode::Service(s) if s.atom == atom.alias),
                )
                .count();
            if count != 1 {
                return invalid(format!(
                    "atom `{}` appears in {count} service nodes, wants 1",
                    atom.alias
                ));
            }
        }
        // Parallel-join predicates must span the two input branches.
        for id in self.node_ids() {
            if let PlanNode::ParallelJoin(spec) = &self.nodes[id.0] {
                let preds = self.predecessors(id);
                let left = self.atom_names_at(preds[0]);
                let right = self.atom_names_at(preds[1]);
                // Branches may share a common ancestry (the Fig. 2 plan
                // forks after Weather and re-joins Flight and Hotel),
                // but each must contribute something of its own.
                if left.is_subset(&right) || right.is_subset(&left) {
                    return invalid(format!(
                        "parallel join {id} has a branch contributing no new atoms"
                    ));
                }
                for p in &spec.predicates {
                    let la = p.left.atom.as_str();
                    let ra = p.right.atom.as_str();
                    let spans = (left.contains(la) && right.contains(ra))
                        || (left.contains(ra) && right.contains(la));
                    if !spans {
                        return invalid(format!(
                            "join predicate `{p}` does not span the branches of {id}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// The number of search/exact service nodes.
    pub fn service_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, PlanNode::Service(_)))
            .count()
    }
}

/// The topological order of `n` nodes under `edges` (sources first),
/// which every arc must keep in range: a stack of the nodes whose
/// predecessors are all placed, each arc released in `edges` order. The
/// order depends on the arcs' order, so two tables built from the same
/// arc sequence order their nodes alike. Errors on cycles.
pub(crate) fn topo_sort(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Vec<NodeId>, PlanError> {
    let mut indeg = vec![0usize; n];
    for (_, t) in edges {
        indeg[t.0] += 1;
    }
    let mut queue: Vec<NodeId> = (0..n).filter(|i| indeg[*i] == 0).map(NodeId).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(id) = queue.pop() {
        order.push(id);
        for &(f, s) in edges {
            if f != id {
                continue;
            }
            indeg[s.0] -= 1;
            if indeg[s.0] == 0 {
                queue.push(s);
            }
        }
    }
    if order.len() != n {
        return Err(PlanError::Cyclic);
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Completion, Invocation, JoinSpec, ServiceNode};
    use seco_query::QueryBuilder;

    fn two_atom_query() -> Query {
        QueryBuilder::new()
            .atom("A", "SvcA")
            .atom("B", "SvcB")
            .build()
            .unwrap()
    }

    /// input -> A -> B -> output (pipe chain).
    fn chain_plan() -> QueryPlan {
        let mut p = QueryPlan::new(two_atom_query());
        let a = p.add(PlanNode::Service(ServiceNode::new("A", "SvcA")));
        let b = p.add(PlanNode::Service(ServiceNode::new("B", "SvcB")));
        p.connect(p.input(), a).unwrap();
        p.connect(a, b).unwrap();
        p.connect(b, p.output()).unwrap();
        p
    }

    /// input -> {A, B} -> join -> output.
    fn parallel_plan() -> QueryPlan {
        let mut p = QueryPlan::new(two_atom_query());
        let a = p.add(PlanNode::Service(ServiceNode::new("A", "SvcA")));
        let b = p.add(PlanNode::Service(ServiceNode::new("B", "SvcB")));
        let j = p.add(PlanNode::ParallelJoin(JoinSpec {
            invocation: Invocation::merge_scan_even(),
            completion: Completion::Rectangular,
            predicates: vec![],
            selectivity: 0.1,
        }));
        p.connect(p.input(), a).unwrap();
        p.connect(p.input(), b).unwrap();
        p.connect(a, j).unwrap();
        p.connect(b, j).unwrap();
        p.connect(j, p.output()).unwrap();
        p
    }

    #[test]
    fn chain_plan_validates() {
        let p = chain_plan();
        assert!(p.validate().is_ok());
        assert_eq!(p.service_count(), 2);
        assert_eq!(p.predecessors(p.output()).len(), 1);
    }

    #[test]
    fn parallel_plan_validates() {
        let p = parallel_plan();
        assert!(p.validate().is_ok());
        let j = p
            .node_ids()
            .find(|id| matches!(p.node(*id).unwrap(), PlanNode::ParallelJoin(_)))
            .unwrap();
        assert_eq!(p.predecessors(j).len(), 2);
        let atoms = p.atoms_at(j);
        assert!(atoms.contains("A") && atoms.contains("B"));
    }

    #[test]
    fn topo_order_is_consistent() {
        let p = chain_plan();
        let order = p.topo_order().unwrap();
        let pos = |id: NodeId| order.iter().position(|x| *x == id).unwrap();
        for (f, t) in p.edges() {
            assert!(pos(*f) < pos(*t), "edge {f}->{t} violates topo order");
        }
    }

    #[test]
    fn cycles_are_detected() {
        let mut p = chain_plan();
        // a -> b exists; add b -> a.
        let a = p.service_node_of("A").unwrap();
        let b = p.service_node_of("B").unwrap();
        p.connect(b, a).unwrap();
        assert_eq!(p.topo_order().unwrap_err(), PlanError::Cyclic);
        assert!(p.validate().is_err());
    }

    #[test]
    fn missing_atom_fails_validation() {
        let mut p = QueryPlan::new(two_atom_query());
        let a = p.add(PlanNode::Service(ServiceNode::new("A", "SvcA")));
        p.connect(p.input(), a).unwrap();
        p.connect(a, p.output()).unwrap();
        let err = p.validate().unwrap_err();
        assert!(matches!(err, PlanError::Invalid { detail } if detail.contains("`B`")));
    }

    #[test]
    fn dangling_service_fails_validation() {
        let mut p = chain_plan();
        // Orphan service node with no predecessor.
        let c = p.add(PlanNode::Service(ServiceNode::new("C", "SvcC")));
        p.connect(c, p.output()).unwrap();
        assert!(p.validate().is_err());
    }

    #[test]
    fn join_with_one_input_fails_validation() {
        let mut p = QueryPlan::new(two_atom_query());
        let a = p.add(PlanNode::Service(ServiceNode::new("A", "SvcA")));
        let b = p.add(PlanNode::Service(ServiceNode::new("B", "SvcB")));
        let j = p.add(PlanNode::ParallelJoin(JoinSpec {
            invocation: Invocation::NestedLoop,
            completion: Completion::Rectangular,
            predicates: vec![],
            selectivity: 1.0,
        }));
        p.connect(p.input(), a).unwrap();
        p.connect(a, b).unwrap();
        p.connect(b, j).unwrap();
        p.connect(j, p.output()).unwrap();
        let err = p.validate().unwrap_err();
        assert!(matches!(err, PlanError::Invalid { detail } if detail.contains("wants 2")));
    }

    #[test]
    fn connect_rejects_unknown_nodes() {
        let mut p = chain_plan();
        assert!(p.connect(NodeId(99), p.output()).is_err());
        assert!(p.connect(p.input(), NodeId(99)).is_err());
        assert!(p.node(NodeId(99)).is_err());
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let mut p = chain_plan();
        let a = p.service_node_of("A").unwrap();
        let n = p.edges().len();
        p.connect(p.input(), a).unwrap();
        assert_eq!(p.edges().len(), n);
    }
}
