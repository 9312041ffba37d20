//! Phase 2: topology selection (§5.4).
//!
//! Given a feasible interface assignment, enumerate the DAGs compatible
//! with the I/O precedence constraints: "It starts by placing after the
//! initial node some node corresponding to a reachable service, and
//! then by progressively adding nodes corresponding to services that
//! are reachable by virtue of the user input variables and the services
//! already included in the query. Nodes can be added in series or in
//! parallel with respect to already included nodes, compatibly with the
//! constraints enforced by I/O dependencies."
//!
//! Concretely, a topology is built by maintaining a set of *branches*
//! rooted at the input node. At each step either
//!
//! * an unplaced atom is appended **in series** to a branch that
//!   already contains all its pipe sources (atoms with only constant
//!   bindings may extend any branch, including an empty one — a new
//!   parallel branch from the input), or
//! * two branches are **merged** by a parallel-join node carrying the
//!   cross-branch join predicates.
//!
//! Predicate placement follows §3.2: selection predicates not absorbed
//! by input bindings become selection nodes immediately after the
//! service that makes them evaluable; join predicates absorbed by a
//! pipe vanish into the piped invocation; join predicates between atoms
//! of the same chain become join-filter selection nodes; join
//! predicates across merged branches annotate the parallel-join node.
//! Duplicate topologies (same canonical structure) are emitted once.
//!
//! The same partial topology is reachable along many move orders (place
//! `A` then `B` on separate branches, or `B` then `A`). What can still
//! be built from a state depends only on the canonical signatures of
//! its branch heads: the placed atoms are the union of the branches'
//! atoms, and a join predicate is assigned the moment both its atoms
//! share a branch, so the assigned set is a function of the same
//! partition. The recursion therefore expands each such state once —
//! every leaf under a repeat is already in the emitted set, so the
//! output (order and cap included) is that of the plain depth-first
//! walk.
//!
//! A state is a few words: placed atoms and assigned joins are
//! bitmasks over the query's atom and join indexes, and each branch is
//! its head, its atom mask and its head's signature. Signatures are
//! hash-consed ids — a node's id is determined by its kind, its atom
//! index or filter arity, and its children's ids (sorted for a join) —
//! so two ids are equal exactly when the canonical strings
//! `S[atom](…)`, `F[arity](…)`, `J(…|…)` of the `#[cfg(test)]`
//! reference walk are. The nodes of the partial plan live on one trail
//! that the depth-first walk pushes and truncates, and an emitted leaf
//! is a copy of that trail: a compact [`Topology`]. The search annotates
//! and costs a topology's node table ([`Space::annotator`]) without a
//! `QueryPlan`; [`Space::materialize`] builds and validates one only for
//! a topology that can still win, for the suffix re-plan's prefix
//! filter, and for [`enumerate_topologies`].

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use seco_plan::{
    pipe_selectivity, AnnotationConfig, Completion, DeltaAnnotator, Invocation, JoinSpec, NodeId,
    NodeParams, NodeTable, PlanError, PlanNode, QueryPlan, SelectionNode, ServiceNode,
    ServiceParams,
};
use seco_query::feasibility::{BindingSource, FeasibilityReport};
use seco_query::{JoinPredicate, Query};
use seco_services::ServiceRegistry;

use crate::error::OptError;
use crate::heuristics::Phase2Heuristic;

/// Default cap on enumerated topologies (a safety valve; the chapter's
/// queries stay in single digits).
pub const DEFAULT_MAX_TOPOLOGIES: usize = 256;

/// A set of query atoms or of join predicates, by index.
type Mask = u64;

/// The indexes in a mask, ascending.
fn members(mut mask: Mask) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let i = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        Some(i)
    })
}

/// What the walk and the node tables need to know about one query atom.
struct AtomInfo {
    /// Pipe sources.
    sources: Mask,
    /// Selection predicates on this atom that no input binding absorbs,
    /// in query order, and the product of their estimates.
    selections: Vec<usize>,
    selectivity: f64,
    /// Its service node's statistics at fetch factor 1.
    service: ServiceParams,
}

/// What the walk needs to know about one join predicate.
struct JoinInfo {
    /// Its atoms (one bit for a self-join).
    atoms: Mask,
    /// The join selectivity of its atom pair.
    pair_selectivity: f64,
}

/// The topology space of one feasible interface assignment: the query,
/// and everything about its atoms and joins that phase 2 and the
/// branch-and-bound read, resolved once against the registry.
///
/// [`Space::topologies`] walks the space into compact [`Topology`]s;
/// [`Space::annotator`] builds a topology's node table without a
/// [`QueryPlan`], and [`Space::materialize`] builds the plan itself,
/// which the search does only for a topology that can still win.
pub struct Space {
    query: Query,
    joins: Vec<JoinPredicate>,
    atoms: Vec<AtomInfo>,
    join_info: Vec<JoinInfo>,
    /// Joins a node may carry: those no pipe absorbs.
    open_joins: Mask,
    all_atoms: Mask,
    /// The atoms most selective first — by output per input (smaller =
    /// more selective = earlier), then alias.
    order: Vec<usize>,
    /// The atoms' distinct services, in name order.
    services: Arc<[String]>,
}

/// A phase-2 topology in compact form: the trail of nodes the walk
/// pushed, over atom and join indexes. Node `i` of the trail is node
/// `i + 2` of the plan it materializes into (the input is node 0, the
/// output node 1), and `last` feeds the output.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    steps: Vec<Step>,
    last: usize,
}

impl Topology {
    /// The atom whose service node is node `id`, if it is one.
    pub(crate) fn service_atom(&self, id: usize) -> Option<usize> {
        match self.steps.get(id.checked_sub(FIRST_TRAIL_NODE)?)?.node {
            StepNode::Service(atom) => Some(atom),
            _ => None,
        }
    }

    /// The arcs of the materialized plan, in the order it connects them.
    fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::with_capacity(self.steps.len() + 2);
        for (i, step) in self.steps.iter().enumerate() {
            let id = NodeId(FIRST_TRAIL_NODE + i);
            edges.extend(
                std::iter::once(step.first)
                    .chain(step.second)
                    .map(|p| (NodeId(p), id)),
            );
        }
        edges.push((NodeId(self.last), NodeId(OUTPUT_NODE)));
        edges
    }
}

/// Enumerates the topologies for one feasible assignment, in heuristic
/// order, deduplicated by canonical structure, each materialized into a
/// validated [`QueryPlan`]. `report` is the feasibility analysis of
/// `query` under `registry`.
pub fn enumerate_topologies(
    query: &Query,
    registry: &ServiceRegistry,
    report: &FeasibilityReport,
    heuristic: Phase2Heuristic,
    max: usize,
) -> Result<Vec<QueryPlan>, OptError> {
    let space = Space::new(query.clone(), registry, report)?;
    space
        .topologies(heuristic, max)
        .iter()
        .map(|topology| space.materialize(topology, |_| 1))
        .collect()
}

impl Space {
    /// Resolves `query`'s atoms and joins under `registry`, with
    /// `report` the feasibility analysis of `query` under it.
    pub fn new(
        query: Query,
        registry: &ServiceRegistry,
        report: &FeasibilityReport,
    ) -> Result<Space, OptError> {
        query.validate()?;
        let joins = query.expanded_joins(registry)?;
        let n = query.atoms.len();
        if n > Mask::BITS as usize || joins.len() > Mask::BITS as usize {
            return Err(OptError::Plan(PlanError::Invalid {
                detail: format!(
                    "phase 2 enumerates at most {} atoms and {} join predicates ({n} and {} given)",
                    Mask::BITS,
                    Mask::BITS,
                    joins.len()
                ),
            }));
        }
        let bit = |alias: &str| -> Result<Mask, OptError> { Ok(1 << query.atom_index(alias)?) };

        let mut services: Vec<&str> = query.atoms.iter().map(|a| a.service.as_str()).collect();
        services.sort_unstable();
        services.dedup();

        let mut atoms = Vec::with_capacity(n);
        for atom in &query.atoms {
            let sources = report
                .predecessors_of(&atom.alias)
                .into_iter()
                .try_fold(0, |mask, s| Ok::<_, OptError>(mask | bit(s)?))?;
            let mut selections = Vec::new();
            let mut selectivity = 1.0;
            for (i, s) in query.selections.iter().enumerate() {
                if s.left.atom != atom.alias {
                    continue;
                }
                // Equality and order-comparison bindings on input paths are
                // answered by the service itself ("openings after date X");
                // only `Like` constraints and predicates on output
                // attributes need a selection node.
                let absorbed = report.dependencies.iter().any(|d| {
                    d.to_atom == s.left.atom
                        && d.input == s.left.path
                        && matches!(&d.source, BindingSource::Constant { op, .. } if *op != seco_model::Comparator::Like)
                });
                if absorbed {
                    continue;
                }
                // Hint-aware selectivity: equality on an attribute with a
                // known distinct count is 1/distinct.
                let mut estimate = s.op.default_selectivity();
                if s.op == seco_model::Comparator::Eq {
                    if let Ok(iface) = registry.interface(&atom.service) {
                        if let Some(hint) = iface.hints.eq_selectivity(&s.left.path) {
                            estimate = hint;
                        }
                    }
                }
                selectivity *= estimate;
                selections.push(i);
            }
            let rank = services.partition_point(|s| *s < atom.service.as_str());
            let pipe = pipe_selectivity(&query, registry, report, &atom.alias)?;
            atoms.push(AtomInfo {
                sources,
                selections,
                selectivity,
                service: ServiceParams::resolve(registry, &atom.service, rank as u32, pipe)?,
            });
        }

        let mut join_info = Vec::with_capacity(joins.len());
        let mut open_joins: Mask = 0;
        for (i, j) in joins.iter().enumerate() {
            // A join predicate is absorbed by a pipe when some piped binding
            // uses exactly its attribute pair.
            let piped = j.op == seco_model::Comparator::Eq
                && report.dependencies.iter().any(|dep| match &dep.source {
                    BindingSource::Piped {
                        from_atom,
                        from_path,
                    } => {
                        let forward = j.left.atom == *from_atom
                            && j.left.path == *from_path
                            && j.right.atom == dep.to_atom
                            && j.right.path == dep.input;
                        let backward = j.right.atom == *from_atom
                            && j.right.path == *from_path
                            && j.left.atom == dep.to_atom
                            && j.left.path == dep.input;
                        forward || backward
                    }
                    BindingSource::Constant { .. } => false,
                });
            if !piped {
                open_joins |= 1 << i;
            }
            let (a, b) = if j.left.atom <= j.right.atom {
                (&j.left.atom, &j.right.atom)
            } else {
                (&j.right.atom, &j.left.atom)
            };
            join_info.push(JoinInfo {
                atoms: bit(&j.left.atom)? | bit(&j.right.atom)?,
                pair_selectivity: query.join_selectivity(registry, a, b)?,
            });
        }

        let estimate = |a: usize| {
            let s = &atoms[a].service;
            if s.chunked {
                s.chunk_size
            } else {
                s.avg_cardinality
            }
        };
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            estimate(a)
                .partial_cmp(&estimate(b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(query.atoms[a].alias.cmp(&query.atoms[b].alias))
        });
        let services = services.into_iter().map(str::to_owned).collect();

        Ok(Space {
            joins,
            atoms,
            join_info,
            open_joins,
            all_atoms: if n == Mask::BITS as usize {
                Mask::MAX
            } else {
                (1 << n) - 1
            },
            order,
            services,
            query,
        })
    }

    /// The assignment's query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The topologies of this space in heuristic order, deduplicated by
    /// canonical structure, at most `max`.
    pub fn topologies(&self, heuristic: Phase2Heuristic, max: usize) -> Vec<Topology> {
        let mut walk = Walk {
            ctx: self,
            heuristic,
            max,
            trail: Vec::new(),
            signatures: HashMap::new(),
            visited: HashSet::new(),
            key: Vec::new(),
            seen: HashSet::new(),
            out: Vec::new(),
        };
        let start = State {
            branches: Vec::new(),
            placed: 0,
            assigned: 0,
        };
        walk.recurse(&start);
        walk.out
    }

    /// A fresh annotator over `topology`'s node table, at fetch factor 1
    /// except where `pins` (by atom index; shorter than the atom list
    /// for none) fixes one. The table equals the one
    /// [`NodeTable::from_plan`] builds from the materialized plan.
    pub fn annotator(
        &self,
        topology: &Topology,
        pins: &[Option<u32>],
    ) -> Result<DeltaAnnotator, OptError> {
        let mut nodes = Vec::with_capacity(FIRST_TRAIL_NODE + topology.steps.len());
        nodes.extend([NodeParams::Input, NodeParams::Output]);
        nodes.extend(topology.steps.iter().map(|step| match step.node {
            StepNode::Service(atom) => NodeParams::Service(ServiceParams {
                fetches: pins.get(atom).copied().flatten().unwrap_or(1),
                ..self.atoms[atom].service
            }),
            StepNode::Selection(atom) => NodeParams::Selection {
                selectivity: self.atoms[atom].selectivity.clamp(0.0, 1.0),
            },
            StepNode::JoinFilter(_, sel) => NodeParams::Selection {
                selectivity: sel.clamp(0.0, 1.0),
            },
            StepNode::Join(_, sel) => NodeParams::Join {
                selectivity: sel,
                coverage: JOIN_COMPLETION.coverage_factor(),
            },
        }));
        let table = NodeTable::new(
            nodes,
            &topology.edges(),
            NodeId(OUTPUT_NODE),
            Arc::clone(&self.services),
        )?;
        Ok(DeltaAnnotator::from_table(
            table,
            &AnnotationConfig::default(),
        ))
    }

    /// Builds and validates the plan of `topology`, its service nodes
    /// at the fetch factors `fetches` gives by node.
    pub fn materialize(
        &self,
        topology: &Topology,
        fetches: impl Fn(NodeId) -> u32,
    ) -> Result<QueryPlan, OptError> {
        let query = &self.query;
        let mut plan = QueryPlan::new(query.clone());
        for step in &topology.steps {
            let node = match &step.node {
                StepNode::Service(atom) => {
                    let atom = &query.atoms[*atom];
                    let mut node = ServiceNode::new(atom.alias.clone(), atom.service.clone());
                    node.fetches = fetches(NodeId(plan.len()));
                    PlanNode::Service(node)
                }
                StepNode::Selection(atom) => {
                    let info = &self.atoms[*atom];
                    let sels = info
                        .selections
                        .iter()
                        .map(|&i| query.selections[i].clone())
                        .collect();
                    PlanNode::Selection(SelectionNode::new(sels).with_selectivity(info.selectivity))
                }
                StepNode::JoinFilter(joins, sel) => {
                    PlanNode::Selection(SelectionNode::join_filter(self.predicates(*joins), *sel))
                }
                StepNode::Join(joins, sel) => PlanNode::ParallelJoin(JoinSpec {
                    invocation: Invocation::merge_scan_even(),
                    completion: JOIN_COMPLETION,
                    predicates: self.predicates(*joins),
                    selectivity: *sel,
                }),
            };
            let id = plan.add(node);
            for pred in std::iter::once(step.first).chain(step.second) {
                plan.connect(NodeId(pred), id)?;
            }
        }
        plan.connect(NodeId(topology.last), plan.output())?;
        plan.validate()?;
        Ok(plan)
    }

    fn predicates(&self, joins: Mask) -> Vec<JoinPredicate> {
        members(joins).map(|i| self.joins[i].clone()).collect()
    }
}

/// The completion strategy of every parallel join phase 2 places.
const JOIN_COMPLETION: Completion = Completion::Triangular;

/// The signature id of the input node.
const INPUT_SIGNATURE: u32 = 0;

/// A node's signature key: kind, payload (atom index or filter arity)
/// and children's signature ids (sorted for a join).
type SignatureKey = (u8, u32, u32, u32);
const SERVICE: u8 = 0;
const FILTER: u8 = 1;
const JOIN: u8 = 2;

/// Node index of the input node in every plan.
const INPUT_NODE: usize = 0;
/// Node index of the output node in every plan.
const OUTPUT_NODE: usize = 1;
/// Node index of the first trail node.
const FIRST_TRAIL_NODE: usize = 2;

#[derive(Clone, Copy)]
struct Branch {
    /// Node index of the branch's last node.
    head: usize,
    atoms: Mask,
    /// Signature id of `head`.
    signature: u32,
}

struct State {
    branches: Vec<Branch>,
    placed: Mask,
    assigned: Mask,
}

/// A node of the partial plan: `trail[i]` is node `FIRST_TRAIL_NODE + i`
/// of the emitted plan, with arcs from `first` and then `second`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Step {
    node: StepNode,
    first: usize,
    second: Option<usize>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum StepNode {
    /// The service node of an atom.
    Service(usize),
    /// The selection node of an atom's unabsorbed selections.
    Selection(usize),
    /// A join-filter selection node over these joins.
    JoinFilter(Mask, f64),
    /// A parallel join carrying these joins.
    Join(Mask, f64),
}

#[derive(Clone, Copy)]
enum Move {
    Serial { atom: usize, branch: usize },
    NewBranch { atom: usize },
    Merge { a: usize, b: usize },
}

/// The depth-first walk's mutable state.
struct Walk<'c> {
    ctx: &'c Space,
    heuristic: Phase2Heuristic,
    max: usize,
    /// The nodes of the current partial plan, in insertion order.
    trail: Vec<Step>,
    /// Hash-consed signature ids (the input node is id 0).
    signatures: HashMap<SignatureKey, u32>,
    /// Interior states already expanded, keyed by the sorted signature
    /// ids of their branch heads.
    visited: HashSet<Box<[u32]>>,
    /// Scratch buffer for a visited key.
    key: Vec<u32>,
    /// Signature ids of the emitted topologies' last nodes.
    seen: HashSet<u32>,
    out: Vec<Topology>,
}

impl Walk<'_> {
    fn signature(&mut self, key: SignatureKey) -> u32 {
        let next = self.signatures.len() as u32 + 1;
        *self.signatures.entry(key).or_insert(next)
    }

    /// Pushes a node after `first` (and `second`, for a join), returning
    /// its node index.
    fn push(&mut self, node: StepNode, first: usize, second: Option<usize>) -> usize {
        self.trail.push(Step {
            node,
            first,
            second,
        });
        FIRST_TRAIL_NODE + self.trail.len() - 1
    }

    /// The selectivity of a join set: the product, over its distinct
    /// atom pairs in order of first appearance, of the pair's join
    /// selectivity.
    fn pair_selectivity(&self, joins: Mask) -> f64 {
        let info = &self.ctx.join_info;
        let mut sel = 1.0;
        for i in members(joins) {
            let earlier = joins & ((1 << i) - 1);
            if !members(earlier).any(|e| info[e].atoms == info[i].atoms) {
                sel *= info[i].pair_selectivity;
            }
        }
        sel
    }

    /// Appends the filter nodes that become evaluable on branch `b` of
    /// `state` after it gained `placed` (an atom just put on it, or
    /// `None` after a merge).
    fn flush(&mut self, state: &mut State, b: usize, placed: Option<usize>) {
        let ctx = self.ctx;
        // An atom's selections are evaluable once it is placed, and it
        // is placed exactly once, so they are flushed right then.
        if let Some(atom) = placed {
            let info = &ctx.atoms[atom];
            if !info.selections.is_empty() {
                let branch = state.branches[b];
                let head = self.push(StepNode::Selection(atom), branch.head, None);
                let signature =
                    self.signature((FILTER, info.selections.len() as u32, branch.signature, 0));
                state.branches[b] = Branch {
                    head,
                    signature,
                    ..branch
                };
            }
        }
        // Join predicates fully inside this branch (chain joins) that
        // were neither piped nor already assigned.
        let branch = state.branches[b];
        let chain = members(ctx.open_joins & !state.assigned)
            .filter(|&i| ctx.join_info[i].atoms & !branch.atoms == 0)
            .fold(0, |mask, i| mask | 1 << i);
        if chain != 0 {
            state.assigned |= chain;
            let sel = self.pair_selectivity(chain);
            let head = self.push(StepNode::JoinFilter(chain, sel), branch.head, None);
            let signature = self.signature((FILTER, chain.count_ones(), branch.signature, 0));
            state.branches[b] = Branch {
                head,
                signature,
                ..branch
            };
        }
    }

    fn recurse(&mut self, state: &State) {
        let ctx = self.ctx;
        if self.out.len() >= self.max {
            return;
        }
        // Complete?
        if state.placed == ctx.all_atoms && state.branches.len() == 1 {
            return self.emit(state.branches[0]);
        }
        self.key.clear();
        self.key.extend(state.branches.iter().map(|b| b.signature));
        self.key.sort_unstable();
        if self.visited.contains(self.key.as_slice()) {
            return;
        }
        self.visited.insert(self.key.as_slice().into());

        // Collect the possible moves, ordered by the heuristic; the
        // placeable atoms (every pipe source placed) come most selective
        // first.
        let mut moves: Vec<Move> = Vec::new();
        for &atom in &ctx.order {
            let sources = ctx.atoms[atom].sources;
            if state.placed & (1 << atom) != 0 || sources & !state.placed != 0 {
                continue;
            }
            if sources == 0 {
                // Constant-bound atom: may extend any branch or start a
                // new parallel branch.
                moves.extend((0..state.branches.len()).map(|branch| Move::Serial { atom, branch }));
                moves.push(Move::NewBranch { atom });
            } else {
                // Piped atom: only branches containing all its sources.
                for (branch, b) in state.branches.iter().enumerate() {
                    if sources & !b.atoms == 0 {
                        moves.push(Move::Serial { atom, branch });
                    }
                }
            }
        }
        for a in 0..state.branches.len() {
            for b in a + 1..state.branches.len() {
                moves.push(Move::Merge { a, b });
            }
        }
        if self.heuristic.parallel_first() {
            // Parallel-is-better: try new branches and merges before
            // serial extensions.
            moves.sort_by_key(|m| match m {
                Move::NewBranch { .. } => 0,
                Move::Merge { .. } => 1,
                Move::Serial { .. } => 2,
            });
        } else {
            // Selective-first: extend existing chains before opening new
            // branches (atoms are already ordered by selectivity).
            moves.sort_by_key(|m| match m {
                Move::Serial { .. } => 0,
                Move::NewBranch { .. } => 1,
                Move::Merge { .. } => 2,
            });
        }

        for mv in moves {
            if self.out.len() >= self.max {
                break;
            }
            let mark = self.trail.len();
            if let Some(next) = self.apply(state, mv) {
                self.recurse(&next);
            }
            self.trail.truncate(mark);
        }
    }

    /// The state after `mv`, its nodes pushed on the trail; `None` for a
    /// merge the walk does not take.
    fn apply(&mut self, state: &State, mv: Move) -> Option<State> {
        let ctx = self.ctx;
        match mv {
            Move::Serial { atom, branch: b } => {
                let mut next = State {
                    branches: state.branches.clone(),
                    placed: state.placed | 1 << atom,
                    assigned: state.assigned,
                };
                let branch = next.branches[b];
                let head = self.push(StepNode::Service(atom), branch.head, None);
                next.branches[b] = Branch {
                    head,
                    atoms: branch.atoms | 1 << atom,
                    signature: self.signature((SERVICE, atom as u32, branch.signature, 0)),
                };
                self.flush(&mut next, b, Some(atom));
                Some(next)
            }
            Move::NewBranch { atom } => {
                let mut next = State {
                    branches: Vec::with_capacity(state.branches.len() + 1),
                    placed: state.placed | 1 << atom,
                    assigned: state.assigned,
                };
                next.branches.extend_from_slice(&state.branches);
                let head = self.push(StepNode::Service(atom), INPUT_NODE, None);
                next.branches.push(Branch {
                    head,
                    atoms: 1 << atom,
                    signature: self.signature((SERVICE, atom as u32, INPUT_SIGNATURE, 0)),
                });
                let b = next.branches.len() - 1;
                self.flush(&mut next, b, Some(atom));
                Some(next)
            }
            Move::Merge { a, b } => {
                let (x, y) = (state.branches[a], state.branches[b]);
                // Cross-branch join predicates.
                let cross = members(ctx.open_joins & !state.assigned)
                    .filter(|&i| {
                        let atoms = ctx.join_info[i].atoms;
                        atoms & !(x.atoms | y.atoms) == 0
                            && atoms & x.atoms != 0
                            && atoms & y.atoms != 0
                    })
                    .fold(0, |mask, i| mask | 1 << i);
                // Merging disconnected branches is a cross product; the
                // chapter's plans never need it mid-way, so require at
                // least one predicate unless this is the final merge.
                let last = state.placed == ctx.all_atoms && state.branches.len() == 2;
                if cross == 0 && !last {
                    return None;
                }
                let sel = self.pair_selectivity(cross);
                let head = self.push(StepNode::Join(cross, sel), x.head, Some(y.head));
                let (lo, hi) = if x.signature <= y.signature {
                    (x.signature, y.signature)
                } else {
                    (y.signature, x.signature)
                };
                // Replace the two branches with the merged one.
                let mut next = State {
                    branches: state.branches.clone(),
                    placed: state.placed,
                    assigned: state.assigned | cross,
                };
                next.branches[a] = Branch {
                    head,
                    atoms: x.atoms | y.atoms,
                    signature: self.signature((JOIN, 0, lo, hi)),
                };
                next.branches.remove(b);
                self.flush(&mut next, a, None);
                Some(next)
            }
        }
    }

    /// Emits the topology on the trail ending in `last`, unless one of
    /// the same signature already was.
    fn emit(&mut self, last: Branch) {
        if self.seen.insert(last.signature) {
            self.out.push(Topology {
                steps: self.trail.clone(),
                last: last.head,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    /// The enumerator as it was before interned signatures, kept as the
    /// reference: string signatures, states carrying a whole
    /// `QueryPlan`, and the plain depth-first walk without a visited
    /// set.
    mod reference {
        use std::collections::BTreeSet;

        use seco_plan::{
            Completion, Invocation, JoinSpec, NodeId, PlanNode, QueryPlan, SelectionNode,
            ServiceNode,
        };
        use seco_query::feasibility::{BindingSource, FeasibilityReport};
        use seco_query::{JoinPredicate, Query};
        use seco_services::ServiceRegistry;

        use crate::error::OptError;
        use crate::heuristics::Phase2Heuristic;

        #[derive(Clone)]
        struct Branch {
            head: NodeId,
            atoms: BTreeSet<String>,
        }

        #[derive(Clone)]
        struct State {
            plan: QueryPlan,
            branches: Vec<Branch>,
            placed: BTreeSet<String>,
            assigned_joins: BTreeSet<usize>,
        }

        /// Context shared by the enumeration.
        struct Ctx<'a> {
            query: &'a Query,
            registry: &'a ServiceRegistry,
            report: &'a FeasibilityReport,
            joins: Vec<JoinPredicate>,
            /// Join indexes absorbed by pipes (never materialized as filters).
            piped_joins: BTreeSet<usize>,
            heuristic: Phase2Heuristic,
            max: usize,
        }

        /// The plain depth-first walk over every move order.
        pub(super) fn enumerate_topologies(
            query: &Query,
            registry: &ServiceRegistry,
            report: &FeasibilityReport,
            heuristic: Phase2Heuristic,
            max: usize,
        ) -> Result<Vec<QueryPlan>, OptError> {
            let joins = query.expanded_joins(registry)?;
            // A join predicate is absorbed by a pipe when some piped binding
            // uses exactly its attribute pair.
            let mut piped_joins = BTreeSet::new();
            for (i, j) in joins.iter().enumerate() {
                if j.op != seco_model::Comparator::Eq {
                    continue;
                }
                for dep in &report.dependencies {
                    if let BindingSource::Piped {
                        from_atom,
                        from_path,
                    } = &dep.source
                    {
                        let forward = j.left.atom == *from_atom
                            && j.left.path == *from_path
                            && j.right.atom == dep.to_atom
                            && j.right.path == dep.input;
                        let backward = j.right.atom == *from_atom
                            && j.right.path == *from_path
                            && j.left.atom == dep.to_atom
                            && j.left.path == dep.input;
                        if forward || backward {
                            piped_joins.insert(i);
                        }
                    }
                }
            }

            let ctx = Ctx {
                query,
                registry,
                report,
                joins,
                piped_joins,
                heuristic,
                max,
            };
            let state = State {
                plan: QueryPlan::new(query.clone()),
                branches: Vec::new(),
                placed: BTreeSet::new(),
                assigned_joins: BTreeSet::new(),
            };
            let mut out = Vec::new();
            let mut seen = BTreeSet::new();
            recurse(&ctx, state, &mut out, &mut seen)?;
            Ok(out)
        }

        /// Estimated "output per input" of a service, for the selective-first
        /// ordering (smaller = more selective = earlier).
        fn expansion_estimate(ctx: &Ctx<'_>, atom: &str) -> f64 {
            let Ok(q_atom) = ctx.query.atom(atom) else {
                return f64::MAX;
            };
            let Ok(iface) = ctx.registry.interface(&q_atom.service) else {
                return f64::MAX;
            };
            if iface.kind.is_chunked() {
                iface.stats.chunk_size as f64
            } else {
                iface.stats.avg_cardinality
            }
        }

        /// The atoms placeable next: all pipe sources already placed.
        fn placeable(ctx: &Ctx<'_>, state: &State) -> Vec<String> {
            let mut atoms: Vec<String> = ctx
                .query
                .atoms
                .iter()
                .map(|a| a.alias.clone())
                .filter(|a| !state.placed.contains(a))
                .filter(|a| {
                    ctx.report
                        .predecessors_of(a)
                        .iter()
                        .all(|p| state.placed.contains(*p))
                })
                .collect();
            atoms.sort_by(|a, b| {
                expansion_estimate(ctx, a)
                    .partial_cmp(&expansion_estimate(ctx, b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(b))
            });
            atoms
        }

        /// Appends the selection/join-filter nodes that become evaluable on a
        /// branch after `state.plan` gained the given atoms.
        fn flush_filters(
            ctx: &Ctx<'_>,
            state: &mut State,
            branch_idx: usize,
        ) -> Result<(), OptError> {
            let branch_atoms = state.branches[branch_idx].atoms.clone();

            // Selection predicates not absorbed by an input binding. Equality
            // and order-comparison bindings on input paths are answered by the
            // service itself ("openings after date X"); only `Like` constraints
            // and predicates on output attributes need a selection node.
            let mut sels = Vec::new();
            let mut sel_estimate = 1.0;
            for s in &ctx.query.selections {
                if !branch_atoms.contains(&s.left.atom) {
                    continue;
                }
                let absorbed = ctx.report.dependencies.iter().any(|d| {
                    d.to_atom == s.left.atom
                        && d.input == s.left.path
                        && matches!(&d.source, BindingSource::Constant { op, .. } if *op != seco_model::Comparator::Like)
                });
                // Only flush once: when the atom's service node was just added
                // (its atom newly in this branch). We track via plan scan: a
                // selection node containing this predicate already exists?
                let already = plan_has_selection(&state.plan, s);
                if !absorbed && !already {
                    // Hint-aware selectivity: equality on an attribute with a
                    // known distinct count is 1/distinct.
                    let mut estimate = s.op.default_selectivity();
                    if s.op == seco_model::Comparator::Eq {
                        if let Ok(q_atom) = ctx.query.atom(&s.left.atom) {
                            if let Ok(iface) = ctx.registry.interface(&q_atom.service) {
                                if let Some(hint) = iface.hints.eq_selectivity(&s.left.path) {
                                    estimate = hint;
                                }
                            }
                        }
                    }
                    sel_estimate *= estimate;
                    sels.push(s.clone());
                }
            }
            if !sels.is_empty() {
                let node = state.plan.add(PlanNode::Selection(
                    SelectionNode::new(sels).with_selectivity(sel_estimate),
                ));
                let head = state.branches[branch_idx].head;
                state.plan.connect(head, node).map_err(OptError::Plan)?;
                state.branches[branch_idx].head = node;
            }

            // Join predicates fully inside this branch (chain joins) that were
            // neither piped nor already assigned.
            let mut chain_joins = Vec::new();
            let mut chain_sel = 1.0;
            let mut counted: Vec<(String, String)> = Vec::new();
            for (i, j) in ctx.joins.iter().enumerate() {
                if ctx.piped_joins.contains(&i) || state.assigned_joins.contains(&i) {
                    continue;
                }
                if branch_atoms.contains(&j.left.atom) && branch_atoms.contains(&j.right.atom) {
                    state.assigned_joins.insert(i);
                    chain_joins.push(j.clone());
                    let pair = ordered_pair(&j.left.atom, &j.right.atom);
                    if !counted.contains(&pair) {
                        counted.push(pair.clone());
                        chain_sel *= ctx.query.join_selectivity(ctx.registry, &pair.0, &pair.1)?;
                    }
                }
            }
            if !chain_joins.is_empty() {
                let node = state
                    .plan
                    .add(PlanNode::Selection(SelectionNode::join_filter(
                        chain_joins,
                        chain_sel,
                    )));
                let head = state.branches[branch_idx].head;
                state.plan.connect(head, node).map_err(OptError::Plan)?;
                state.branches[branch_idx].head = node;
            }
            Ok(())
        }

        fn plan_has_selection(plan: &QueryPlan, pred: &seco_query::SelectionPredicate) -> bool {
            plan.node_ids().any(
                |id| matches!(plan.node(id), Ok(PlanNode::Selection(s)) if s.predicates.contains(pred)),
            )
        }

        fn ordered_pair(a: &str, b: &str) -> (String, String) {
            if a <= b {
                (a.to_owned(), b.to_owned())
            } else {
                (b.to_owned(), a.to_owned())
            }
        }

        /// Canonical structural signature for deduplication.
        pub(super) fn signature(plan: &QueryPlan, node: NodeId) -> String {
            match plan.node(node) {
                Ok(PlanNode::Input) => "I".to_owned(),
                Ok(PlanNode::Output) => {
                    let preds = plan.predecessors(node);
                    format!("O({})", signature(plan, preds[0]))
                }
                Ok(PlanNode::Service(s)) => {
                    let preds = plan.predecessors(node);
                    format!("S[{}]({})", s.atom, signature(plan, preds[0]))
                }
                Ok(PlanNode::Selection(s)) => {
                    let preds = plan.predecessors(node);
                    format!(
                        "F[{}]({})",
                        s.predicates.len() + s.join_predicates.len(),
                        signature(plan, preds[0])
                    )
                }
                Ok(PlanNode::ParallelJoin(_)) => {
                    let preds = plan.predecessors(node);
                    let mut subs: Vec<String> = preds.iter().map(|p| signature(plan, *p)).collect();
                    subs.sort();
                    format!("J({})", subs.join("|"))
                }
                Err(_) => "?".to_owned(),
            }
        }

        fn recurse(
            ctx: &Ctx<'_>,
            state: State,
            out: &mut Vec<QueryPlan>,
            seen: &mut BTreeSet<String>,
        ) -> Result<(), OptError> {
            if out.len() >= ctx.max {
                return Ok(());
            }
            // Complete?
            if state.placed.len() == ctx.query.atoms.len() && state.branches.len() == 1 {
                let mut plan = state.plan;
                plan.connect(state.branches[0].head, plan.output())
                    .map_err(OptError::Plan)?;
                let sig = signature(&plan, plan.output());
                if seen.insert(sig) {
                    plan.validate().map_err(OptError::Plan)?;
                    out.push(plan);
                }
                return Ok(());
            }

            // Collect the possible moves, ordered by the heuristic.
            #[derive(Clone)]
            enum Move {
                Serial { atom: String, branch: usize },
                NewBranch { atom: String },
                Merge { a: usize, b: usize },
            }
            let mut moves: Vec<Move> = Vec::new();

            for atom in placeable(ctx, &state) {
                let sources = ctx.report.predecessors_of(&atom);
                if sources.is_empty() {
                    // Constant-bound atom: may extend any branch or start a new
                    // parallel branch.
                    for (i, _) in state.branches.iter().enumerate() {
                        moves.push(Move::Serial {
                            atom: atom.clone(),
                            branch: i,
                        });
                    }
                    moves.push(Move::NewBranch { atom });
                } else {
                    // Piped atom: only branches containing all its sources.
                    for (i, b) in state.branches.iter().enumerate() {
                        if sources.iter().all(|s| b.atoms.contains(*s)) {
                            moves.push(Move::Serial {
                                atom: atom.clone(),
                                branch: i,
                            });
                        }
                    }
                }
            }
            for a in 0..state.branches.len() {
                for b in a + 1..state.branches.len() {
                    moves.push(Move::Merge { a, b });
                }
            }

            if ctx.heuristic.parallel_first() {
                // Parallel-is-better: try new branches and merges before serial
                // extensions.
                moves.sort_by_key(|m| match m {
                    Move::NewBranch { .. } => 0,
                    Move::Merge { .. } => 1,
                    Move::Serial { .. } => 2,
                });
            } else {
                // Selective-first: extend existing chains before opening new
                // branches (atoms are already ordered by selectivity).
                moves.sort_by_key(|m| match m {
                    Move::Serial { .. } => 0,
                    Move::NewBranch { .. } => 1,
                    Move::Merge { .. } => 2,
                });
            }

            for mv in moves {
                if out.len() >= ctx.max {
                    break;
                }
                let mut next = state.clone();
                match mv {
                    Move::Serial { atom, branch } => {
                        let q_atom = ctx.query.atom(&atom)?;
                        let node = next.plan.add(PlanNode::Service(ServiceNode::new(
                            atom.clone(),
                            q_atom.service.clone(),
                        )));
                        let head = next.branches[branch].head;
                        next.plan.connect(head, node).map_err(OptError::Plan)?;
                        next.branches[branch].head = node;
                        next.branches[branch].atoms.insert(atom.clone());
                        next.placed.insert(atom);
                        flush_filters(ctx, &mut next, branch)?;
                    }
                    Move::NewBranch { atom } => {
                        let q_atom = ctx.query.atom(&atom)?;
                        let node = next.plan.add(PlanNode::Service(ServiceNode::new(
                            atom.clone(),
                            q_atom.service.clone(),
                        )));
                        let input = next.plan.input();
                        next.plan.connect(input, node).map_err(OptError::Plan)?;
                        next.branches.push(Branch {
                            head: node,
                            atoms: [atom.clone()].into_iter().collect(),
                        });
                        next.placed.insert(atom);
                        let idx = next.branches.len() - 1;
                        flush_filters(ctx, &mut next, idx)?;
                    }
                    Move::Merge { a, b } => {
                        // Cross-branch join predicates.
                        let (aa, bb) = (
                            next.branches[a].atoms.clone(),
                            next.branches[b].atoms.clone(),
                        );
                        let mut preds = Vec::new();
                        let mut sel = 1.0;
                        let mut counted: Vec<(String, String)> = Vec::new();
                        for (i, j) in ctx.joins.iter().enumerate() {
                            if ctx.piped_joins.contains(&i) || next.assigned_joins.contains(&i) {
                                continue;
                            }
                            let cross = (aa.contains(&j.left.atom) && bb.contains(&j.right.atom))
                                || (aa.contains(&j.right.atom) && bb.contains(&j.left.atom));
                            if cross {
                                next.assigned_joins.insert(i);
                                preds.push(j.clone());
                                let pair = ordered_pair(&j.left.atom, &j.right.atom);
                                if !counted.contains(&pair) {
                                    counted.push(pair.clone());
                                    sel *= ctx.query.join_selectivity(
                                        ctx.registry,
                                        &pair.0,
                                        &pair.1,
                                    )?;
                                }
                            }
                        }
                        // Merging disconnected branches is a cross product; the
                        // chapter's plans never need it mid-way, so require at
                        // least one predicate unless this is the final merge.
                        let remaining = ctx.query.atoms.len() - next.placed.len();
                        if preds.is_empty() && !(remaining == 0 && next.branches.len() == 2) {
                            continue;
                        }
                        let node = next.plan.add(PlanNode::ParallelJoin(JoinSpec {
                            invocation: Invocation::merge_scan_even(),
                            completion: Completion::Triangular,
                            predicates: preds,
                            selectivity: sel,
                        }));
                        let (ha, hb) = (next.branches[a].head, next.branches[b].head);
                        next.plan.connect(ha, node).map_err(OptError::Plan)?;
                        next.plan.connect(hb, node).map_err(OptError::Plan)?;
                        // Replace the two branches with the merged one.
                        let merged_atoms: BTreeSet<String> = aa.union(&bb).cloned().collect();
                        let keep = a.min(b);
                        let drop = a.max(b);
                        next.branches[keep] = Branch {
                            head: node,
                            atoms: merged_atoms,
                        };
                        next.branches.remove(drop);
                        flush_filters(ctx, &mut next, keep)?;
                    }
                }
                recurse(ctx, next, out, seen)?;
            }
            Ok(())
        }
    }

    use std::collections::BTreeSet;

    use super::*;
    use reference::signature;
    use seco_query::builder::running_example;
    use seco_query::feasibility::analyze;
    use seco_services::domains::entertainment;

    fn setup() -> (Query, seco_services::ServiceRegistry, FeasibilityReport) {
        let reg = entertainment::build_registry(1).unwrap();
        let q = running_example();
        let report = analyze(&q, &reg).unwrap();
        (q, reg, report)
    }

    #[test]
    fn running_example_topologies_cover_fig9() {
        let (q, reg, report) = setup();
        let plans =
            enumerate_topologies(&q, &reg, &report, Phase2Heuristic::ParallelIsBetter, 64).unwrap();
        // The enumeration covers Fig. 9's four topologies (three chains
        // M→T→R / T→M→R / T→R→M and the (M ∥ T)→R parallel plan) plus
        // the M ∥ (T→R) variant the figure does not draw.
        assert!(plans.len() >= 4, "found only {} topologies", plans.len());
        let sigs: BTreeSet<String> = plans.iter().map(|p| signature(p, p.output())).collect();
        assert_eq!(sigs.len(), plans.len(), "topologies are deduplicated");
        // At least one parallel plan with a join node exists (Fig. 9d).
        let has_parallel = plans.iter().any(|p| {
            p.node_ids()
                .any(|id| matches!(p.node(id), Ok(PlanNode::ParallelJoin(_))))
        });
        assert!(has_parallel);
        // At least one all-sequential chain exists (Fig. 9a).
        let has_chain = plans.iter().any(|p| {
            p.node_ids()
                .all(|id| !matches!(p.node(id), Ok(PlanNode::ParallelJoin(_))))
        });
        assert!(has_chain);
        // Every topology validates and respects T before R.
        for p in &plans {
            p.validate().unwrap();
            let order = p.topo_order().unwrap();
            let pos = |atom: &str| {
                order
                    .iter()
                    .position(|id| p.node(*id).unwrap().atom() == Some(atom))
                    .unwrap()
            };
            assert!(pos("T") < pos("R"), "T must precede R in every topology");
        }
    }

    #[test]
    fn parallel_plans_annotate_the_shows_join() {
        let (q, reg, report) = setup();
        let plans =
            enumerate_topologies(&q, &reg, &report, Phase2Heuristic::ParallelIsBetter, 64).unwrap();
        let parallel = plans
            .iter()
            .find(|p| {
                p.node_ids()
                    .any(|id| matches!(p.node(id), Ok(PlanNode::ParallelJoin(_))))
            })
            .unwrap();
        let join_id = parallel
            .node_ids()
            .find(|id| matches!(parallel.node(*id), Ok(PlanNode::ParallelJoin(_))))
            .unwrap();
        if let PlanNode::ParallelJoin(spec) = parallel.node(join_id).unwrap() {
            assert_eq!(spec.predicates.len(), 1, "the Shows title equality");
            assert!((spec.selectivity - 0.02).abs() < 1e-9);
        }
    }

    #[test]
    fn chain_plans_filter_shows_via_selection_node() {
        let (q, reg, report) = setup();
        let plans =
            enumerate_topologies(&q, &reg, &report, Phase2Heuristic::SelectiveFirst, 64).unwrap();
        let chain = plans
            .iter()
            .find(|p| {
                p.node_ids()
                    .all(|id| !matches!(p.node(id), Ok(PlanNode::ParallelJoin(_))))
            })
            .unwrap();
        // Somewhere in the chain a join-filter selection applies Shows.
        let has_join_filter = chain.node_ids().any(|id| {
            matches!(chain.node(id), Ok(PlanNode::Selection(s)) if !s.join_predicates.is_empty())
        });
        assert!(
            has_join_filter,
            "chains must filter the Shows predicate:\n{}",
            seco_plan::display::ascii(chain, None).unwrap()
        );
    }

    #[test]
    fn heuristic_changes_the_emission_order() {
        let (q, reg, report) = setup();
        let par =
            enumerate_topologies(&q, &reg, &report, Phase2Heuristic::ParallelIsBetter, 64).unwrap();
        let ser =
            enumerate_topologies(&q, &reg, &report, Phase2Heuristic::SelectiveFirst, 64).unwrap();
        assert_eq!(par.len(), ser.len(), "same space, different order");
        let par_first_is_parallel = par[0]
            .node_ids()
            .any(|id| matches!(par[0].node(id), Ok(PlanNode::ParallelJoin(_))));
        let ser_first_is_parallel = ser[0]
            .node_ids()
            .any(|id| matches!(ser[0].node(id), Ok(PlanNode::ParallelJoin(_))));
        assert!(
            par_first_is_parallel,
            "parallel-is-better must emit a parallel plan first"
        );
        assert!(
            !ser_first_is_parallel,
            "selective-first must emit a chain first"
        );
    }

    #[test]
    fn the_date_range_is_absorbed_but_output_equalities_are_filtered() {
        let (q, reg, report) = setup();
        let plans =
            enumerate_topologies(&q, &reg, &report, Phase2Heuristic::ParallelIsBetter, 64).unwrap();
        for p in &plans {
            // Openings.Date > INPUT3 constrains an *input* path: the
            // service answers it directly ("openings after this date"),
            // so no selection node repeats it.
            let has_date_filter = p.node_ids().any(|id| {
                matches!(p.node(id), Ok(PlanNode::Selection(s))
                    if s.predicates.iter().any(|sp| sp.left.path.to_string() == "Openings.Date"))
            });
            assert!(
                !has_date_filter,
                "range inputs are absorbed by the access pattern"
            );
            // T.TCountry = INPUT2 constrains an *output* attribute and
            // must materialize as a selection node.
            let has_country_filter = p.node_ids().any(|id| {
                matches!(p.node(id), Ok(PlanNode::Selection(s))
                    if s.predicates.iter().any(|sp| sp.left.path.to_string() == "TCountry"))
            });
            assert!(has_country_filter, "output equality must be filtered");
        }
    }

    #[test]
    fn the_interned_walk_emits_the_reference_plans_in_the_same_order() {
        use crate::heuristics::Phase1Heuristic;
        use crate::phase1::enumerate_assignments;

        let travel = seco_services::domains::travel::build_registry(5).unwrap();
        let diamond = seco_bench::diamond_plan(&travel).query;
        let mut scenarios = vec![
            (
                "running example".to_owned(),
                entertainment::build_registry(1).unwrap(),
                running_example(),
            ),
            ("diamond".to_owned(), travel, diamond),
        ];
        for n in 2..=6 {
            let (reg, q) = seco_bench::star_scenario(n, 7);
            scenarios.push((format!("star {n}"), reg, q));
            let (reg, q) = seco_bench::chain_scenario(n, 7);
            scenarios.push((format!("chain {n}"), reg, q));
        }
        for (name, reg, q) in &scenarios {
            let assignments =
                enumerate_assignments(q, reg, Phase1Heuristic::BoundIsBetter).unwrap();
            assert!(!assignments.is_empty(), "{name}");
            for a in &assignments {
                for heuristic in [
                    Phase2Heuristic::ParallelIsBetter,
                    Phase2Heuristic::SelectiveFirst,
                ] {
                    for max in [1, 7, 64, 256] {
                        let plans =
                            enumerate_topologies(&a.query, reg, &a.report, heuristic, max).unwrap();
                        let expected = reference::enumerate_topologies(
                            &a.query, reg, &a.report, heuristic, max,
                        )
                        .unwrap();
                        assert!(!plans.is_empty(), "{name} {heuristic:?} max={max}");
                        assert!(
                            plans == expected,
                            "{name} {heuristic:?} max={max}: {} plans vs {} from the reference",
                            plans.len(),
                            expected.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn more_atoms_than_mask_bits_is_an_error() {
        let mut builder = seco_query::QueryBuilder::new();
        for i in 0..=Mask::BITS {
            builder = builder.atom(&format!("A{i}"), "Svc");
        }
        let q = builder.build().unwrap();
        let report = FeasibilityReport {
            order: Vec::new(),
            dependencies: Vec::new(),
            pipe_edges: Vec::new(),
        };
        let reg = seco_services::ServiceRegistry::new();
        let err = enumerate_topologies(&q, &reg, &report, Phase2Heuristic::ParallelIsBetter, 8)
            .unwrap_err();
        assert!(
            matches!(err, OptError::Plan(PlanError::Invalid { .. })),
            "{err}"
        );
    }

    #[test]
    fn cap_limits_output() {
        let (q, reg, report) = setup();
        let plans =
            enumerate_topologies(&q, &reg, &report, Phase2Heuristic::ParallelIsBetter, 2).unwrap();
        assert_eq!(plans.len(), 2);
    }
}
