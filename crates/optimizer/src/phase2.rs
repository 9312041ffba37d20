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
//! walk, which survives as the `#[cfg(test)]` reference.

use std::collections::BTreeSet;

use seco_plan::{
    Completion, Invocation, JoinSpec, NodeId, PlanNode, QueryPlan, SelectionNode, ServiceNode,
};
use seco_query::feasibility::{BindingSource, FeasibilityReport};
use seco_query::{JoinPredicate, Query};
use seco_services::ServiceRegistry;

use crate::error::OptError;
use crate::heuristics::Phase2Heuristic;

/// Default cap on enumerated topologies (a safety valve; the chapter's
/// queries stay in single digits).
pub const DEFAULT_MAX_TOPOLOGIES: usize = 256;

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

/// Enumerates the topologies for one feasible assignment, in heuristic
/// order, deduplicated by canonical structure.
pub fn enumerate_topologies(
    query: &Query,
    registry: &ServiceRegistry,
    report: &FeasibilityReport,
    heuristic: Phase2Heuristic,
    max: usize,
) -> Result<Vec<QueryPlan>, OptError> {
    let visited = Some(BTreeSet::new());
    enumerate(query, registry, report, heuristic, max, visited)
}

/// Interior states already expanded, keyed by the sorted signatures of
/// their branch heads; `None` walks every move order (the test
/// reference).
type Visited = Option<BTreeSet<Vec<String>>>;

fn enumerate(
    query: &Query,
    registry: &ServiceRegistry,
    report: &FeasibilityReport,
    heuristic: Phase2Heuristic,
    max: usize,
    mut visited: Visited,
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
    recurse(&ctx, state, &mut out, &mut seen, &mut visited)?;
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
fn flush_filters(ctx: &Ctx<'_>, state: &mut State, branch_idx: usize) -> Result<(), OptError> {
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
fn signature(plan: &QueryPlan, node: NodeId) -> String {
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
    visited: &mut Visited,
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
    if let Some(visited) = visited {
        let mut key: Vec<String> = state
            .branches
            .iter()
            .map(|b| signature(&state.plan, b.head))
            .collect();
        key.sort();
        if !visited.insert(key) {
            return Ok(());
        }
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
                            sel *= ctx.query.join_selectivity(ctx.registry, &pair.0, &pair.1)?;
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
        recurse(ctx, next, out, seen, visited)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn visiting_each_state_once_emits_the_same_plans_in_the_same_order() {
        use crate::heuristics::Phase1Heuristic;
        use crate::phase1::enumerate_assignments;

        let mut scenarios = vec![(
            "running example".to_owned(),
            entertainment::build_registry(1).unwrap(),
            running_example(),
        )];
        for n in 2..=5 {
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
                    for max in [3, 17, 256] {
                        let plans =
                            enumerate_topologies(&a.query, reg, &a.report, heuristic, max).unwrap();
                        // No visited set: the plain depth-first walk over
                        // every move order.
                        let reference =
                            enumerate(&a.query, reg, &a.report, heuristic, max, None).unwrap();
                        assert!(
                            plans == reference,
                            "{name} {heuristic:?} max={max}: {} plans vs {} from the reference",
                            plans.len(),
                            reference.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cap_limits_output() {
        let (q, reg, report) = setup();
        let plans =
            enumerate_topologies(&q, &reg, &report, Phase2Heuristic::ParallelIsBetter, 2).unwrap();
        assert_eq!(plans.len(), 2);
    }
}
