//! The branch-and-bound driver (§5.2, Fig. 8).
//!
//! The three phases branch; the bounding step uses the monotonicity of
//! every supported cost metric: a topology instantiated at the minimal
//! fetch vector ⟨1, …, 1⟩ costs no more than any of its completions, so
//! its cost is a valid lower bound for the whole phase-3 subtree. When
//! that bound exceeds the incumbent's cost, the subtree is pruned
//! without running phase 3. "The search for the optimal plan can be
//! stopped at any time, and it will nevertheless return a valid
//! solution" — [`Optimizer::budget`] implements that anytime behaviour.
//!
//! `Optimizer::search` is the one loop over topologies: a full
//! optimization hands it every enumerated topology, a suffix re-plan
//! ([`crate::replan`]) the restricted ones plus a `Seed`. A topology
//! arrives in phase 2's compact form ([`Topology`]): the search bounds
//! and instantiates its node table ([`Space::annotator`]) and builds a
//! `QueryPlan` ([`Space::materialize`]) only when its instantiated cost
//! reaches the incumbent check — 6 of the 4-atom star's 126 topologies.
//!
//! The search is serial: topologies are bounded and instantiated in
//! enumeration order against one incumbent. Pruning is *strict*
//! (`lower_bound > incumbent cost`), so a topology whose completion ties
//! the optimum is never pruned, and among equal-cost completions the
//! winner is the least `(cost, canonical plan key, rank)` triple.
//! Topology `i` ranks `i + 1`; rank 0 is a seeded incumbent, which
//! therefore wins every full tie.

use std::sync::Arc;

use seco_exec::ExecPool;
use seco_plan::{AnnotatedPlan, QueryPlan};
use seco_query::Query;
use seco_services::ServiceRegistry;

use crate::cost::CostMetric;
use crate::error::OptError;
use crate::heuristics::HeuristicSet;
use crate::phase1::enumerate_assignments;
use crate::phase2::{Space, Topology, DEFAULT_MAX_TOPOLOGIES};
use crate::phase3::{growable, instantiate, FetchPins, Phase3Stats};
use crate::plan_cache::{query_fingerprint, PlanCache};

/// Exploration statistics of one optimization run (the Fig. 8
/// experiment data).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Feasible phase-1 assignments considered.
    pub assignments: usize,
    /// Phase-2 topologies enumerated.
    pub topologies: usize,
    /// Phase 2 stopped at [`Optimizer::max_topologies`] for some
    /// assignment: its walk filled the cap, so topologies past it, and
    /// possibly the optimum, were never costed. Report only; the plan
    /// is cached like any other.
    pub truncated: bool,
    /// Topologies fully instantiated (phase 3 ran).
    pub instantiated: usize,
    /// Topologies pruned by the lower bound.
    pub pruned: usize,
    /// Times the incumbent bound strictly improved.
    pub bound_updates: usize,
    /// Full-plan annotations performed.
    pub annotate_full: usize,
    /// Incremental (downstream-cone) annotation propagations.
    pub annotate_delta: usize,
    /// Always 0: phase 3 keeps no memo (no two topologies of a search
    /// share a shape, and a greedy trial never repeats a fetch vector).
    /// Kept because the benchmark still reports it.
    pub memo_hits: usize,
    /// Optimizations answered entirely from the plan cache.
    pub cache_hits: usize,
    /// Plan-cache lookups that missed and fell through to the search.
    pub cache_misses: usize,
    /// Results inserted into the plan cache.
    pub cache_inserts: usize,
    /// Observed-stat promotions that rolled the registry epoch before
    /// this search ran (carried on suffix re-plans for observability).
    pub epoch_invalidations: usize,
    /// Suffix re-plans that produced a different plan (1 when
    /// [`Optimizer::replan_suffix`] switched, 0 otherwise).
    pub replans: usize,
}

/// The optimization result: the chosen fully instantiated plan, its
/// annotation, its cost, and the search statistics.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The winning plan (fetch factors set).
    pub plan: QueryPlan,
    /// Its cardinality annotation.
    pub annotated: AnnotatedPlan,
    /// Its cost under the optimizer's metric.
    pub cost: f64,
    /// Search statistics.
    pub stats: SearchStats,
}

/// Configured optimizer.
pub struct Optimizer<'a> {
    /// Service registry resolving interfaces and statistics.
    pub registry: &'a ServiceRegistry,
    /// Metric to minimize.
    pub metric: CostMetric,
    /// Branch-ordering heuristics.
    pub heuristics: HeuristicSet,
    /// Anytime budget: stop once this many plans have been fully
    /// instantiated *and* a feasible incumbent exists (`None` = run to
    /// exhaustion of the search space).
    pub budget: Option<usize>,
    /// Cap on enumerated topologies per assignment.
    pub max_topologies: usize,
    /// Read by nothing: the search is serial. Kept only because the
    /// benchmark harness still sets it (ROADMAP item 1f drops that).
    pub workers: (),
    /// Optional cross-run plan cache keyed by query shape (see
    /// [`query_fingerprint`]). Skipped when a [`budget`](Self::budget) is set:
    /// truncated searches are not canonical results worth caching.
    pub cache: Option<Arc<PlanCache>>,
    /// Deviation gate for [`Self::replan_suffix`]: observed node
    /// cardinalities must be off from their plan-time estimates by at
    /// least this multiplicative ratio before a suffix re-plan is
    /// attempted (the chapter's "off by ≥10×" default).
    pub replan_threshold: f64,
    /// Read by nothing: the search is serial. Kept only because the
    /// benchmark harness still sets it (ROADMAP item 1f drops that).
    pub pool: Option<Arc<ExecPool>>,
}

/// What a suffix re-plan fixes before `Optimizer::search` starts.
pub(crate) struct Seed {
    /// The executed services' fetch factors.
    pub pins: FetchPins,
    /// The original plan, the incumbent at rank 0, with its annotation
    /// and cost under the current statistics.
    pub plan: QueryPlan,
    pub annotated: AnnotatedPlan,
    pub cost: f64,
}

/// Phase-2 topologies, each next to the space of the interface
/// assignment it was enumerated for.
pub(crate) struct Topologies {
    /// One space per feasible assignment.
    pub spaces: Vec<Space>,
    /// `(index into spaces, topology)`, in enumeration order.
    pub items: Vec<(usize, Topology)>,
}

/// A candidate incumbent, ordered by `(cost, canonical key, rank)`. Only
/// a candidate that costs no more than the incumbent is built, so only
/// those pay for the plan and its key.
struct Candidate {
    cost: f64,
    key: String,
    rank: usize,
    plan: QueryPlan,
    annotated: AnnotatedPlan,
}

impl Candidate {
    fn beats(&self, other: &Candidate) -> bool {
        if self.cost != other.cost {
            return self.cost < other.cost;
        }
        if self.key != other.key {
            return self.key < other.key;
        }
        self.rank < other.rank
    }
}

impl<'a> Optimizer<'a> {
    /// An optimizer with default heuristics, no budget and the given
    /// metric.
    pub fn new(registry: &'a ServiceRegistry, metric: CostMetric) -> Self {
        Optimizer {
            registry,
            metric,
            heuristics: HeuristicSet::default(),
            budget: None,
            max_topologies: DEFAULT_MAX_TOPOLOGIES,
            workers: (),
            cache: None,
            replan_threshold: 10.0,
            pool: None,
        }
    }

    /// Runs the three-phase branch-and-bound and returns the best plan
    /// found. With a plan cache attached, a query whose shape (its
    /// clauses with the constants masked) was planned before under the
    /// same registry epoch is answered without searching at all: the
    /// cached plan is instantiated with this query's constants. A query
    /// whose clauses do not pair up with the cached template's (a
    /// fingerprint collision) is searched.
    pub fn optimize(&self, query: &Query) -> Result<Optimized, OptError> {
        let fingerprint = match &self.cache {
            Some(cache) if self.budget.is_none() => {
                cache.roll_epoch(self.registry.stats_epoch());
                let fp = query_fingerprint(
                    query,
                    self.registry,
                    self.metric,
                    &self.heuristics,
                    self.max_topologies,
                );
                if let Some(hit) = cache.get(fp).and_then(|t| t.instantiate(query)) {
                    return Ok(hit);
                }
                Some(fp)
            }
            _ => None,
        };

        let (topologies, stats) = self.enumerate(query)?;
        let mut result = self.search(topologies, query.k, None, stats)?;
        if let (Some(cache), Some(fp)) = (&self.cache, fingerprint) {
            cache.insert(fp, Arc::new(result.clone()));
            result.stats.cache_misses = 1;
            result.stats.cache_inserts = 1;
        }
        Ok(result)
    }

    /// Phases 1–2: every topology of every feasible assignment, in
    /// enumeration order, with `assignments` and `topologies` counted.
    pub(crate) fn enumerate(&self, query: &Query) -> Result<(Topologies, SearchStats), OptError> {
        let assignments = enumerate_assignments(query, self.registry, self.heuristics.phase1)?;
        let mut topologies = Topologies {
            spaces: Vec::with_capacity(assignments.len()),
            items: Vec::new(),
        };
        let mut truncated = false;
        for (i, assignment) in assignments.into_iter().enumerate() {
            let space = Space::new(assignment.query, self.registry, &assignment.report)?;
            let walked = space.topologies(self.heuristics.phase2, self.max_topologies);
            truncated |= walked.len() >= self.max_topologies;
            topologies.items.extend(walked.into_iter().map(|t| (i, t)));
            topologies.spaces.push(space);
        }
        let stats = SearchStats {
            assignments: topologies.spaces.len(),
            topologies: topologies.items.len(),
            truncated,
            ..SearchStats::default()
        };
        Ok((topologies, stats))
    }

    /// The search proper: bounds and instantiates the topologies in
    /// enumeration order and returns the least candidate, with this
    /// run's counters added to `stats`. A `seed` pins fetch factors in
    /// every item and enters as the incumbent at rank 0; `stats.replans`
    /// then says whether an item beat it.
    pub(crate) fn search(
        &self,
        topologies: Topologies,
        k: usize,
        seed: Option<Seed>,
        mut stats: SearchStats,
    ) -> Result<Optimized, OptError> {
        let seeded = seed.is_some();
        let (pins, mut best) = match seed {
            Some(seed) => {
                let incumbent = Candidate {
                    cost: seed.cost,
                    key: seed.plan.canonical_key(),
                    rank: 0,
                    plan: seed.plan,
                    annotated: seed.annotated,
                };
                (seed.pins, Some(incumbent))
            }
            None => (FetchPins::new(), None),
        };
        // Each assignment's space with the fetch factors its items keep,
        // by atom index (empty for a full search).
        let spaces: Vec<(Space, Vec<Option<u32>>)> = (topologies.spaces.into_iter())
            .map(|space| {
                let kept = match pins.is_empty() {
                    true => Vec::new(),
                    false => (space.query().atoms.iter())
                        .map(|a| pins.get(&a.alias).copied())
                        .collect(),
                };
                (space, kept)
            })
            .collect();
        // The last infeasible-k outcome, reported when nothing is feasible.
        let mut unreachable = None;
        let mut instantiated = 0;
        // Lower bounds of pruned subtrees, checked against the final
        // incumbent in debug builds: a pruned subtree must never contain
        // the winner.
        #[cfg(debug_assertions)]
        let mut pruned_bounds = Vec::new();

        for (idx, (assignment, topology)) in topologies.items.into_iter().enumerate() {
            let Some((space, pins)) = spaces.get(assignment) else {
                break;
            };
            let bound = best.as_ref().map_or(f64::INFINITY, |b| b.cost);
            // One full annotation serves both the lower bound and the
            // phase-3 starting point.
            let mut annotator = space.annotator(&topology, pins)?;
            stats.annotate_full += 1;
            let lower_bound = self.metric.cost_of(&annotator);
            if lower_bound > bound {
                stats.pruned += 1;
                #[cfg(debug_assertions)]
                pruned_bounds.push(lower_bound);
                continue;
            }
            let pinned = |id| {
                topology
                    .service_atom(id)
                    .is_some_and(|atom| pins.get(atom).copied().flatten().is_some())
            };
            let growable = growable(annotator.table(), pinned);
            let mut p3 = Phase3Stats::default();
            let instantiation = instantiate(
                &mut annotator,
                &growable,
                k,
                self.heuristics.phase3,
                self.metric,
                &mut p3,
            );
            stats.annotate_full += p3.annotate_full;
            stats.annotate_delta += p3.annotate_delta;
            instantiated += 1;
            match instantiation {
                Ok(()) => {}
                Err(e @ OptError::Unreachable { .. }) => {
                    unreachable = Some(e);
                    continue;
                }
                Err(e) => return Err(e),
            }
            // Only a candidate that can still beat or tie the incumbent
            // pays for its plan and key.
            let cost = self.metric.cost_of(&annotator);
            let above = cost > bound;
            if !above {
                let plan = space.materialize(&topology, |id| annotator.fetches(id).unwrap_or(1))?;
                let candidate = Candidate {
                    cost,
                    key: plan.canonical_key(),
                    rank: idx + 1,
                    plan,
                    annotated: annotator.into_annotated(),
                };
                if best.as_ref().is_none_or(|b| candidate.beats(b)) {
                    if candidate.cost < bound {
                        stats.bound_updates += 1;
                    }
                    best = Some(candidate);
                }
            }
            if self.budget.is_some_and(|budget| instantiated >= budget) && best.is_some() {
                break;
            }
        }
        stats.instantiated += instantiated;

        let Some(winner) = best else {
            return Err(unreachable.unwrap_or(OptError::Unreachable {
                best_estimate: 0.0,
                k,
            }));
        };
        // Pruning soundness (debug builds): every pruned subtree's lower
        // bound must exceed the winning cost, i.e. the exhaustive winner
        // is never in a pruned subtree.
        #[cfg(debug_assertions)]
        for lb in &pruned_bounds {
            debug_assert!(
                *lb > winner.cost,
                "pruned a subtree (lb={lb}) that could contain the winner (cost={})",
                winner.cost
            );
        }
        stats.replans = usize::from(seeded && winner.rank != 0);
        Ok(Optimized {
            plan: winner.plan,
            annotated: winner.annotated,
            cost: winner.cost,
            stats,
        })
    }
}

/// Convenience wrapper: optimize `query` under `metric` with default
/// heuristics.
pub fn optimize(
    query: &Query,
    registry: &ServiceRegistry,
    metric: CostMetric,
) -> Result<Optimized, OptError> {
    Optimizer::new(registry, metric).optimize(query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::{Phase2Heuristic, Phase3Heuristic};
    use seco_plan::PlanNode;
    use seco_query::builder::running_example;
    use seco_services::domains::entertainment;

    #[test]
    fn optimizes_the_running_example() {
        let reg = entertainment::build_registry(1).unwrap();
        let q = running_example();
        let best = optimize(&q, &reg, CostMetric::RequestCount).unwrap();
        assert!(best.cost > 0.0);
        assert!(best.annotated.output_tuples >= q.k as f64);
        assert!(best.stats.topologies >= 4);
        assert!(best.stats.instantiated + best.stats.pruned <= best.stats.topologies);
        best.plan.validate().unwrap();
    }

    #[test]
    fn pruning_does_not_change_the_optimum() {
        // B&B must find the same cost as the exhaustive enumeration.
        let reg = entertainment::build_registry(1).unwrap();
        let q = running_example();
        for metric in CostMetric::all() {
            let bnb = optimize(&q, &reg, metric).unwrap();
            let exhaustive = crate::exhaustive::optimize_exhaustive(&q, &reg, metric).unwrap();
            assert!(
                (bnb.cost - exhaustive.cost).abs() < 1e-9,
                "{metric}: bnb={} exhaustive={}",
                bnb.cost,
                exhaustive.cost
            );
        }
    }

    #[test]
    fn bnb_prunes_some_topologies() {
        let reg = entertainment::build_registry(1).unwrap();
        let q = running_example();
        let best = optimize(&q, &reg, CostMetric::RequestCount).unwrap();
        assert!(
            best.stats.pruned > 0,
            "the request-count metric separates chains from parallel plans enough to prune"
        );
    }

    #[test]
    fn budget_caps_the_search_and_still_returns_a_plan() {
        let reg = entertainment::build_registry(1).unwrap();
        let q = running_example();
        let mut opt = Optimizer::new(&reg, CostMetric::RequestCount);
        opt.budget = Some(1);
        let anytime = opt.optimize(&q).unwrap();
        assert_eq!(anytime.stats.instantiated, 1);
        anytime.plan.validate().unwrap();
        // The anytime result can be worse, never better, than the full
        // search.
        let full = optimize(&q, &reg, CostMetric::RequestCount).unwrap();
        assert!(anytime.cost >= full.cost - 1e-9);
    }

    #[test]
    fn request_count_prefers_the_parallel_plan() {
        // §5.4: "sequencing selective services plays in favor of
        // metrics that minimize the overall number of invocations" —
        // but with Movie1 feeding 100 tuples through a chained Theatre,
        // the parallel join wins by orders of magnitude here, matching
        // the chapter's choice of topology (d).
        let reg = entertainment::build_registry(1).unwrap();
        let q = running_example();
        let best = optimize(&q, &reg, CostMetric::RequestCount).unwrap();
        let has_parallel = best
            .plan
            .node_ids()
            .any(|id| matches!(best.plan.node(id), Ok(PlanNode::ParallelJoin(_))));
        assert!(
            has_parallel,
            "plan:\n{}",
            seco_plan::display::ascii(&best.plan, None).unwrap()
        );
    }

    #[test]
    fn heuristics_do_not_change_the_optimum() {
        let reg = entertainment::build_registry(1).unwrap();
        let q = running_example();
        let mut costs = Vec::new();
        for p2 in [
            Phase2Heuristic::ParallelIsBetter,
            Phase2Heuristic::SelectiveFirst,
        ] {
            for p3 in [Phase3Heuristic::Greedy, Phase3Heuristic::SquareIsBetter] {
                let mut opt = Optimizer::new(&reg, CostMetric::RequestCount);
                opt.heuristics.phase2 = p2;
                opt.heuristics.phase3 = p3;
                // Phase-3 heuristics can land on different instantiations,
                // but the search still returns a valid plan meeting k.
                let best = opt.optimize(&q).unwrap();
                assert!(best.annotated.output_tuples >= q.k as f64);
                costs.push(best.cost);
            }
        }
        // All runs agree on cost up to phase-3 heuristic differences.
        let min = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = costs.iter().cloned().fold(0.0, f64::max);
        assert!(
            max <= min * 2.0 + 1e-9,
            "heuristic spread too large: {costs:?}"
        );
    }

    #[test]
    fn impossible_k_reports_unreachable() {
        let reg = entertainment::build_registry(1).unwrap();
        let mut q = running_example();
        q.k = 10_000_000;
        let err = optimize(&q, &reg, CostMetric::RequestCount).unwrap_err();
        assert!(matches!(err, OptError::Unreachable { .. }));
    }

    #[test]
    fn four_atom_star_search_is_pinned() {
        // Values recorded before phase 2 learned to visit each state
        // once, and the annotation work before phase 2 ran on interned
        // signatures and phase 3 lost its memo: the search must notice
        // neither.
        let (reg, q) = seco_bench::star_scenario(4, 7);
        let best = optimize(&q, &reg, CostMetric::RequestCount).unwrap();
        let s = &best.stats;
        assert_eq!((s.topologies, s.instantiated, s.pruned), (126, 102, 24));
        assert_eq!((s.annotate_full, s.annotate_delta), (126, 750));
        assert_eq!((s.bound_updates, s.memo_hits), (1, 0));
        assert_eq!(best.cost.to_bits(), 15.0f64.to_bits());
        assert_eq!(
            best.plan.canonical_key(),
            "O(J[MS(r=1/1),tri,A1.Link = A2.Link;sel=3fb999999999999a](\
             J[MS(r=1/1),tri,A1.Link = A3.Link;sel=3fb999999999999a](\
             J[MS(r=1/1),tri,A1.Link = A4.Link;sel=3fb999999999999a](\
             S[A1=Star1,F=4,kf=0](I)|S[A4=Star4,F=3,kf=0](I))|\
             S[A3=Star3,F=4,kf=0](I))|S[A2=Star2,F=4,kf=0](I)))"
        );
    }

    #[test]
    fn a_search_reports_when_phase_two_fills_its_topology_cap() {
        // A 4-star has 126 topologies, under the cap of 256; a 5-star
        // has 1 320, so its walk stops at the cap.
        for (n, truncated) in [(4, false), (5, true)] {
            let (reg, q) = seco_bench::star_scenario(n, 7);
            let best = optimize(&q, &reg, CostMetric::RequestCount).unwrap();
            assert_eq!(best.stats.truncated, truncated, "{n}-star");
        }
    }

    #[test]
    fn running_example_search_is_pinned() {
        // Recorded from the parallel-capable search it replaced, for
        // every metric: (topologies, instantiated, pruned,
        // bound_updates, annotate_full, annotate_delta), the cost bits
        // and the winner's canonical key. A change to pruning or to the
        // tie-break order moves one of them.
        const CHAIN: &str = "O(S[R=Restaurant1,F=1,kf=0](\
             J[MS(r=1/1),tri,M.Title = T.Movie.Title;sel=3f947ae147ae147b](\
             F[T.TCountry = INPUT2;sel=3ff0000000000000](S[T=Theatre1,F=5,kf=0](I))|\
             S[M=Movie1,F=1,kf=0](I))))";
        const PARALLEL: &str = "O(J[MS(r=1/1),tri,M.Title = T.Movie.Title;sel=3f947ae147ae147b](\
             S[M=Movie1,F=1,kf=0](I)|S[R=Restaurant1,F=1,kf=0](\
             F[T.TCountry = INPUT2;sel=3ff0000000000000](S[T=Theatre1,F=5,kf=0](I)))))";
        let pins = [
            (
                CostMetric::ExecutionTime,
                (5, 2, 3, 1, 5, 8),
                0x4085e00000000000u64,
                CHAIN,
            ),
            (
                CostMetric::Sum,
                (5, 3, 2, 1, 5, 10),
                0x4026000000000000,
                CHAIN,
            ),
            (
                CostMetric::RequestCount,
                (5, 3, 2, 1, 5, 10),
                0x4026000000000000,
                CHAIN,
            ),
            (
                CostMetric::Bottleneck,
                (5, 2, 3, 1, 5, 8),
                0x4079000000000000,
                CHAIN,
            ),
            (
                CostMetric::TimeToScreen,
                (5, 2, 3, 2, 5, 8),
                0x4061800000000000,
                PARALLEL,
            ),
        ];
        assert_eq!(pins.len(), CostMetric::all().len());
        let reg = entertainment::build_registry(1).unwrap();
        let q = running_example();
        for (metric, counts, cost_bits, key) in pins {
            let best = optimize(&q, &reg, metric).unwrap();
            let s = &best.stats;
            let got = (
                s.topologies,
                s.instantiated,
                s.pruned,
                s.bound_updates,
                s.annotate_full,
                s.annotate_delta,
            );
            assert_eq!(got, counts, "{metric}");
            assert_eq!(best.cost.to_bits(), cost_bits, "{metric}");
            assert_eq!(best.plan.canonical_key(), key, "{metric}");
        }
    }

    #[test]
    fn plan_cache_answers_repeat_queries() {
        let reg = entertainment::build_registry(1).unwrap();
        let q = running_example();
        let cache = Arc::new(PlanCache::new());
        let mut opt = Optimizer::new(&reg, CostMetric::RequestCount);
        opt.cache = Some(Arc::clone(&cache));

        let cold = opt.optimize(&q).unwrap();
        assert_eq!(cold.stats.cache_hits, 0);
        assert_eq!(cold.stats.cache_misses, 1);
        assert_eq!(cold.stats.cache_inserts, 1);
        assert_eq!(cache.len(), 1);

        let warm = opt.optimize(&q).unwrap();
        let hit = SearchStats {
            cache_hits: 1,
            ..SearchStats::default()
        };
        assert_eq!(warm.stats, hit, "a hit searches nothing");
        assert_eq!(warm.cost.to_bits(), cold.cost.to_bits());
        assert_eq!(warm.plan.canonical_key(), cold.plan.canonical_key());

        // A different metric is a different fingerprint.
        let mut opt2 = Optimizer::new(&reg, CostMetric::ExecutionTime);
        opt2.cache = Some(Arc::clone(&cache));
        let other = opt2.optimize(&q).unwrap();
        assert_eq!(other.stats.cache_misses, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn budgeted_runs_bypass_the_cache() {
        let reg = entertainment::build_registry(1).unwrap();
        let q = running_example();
        let cache = Arc::new(PlanCache::new());
        let mut opt = Optimizer::new(&reg, CostMetric::RequestCount);
        opt.cache = Some(Arc::clone(&cache));
        opt.budget = Some(1);
        let anytime = opt.optimize(&q).unwrap();
        assert_eq!(anytime.stats.cache_misses, 0);
        assert_eq!(anytime.stats.cache_inserts, 0);
        assert!(cache.is_empty(), "truncated results must not be cached");
    }
}
