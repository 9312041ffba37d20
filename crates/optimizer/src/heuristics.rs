//! Branching heuristics for the three optimization phases (§5.3–§5.5).
//!
//! Heuristics only *order* the branches — they never exclude any, so the
//! search stays complete; a good order merely finds a strong incumbent
//! early, which makes the bounding step prune more.

use std::fmt;

/// Phase-1 (access-pattern selection) branch ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase1Heuristic {
    /// "Prefer [access patterns] with many input attributes. The
    /// intuition: the more attributes are bound, the smaller the answer
    /// set" (§5.3).
    BoundIsBetter,
    /// "An initialization with the minimum number of input attributes
    /// may make it easier to build a feasible solution" (§5.3).
    UnboundIsEasier,
}

impl Phase1Heuristic {
    /// Sort key for an interface with `input_arity` inputs: lower keys
    /// are tried first.
    pub fn key(&self, input_arity: usize) -> i64 {
        match self {
            // Many inputs first → negate.
            Phase1Heuristic::BoundIsBetter => -(input_arity as i64),
            Phase1Heuristic::UnboundIsEasier => input_arity as i64,
        }
    }
}

impl fmt::Display for Phase1Heuristic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase1Heuristic::BoundIsBetter => write!(f, "bound-is-better"),
            Phase1Heuristic::UnboundIsEasier => write!(f, "unbound-is-easier"),
        }
    }
}

/// Phase-2 (topology selection) branch ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase2Heuristic {
    /// "Having long linear paths in the DAG, ordered by decreasing
    /// selectivity, wherever possible (ideally, one chain from input to
    /// output)" (§5.4).
    SelectiveFirst,
    /// "Always making the choice that maximizes parallelism. […]
    /// incrementing the parallelism plays in favor of those metrics
    /// that take time into account, while sequencing selective services
    /// plays in favor of metrics that minimize the overall number of
    /// invocations" (§5.4).
    ParallelIsBetter,
}

impl Phase2Heuristic {
    /// Orders the serial-vs-parallel attachment choice: returns true
    /// when the parallel attachment should be tried first.
    pub fn parallel_first(&self) -> bool {
        matches!(self, Phase2Heuristic::ParallelIsBetter)
    }
}

impl fmt::Display for Phase2Heuristic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase2Heuristic::SelectiveFirst => write!(f, "selective-first"),
            Phase2Heuristic::ParallelIsBetter => write!(f, "parallel-is-better"),
        }
    }
}

/// Phase-3 (fetch assignment) increment policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase3Heuristic {
    /// "The Fi to be incremented is the one […] with the highest
    /// sensitivity with respect to the increase in the number of tuples
    /// in the query result per cost unit" (§5.5).
    Greedy,
    /// "Each Fi is incremented by a value proportional to its chunk
    /// size[, so that] all chunked services will have explored about the
    /// same number of tuples" (§5.5).
    SquareIsBetter,
}

impl fmt::Display for Phase3Heuristic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase3Heuristic::Greedy => write!(f, "greedy"),
            Phase3Heuristic::SquareIsBetter => write!(f, "square-is-better"),
        }
    }
}

/// The heuristic configuration of one optimizer run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HeuristicSet {
    /// Phase-1 ordering.
    pub phase1: Phase1Heuristic,
    /// Phase-2 ordering.
    pub phase2: Phase2Heuristic,
    /// Phase-3 increment policy.
    pub phase3: Phase3Heuristic,
}

impl Default for HeuristicSet {
    fn default() -> Self {
        HeuristicSet {
            phase1: Phase1Heuristic::BoundIsBetter,
            phase2: Phase2Heuristic::ParallelIsBetter,
            phase3: Phase3Heuristic::SquareIsBetter,
        }
    }
}

impl fmt::Display for HeuristicSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.phase1, self.phase2, self.phase3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase1_keys_order_opposite_ways() {
        let b = Phase1Heuristic::BoundIsBetter;
        let u = Phase1Heuristic::UnboundIsEasier;
        assert!(
            b.key(5) < b.key(1),
            "bound-is-better tries many-input interfaces first"
        );
        assert!(
            u.key(1) < u.key(5),
            "unbound-is-easier tries few-input interfaces first"
        );
    }

    #[test]
    fn phase2_parallel_preference() {
        assert!(Phase2Heuristic::ParallelIsBetter.parallel_first());
        assert!(!Phase2Heuristic::SelectiveFirst.parallel_first());
    }

    #[test]
    fn displays() {
        assert_eq!(
            HeuristicSet::default().to_string(),
            "bound-is-better/parallel-is-better/square-is-better"
        );
        assert_eq!(Phase3Heuristic::Greedy.to_string(), "greedy");
        assert_eq!(
            Phase2Heuristic::SelectiveFirst.to_string(),
            "selective-first"
        );
        assert_eq!(
            Phase1Heuristic::UnboundIsEasier.to_string(),
            "unbound-is-easier"
        );
    }
}
