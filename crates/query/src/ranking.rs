//! The global ranking function (§3.1).
//!
//! "The query is associated with a ranking function f expressed as a
//! sequence (w1, …, wn) of non-negative weights for the scores used in
//! the query. […] the ranking function of the formed combination
//! t1 · … · tn is given as w1·S1 + … + wn·Sn; the weight of unranked
//! services is set equal to 0."

use seco_model::CompositeTuple;

use crate::error::QueryError;

/// Weight vector over the query's atoms, in atom order.
#[derive(Debug, Clone, PartialEq)]
pub struct RankingFunction {
    weights: Vec<f64>,
}

impl RankingFunction {
    /// Builds a ranking function; weights must be non-negative and at
    /// least one must be positive.
    pub fn new(weights: Vec<f64>) -> Result<Self, QueryError> {
        if weights.iter().any(|w| *w < 0.0 || !w.is_finite()) {
            return Err(QueryError::BadRanking(
                "weights must be non-negative and finite".into(),
            ));
        }
        if weights.iter().all(|w| *w == 0.0) {
            return Err(QueryError::BadRanking(
                "at least one weight must be positive".into(),
            ));
        }
        Ok(RankingFunction { weights })
    }

    /// Equal weights `1/n` for `n` atoms.
    pub fn uniform(n: usize) -> Self {
        RankingFunction {
            weights: vec![1.0 / n.max(1) as f64; n.max(1)],
        }
    }

    /// The weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of weights (must equal the query's atom count).
    pub fn arity(&self) -> usize {
        self.weights.len()
    }

    /// Applies the weighted sum to a composite tuple.
    pub fn score(&self, t: &CompositeTuple) -> f64 {
        t.global_score(&self.weights)
    }

    /// Replaces the weights (the chapter allows rankings to be "altered
    /// dynamically through the query interface"; only definition-time
    /// rankings participate in optimization).
    pub fn reweigh(&mut self, weights: Vec<f64>) -> Result<(), QueryError> {
        *self = RankingFunction::new(weights)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seco_model::{Adornment, AttributeDef, DataType, ServiceSchema, Tuple};

    fn composite(scores: &[f64]) -> CompositeTuple {
        let schema = ServiceSchema::new(
            "S",
            vec![AttributeDef::atomic("A", DataType::Int, Adornment::Output)],
        )
        .unwrap();
        let mut atoms = Vec::new();
        let mut components = Vec::new();
        for (i, s) in scores.iter().enumerate() {
            atoms.push(seco_model::Symbol::from(format!("a{i}")));
            components.push(seco_model::SharedTuple::new(
                Tuple::builder(&schema).score(*s).build().unwrap(),
            ));
        }
        CompositeTuple::new(&atoms, components)
    }

    #[test]
    fn weighted_sum_matches_the_chapter_formula() {
        // The running example's (0.3, 0.5, 0.2) ranking.
        let f = RankingFunction::new(vec![0.3, 0.5, 0.2]).unwrap();
        let c = composite(&[1.0, 0.5, 0.0]);
        assert!((f.score(&c) - (0.3 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_weights() {
        assert!(RankingFunction::new(vec![-0.1, 1.0]).is_err());
        assert!(RankingFunction::new(vec![0.0, 0.0]).is_err());
        assert!(RankingFunction::new(vec![f64::NAN]).is_err());
        assert!(RankingFunction::new(vec![0.0, 1.0]).is_ok());
    }

    #[test]
    fn uniform_splits_evenly() {
        let f = RankingFunction::uniform(4);
        assert_eq!(f.arity(), 4);
        assert!((f.weights().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Degenerate n=0 still yields a usable function.
        assert_eq!(RankingFunction::uniform(0).arity(), 1);
    }

    #[test]
    fn reweigh_replaces_weights() {
        let mut f = RankingFunction::uniform(2);
        f.reweigh(vec![0.9, 0.1]).unwrap();
        assert_eq!(f.weights(), &[0.9, 0.1]);
        assert!(f.reweigh(vec![-1.0, 2.0]).is_err());
    }
}
