//! Result assembly under the global ranking function.
//!
//! §3.2: "Result tuples can be guaranteed to be the top-k tuples
//! according to the ranking function, or instead be just k good tuples,
//! emitted with an approximation of the total order." The engine's
//! executors emit in strategy order (non-blocking); [`ResultSet`] keeps
//! that order and offers ranked views on demand, plus the quality
//! measurements the E6/E7 experiments report.

use seco_model::CompositeTuple;
use seco_query::RankingFunction;

/// The assembled answers of one query execution.
#[derive(Debug, Clone)]
pub struct ResultSet {
    /// Combinations in emission order.
    pub tuples: Vec<CompositeTuple>,
    /// The query's global ranking function.
    pub ranking: RankingFunction,
    /// Services whose failures degraded the answer (sorted; empty on a
    /// clean run). A non-empty list flags the tuples as a *partial*
    /// answer: correct combinations, but possibly missing some that the
    /// failed services would have contributed.
    pub degraded: Vec<String>,
}

impl ResultSet {
    /// Wraps an emission-ordered result list.
    pub fn new(tuples: Vec<CompositeTuple>, ranking: RankingFunction) -> Self {
        ResultSet {
            tuples,
            ranking,
            degraded: Vec::new(),
        }
    }

    /// Tags the result set with the services that degraded it.
    pub fn with_degraded(mut self, degraded: Vec<String>) -> Self {
        self.degraded = degraded;
        self
    }

    /// True when some branch failed and the results are partial.
    pub fn is_degraded(&self) -> bool {
        !self.degraded.is_empty()
    }

    /// Number of combinations.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when no combination was produced.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The first `k` answers *in emission order* — what a non-blocking
    /// interface shows while extraction continues.
    pub fn first_k(&self, k: usize) -> &[CompositeTuple] {
        &self.tuples[..k.min(self.tuples.len())]
    }

    /// Positions into [`tuples`](Self::tuples), best first under the
    /// global ranking function. Every tuple is scored once and the sort
    /// is stable, so equal scores keep emission order.
    pub fn ranked_order(&self) -> Vec<u32> {
        let scores: Vec<f64> = self.tuples.iter().map(|t| self.ranking.score(t)).collect();
        let n = u32::try_from(self.tuples.len()).expect("fewer than 2^32 combinations");
        let mut order: Vec<u32> = (0..n).collect();
        order.sort_by(|&a, &b| {
            scores[b as usize]
                .partial_cmp(&scores[a as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        order
    }

    /// The best `k` answers under the global ranking function (a sort
    /// over everything emitted so far — the "top-k of the extracted
    /// prefix", not a guaranteed global top-k).
    pub fn top_k(&self, k: usize) -> Vec<CompositeTuple> {
        self.ranked_order()
            .iter()
            .take(k)
            .map(|&at| self.tuples[at as usize].clone())
            .collect()
    }

    /// Fraction of emission-order pairs that are inverted w.r.t. the
    /// global ranking (0 = the emission already was perfectly ranked).
    pub fn ranking_inversion_rate(&self) -> f64 {
        let n = self.tuples.len();
        if n < 2 {
            return 0.0;
        }
        let scores: Vec<f64> = self.tuples.iter().map(|t| self.ranking.score(t)).collect();
        let mut inversions = 0usize;
        for i in 0..n {
            for j in i + 1..n {
                if scores[i] < scores[j] - 1e-12 {
                    inversions += 1;
                }
            }
        }
        inversions as f64 / (n * (n - 1) / 2) as f64
    }

    /// How many of the true top-k (by ranking, within the emitted set)
    /// appear among the first k emitted — the precision@k of the
    /// emission order.
    pub fn precision_at_k(&self, k: usize) -> f64 {
        if k == 0 || self.tuples.is_empty() {
            return 1.0;
        }
        let truth = self.top_k(k);
        let head = self.first_k(k);
        let hits = head.iter().filter(|c| truth.contains(c)).count();
        hits as f64 / k.min(self.tuples.len()) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seco_model::{Adornment, AttributeDef, DataType, ServiceSchema, Tuple};

    fn composite(score: f64, rank: usize) -> CompositeTuple {
        let schema = ServiceSchema::new(
            "S",
            vec![AttributeDef::atomic("A", DataType::Int, Adornment::Output)],
        )
        .unwrap();
        CompositeTuple::single(
            "X",
            Tuple::builder(&schema)
                .score(score)
                .source_rank(rank)
                .build()
                .unwrap(),
        )
    }

    fn set(scores: &[f64]) -> ResultSet {
        let tuples = scores
            .iter()
            .enumerate()
            .map(|(i, s)| composite(*s, i))
            .collect();
        ResultSet::new(tuples, RankingFunction::uniform(1))
    }

    #[test]
    fn first_k_preserves_emission_order() {
        let rs = set(&[0.5, 0.9, 0.1]);
        let head = rs.first_k(2);
        assert_eq!(head[0].components[0].score, 0.5);
        assert_eq!(head[1].components[0].score, 0.9);
        assert_eq!(rs.first_k(99).len(), 3);
        assert_eq!(rs.len(), 3);
        assert!(!rs.is_empty());
    }

    #[test]
    fn top_k_sorts_by_ranking() {
        let rs = set(&[0.5, 0.9, 0.1]);
        let top = rs.top_k(2);
        assert_eq!(top[0].components[0].score, 0.9);
        assert_eq!(top[1].components[0].score, 0.5);
    }

    /// The clone-and-sort `top_k` this module shipped before the index
    /// sort — kept as the reference the new one must equal.
    fn clone_and_sort(rs: &ResultSet, k: usize) -> Vec<CompositeTuple> {
        let mut sorted = rs.tuples.clone();
        sorted.sort_by(|a, b| {
            rs.ranking
                .score(b)
                .partial_cmp(&rs.ranking.score(a))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        sorted.truncate(k);
        sorted
    }

    #[test]
    fn top_k_equals_clone_and_sort_with_ties_in_emission_order() {
        // Repeated scores: ties must come out in emission (source-rank) order.
        let rs = set(&[0.5, 0.9, 0.5, 0.1, 0.9, 0.5, 0.0]);
        let n = rs.len();
        for k in [0, 1, n, n + 5] {
            assert_eq!(rs.top_k(k), clone_and_sort(&rs, k), "k = {k}");
        }
        let ranks: Vec<usize> = rs
            .top_k(n)
            .iter()
            .map(|c| c.components[0].source_rank)
            .collect();
        assert_eq!(ranks, [1, 4, 0, 2, 5, 3, 6]);
        assert!(set(&[]).top_k(3).is_empty());
    }

    #[test]
    fn inversion_rate_bounds() {
        assert_eq!(set(&[0.9, 0.5, 0.1]).ranking_inversion_rate(), 0.0);
        assert_eq!(set(&[0.1, 0.5, 0.9]).ranking_inversion_rate(), 1.0);
        assert_eq!(set(&[]).ranking_inversion_rate(), 0.0);
        let mid = set(&[0.5, 0.9, 0.1]).ranking_inversion_rate();
        assert!(mid > 0.0 && mid < 1.0);
    }

    #[test]
    fn precision_at_k() {
        // Emission [0.9, 0.8, 0.1]: the first 2 ARE the top 2.
        assert_eq!(set(&[0.9, 0.8, 0.1]).precision_at_k(2), 1.0);
        // Emission [0.1, 0.9, 0.8]: only one of the top 2 in the head.
        assert_eq!(set(&[0.1, 0.9, 0.8]).precision_at_k(2), 0.5);
        assert_eq!(set(&[]).precision_at_k(3), 1.0);
        assert_eq!(set(&[0.3]).precision_at_k(0), 1.0);
    }
}
