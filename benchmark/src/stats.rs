//! The benchmark's arithmetic: percentiles, medians of rounds, worsening.

/// The `p`-quantile (0 ≤ p ≤ 1) of `samples` by nearest rank on the
/// sorted values; `None` when there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
    Some(sorted[rank])
}

/// The median of `values` (mean of the two middle values when even);
/// 0 when empty, so an all-failed run still prints a number next to
/// its `failed` count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// How much worse `new` is than `base`, as a share of `base`
/// (positive = worse), for a metric where `lower_is_better` or not.
pub fn worsening(base: f64, new: f64, lower_is_better: bool) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    let delta = if lower_is_better {
        new - base
    } else {
        base - new
    };
    delta / base.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 0.5), Some(51.0));
        assert_eq!(percentile(&v, 0.95), Some(95.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(
            percentile(&[3.0, 1.0, 2.0], 0.5),
            Some(2.0),
            "input need not be sorted"
        );
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_rounds_ignores_an_outlying_round() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // Five rounds of one metric, one of them disturbed.
        assert_eq!(median(&[1.0, 9.0, 2.0, 3.0, 8.0]), 3.0);
        assert_eq!(median(&[100.0, 300.0, 200.0, 50.0, 250.0]), 200.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 110.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) - 0.10).abs() < 1e-12);
    }
}
