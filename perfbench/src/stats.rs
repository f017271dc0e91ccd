//! Order statistics over timing samples.

/// Smallest sample (0 for none).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Median by nearest rank (0 for none).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The `level`-th percentile by nearest rank: the smallest sample with at
/// least `level` percent of the samples at or below it (0 for none).
pub fn percentile(xs: &[f64], level: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), level) - 1]
}

/// 1-based nearest rank of the `level`-th percentile among `n` samples,
/// in integer tenths of a percent so that levels like 99.9 round exactly.
fn rank(n: usize, level: f64) -> usize {
    let tenths = (level * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Percentile levels a tail may be reported at, highest first.
const TAIL_LEVELS: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a reported tail percentile must have beyond it, so that the
/// tail is estimated from more than a handful of outliers.
const TAIL_SUPPORT: usize = 10;

/// The highest percentile level that leaves at least ten of `n` samples
/// beyond it, or `None` when even the median does not.
pub fn tail_level(n: usize) -> Option<f64> {
    TAIL_LEVELS
        .into_iter()
        .find(|&level| n > 0 && n - rank(n, level) >= TAIL_SUPPORT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_level_needs_ten_samples_beyond() {
        assert_eq!(tail_level(0), None);
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(20), Some(50.0));
        assert_eq!(tail_level(40), Some(75.0));
        assert_eq!(tail_level(100), Some(90.0));
        assert_eq!(tail_level(199), Some(90.0));
        assert_eq!(tail_level(200), Some(95.0));
        assert_eq!(tail_level(999), Some(95.0));
        assert_eq!(tail_level(1000), Some(99.0));
        assert_eq!(tail_level(10_000), Some(99.9));
        for n in 0..2_000 {
            if let Some(level) = tail_level(n) {
                assert!(n - rank(n, level) >= TAIL_SUPPORT, "n={n} level={level}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(median(&xs), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(min(&xs), 1.0);
        assert_eq!(median(&[]), 0.0);
    }
}
