//! Quantiles and five-number summaries (the paper's Fig. 9 box plots).
//!
//! All entry points reject degenerate samples (empty, or containing NaN)
//! with a typed [`MetricsError`] instead of panicking: a degenerate cell in
//! a supervised sweep must surface as a typed `Failed` hole that siblings
//! survive, not as a panic that the supervisor has to catch.

use std::fmt;

/// A sample was too degenerate to summarize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsError {
    /// The sample contained no observations.
    EmptySample,
    /// The sample contained at least one NaN, which has no order.
    NanSample,
    /// The requested quantile fraction was outside `[0, 1]`.
    FractionOutOfRange,
}

impl fmt::Display for MetricsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricsError::EmptySample => write!(f, "quantile of empty sample"),
            MetricsError::NanSample => write!(f, "NaN in quantile input"),
            MetricsError::FractionOutOfRange => {
                write!(f, "quantile fraction out of [0, 1]")
            }
        }
    }
}

impl std::error::Error for MetricsError {}

/// Five-number summary of a sample: min, Q1, median, Q3, max.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuartileSummary {
    /// Smallest observation.
    pub min: f64,
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// Largest observation.
    pub max: f64,
}

/// Sorts a copy of the sample, rejecting NaN with a typed error.
fn sorted_copy(xs: &[f64]) -> Result<Vec<f64>, MetricsError> {
    if xs.is_empty() {
        return Err(MetricsError::EmptySample);
    }
    if xs.iter().any(|x| x.is_nan()) {
        return Err(MetricsError::NanSample);
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    Ok(v)
}

/// Linearly interpolated quantile (the "type 7" estimator used by R and
/// NumPy). `q` must be in `[0, 1]`.
///
/// Degenerate inputs (empty sample, NaN, out-of-range fraction) return a
/// typed [`MetricsError`] instead of panicking.
pub fn quantile(xs: &[f64], q: f64) -> Result<f64, MetricsError> {
    let v = sorted_copy(xs)?;
    quantile_sorted(&v, q)
}

/// Quantile of an already-sorted slice (avoids repeated sorting when
/// computing several quantiles of the same sample).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Result<f64, MetricsError> {
    if sorted.is_empty() {
        return Err(MetricsError::EmptySample);
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(MetricsError::FractionOutOfRange);
    }
    let n = sorted.len();
    if n == 1 {
        return Ok(sorted[0]);
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Ok(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

impl QuartileSummary {
    /// Computes the five-number summary of a sample. Empty or NaN-bearing
    /// samples yield a typed [`MetricsError`].
    pub fn of(xs: &[f64]) -> Result<Self, MetricsError> {
        let v = sorted_copy(xs)?;
        Ok(QuartileSummary {
            min: v[0],
            #[expect(
                clippy::expect_used,
                reason = "non-empty by construction: the public constructor rejects empty sample sets"
            )]
            q1: quantile_sorted(&v, 0.25).expect("non-empty by construction"),
            #[expect(
                clippy::expect_used,
                reason = "non-empty by construction: the public constructor rejects empty sample sets"
            )]
            median: quantile_sorted(&v, 0.5).expect("non-empty by construction"),
            #[expect(
                clippy::expect_used,
                reason = "non-empty by construction: the public constructor rejects empty sample sets"
            )]
            q3: quantile_sorted(&v, 0.75).expect("non-empty by construction"),
            max: v[v.len() - 1],
        })
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn summary_of_known_sample() {
        // 0..=8: quartiles interpolate exactly on integers.
        let xs: Vec<f64> = (0..9).map(f64::from).collect();
        let s = QuartileSummary::of(&xs).unwrap();
        assert_eq!(s.min, 0.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.median, 4.0);
        assert_eq!(s.q3, 6.0);
        assert_eq!(s.max, 8.0);
        assert_eq!(s.iqr(), 4.0);
    }

    #[test]
    fn interpolated_quantiles() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.5).unwrap(), 2.5);
        assert_eq!(quantile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 4.0);
        assert!((quantile(&xs, 0.25).unwrap() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn single_element() {
        let s = QuartileSummary::of(&[7.0]).unwrap();
        assert_eq!(s.min, 7.0);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.max, 7.0);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let s = QuartileSummary::of(&[9.0, 1.0, 5.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn empty_sample_is_a_typed_error() {
        assert_eq!(QuartileSummary::of(&[]), Err(MetricsError::EmptySample));
        assert_eq!(quantile(&[], 0.5), Err(MetricsError::EmptySample));
        assert_eq!(quantile_sorted(&[], 0.5), Err(MetricsError::EmptySample));
    }

    #[test]
    fn nan_sample_is_a_typed_error() {
        assert_eq!(
            QuartileSummary::of(&[1.0, f64::NAN]),
            Err(MetricsError::NanSample)
        );
        assert_eq!(quantile(&[f64::NAN], 0.5), Err(MetricsError::NanSample));
    }

    #[test]
    fn out_of_range_fraction_is_a_typed_error() {
        assert_eq!(
            quantile(&[1.0, 2.0], 1.5),
            Err(MetricsError::FractionOutOfRange)
        );
        assert_eq!(
            quantile(&[1.0, 2.0], -0.1),
            Err(MetricsError::FractionOutOfRange)
        );
    }

    #[test]
    fn errors_display_their_cause() {
        assert!(MetricsError::EmptySample.to_string().contains("empty"));
        assert!(MetricsError::NanSample.to_string().contains("NaN"));
        assert!(MetricsError::FractionOutOfRange
            .to_string()
            .contains("[0, 1]"));
    }

    proptest! {
        /// The summary is ordered: min ≤ q1 ≤ median ≤ q3 ≤ max, and all
        /// quantiles lie within the sample range.
        #[test]
        fn prop_summary_ordered(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let s = QuartileSummary::of(&xs).unwrap();
            prop_assert!(s.min <= s.q1);
            prop_assert!(s.q1 <= s.median);
            prop_assert!(s.median <= s.q3);
            prop_assert!(s.q3 <= s.max);
        }

        /// Quantile is monotone in q.
        #[test]
        fn prop_quantile_monotone(
            xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
            q1 in 0.0f64..1.0,
            q2 in 0.0f64..1.0,
        ) {
            let (a, b) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            prop_assert!(quantile(&xs, a).unwrap() <= quantile(&xs, b).unwrap() + 1e-9);
        }
    }
}
