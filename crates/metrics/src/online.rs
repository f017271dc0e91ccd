//! Streaming moment estimators (Welford's algorithm) and the online
//! building blocks of the live monitor: exponentially weighted moments
//! ([`Ewma`]), sliding-window quantiles ([`WindowedQuantiles`]), and a
//! CUSUM change-point detector ([`Cusum`]).

use std::collections::VecDeque;

use crate::quartiles::quantile_sorted;

/// Single-pass mean/variance/min/max accumulator.
///
/// Uses Welford's update, which is numerically stable for long streams —
/// important because impact experiments can collect millions of latency
/// samples in nanoseconds, where naive sum-of-squares catastrophically
/// cancels.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds every item of an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }

    /// Builds an accumulator from a slice.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut s = OnlineStats::new();
        s.extend(xs.iter().copied());
        s
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by n; 0 when empty).
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Unbiased sample variance (divides by n−1; 0 when n < 2).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Rebuilds an accumulator from its raw state — the exact counterpart
    /// of [`OnlineStats::m2`] and the other accessors, so a serialized
    /// accumulator round-trips bit-for-bit (crash-safe sweep journals
    /// depend on this).
    pub fn from_parts(n: u64, mean: f64, m2: f64, min: f64, max: f64) -> Self {
        if n == 0 {
            return OnlineStats::new();
        }
        OnlineStats {
            n,
            mean,
            m2,
            min,
            max,
        }
    }

    /// The raw second central moment `Σ(x−µ)²` — the internal Welford
    /// state, exposed for bit-exact serialization (pair with
    /// [`OnlineStats::from_parts`]).
    pub fn m2(&self) -> f64 {
        self.m2
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exponentially weighted moving average of mean and variance.
///
/// Unlike [`OnlineStats`], which weighs the whole history equally, the
/// EWMA forgets: with smoothing factor `alpha` the weight of a sample
/// decays as `(1−alpha)^age`, so the estimate tracks the *current*
/// interference regime on a switch rather than the lifetime average.
/// The variance recursion is the standard EWMV companion
/// (`var ← (1−α)·(var + α·(x−µ)²)`), which is exact for the same decay
/// weights.
///
/// The first observation initializes the mean directly (no bias toward
/// zero), which also guarantees the estimate stays inside the observed
/// `[min, max]` envelope — a convexity property the property tests pin.
#[derive(Debug, Clone, PartialEq)]
pub struct Ewma {
    alpha: f64,
    mean: f64,
    var: f64,
    n: u64,
    min: f64,
    max: f64,
}

impl Ewma {
    /// An empty estimator with smoothing factor `alpha ∈ (0, 1]`.
    ///
    /// # Panics
    /// Panics when `alpha` is outside `(0, 1]` or not finite — a
    /// mis-tuned detector is a construction bug, not a data condition.
    pub fn new(alpha: f64) -> Self {
        // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
        assert!(
            alpha.is_finite() && alpha > 0.0 && alpha <= 1.0,
            "EWMA smoothing factor must lie in (0, 1], got {alpha}"
        );
        Ewma {
            alpha,
            mean: 0.0,
            var: 0.0,
            n: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The smoothing factor this estimator was built with.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        if self.n == 1 {
            self.mean = x;
            self.var = 0.0;
        } else {
            let delta = x - self.mean;
            let incr = self.alpha * delta;
            self.mean += incr;
            self.var = (1.0 - self.alpha) * (self.var + delta * incr);
        }
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds every item of an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Exponentially weighted mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Exponentially weighted variance (0 when empty).
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.var.max(0.0)
        }
    }

    /// Exponentially weighted standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation ever seen (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation ever seen (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

/// Sliding-window quantile estimator over the last `capacity` samples.
///
/// Keeps the raw window (probe windows are small — hundreds of samples,
/// not millions) and answers quantile queries with the same type-7
/// interpolated estimator as [`crate::quantile`], so a windowed median
/// agrees bit-for-bit with the offline summary of the same samples.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedQuantiles {
    capacity: usize,
    window: VecDeque<f64>,
}

impl WindowedQuantiles {
    /// An empty window holding at most `capacity` samples.
    ///
    /// # Panics
    /// Panics when `capacity` is zero — a window that can hold nothing
    /// can answer nothing.
    pub fn new(capacity: usize) -> Self {
        // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
        assert!(capacity > 0, "window capacity must be positive");
        WindowedQuantiles {
            capacity,
            window: VecDeque::with_capacity(capacity),
        }
    }

    /// Adds one observation, evicting the oldest when full. NaN is
    /// ignored (it has no order, so it cannot participate in a quantile).
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(x);
    }

    /// Adds every item of an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }

    /// Number of samples currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether the window currently holds no samples.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// The maximum number of samples the window retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The retained samples, oldest first (the raw sliding window — e.g.
    /// to collapse the recent past into a full latency profile).
    pub fn samples(&self) -> impl Iterator<Item = f64> + '_ {
        self.window.iter().copied()
    }

    /// Interpolated quantile of the current window (`None` when empty or
    /// when `q` is outside `[0, 1]`).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let mut sorted: Vec<f64> = self.window.iter().copied().collect();
        sorted.sort_by(|a, b| a.total_cmp(b));
        quantile_sorted(&sorted, q).ok()
    }

    /// Median of the current window (`None` when empty).
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }
}

/// Which direction a detected change points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shift {
    /// The stream mean rose above the reference (interference arrived).
    Up,
    /// The stream mean fell below the reference (interference departed).
    Down,
}

/// Two-sided CUSUM change-point detector (Page's test).
///
/// Observations are standardized against a reference mean/σ (the idle
/// calibration of a probe stream), then the classic pair of cumulative
/// sums accumulates evidence of a persistent shift:
///
/// ```text
/// s⁺ ← max(0, s⁺ + z − k)      s⁻ ← max(0, s⁻ − z − k)
/// ```
///
/// where `k` is the slack (in σ units) that absorbs in-regime noise and
/// `h` is the decision threshold. A sum crossing `h` raises an alarm,
/// resets both sums, and re-references the detector at the alarming
/// observation — the freshest evidence of the new plateau — so the
/// *next* regime change is detected relative to it.
#[derive(Debug, Clone, PartialEq)]
pub struct Cusum {
    k: f64,
    h: f64,
    ref_mean: f64,
    ref_sd: f64,
    s_hi: f64,
    s_lo: f64,
}

impl Cusum {
    /// A detector with slack `k` and threshold `h`, both in σ units.
    ///
    /// # Panics
    /// Panics when `k` is negative or `h` is not positive.
    pub fn new(k: f64, h: f64) -> Self {
        // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
        assert!(
            k >= 0.0 && k.is_finite(),
            "CUSUM slack must be ≥ 0, got {k}"
        );
        // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
        assert!(
            h > 0.0 && h.is_finite(),
            "CUSUM threshold must be > 0, got {h}"
        );
        Cusum {
            k,
            h,
            ref_mean: 0.0,
            ref_sd: 1.0,
            s_hi: 0.0,
            s_lo: 0.0,
        }
    }

    /// Sets the in-control reference distribution (idle calibration).
    /// A σ of zero or below is clamped to a tiny positive floor so a
    /// perfectly deterministic idle stream still standardizes.
    pub fn set_reference(&mut self, mean: f64, sd: f64) {
        self.ref_mean = mean;
        self.ref_sd = sd.max(1e-12);
        self.s_hi = 0.0;
        self.s_lo = 0.0;
    }

    /// Feeds one observation; returns the direction if this observation
    /// pushed a cumulative sum over the threshold.
    pub fn push(&mut self, x: f64) -> Option<Shift> {
        let z = (x - self.ref_mean) / self.ref_sd;
        self.s_hi = (self.s_hi + z - self.k).max(0.0);
        self.s_lo = (self.s_lo - z - self.k).max(0.0);
        if self.s_hi > self.h {
            self.set_reference(x, self.ref_sd);
            Some(Shift::Up)
        } else if self.s_lo > self.h {
            self.set_reference(x, self.ref_sd);
            Some(Shift::Down)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_stats_are_well_defined() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn known_values() {
        let s = OnlineStats::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn single_sample_has_zero_variance() {
        let s = OnlineStats::from_slice(&[3.5]);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.mean(), 3.5);
    }

    #[test]
    fn merge_empty_is_identity() {
        let mut a = OnlineStats::from_slice(&[1.0, 2.0, 3.0]);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut e = OnlineStats::new();
        e.merge(&before);
        assert!((e.mean() - before.mean()).abs() < 1e-12);
    }

    #[test]
    fn stable_for_large_offsets() {
        // Welford must survive a huge common offset where naive sum of
        // squares loses all precision.
        let base = 1e12;
        let s = OnlineStats::from_slice(&[base + 1.0, base + 2.0, base + 3.0]);
        assert!((s.mean() - (base + 2.0)).abs() < 1e-3);
        assert!((s.variance() - 2.0 / 3.0).abs() < 1e-3);
    }

    #[test]
    fn ewma_first_sample_sets_the_mean() {
        let mut e = Ewma::new(0.3);
        assert_eq!(e.mean(), 0.0);
        e.push(7.5);
        assert_eq!(e.mean(), 7.5);
        assert_eq!(e.variance(), 0.0);
        assert_eq!(e.min(), Some(7.5));
        assert_eq!(e.max(), Some(7.5));
    }

    #[test]
    fn ewma_tracks_a_level_shift_faster_than_welford() {
        let mut e = Ewma::new(0.2);
        let mut w = OnlineStats::new();
        for _ in 0..100 {
            e.push(1.0);
            w.push(1.0);
        }
        for _ in 0..30 {
            e.push(5.0);
            w.push(5.0);
        }
        // After 30 samples at the new level the EWMA has essentially
        // converged while the all-history mean still lags far behind.
        assert!((e.mean() - 5.0).abs() < 0.02, "ewma {:.3}", e.mean());
        assert!(w.mean() < 2.5, "welford {:.3}", w.mean());
    }

    #[test]
    #[should_panic(expected = "smoothing factor")]
    fn ewma_rejects_zero_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn windowed_quantiles_evict_oldest() {
        let mut wq = WindowedQuantiles::new(4);
        wq.extend([10.0, 20.0, 30.0, 40.0]);
        assert_eq!(wq.median(), Some(25.0));
        wq.push(50.0); // evicts 10.0 → window is {20,30,40,50}
        assert_eq!(wq.len(), 4);
        assert_eq!(wq.median(), Some(35.0));
        assert_eq!(wq.quantile(0.0), Some(20.0));
        assert_eq!(wq.quantile(1.0), Some(50.0));
    }

    #[test]
    fn windowed_quantiles_ignore_nan_and_empty() {
        let mut wq = WindowedQuantiles::new(8);
        assert!(wq.is_empty());
        assert_eq!(wq.median(), None);
        wq.push(f64::NAN);
        assert!(wq.is_empty(), "NaN must not enter the window");
        wq.push(3.0);
        assert_eq!(wq.quantile(1.5), None, "fraction out of range");
        assert_eq!(wq.median(), Some(3.0));
    }

    #[test]
    fn cusum_flags_an_upward_shift_and_rearms() {
        let mut c = Cusum::new(0.5, 5.0);
        c.set_reference(10.0, 1.0);
        // In-regime noise around the reference raises no alarm.
        for x in [10.2, 9.8, 10.1, 9.9, 10.0] {
            assert_eq!(c.push(x), None);
        }
        // A persistent +3σ shift must alarm within a handful of samples.
        let mut hit = None;
        for (i, _) in (0..20).enumerate() {
            if c.push(13.0).is_some() {
                hit = Some(i);
                break;
            }
        }
        let lag = hit.expect("a 3σ shift must be detected");
        assert!(lag < 5, "detection lag {lag} too slow for a 3σ shift");
        // After the alarm the detector re-references near the new level,
        // so staying there is the new normal...
        for _ in 0..20 {
            assert_eq!(c.push(13.0), None);
        }
        // ...and dropping back to the old level is a Down shift.
        let mut down = None;
        for _ in 0..20 {
            if let Some(s) = c.push(10.0) {
                down = Some(s);
                break;
            }
        }
        assert_eq!(down, Some(Shift::Down));
    }

    proptest! {
        /// The EWMA mean is a convex combination of observations, so it
        /// can never escape the observed [min, max] envelope.
        #[test]
        fn prop_ewma_bounded_by_observed_extremes(
            xs in proptest::collection::vec(-1e9f64..1e9, 1..200),
            alpha in 1e-3f64..1.0,
        ) {
            let mut e = Ewma::new(alpha);
            e.extend(xs.iter().copied());
            let lo = e.min().unwrap();
            let hi = e.max().unwrap();
            prop_assert!(e.mean() >= lo - 1e-6);
            prop_assert!(e.mean() <= hi + 1e-6);
            prop_assert!(e.variance() >= 0.0);
        }

        /// Windowed quantiles are monotone in the fraction.
        #[test]
        fn prop_windowed_quantile_monotone(
            xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
            cap in 1usize..64,
            q1 in 0.0f64..1.0,
            q2 in 0.0f64..1.0,
        ) {
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            let mut wq = WindowedQuantiles::new(cap);
            wq.extend(xs.iter().copied());
            let a = wq.quantile(lo).unwrap();
            let b = wq.quantile(hi).unwrap();
            prop_assert!(a <= b + 1e-9, "q({lo})={a} must be ≤ q({hi})={b}");
        }

        /// `extend` must be exactly the push loop, for every estimator —
        /// the sweep engine feeds windows sample-by-sample while the
        /// journal replays them in batches, and both must agree.
        #[test]
        fn prop_extend_equals_push_loop(
            xs in proptest::collection::vec(-1e6f64..1e6, 0..100),
        ) {
            let mut w1 = OnlineStats::new();
            w1.extend(xs.iter().copied());
            let mut w2 = OnlineStats::new();
            for &x in &xs { w2.push(x); }
            prop_assert_eq!(w1, w2);

            let mut e1 = Ewma::new(0.25);
            e1.extend(xs.iter().copied());
            let mut e2 = Ewma::new(0.25);
            for &x in &xs { e2.push(x); }
            prop_assert_eq!(e1, e2);

            let mut q1 = WindowedQuantiles::new(16);
            q1.extend(xs.iter().copied());
            let mut q2 = WindowedQuantiles::new(16);
            for &x in &xs { q2.push(x); }
            prop_assert_eq!(q1, q2);
        }

        /// Merging two accumulators equals accumulating the concatenation.
        #[test]
        fn prop_merge_equals_concat(
            a in proptest::collection::vec(-1e6f64..1e6, 0..50),
            b in proptest::collection::vec(-1e6f64..1e6, 0..50),
        ) {
            let mut left = OnlineStats::from_slice(&a);
            left.merge(&OnlineStats::from_slice(&b));
            let mut all = a.clone();
            all.extend_from_slice(&b);
            let full = OnlineStats::from_slice(&all);
            prop_assert_eq!(left.count(), full.count());
            if full.count() > 0 {
                prop_assert!((left.mean() - full.mean()).abs() < 1e-6);
                prop_assert!((left.variance() - full.variance()).abs() < 1e-3);
            }
        }

        /// Variance is never negative and min ≤ mean ≤ max.
        #[test]
        fn prop_invariants(xs in proptest::collection::vec(-1e9f64..1e9, 1..200)) {
            let s = OnlineStats::from_slice(&xs);
            prop_assert!(s.variance() >= 0.0);
            prop_assert!(s.min().unwrap() <= s.mean() + 1e-6);
            prop_assert!(s.mean() <= s.max().unwrap() + 1e-6);
        }
    }
}
