//! Latency profiles: the statistical summary of one impact measurement.
//!
//! An impact experiment produces a set of one-way probe latencies. All four
//! prediction models consume *summaries* of that set — the mean
//! (AverageLT), mean ± σ interval (AverageStDevLT), binned PDF (PDFLT), or
//! the mean alone again as the `W` of the Pollaczek–Khinchine inversion
//! (queue model). [`LatencyProfile`] computes all of them once.

use anp_metrics::{Histogram, Interval, OnlineStats};

/// Summary of a probe-latency sample set (all values in microseconds).
#[derive(Debug, Clone)]
pub struct LatencyProfile {
    stats: OnlineStats,
    histogram: Histogram,
}

impl LatencyProfile {
    /// Builds a profile from one-way latencies in microseconds, using the
    /// paper's Fig. 3 binning (0.5 µs bins over 0–10 µs).
    ///
    /// # Panics
    /// Panics if `samples` is empty — a profile of nothing is meaningless
    /// and always indicates a broken experiment.
    pub fn from_samples(samples: &[f64]) -> Self {
        // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
        assert!(!samples.is_empty(), "cannot profile zero latency samples");
        let mut histogram = Histogram::latency_us();
        histogram.extend(samples.iter().copied());
        LatencyProfile {
            stats: OnlineStats::from_slice(samples),
            histogram,
        }
    }

    /// Builds a profile discarding the first `warmup_frac` of the samples
    /// (in collection order) — impact experiments discard the ramp-up
    /// phase before the application reaches steady state.
    ///
    /// # Panics
    /// Panics if nothing survives the warm-up cut.
    pub fn from_samples_with_warmup(samples: &[f64], warmup_frac: f64) -> Self {
        // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
        assert!((0.0..1.0).contains(&warmup_frac), "bad warmup fraction");
        let skip = (samples.len() as f64 * warmup_frac).floor() as usize;
        Self::from_samples(&samples[skip..])
    }

    /// Number of samples summarized.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Mean latency `µ_X` in µs — the AverageLT metric and the queue
    /// model's `W`.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Standard deviation `σ_X` in µs.
    pub fn std_dev(&self) -> f64 {
        self.stats.std_dev()
    }

    /// Smallest observed latency in µs (used for idle-switch calibration
    /// of the service rate, per the paper's §IV-B).
    #[expect(
        clippy::expect_used,
        reason = "non-empty by construction: the public constructor rejects empty sample sets"
    )]
    pub fn min(&self) -> f64 {
        self.stats.min().expect("profile is never empty")
    }

    /// Largest observed latency in µs.
    #[expect(
        clippy::expect_used,
        reason = "non-empty by construction: the public constructor rejects empty sample sets"
    )]
    pub fn max(&self) -> f64 {
        self.stats.max().expect("profile is never empty")
    }

    /// Sample variance in µs² (used as `Var(S)` when calibrating from an
    /// idle switch).
    pub fn variance(&self) -> f64 {
        self.stats.variance()
    }

    /// The paper's AverageStDevLT interval `[µ−σ, µ+σ]`.
    pub fn interval(&self) -> Interval {
        Interval::mean_pm_sigma(self.mean(), self.std_dev())
    }

    /// The binned latency distribution (Fig. 3 binning).
    pub fn histogram(&self) -> &Histogram {
        &self.histogram
    }

    /// The paper's PDFLT similarity to another profile: `∫ f·g`.
    pub fn pdf_similarity(&self, other: &LatencyProfile) -> f64 {
        self.histogram.pdf_product_integral(&other.histogram)
    }
}

/// Bit-exact journal codec: the accumulator moments and histogram counts
/// round-trip through [`f64::to_bits`] hex, so a profile decoded from a
/// run journal produces byte-identical downstream tables (means, σ,
/// PDFLT integrals) — the resume guarantee rests on this.
impl crate::journal::Journaled for LatencyProfile {
    fn encode_journal(&self) -> String {
        use crate::journal::encode_f64_bits as bits;
        let h = &self.histogram;
        let counts: Vec<String> = (0..h.bins()).map(|i| h.count(i).to_string()).collect();
        format!(
            "{{\"n\":{},\"mean\":{},\"m2\":{},\"min\":{},\"max\":{},\
             \"lo\":{},\"hi\":{},\"counts\":[{}],\"under\":{},\"over\":{}}}",
            self.stats.count(),
            bits(self.stats.mean()),
            bits(self.stats.m2()),
            bits(self.min()),
            bits(self.max()),
            bits(h.lo()),
            bits(h.hi()),
            counts.join(","),
            h.underflow(),
            h.overflow(),
        )
    }

    fn decode_journal(s: &str) -> Option<Self> {
        use crate::journal::{decode_f64_bits, raw_field};
        let f = |key| decode_f64_bits(raw_field(s, key)?);
        let n: u64 = raw_field(s, "n")?.parse().ok()?;
        if n == 0 {
            return None; // profiles are never empty
        }
        let stats = OnlineStats::from_parts(n, f("mean")?, f("m2")?, f("min")?, f("max")?);
        let counts_start = s.find("\"counts\":[")? + "\"counts\":[".len();
        let counts_end = counts_start + s[counts_start..].find(']')?;
        let counts = s[counts_start..counts_end]
            .split(',')
            .filter(|p| !p.trim().is_empty())
            .map(|p| p.trim().parse().ok())
            .collect::<Option<Vec<u64>>>()?;
        if counts.is_empty() {
            return None;
        }
        let histogram = Histogram::from_parts(
            f("lo")?,
            f("hi")?,
            counts,
            raw_field(s, "under")?.parse().ok()?,
            raw_field(s, "over")?.parse().ok()?,
        );
        Some(LatencyProfile { stats, histogram })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_values() {
        let p = LatencyProfile::from_samples(&[1.0, 2.0, 3.0]);
        assert_eq!(p.count(), 3);
        assert!((p.mean() - 2.0).abs() < 1e-12);
        assert_eq!(p.min(), 1.0);
        assert_eq!(p.max(), 3.0);
        let i = p.interval();
        assert!((i.center() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn warmup_discards_prefix() {
        // First half is slow (ramp-up), steady state is 1 µs.
        let samples: Vec<f64> = (0..10).map(|i| if i < 5 { 9.0 } else { 1.0 }).collect();
        let p = LatencyProfile::from_samples_with_warmup(&samples, 0.5);
        assert_eq!(p.count(), 5);
        assert!((p.mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pdf_similarity_ranks_like_distributions_higher() {
        let a: Vec<f64> = (0..200).map(|i| 1.0 + (i % 5) as f64 * 0.1).collect();
        let b: Vec<f64> = (0..200).map(|i| 1.05 + (i % 5) as f64 * 0.1).collect();
        let far: Vec<f64> = (0..200).map(|i| 6.0 + (i % 5) as f64 * 0.1).collect();
        let pa = LatencyProfile::from_samples(&a);
        let pb = LatencyProfile::from_samples(&b);
        let pf = LatencyProfile::from_samples(&far);
        assert!(pa.pdf_similarity(&pb) > pa.pdf_similarity(&pf));
    }

    #[test]
    #[should_panic(expected = "zero latency samples")]
    fn empty_profile_panics() {
        LatencyProfile::from_samples(&[]);
    }

    #[test]
    fn warmup_always_keeps_at_least_one_sample() {
        // floor(n · frac) < n for frac < 1, so even an aggressive warm-up
        // cut cannot empty a non-empty sample set.
        let p = LatencyProfile::from_samples_with_warmup(&[3.5], 0.99);
        assert_eq!(p.count(), 1);
        assert_eq!(p.mean(), 3.5);
    }
}
