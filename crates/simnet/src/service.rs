//! Service-time distributions for the switch's central routing stage.
//!
//! The paper models the switch as an M/G/1 queue: a single server with a
//! *general* service-time distribution `S`. Its queue-theoretic metric needs
//! both the mean service rate `µ = 1/E[S]` and the variance `Var(S)`
//! (Pollaczek–Khinchine, paper eq. 1–3). The distributions here provide the
//! "G": the hyperexponential in particular reproduces the heavy idle-switch
//! tail visible in the paper's Fig. 3 (a few packets take far longer than
//! the 1.25 µs mode even with no application running).

use rand::rngs::StdRng;
use rand::Rng;

use crate::time::SimDuration;

/// A service-time distribution with analytically known moments.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceDistribution {
    /// Every packet takes exactly `ns` nanoseconds (M/D/1 behaviour).
    Deterministic {
        /// The constant service time in nanoseconds.
        ns: u64,
    },
    /// Exponential service with the given mean (M/M/1 behaviour).
    Exponential {
        /// Mean service time in nanoseconds.
        mean_ns: f64,
    },
    /// Two-phase hyperexponential: with probability `p_slow` the packet is
    /// serviced from the slow phase. High coefficient of variation; heavy
    /// tail.
    HyperExponential {
        /// Mean of the common (fast) exponential phase, in ns.
        fast_mean_ns: f64,
        /// Mean of the rare (slow) exponential phase, in ns.
        slow_mean_ns: f64,
        /// Probability of drawing from the slow phase.
        p_slow: f64,
    },
    /// Uniform service time over `[lo_ns, hi_ns]`.
    Uniform {
        /// Lower bound in nanoseconds.
        lo_ns: u64,
        /// Upper bound in nanoseconds.
        hi_ns: u64,
    },
    /// A constant base cost plus, with probability `p_tail`, an
    /// exponential excursion — a near-deterministic fast path with a rare
    /// slow tail. This matches the idle-switch behaviour in the paper's
    /// Fig. 3 (a sharp mode with a few far-out packets) while keeping the
    /// gap between the minimum and mean latency small, so the
    /// Pollaczek–Khinchine inversion does not misread service dispersion
    /// as queueing on an idle switch.
    BaseWithTail {
        /// Constant base service time in nanoseconds.
        base_ns: u64,
        /// Mean of the exponential tail excursion, in ns.
        tail_mean_ns: f64,
        /// Probability of a tail excursion.
        p_tail: f64,
    },
}

impl ServiceDistribution {
    /// Draws one service time.
    pub fn sample(&self, rng: &mut StdRng) -> SimDuration {
        let ns = match *self {
            ServiceDistribution::Deterministic { ns } => ns as f64,
            ServiceDistribution::Exponential { mean_ns } => sample_exp(rng, mean_ns),
            ServiceDistribution::HyperExponential {
                fast_mean_ns,
                slow_mean_ns,
                p_slow,
            } => {
                if rng.gen::<f64>() < p_slow {
                    sample_exp(rng, slow_mean_ns)
                } else {
                    sample_exp(rng, fast_mean_ns)
                }
            }
            ServiceDistribution::Uniform { lo_ns, hi_ns } => {
                debug_assert!(lo_ns <= hi_ns);
                rng.gen_range(lo_ns..=hi_ns) as f64
            }
            ServiceDistribution::BaseWithTail {
                base_ns,
                tail_mean_ns,
                p_tail,
            } => {
                let mut t = base_ns as f64;
                if rng.gen::<f64>() < p_tail {
                    t += sample_exp(rng, tail_mean_ns);
                }
                t
            }
        };
        // Service never takes less than a nanosecond: a zero service time
        // would let the server process unbounded work in zero simulated time.
        SimDuration::from_nanos(ns.max(1.0).round() as u64)
    }

    /// Analytic mean `E[S]` in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        match *self {
            ServiceDistribution::Deterministic { ns } => ns as f64,
            ServiceDistribution::Exponential { mean_ns } => mean_ns,
            ServiceDistribution::HyperExponential {
                fast_mean_ns,
                slow_mean_ns,
                p_slow,
            } => (1.0 - p_slow) * fast_mean_ns + p_slow * slow_mean_ns,
            ServiceDistribution::Uniform { lo_ns, hi_ns } => (lo_ns + hi_ns) as f64 / 2.0,
            ServiceDistribution::BaseWithTail {
                base_ns,
                tail_mean_ns,
                p_tail,
            } => base_ns as f64 + p_tail * tail_mean_ns,
        }
    }

    /// Analytic variance `Var(S)` in ns².
    pub fn variance_ns2(&self) -> f64 {
        match *self {
            ServiceDistribution::Deterministic { .. } => 0.0,
            ServiceDistribution::Exponential { mean_ns } => mean_ns * mean_ns,
            ServiceDistribution::HyperExponential {
                fast_mean_ns,
                slow_mean_ns,
                p_slow,
            } => {
                // E[S^2] for a mixture of exponentials: sum p_i * 2 m_i^2.
                let e2 = (1.0 - p_slow) * 2.0 * fast_mean_ns * fast_mean_ns
                    + p_slow * 2.0 * slow_mean_ns * slow_mean_ns;
                let m = self.mean_ns();
                e2 - m * m
            }
            ServiceDistribution::Uniform { lo_ns, hi_ns } => {
                let w = (hi_ns - lo_ns) as f64;
                w * w / 12.0
            }
            ServiceDistribution::BaseWithTail {
                tail_mean_ns,
                p_tail,
                ..
            } => {
                // Var(base + T) = Var(T); T is 0 w.p. 1−p and Exp(m) w.p.
                // p, so E[T²] = p·2m² and E[T] = p·m.
                let e2 = p_tail * 2.0 * tail_mean_ns * tail_mean_ns;
                let e1 = p_tail * tail_mean_ns;
                e2 - e1 * e1
            }
        }
    }

    /// Squared coefficient of variation `Var(S)/E[S]²` — the term that
    /// scales queueing delay in the P-K formula.
    pub fn scv(&self) -> f64 {
        let m = self.mean_ns();
        self.variance_ns2() / (m * m)
    }
}

fn sample_exp(rng: &mut StdRng, mean: f64) -> f64 {
    debug_assert!(mean > 0.0);
    // Inverse-CDF sampling; 1-U avoids ln(0).
    let u: f64 = rng.gen();
    -mean * (1.0 - u).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn empirical_moments(dist: &ServiceDistribution, n: usize) -> (f64, f64) {
        let mut rng = StdRng::seed_from_u64(42);
        let samples: Vec<f64> = (0..n)
            .map(|_| dist.sample(&mut rng).as_nanos() as f64)
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        (mean, var)
    }

    #[test]
    fn deterministic_is_constant() {
        let d = ServiceDistribution::Deterministic { ns: 500 };
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng).as_nanos(), 500);
        }
        assert_eq!(d.mean_ns(), 500.0);
        assert_eq!(d.variance_ns2(), 0.0);
        assert_eq!(d.scv(), 0.0);
    }

    #[test]
    fn exponential_moments_match() {
        let d = ServiceDistribution::Exponential { mean_ns: 400.0 };
        let (m, v) = empirical_moments(&d, 200_000);
        assert!((m - 400.0).abs() / 400.0 < 0.02, "mean {m}");
        assert!((v - 160_000.0).abs() / 160_000.0 < 0.05, "var {v}");
        assert!((d.scv() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hyperexponential_moments_match() {
        let d = ServiceDistribution::HyperExponential {
            fast_mean_ns: 300.0,
            slow_mean_ns: 2_000.0,
            p_slow: 0.1,
        };
        let expect_mean = 0.9 * 300.0 + 0.1 * 2_000.0;
        let (m, v) = empirical_moments(&d, 400_000);
        assert!((m - expect_mean).abs() / expect_mean < 0.02, "mean {m}");
        assert!(
            (v - d.variance_ns2()).abs() / d.variance_ns2() < 0.06,
            "var {v} expect {}",
            d.variance_ns2()
        );
        // The hyperexponential must be over-dispersed relative to the
        // exponential — that is why we use it for the heavy idle tail.
        assert!(d.scv() > 1.0);
    }

    #[test]
    fn uniform_moments_match() {
        let d = ServiceDistribution::Uniform {
            lo_ns: 100,
            hi_ns: 300,
        };
        let (m, v) = empirical_moments(&d, 200_000);
        assert!((m - 200.0).abs() < 2.0);
        assert!((v - d.variance_ns2()).abs() / d.variance_ns2() < 0.05);
    }

    #[test]
    fn base_with_tail_moments_match() {
        let d = ServiceDistribution::BaseWithTail {
            base_ns: 300,
            tail_mean_ns: 1_500.0,
            p_tail: 0.05,
        };
        assert!((d.mean_ns() - 375.0).abs() < 1e-9);
        let (m, v) = empirical_moments(&d, 400_000);
        assert!((m - d.mean_ns()).abs() / d.mean_ns() < 0.02, "mean {m}");
        assert!(
            (v - d.variance_ns2()).abs() / d.variance_ns2() < 0.08,
            "var {v} expect {}",
            d.variance_ns2()
        );
        // The defining property: the minimum hugs the base.
        let mut rng = StdRng::seed_from_u64(3);
        let min = (0..10_000)
            .map(|_| d.sample(&mut rng).as_nanos())
            .min()
            .unwrap();
        assert_eq!(min, 300);
    }

    #[test]
    fn samples_are_never_zero() {
        let d = ServiceDistribution::Exponential { mean_ns: 0.5 };
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1_000 {
            assert!(d.sample(&mut rng).as_nanos() >= 1);
        }
    }

    #[test]
    fn seeded_sampling_is_deterministic() {
        let d = ServiceDistribution::HyperExponential {
            fast_mean_ns: 300.0,
            slow_mean_ns: 2_000.0,
            p_slow: 0.05,
        };
        let run = || {
            let mut rng = StdRng::seed_from_u64(99);
            (0..64).map(|_| d.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
