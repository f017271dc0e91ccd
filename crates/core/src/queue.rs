//! The queue-theoretic switch metric (paper §IV-B).
//!
//! The switch is modelled as an M/G/1 queue. Its service rate `µ` and
//! service-time variance `Var(S)` are calibrated once from probe latencies
//! on an *idle* switch; thereafter, the mean probe latency `W` measured
//! while any workload runs is inverted through the Pollaczek–Khinchine
//! formula to the arrival rate `λ` that workload induces, and the
//! utilization `ρ = λ/µ` becomes the single scalar describing how much of
//! the switch the workload consumes.
//!
//! P-K for the mean sojourn time (paper eq. 1, with `ρ = λ/µ`):
//!
//! ```text
//! W = λ(Var(S) + 1/µ²) / (2(1 − λ/µ)) + 1/µ
//! ```
//!
//! Inverting for λ with `w' = W − 1/µ` and `A = (Var(S) + 1/µ²)/2`:
//!
//! ```text
//! λ = w' / (A + w'/µ)
//! ```
//!
//! All quantities are in microseconds (µ in 1/µs, Var in µs²).

use crate::samples::LatencyProfile;

/// How the service rate `µ` is extracted from idle-switch probe latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MuPolicy {
    /// `1/µ` = the *minimum* idle latency — the paper's procedure ("µ is …
    /// measured by sending multiple individual packets into an idle switch
    /// and measuring their minimum latency").
    #[default]
    MinLatency,
    /// `1/µ` = the mean idle latency. An alternative that forces the idle
    /// utilization estimate to zero; kept for ablation studies.
    MeanLatency,
}

/// Why an idle profile could not parameterize the queue model.
///
/// A healthy switch always shows a positive idle latency, but an
/// empty/degenerate probe window can produce a profile whose extracted
/// service time is zero or negative. That must
/// abort the one sweep cell that hit it — not the whole process — so the
/// constructor reports it as a typed error instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CalibrationError {
    /// The idle latency the [`MuPolicy`] extracted was not positive.
    NonPositiveIdleLatency {
        /// The policy that was applied.
        policy: MuPolicy,
        /// The offending extracted latency (µs).
        latency_us: f64,
    },
    /// A utilization outside `[0, 1)` was handed to the forward P-K
    /// direction. The M/G/1 queue has no stationary sojourn at `ρ ≥ 1`
    /// (or below 0), so the formula must reject the input rather than
    /// return NaN or a negative "latency".
    UnstableUtilization {
        /// The offending utilization.
        rho: f64,
    },
}

impl std::fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalibrationError::NonPositiveIdleLatency { policy, latency_us } => write!(
                f,
                "idle latency must be positive to calibrate the queue model: \
                 {policy:?} extracted {latency_us} us"
            ),
            CalibrationError::UnstableUtilization { rho } => write!(
                f,
                "utilization {rho} is outside [0, 1): the M/G/1 queue has no \
                 stationary sojourn there"
            ),
        }
    }
}

impl std::error::Error for CalibrationError {}

/// Idle-switch calibration of the queue model.
///
/// ```
/// use anp_core::{Calibration, MuPolicy, LatencyProfile};
///
/// // Latencies (µs) probed on an idle switch.
/// let idle = LatencyProfile::from_samples(&[1.0, 1.1, 1.2, 1.1, 3.0]);
/// let calib = Calibration::from_idle_profile(&idle, MuPolicy::MinLatency).unwrap();
/// // A loaded switch showing 4 µs mean probe latency reads as busy:
/// let rho = calib.utilization_from_sojourn(4.0);
/// assert!(rho > 0.5 && rho < 1.0);
/// // And latencies at or below 1/µ read as idle:
/// assert_eq!(calib.utilization_from_sojourn(0.9), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Service rate `µ`, packets per µs.
    pub mu: f64,
    /// Service-time variance `Var(S)`, µs².
    pub var_s: f64,
    /// Mean idle latency, µs (reported for reference).
    pub idle_mean: f64,
    /// Policy used to extract `µ`.
    pub policy: MuPolicy,
}

impl Calibration {
    /// Calibrates from an idle-switch latency profile. Fails with a typed
    /// error (rather than panicking) when the extracted idle latency is
    /// not positive, so one degraded fabric aborts one sweep cell, not
    /// the whole process.
    pub fn from_idle_profile(
        profile: &LatencyProfile,
        policy: MuPolicy,
    ) -> Result<Self, CalibrationError> {
        let service_time = match policy {
            MuPolicy::MinLatency => profile.min(),
            MuPolicy::MeanLatency => profile.mean(),
        };
        if service_time <= 0.0 || service_time.is_nan() {
            return Err(CalibrationError::NonPositiveIdleLatency {
                policy,
                latency_us: service_time,
            });
        }
        Ok(Calibration {
            mu: 1.0 / service_time,
            var_s: profile.variance(),
            idle_mean: profile.mean(),
            policy,
        })
    }

    /// The Pollaczek–Khinchine mean sojourn time for arrival rate
    /// `lambda` (forward direction; used for validation and tests).
    ///
    /// # Panics
    /// Panics unless `0 ≤ λ < µ` (the queue must be stable).
    pub fn pk_sojourn(&self, lambda: f64) -> f64 {
        // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
        assert!(
            (0.0..self.mu).contains(&lambda),
            "P-K needs 0 <= lambda < mu"
        );
        let inv_mu = 1.0 / self.mu;
        let es2 = self.var_s + inv_mu * inv_mu;
        lambda * es2 / (2.0 * (1.0 - lambda / self.mu)) + inv_mu
    }

    /// Inverts P-K: the arrival rate that would produce mean sojourn `w`
    /// (µs). Clamped to `[0, µ)`; a `w` at or below `1/µ` maps to zero.
    pub fn lambda_from_sojourn(&self, w: f64) -> f64 {
        let inv_mu = 1.0 / self.mu;
        let w_prime = w - inv_mu;
        if w_prime <= 0.0 {
            return 0.0;
        }
        let a = (self.var_s + inv_mu * inv_mu) / 2.0;
        let lambda = w_prime / (a + w_prime * inv_mu);
        lambda.clamp(0.0, self.mu * 0.9999)
    }

    /// The paper's switch-utilization metric: `ρ = λ/µ` inferred from a
    /// loaded-switch mean probe latency. In `[0, 1)`.
    pub fn utilization_from_sojourn(&self, w: f64) -> f64 {
        self.lambda_from_sojourn(w) / self.mu
    }

    /// The forward map of the utilization metric: the mean sojourn (µs) a
    /// switch at utilization `rho` would show. Inverse of
    /// [`Calibration::utilization_from_sojourn`] on `[0, 1)`.
    ///
    /// Rejects `ρ < 0` and `ρ ≥ 1` with a typed error instead of
    /// returning NaN/∞: unstable queues have no stationary sojourn, and a
    /// silent NaN would poison every profile built downstream (the
    /// flow-level backend feeds this into synthetic probe samples).
    pub fn sojourn_from_utilization(&self, rho: f64) -> Result<f64, CalibrationError> {
        if !(0.0..1.0).contains(&rho) || rho.is_nan() {
            return Err(CalibrationError::UnstableUtilization { rho });
        }
        Ok(self.pk_sojourn(rho * self.mu))
    }

    /// Utilization of the workload whose impact profile is `profile`.
    pub fn utilization(&self, profile: &LatencyProfile) -> f64 {
        self.utilization_from_sojourn(profile.mean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn calib(mu: f64, var_s: f64) -> Calibration {
        Calibration {
            mu,
            var_s,
            idle_mean: 1.0 / mu,
            policy: MuPolicy::MinLatency,
        }
    }

    #[test]
    fn idle_latency_maps_to_zero_utilization() {
        let c = calib(1.0, 0.5);
        assert_eq!(c.utilization_from_sojourn(1.0), 0.0);
        assert_eq!(c.utilization_from_sojourn(0.5), 0.0);
    }

    #[test]
    fn utilization_is_monotone_in_latency() {
        let c = calib(0.8, 1.2);
        let mut last = 0.0;
        for i in 0..100 {
            let w = 1.25 + i as f64 * 0.5;
            let u = c.utilization_from_sojourn(w);
            assert!(u >= last, "utilization must grow with latency");
            last = u;
        }
        assert!(last < 1.0);
        assert!(last > 0.9, "very long waits must imply near-saturation");
    }

    #[test]
    fn pk_roundtrip_exact() {
        // λ → W → λ must be the identity across the stable region.
        let c = calib(0.9, 2.0);
        for i in 1..99 {
            let lambda = c.mu * i as f64 / 100.0;
            let w = c.pk_sojourn(lambda);
            let back = c.lambda_from_sojourn(w);
            assert!(
                (back - lambda).abs() < 1e-9,
                "roundtrip failed at λ={lambda}: got {back}"
            );
        }
    }

    #[test]
    fn mm1_special_case() {
        // With Var(S) = 1/µ² (exponential service), P-K reduces to the
        // M/M/1 sojourn W = 1/(µ − λ).
        let mu = 2.0;
        let c = calib(mu, 1.0 / (mu * mu));
        for lambda in [0.2, 1.0, 1.8] {
            let w = c.pk_sojourn(lambda);
            assert!((w - 1.0 / (mu - lambda)).abs() < 1e-9, "λ={lambda}");
        }
    }

    #[test]
    fn md1_special_case() {
        // With Var(S) = 0 (deterministic service), the waiting part is
        // half the M/M/1 value.
        let mu = 1.0;
        let c = calib(mu, 0.0);
        let lambda = 0.5;
        let wait = c.pk_sojourn(lambda) - 1.0 / mu;
        let mm1_wait = lambda / (mu * (mu - lambda));
        assert!((wait - mm1_wait / 2.0).abs() < 1e-9);
    }

    #[test]
    fn calibration_from_profile_uses_policy() {
        let p = crate::samples::LatencyProfile::from_samples(&[1.0, 1.2, 1.4, 3.0]);
        let c_min = Calibration::from_idle_profile(&p, MuPolicy::MinLatency).unwrap();
        assert!((c_min.mu - 1.0).abs() < 1e-12);
        let c_mean = Calibration::from_idle_profile(&p, MuPolicy::MeanLatency).unwrap();
        assert!((c_mean.mu - 1.0 / 1.65).abs() < 1e-9);
        assert!(c_min.var_s > 0.0);
        // Under the mean policy the idle profile itself reads as ρ = 0.
        assert_eq!(c_mean.utilization(&p), 0.0);
    }

    #[test]
    fn non_positive_idle_latency_is_a_typed_error() {
        // A degenerate window can report zero-latency probes; calibration
        // must fail cleanly instead of panicking the whole process.
        let p = crate::samples::LatencyProfile::from_samples(&[0.0, 0.0, 0.0]);
        let err = Calibration::from_idle_profile(&p, MuPolicy::MinLatency).unwrap_err();
        let CalibrationError::NonPositiveIdleLatency { policy, latency_us } = err else {
            panic!("expected NonPositiveIdleLatency, got {err:?}");
        };
        assert_eq!(policy, MuPolicy::MinLatency);
        assert_eq!(latency_us, 0.0);
        assert!(err.to_string().contains("must be positive"));
    }

    #[test]
    #[should_panic(expected = "lambda < mu")]
    fn pk_rejects_unstable_queue() {
        calib(1.0, 0.0).pk_sojourn(1.0);
    }

    #[test]
    fn forward_direction_rejects_unstable_utilization() {
        let c = calib(1.0, 0.5);
        for rho in [1.0, 1.5, -0.1, f64::NAN, f64::INFINITY] {
            let err = c.sojourn_from_utilization(rho).unwrap_err();
            assert!(
                matches!(err, CalibrationError::UnstableUtilization { .. }),
                "rho={rho} must be rejected, got {err:?}"
            );
            assert!(err.to_string().contains("stationary"));
        }
        // The boundary just inside the stable region still works.
        assert!(c.sojourn_from_utilization(0.0).unwrap() > 0.0);
        assert!(c.sojourn_from_utilization(0.999).unwrap().is_finite());
    }

    proptest! {
        /// Utilization stays in [0, 1) for any non-negative latency.
        #[test]
        fn prop_utilization_bounded(
            mu in 0.1f64..10.0,
            var in 0.0f64..10.0,
            w in 0.0f64..1e6,
        ) {
            let c = calib(mu, var);
            let u = c.utilization_from_sojourn(w);
            prop_assert!((0.0..1.0).contains(&u));
        }

        /// Roundtrip λ → W → λ holds for random stable queues.
        #[test]
        fn prop_pk_roundtrip(
            mu in 0.1f64..10.0,
            var in 0.0f64..10.0,
            frac in 0.01f64..0.99,
        ) {
            let c = calib(mu, var);
            let lambda = mu * frac;
            let w = c.pk_sojourn(lambda);
            let back = c.lambda_from_sojourn(w);
            prop_assert!((back - lambda).abs() < 1e-6 * mu);
        }

        /// Roundtrip ρ → W → ρ through the typed forward direction holds
        /// across the whole valid utilization range.
        #[test]
        fn prop_utilization_roundtrip(
            mu in 0.1f64..10.0,
            var in 0.0f64..10.0,
            rho in 0.0f64..0.99,
        ) {
            let c = calib(mu, var);
            let w = c.sojourn_from_utilization(rho).expect("stable rho");
            let back = c.utilization_from_sojourn(w);
            prop_assert!(
                (back - rho).abs() < 1e-6,
                "rho {} -> W {} -> rho {}", rho, w, back
            );
        }

        /// The forward direction never returns NaN or a negative sojourn:
        /// inputs outside [0, 1) get a typed error instead.
        #[test]
        fn prop_forward_rejects_unstable_inputs(
            mu in 0.1f64..10.0,
            var in 0.0f64..10.0,
            rho in -5.0f64..5.0,
        ) {
            let c = calib(mu, var);
            match c.sojourn_from_utilization(rho) {
                Ok(w) => {
                    prop_assert!((0.0..1.0).contains(&rho));
                    prop_assert!(w.is_finite() && w > 0.0);
                }
                Err(CalibrationError::UnstableUtilization { rho: r }) => {
                    prop_assert!(!(0.0..1.0).contains(&rho));
                    prop_assert!(r == rho);
                }
                Err(other) => prop_assert!(false, "unexpected error {:?}", other),
            }
        }
    }
}
