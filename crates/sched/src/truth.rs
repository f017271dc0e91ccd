//! The DES-measured ground truth a scheduling study stands on.
//!
//! A [`GroundTruth`] bundles everything the study needs measured up
//! front: the look-up table and impact profiles (a [`Study`], the input
//! of the predictive policies) and the directed pair-slowdown grid (the
//! input of the oracle policy and of the realized-schedule validation).
//! It is assembled from a [`measure_campaign`] run on the reference
//! engine over every ordered pairing of the study's apps.
//!
//! [`Study`]: anp_core::Study
//! [`measure_campaign`]: anp_core::measure_campaign

use std::collections::BTreeMap;

use anp_core::{PairOutcome, Study};
use anp_simnet::SimDuration;
use anp_workloads::AppKind;

use crate::SchedError;

/// Everything measured before the first placement decision.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Look-up table + app impact profiles — what the predictive
    /// placement policies consult (through a model).
    pub study: Study,
    /// Directed measured pair slowdowns: `(victim, other)` → the %
    /// slowdown of `victim` co-run with `other` — what the oracle policy
    /// peeks at and what the realized-schedule validation replays.
    pub pairs: BTreeMap<(AppKind, AppKind), f64>,
}

impl GroundTruth {
    /// Assembles the truth from a campaign's study and pair outcomes;
    /// unmeasured pairings stay out of [`GroundTruth::pairs`].
    pub fn new(study: Study, outcomes: &[PairOutcome]) -> Self {
        let pairs = outcomes
            .iter()
            .filter_map(|o| o.measured.map(|m| ((o.victim, o.other), m)))
            .collect();
        GroundTruth { study, pairs }
    }

    /// The solo runtime baseline of `app`, or a typed
    /// [`SchedError::MissingSolo`] hole when its baseline cell failed.
    pub fn solo(&self, app: AppKind) -> Result<SimDuration, SchedError> {
        self.study
            .table
            .solo
            .get(&app)
            .copied()
            .ok_or(SchedError::MissingSolo { app })
    }

    /// The measured % slowdown of `victim` co-run with `other`, or a
    /// typed unmeasured-pairing hole when its co-run cell failed.
    pub fn pair_slowdown(&self, victim: AppKind, other: AppKind) -> Result<f64, SchedError> {
        self.pairs
            .get(&(victim, other))
            .copied()
            .ok_or(SchedError::Prediction(
                anp_core::PredictionError::Unmeasured { victim, other },
            ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anp_core::{Calibration, CompressionEntry, LatencyProfile, LookupTable, MuPolicy};
    use anp_workloads::CompressionConfig;

    fn profile(mean_us: f64) -> LatencyProfile {
        let samples: Vec<f64> = (0..32).map(|i| mean_us + (i % 3) as f64 * 0.01).collect();
        LatencyProfile::from_samples(&samples)
    }

    fn truth() -> GroundTruth {
        let idle = profile(1.4);
        let calibration = Calibration::from_idle_profile(&idle, MuPolicy::MinLatency).unwrap();
        let loaded = profile(2.0);
        let utilization = calibration.utilization(&loaded);
        let entry = CompressionEntry {
            config: CompressionConfig::new(1, 25_000_000, 1),
            profile: loaded,
            utilization,
            slowdown: BTreeMap::from([(AppKind::Fftw, 10.0)]),
        };
        let solo = BTreeMap::from([(AppKind::Fftw, SimDuration::from_micros(1_000_000))]);
        let table = LookupTable::from_parts(calibration, vec![entry], solo);
        let study = Study::from_parts(table, BTreeMap::new());
        let pairs = BTreeMap::from([((AppKind::Fftw, AppKind::Milc), 12.5)]);
        GroundTruth { study, pairs }
    }

    #[test]
    fn holes_surface_as_typed_errors() {
        let t = truth();
        assert!(t.solo(AppKind::Fftw).is_ok());
        assert!(matches!(
            t.solo(AppKind::Amg),
            Err(SchedError::MissingSolo { app: AppKind::Amg })
        ));
        assert_eq!(t.pair_slowdown(AppKind::Fftw, AppKind::Milc).unwrap(), 12.5);
        assert!(matches!(
            t.pair_slowdown(AppKind::Milc, AppKind::Fftw),
            Err(SchedError::Prediction(_))
        ));
    }
}
