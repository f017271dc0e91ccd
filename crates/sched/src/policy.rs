//! Placement policies: who shares a switch with whom.
//!
//! A [`PlacementPolicy`] is consulted once per placement opportunity —
//! at a job's arrival, and again for the queue head whenever a
//! completion frees a slot — with a snapshot of every switch's current
//! residents. It answers with a switch index, or `None` to defer the job
//! to the FIFO wait queue.
//!
//! Baselines bracket the design space: [`FirstFit`] packs greedily and
//! ignores interference, [`Random`] scatters (seeded, reproducible),
//! [`SoloOnly`] never shares a switch and pays the queueing bill, and
//! [`Oracle`] peeks at the *measured* pair-slowdown grid — the best any
//! placement can do with this ground truth, and the zero point of the
//! study's regret accounting. [`Predictive`] is the paper's pitch: the
//! same greedy scoring as the oracle, but fed by one of the four
//! prediction models over isolated measurements only.

#[expect(clippy::disallowed_types, reason = "decision timing is only reported")]
use std::time::{Duration, Instant};

use anp_core::{ExperimentConfig, LatencyProfile, LookupTable, ModelKind, PredictionError};
use anp_monitor::probed_profile_of_app;
use anp_workloads::arrivals::JobSpec;
use anp_workloads::AppKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

use crate::predictor::Predictor;
use crate::SchedError;

/// What a policy sees of one switch at decision time.
#[derive(Debug, Clone)]
pub struct SwitchSnapshot {
    /// Applications currently running on the switch.
    pub residents: Vec<AppKind>,
    /// Job slots on the switch.
    pub capacity: usize,
}

impl SwitchSnapshot {
    /// Whether the switch can accept one more job.
    pub fn has_free_slot(&self) -> bool {
        self.residents.len() < self.capacity
    }
}

/// Decision-latency accounting for policies that measure at decision
/// time. Baselines report zeros.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecisionStats {
    /// Placement decisions taken.
    pub decisions: u64,
    /// Wall-clock time spent inside [`PlacementPolicy::choose`].
    pub wall: Duration,
}

/// A placement policy: maps (job, cluster state) to a switch, or defers.
pub trait PlacementPolicy {
    /// Display name (also used in telemetry records and error messages).
    fn name(&self) -> String;

    /// Resets per-stream state (RNGs re-seed here so every stream is
    /// reproducible in isolation).
    fn begin_stream(&mut self, _seed: u64) {}

    /// Chooses a switch for `job`, or `None` to defer it to the wait
    /// queue. Must only return switches with a free slot.
    fn choose(
        &mut self,
        job: &JobSpec,
        switches: &[SwitchSnapshot],
    ) -> Result<Option<usize>, SchedError>;

    /// Decision-latency accounting since construction.
    fn decision_stats(&self) -> DecisionStats {
        DecisionStats::default()
    }
}

/// Greedy packing: the first switch with a free slot, interference be
/// damned. The "utilization first" baseline every cluster scheduler
/// starts life as.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstFit;

impl PlacementPolicy for FirstFit {
    fn name(&self) -> String {
        "first-fit".to_owned()
    }

    fn choose(
        &mut self,
        _job: &JobSpec,
        switches: &[SwitchSnapshot],
    ) -> Result<Option<usize>, SchedError> {
        Ok(switches.iter().position(SwitchSnapshot::has_free_slot))
    }
}

/// Uniform random placement over the switches with a free slot. Seeded
/// and re-seeded per stream, so a fixed stream seed reproduces the same
/// "random" schedule everywhere.
#[derive(Debug)]
pub struct Random {
    rng: StdRng,
}

impl Random {
    /// Stream-seed salt: keeps the policy's draws decorrelated from the
    /// arrival stream generated off the same seed.
    const SALT: u64 = 0x5EED_5A17_0F0F_0001;

    /// Builds the policy with an initial seed (re-seeded by
    /// [`PlacementPolicy::begin_stream`]).
    pub fn new(seed: u64) -> Self {
        Random {
            rng: StdRng::seed_from_u64(seed ^ Self::SALT),
        }
    }
}

impl PlacementPolicy for Random {
    fn name(&self) -> String {
        "random".to_owned()
    }

    fn begin_stream(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed ^ Self::SALT);
    }

    fn choose(
        &mut self,
        _job: &JobSpec,
        switches: &[SwitchSnapshot],
    ) -> Result<Option<usize>, SchedError> {
        let free: Vec<usize> = (0..switches.len())
            .filter(|&i| switches[i].has_free_slot())
            .collect();
        if free.is_empty() {
            return Ok(None);
        }
        Ok(Some(free[self.rng.gen_range(0..free.len())]))
    }
}

/// Never shares a switch: the first *empty* switch, else defer. Zero
/// interference, maximal queueing — the other end of the trade-off from
/// [`FirstFit`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SoloOnly;

impl PlacementPolicy for SoloOnly {
    fn name(&self) -> String {
        "solo-only".to_owned()
    }

    fn choose(
        &mut self,
        _job: &JobSpec,
        switches: &[SwitchSnapshot],
    ) -> Result<Option<usize>, SchedError> {
        Ok(switches.iter().position(|s| s.residents.is_empty()))
    }
}

/// Exhaustive greedy placement over the *measured* pair-slowdown grid:
/// for each free-slot switch, the total extra slowdown created (job's
/// own plus what it inflicts on every resident); picks the cheapest,
/// lowest index on ties. This peeks at ground truth no deployable
/// scheduler has — it exists to anchor the regret accounting at zero.
#[derive(Debug)]
pub struct Oracle<'a> {
    pairs: &'a BTreeMap<(AppKind, AppKind), f64>,
}

impl<'a> Oracle<'a> {
    /// Builds the oracle over the measured pair grid.
    pub fn new(pairs: &'a BTreeMap<(AppKind, AppKind), f64>) -> Self {
        Oracle { pairs }
    }

    fn measured(&self, victim: AppKind, other: AppKind) -> Result<f64, SchedError> {
        self.pairs
            .get(&(victim, other))
            .copied()
            .ok_or(SchedError::Prediction(
                anp_core::PredictionError::Unmeasured { victim, other },
            ))
    }
}

impl PlacementPolicy for Oracle<'_> {
    fn name(&self) -> String {
        "oracle".to_owned()
    }

    fn choose(
        &mut self,
        job: &JobSpec,
        switches: &[SwitchSnapshot],
    ) -> Result<Option<usize>, SchedError> {
        let mut best: Option<(f64, usize)> = None;
        for (i, sw) in switches.iter().enumerate() {
            if !sw.has_free_slot() {
                continue;
            }
            let mut cost = 0.0;
            for &r in &sw.residents {
                cost += self.measured(job.app, r)? + self.measured(r, job.app)?;
            }
            if best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, i));
            }
        }
        Ok(best.map(|(_, i)| i))
    }
}

/// The paper's placement policy: identical greedy scoring to the
/// [`Oracle`], but every slowdown is *predicted* by one of the four
/// models from isolated measurements, with the co-runner's footprint
/// measured through a backend at decision time. The wall clock spent in
/// `choose` is the decision latency a deployment would pay.
#[derive(Debug)]
pub struct Predictive<'a> {
    model: ModelKind,
    predictor: Predictor<'a>,
    decisions: u64,
    wall: Duration,
}

impl<'a> Predictive<'a> {
    /// Builds the policy around a model and a decision-time predictor.
    pub fn new(model: ModelKind, predictor: Predictor<'a>) -> Self {
        Predictive {
            model,
            predictor,
            decisions: 0,
            wall: Duration::ZERO,
        }
    }

    /// The prediction model this instance consults.
    pub fn model(&self) -> ModelKind {
        self.model
    }
}

impl PlacementPolicy for Predictive<'_> {
    fn name(&self) -> String {
        format!(
            "predictive:{}:{}",
            self.model.name(),
            self.predictor.backend_name()
        )
    }

    fn choose(
        &mut self,
        job: &JobSpec,
        switches: &[SwitchSnapshot],
    ) -> Result<Option<usize>, SchedError> {
        #[expect(clippy::disallowed_types, reason = "the choice never reads it")]
        let started = Instant::now();
        let mut best: Option<(f64, usize)> = None;
        for (i, sw) in switches.iter().enumerate() {
            if !sw.has_free_slot() {
                continue;
            }
            let mut cost = 0.0;
            for &r in &sw.residents {
                cost += self.predictor.predicted(job.app, r, self.model)?
                    + self.predictor.predicted(r, job.app, self.model)?;
            }
            if best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, i));
            }
        }
        self.decisions += 1;
        self.wall += started.elapsed();
        Ok(best.map(|(_, i)| i))
    }

    fn decision_stats(&self) -> DecisionStats {
        DecisionStats {
            decisions: self.decisions,
            wall: self.wall,
        }
    }
}

/// Placement from the *online monitor* instead of the offline campaign:
/// co-runner footprints come from [`anp_monitor::probed_profile_of_app`]
/// — the jittered probe train co-running with the application inside the
/// DES — and flow through the same four models and the same greedy
/// scoring as [`Predictive`]. This is the policy a deployment could
/// actually run: it needs only the calibrated look-up table and a live
/// probe stream, never a dedicated measurement campaign per co-runner.
///
/// Probed profiles are memoized per application (a production monitor
/// keeps estimating the same resident for free), so the decision wall
/// clock reflects first-contact probing plus model evaluation.
#[derive(Debug)]
pub struct Probed<'a> {
    model: ModelKind,
    cfg: &'a ExperimentConfig,
    table: &'a LookupTable,
    profiles: BTreeMap<AppKind, LatencyProfile>,
    decisions: u64,
    wall: Duration,
}

impl<'a> Probed<'a> {
    /// Builds the policy around a model, the probe/fabric configuration,
    /// and the calibrated look-up table the models interpolate in.
    pub fn new(model: ModelKind, cfg: &'a ExperimentConfig, table: &'a LookupTable) -> Self {
        Probed {
            model,
            cfg,
            table,
            profiles: BTreeMap::new(),
            decisions: 0,
            wall: Duration::ZERO,
        }
    }

    /// The prediction model this instance consults.
    pub fn model(&self) -> ModelKind {
        self.model
    }

    fn predicted(&mut self, victim: AppKind, other: AppKind) -> Result<f64, SchedError> {
        if !self.profiles.contains_key(&other) {
            let profile = probed_profile_of_app(self.cfg, other)?;
            self.profiles.insert(other, profile);
        }
        let profile = &self.profiles[&other];
        self.model
            .model()
            .predict(self.table, victim, profile)
            .ok_or(SchedError::Prediction(PredictionError::NoPrediction {
                victim,
                model: self.model,
            }))
    }
}

impl PlacementPolicy for Probed<'_> {
    fn name(&self) -> String {
        format!("probed:{}", self.model.name())
    }

    fn choose(
        &mut self,
        job: &JobSpec,
        switches: &[SwitchSnapshot],
    ) -> Result<Option<usize>, SchedError> {
        #[expect(clippy::disallowed_types, reason = "the choice never reads it")]
        let started = Instant::now();
        let mut best: Option<(f64, usize)> = None;
        for (i, sw) in switches.iter().enumerate() {
            if !sw.has_free_slot() {
                continue;
            }
            let mut cost = 0.0;
            for &r in &sw.residents {
                cost += self.predicted(job.app, r)? + self.predicted(r, job.app)?;
            }
            if best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, i));
            }
        }
        self.decisions += 1;
        self.wall += started.elapsed();
        Ok(best.map(|(_, i)| i))
    }

    fn decision_stats(&self) -> DecisionStats {
        DecisionStats {
            decisions: self.decisions,
            wall: self.wall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(residents: &[AppKind]) -> SwitchSnapshot {
        SwitchSnapshot {
            residents: residents.to_vec(),
            capacity: 2,
        }
    }

    fn job(app: AppKind) -> JobSpec {
        JobSpec {
            id: 0,
            app,
            arrival_us: 0,
            size: 1.0,
            slo_slowdown: None,
        }
    }

    #[test]
    fn first_fit_packs_and_solo_only_spreads() {
        let switches = [snap(&[AppKind::Fftw]), snap(&[])];
        assert_eq!(
            FirstFit.choose(&job(AppKind::Milc), &switches).unwrap(),
            Some(0)
        );
        assert_eq!(
            SoloOnly.choose(&job(AppKind::Milc), &switches).unwrap(),
            Some(1)
        );
        // A fully loaded cluster defers under both.
        let full = [snap(&[AppKind::Fftw, AppKind::Fftw])];
        assert_eq!(FirstFit.choose(&job(AppKind::Milc), &full).unwrap(), None);
        assert_eq!(SoloOnly.choose(&job(AppKind::Milc), &full).unwrap(), None);
    }

    #[test]
    fn random_is_reproducible_per_stream_and_stays_legal() {
        let switches = [snap(&[AppKind::Fftw, AppKind::Fftw]), snap(&[]), snap(&[])];
        let draw = |seed: u64| -> Vec<Option<usize>> {
            let mut p = Random::new(0);
            p.begin_stream(seed);
            (0..32)
                .map(|_| p.choose(&job(AppKind::Milc), &switches).unwrap())
                .collect()
        };
        assert_eq!(draw(7), draw(7), "same stream seed, same draws");
        assert_ne!(draw(7), draw(8), "different seed, different draws");
        for c in draw(7) {
            let c = c.expect("free slots exist");
            assert!(c == 1 || c == 2, "never the full switch");
        }
    }

    #[test]
    fn oracle_picks_the_cheapest_measured_pairing() {
        // Pairing with MILC costs 30 total, with MCB only 6; an empty
        // switch costs 0 and wins over both.
        let pairs = BTreeMap::from([
            ((AppKind::Fftw, AppKind::Milc), 20.0),
            ((AppKind::Milc, AppKind::Fftw), 10.0),
            ((AppKind::Fftw, AppKind::Mcb), 4.0),
            ((AppKind::Mcb, AppKind::Fftw), 2.0),
        ]);
        let mut oracle = Oracle::new(&pairs);
        let with_empty = [snap(&[AppKind::Milc]), snap(&[AppKind::Mcb]), snap(&[])];
        assert_eq!(
            oracle.choose(&job(AppKind::Fftw), &with_empty).unwrap(),
            Some(2)
        );
        let no_empty = [snap(&[AppKind::Milc]), snap(&[AppKind::Mcb])];
        assert_eq!(
            oracle.choose(&job(AppKind::Fftw), &no_empty).unwrap(),
            Some(1)
        );
        // An unmeasured pairing is a typed hole, not a silent zero.
        let sparse = BTreeMap::new();
        let mut blind = Oracle::new(&sparse);
        assert!(blind.choose(&job(AppKind::Fftw), &no_empty).is_err());
    }
}
