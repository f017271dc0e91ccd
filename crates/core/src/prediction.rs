//! The end-to-end prediction pipeline (paper §V).
//!
//! A [`Study`] bundles everything measured in isolation — the look-up
//! table, each application's impact profile, and each application's solo
//! runtime — and predicts the slowdown of every ordered application pair
//! with every model. Comparing against measured co-run slowdowns yields
//! the per-pairing errors of Fig. 8 and the quartile summaries of Fig. 9.
//!
//! [`measure_campaign`] is the one driver of the whole method: idle
//! calibration, the look-up table, the impact profiles and the co-run
//! ground truth, under one supervision envelope and one hole ledger.

use std::collections::BTreeMap;

use anp_metrics::{MetricsError, QuartileSummary};
use anp_workloads::{AppKind, CompressionConfig};

use crate::backend::{calibrate_with, Backend, DesBackend, WorkloadSpec};
use crate::experiments::{degradation_percent, ExperimentConfig, ExperimentError};
use crate::journal::{config_fingerprint, JournalError, RunJournal};
use crate::lut::LookupTable;
use crate::models::{all_models, ModelKind, SlowdownModel};
use crate::queue::MuPolicy;
use crate::samples::LatencyProfile;
use crate::supervise::{sweep_supervised_for, Supervision, Supervisor, TaskError};
use crate::sweep::SweepTelemetry;

/// Why a pairing has no slowdown value to offer.
///
/// Consumers that read slowdowns out of a study — most prominently the
/// scheduler's placement policies in `anp-sched` — hit three distinct
/// holes, and each needs a different reaction: an [`Unmeasured`] pairing
/// can be measured (or the oracle skipped), a [`MissingProfile`] means
/// the co-runner was never profiled, and [`NoPrediction`] means the
/// look-up table carries no degradation data for the victim. All three
/// used to surface as `Option::unwrap` panics deep inside report loops.
///
/// [`Unmeasured`]: PredictionError::Unmeasured
/// [`MissingProfile`]: PredictionError::MissingProfile
/// [`NoPrediction`]: PredictionError::NoPrediction
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredictionError {
    /// The pairing's co-run ground truth was never measured (or its
    /// measurement cell failed and left a typed hole).
    Unmeasured {
        /// The application whose slowdown was requested.
        victim: AppKind,
        /// The co-running application.
        other: AppKind,
    },
    /// The co-runner has no impact profile in the study, so no model can
    /// summarize its footprint.
    MissingProfile {
        /// The unprofiled co-runner.
        app: AppKind,
    },
    /// The look-up table carries no degradation data for the victim
    /// under this model.
    NoPrediction {
        /// The application whose slowdown was requested.
        victim: AppKind,
        /// The model that could not predict.
        model: ModelKind,
    },
}

impl std::fmt::Display for PredictionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictionError::Unmeasured { victim, other } => write!(
                f,
                "pairing {}+{} has no measured co-run slowdown",
                victim.name(),
                other.name()
            ),
            PredictionError::MissingProfile { app } => {
                write!(f, "{} has no impact profile in the study", app.name())
            }
            PredictionError::NoPrediction { victim, model } => write!(
                f,
                "model {model} has no prediction for {} in the look-up table",
                victim.name()
            ),
        }
    }
}

impl std::error::Error for PredictionError {}

/// One directed pairing: the slowdown of `victim` when co-run with
/// `other`.
#[derive(Debug, Clone)]
pub struct PairOutcome {
    /// The application whose slowdown is being predicted.
    pub victim: AppKind,
    /// The co-running application.
    pub other: AppKind,
    /// Measured % slowdown (ground truth; `None` until measured).
    pub measured: Option<f64>,
    /// Model → predicted % slowdown.
    pub predicted: BTreeMap<ModelKind, f64>,
}

impl PairOutcome {
    /// The |measured − predicted| error of one model, if both sides exist.
    pub fn abs_error(&self, model: ModelKind) -> Option<f64> {
        Some((self.measured? - self.predicted.get(&model)?).abs())
    }

    /// The measured ground truth, or a typed
    /// [`PredictionError::Unmeasured`] hole — for consumers (like the
    /// scheduler's oracle policy) that must react to an unmeasured
    /// pairing rather than panic on it.
    pub fn measured_value(&self) -> Result<f64, PredictionError> {
        self.measured.ok_or(PredictionError::Unmeasured {
            victim: self.victim,
            other: self.other,
        })
    }
}

/// Everything measured in isolation, ready to predict any pairing.
#[derive(Debug, Clone)]
pub struct Study {
    /// The look-up table (compression entries + calibration + solos).
    pub table: LookupTable,
    /// Impact profile of each application.
    pub app_profiles: BTreeMap<AppKind, LatencyProfile>,
}

impl Study {
    /// Assembles a study from measured parts.
    pub fn from_parts(table: LookupTable, app_profiles: BTreeMap<AppKind, LatencyProfile>) -> Self {
        Study {
            table,
            app_profiles,
        }
    }

    /// Measures the application impact profiles for `apps` on `backend`
    /// (the table must already exist). The per-app runs are independent
    /// simulations and fan out across [`ExperimentConfig::jobs`] workers;
    /// profiles and `progress` lines come back in `apps` order.
    ///
    /// Every cell runs inside the `supervisor`'s envelope. A failing app
    /// leaves a typed hole: its profile is simply absent from the study
    /// (so [`Study::predict_pair`] yields no predictions for it) and the
    /// reason is in the returned failure list, while every sibling app
    /// completes. With a journal, completed profiles resume instead of
    /// re-simulating.
    pub fn measure_profiles_supervised_with(
        backend: &dyn Backend,
        cfg: &ExperimentConfig,
        table: LookupTable,
        apps: &[AppKind],
        supervisor: &Supervisor,
        journal: Option<&RunJournal>,
        mut progress: impl FnMut(&str),
    ) -> Result<(Self, Vec<TaskError>, SweepTelemetry), JournalError> {
        let tasks: Vec<(String, _)> = apps
            .iter()
            .map(|&app| {
                let label = format!("profile:{}", app.name());
                (label, move || {
                    backend.measure_impact_profile(cfg, WorkloadSpec::App(app))
                })
            })
            .collect();
        let (results, telemetry) = sweep_supervised_for(
            "app-profiles",
            backend.name(),
            cfg.jobs,
            supervisor,
            journal,
            config_fingerprint(cfg, backend.name()),
            tasks,
        )?;
        let mut app_profiles = BTreeMap::new();
        let mut failures = Vec::new();
        for (&app, r) in apps.iter().zip(results) {
            match r {
                Ok(p) => {
                    progress(&format!(
                        "impact {} -> mean {:.2}us sd {:.2}us util {:.1}%",
                        app.name(),
                        p.mean(),
                        p.std_dev(),
                        table.calibration.utilization(&p) * 100.0
                    ));
                    app_profiles.insert(app, p);
                }
                Err(e) => {
                    progress(&format!("impact {} FAILED: {e}", app.name()));
                    failures.push(e);
                }
            }
        }
        Ok((Study::from_parts(table, app_profiles), failures, telemetry))
    }

    /// Predicts the slowdown of `victim` co-run with `other` under every
    /// given model.
    pub fn predict_pair(
        &self,
        victim: AppKind,
        other: AppKind,
        models: &[Box<dyn SlowdownModel>],
    ) -> PairOutcome {
        let mut predicted = BTreeMap::new();
        if let Some(other_profile) = self.app_profiles.get(&other) {
            for m in models {
                if let Some(p) = m.predict(&self.table, victim, other_profile) {
                    predicted.insert(m.kind(), p);
                }
            }
        }
        PairOutcome {
            victim,
            other,
            measured: None,
            predicted,
        }
    }

    /// Predicts the slowdown of `victim` co-run with `other` under one
    /// model, without touching (or requiring) any co-run measurement —
    /// the entry point the scheduler's predictive placement policies use,
    /// where only isolated measurements (table + profiles) exist and
    /// every hole must be a typed error rather than a panic.
    pub fn predicted_slowdown(
        &self,
        victim: AppKind,
        other: AppKind,
        model: ModelKind,
    ) -> Result<f64, PredictionError> {
        let other_profile = self
            .app_profiles
            .get(&other)
            .ok_or(PredictionError::MissingProfile { app: other })?;
        model
            .model()
            .predict(&self.table, victim, other_profile)
            .ok_or(PredictionError::NoPrediction { victim, model })
    }

    /// Predicts every ordered pair from `apps` (the paper's 36 pairings
    /// for 6 applications, including self-pairings).
    pub fn predict_all(
        &self,
        apps: &[AppKind],
        models: &[Box<dyn SlowdownModel>],
    ) -> Vec<PairOutcome> {
        let mut out = Vec::with_capacity(apps.len() * apps.len());
        for &victim in apps {
            for &other in apps {
                out.push(self.predict_pair(victim, other, models));
            }
        }
        out
    }

    /// Measures the co-run ground truth for one pairing and fills it in.
    pub fn measure_pair(
        &self,
        cfg: &ExperimentConfig,
        outcome: &mut PairOutcome,
    ) -> Result<(), ExperimentError> {
        let solo = self.table.solo[&outcome.victim];
        let loaded = DesBackend.measure_corun_runtime(cfg, outcome.victim, outcome.other)?;
        outcome.measured = Some(degradation_percent(solo, loaded));
        Ok(())
    }

    /// Measures the co-run ground truth for every pairing in `outcomes`
    /// (the quadratic Table-I grid) on `backend`. Each pairing is an
    /// independent simulation, so the grid fans out across
    /// [`ExperimentConfig::jobs`] workers; `outcomes` is filled in place,
    /// in its own order, byte-identically for any worker count.
    ///
    /// Every cell runs inside the `supervisor`'s envelope. Pairings whose
    /// cell fails keep `measured: None` — the natural typed hole of
    /// [`PairOutcome`] — and the reason comes back in the failure list;
    /// every sibling pairing still completes. A pairing whose victim has
    /// no solo baseline in the (possibly partial) table also stays
    /// unmeasured.
    pub fn measure_pairs_supervised_with(
        &self,
        backend: &dyn Backend,
        cfg: &ExperimentConfig,
        outcomes: &mut [PairOutcome],
        supervisor: &Supervisor,
        journal: Option<&RunJournal>,
        mut progress: impl FnMut(&str),
    ) -> Result<(Vec<TaskError>, SweepTelemetry), JournalError> {
        let tasks: Vec<(String, _)> = outcomes
            .iter()
            .map(|o| {
                let (victim, other) = (o.victim, o.other);
                let label = format!("corun:{}+{}", victim.name(), other.name());
                (label, move || {
                    backend.measure_corun_runtime(cfg, victim, other)
                })
            })
            .collect();
        let (results, telemetry) = sweep_supervised_for(
            "pairing-grid",
            backend.name(),
            cfg.jobs,
            supervisor,
            journal,
            config_fingerprint(cfg, backend.name()),
            tasks,
        )?;
        let mut failures = Vec::new();
        for (o, r) in outcomes.iter_mut().zip(results) {
            match r {
                Ok(t) => match self.table.solo.get(&o.victim) {
                    Some(&solo) => {
                        let measured = degradation_percent(solo, t);
                        o.measured = Some(measured);
                        progress(&format!(
                            "{} with {} -> measured {measured:+.1}%",
                            o.victim.name(),
                            o.other.name(),
                        ));
                    }
                    None => progress(&format!(
                        "{} with {} -> (no solo baseline)",
                        o.victim.name(),
                        o.other.name()
                    )),
                },
                Err(e) => {
                    progress(&format!(
                        "{} with {} FAILED: {e}",
                        o.victim.name(),
                        o.other.name()
                    ));
                    failures.push(e);
                }
            }
        }
        Ok((failures, telemetry))
    }
}

/// The step of a [`measure_campaign`] a progress line comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignStage {
    /// The idle calibration (one `calibrated:` line).
    Calibration,
    /// The look-up table sweep.
    Table,
    /// The per-app impact profiles.
    Profiles,
    /// The co-run pairing grid.
    Pairs,
}

/// Why a campaign stopped before producing a ledger.
#[derive(Debug)]
pub enum CampaignError {
    /// The idle calibration failed: nothing can be read without it.
    Calibration(ExperimentError),
    /// The journal failed or belongs to another campaign.
    Journal(JournalError),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Calibration(e) => e.fmt(f),
            CampaignError::Journal(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<JournalError> for CampaignError {
    fn from(e: JournalError) -> Self {
        CampaignError::Journal(e)
    }
}

/// What a [`measure_campaign`] measured, and what it could not.
#[derive(Debug)]
pub struct Campaign {
    /// The isolated measurements. `None` when no look-up-table entry
    /// completed (nothing to predict from), or when the table has holes
    /// and no co-runs were asked for; partial where cells failed.
    pub study: Option<Study>,
    /// One outcome per ordered pairing ([`Study::predict_all`] order):
    /// predictions under every model, and the measured slowdown (`None`
    /// where the co-run cell failed or the victim has no solo baseline).
    /// Empty without co-runs or when `study` is `None`.
    pub outcomes: Vec<PairOutcome>,
    /// Telemetry of each sweep that ran (table, profiles, pairs).
    pub telemetry: Vec<SweepTelemetry>,
    /// Every hole and the cell counts of every sweep that ran. A pairing
    /// without a measured value counts as missing.
    pub ledger: Supervision,
}

/// Runs the paper's §V method end to end on `backend`: the idle
/// calibration, the look-up table over `sweep`, the impact profile of
/// every app, then, with `corun`, predictions and co-run ground truth for
/// every ordered pairing of `apps` (Fig. 8). Without `corun` the campaign
/// stops after the profiles, and already after the table when the table
/// has holes: nothing would use the profiles.
///
/// Every sweep runs under `supervisor`, so a failed cell becomes a typed
/// hole in the ledger and its siblings still land; with a journal every
/// completed cell survives a crash and resumes bit for bit. Only a
/// failed idle calibration or a journal conflict is an error. Progress
/// lines reach `progress` tagged with their [`CampaignStage`], in the order a
/// serial run prints them, for any worker count.
#[expect(clippy::too_many_arguments, reason = "each argument is independent")]
pub fn measure_campaign(
    backend: &dyn Backend,
    cfg: &ExperimentConfig,
    apps: &[AppKind],
    sweep: &[CompressionConfig],
    corun: bool,
    supervisor: &Supervisor,
    journal: Option<&RunJournal>,
    mut progress: impl FnMut(CampaignStage, &str),
) -> Result<Campaign, CampaignError> {
    let calibration =
        calibrate_with(backend, cfg, MuPolicy::MinLatency).map_err(CampaignError::Calibration)?;
    progress(
        CampaignStage::Calibration,
        &format!(
            "calibrated: mu {:.4}/us var {:.4}us^2",
            calibration.mu, calibration.var_s
        ),
    );
    let mut campaign = Campaign {
        study: None,
        outcomes: Vec::new(),
        telemetry: Vec::new(),
        ledger: Supervision::default(),
    };

    let (lut, telemetry) = LookupTable::measure_supervised_with(
        backend,
        cfg,
        calibration,
        apps,
        sweep,
        supervisor,
        journal,
        |l| progress(CampaignStage::Table, l),
    )?;
    campaign.telemetry.push(telemetry);
    let complete = lut.failures.is_empty();
    campaign
        .ledger
        .absorb(lut.failures, lut.completed, lut.total);
    let Some(table) = lut.table.filter(|_| complete || corun) else {
        return Ok(campaign);
    };

    let (study, failures, telemetry) = Study::measure_profiles_supervised_with(
        backend,
        cfg,
        table,
        apps,
        supervisor,
        journal,
        |l| progress(CampaignStage::Profiles, l),
    )?;
    campaign.telemetry.push(telemetry);
    campaign
        .ledger
        .absorb(failures, study.app_profiles.len(), apps.len());

    if corun {
        let mut outcomes = study.predict_all(apps, &all_models());
        let (failures, telemetry) = study.measure_pairs_supervised_with(
            backend,
            cfg,
            &mut outcomes,
            supervisor,
            journal,
            |l| progress(CampaignStage::Pairs, l),
        )?;
        campaign.telemetry.push(telemetry);
        let measured = outcomes.iter().filter(|o| o.measured.is_some()).count();
        campaign.ledger.absorb(failures, measured, outcomes.len());
        campaign.outcomes = outcomes;
    }
    campaign.study = Some(study);
    Ok(campaign)
}

/// Per-model quartile summary of |measured − predicted| errors across a
/// set of pairings — the Fig. 9 box-plot data.
///
/// Models with no scored pairings are simply absent from the map; a
/// degenerate error sample (NaN from a poisoned measurement) surfaces as a
/// typed [`MetricsError`] so callers can report the hole instead of
/// panicking mid-report.
pub fn error_summaries(
    outcomes: &[PairOutcome],
    models: &[ModelKind],
) -> Result<BTreeMap<ModelKind, QuartileSummary>, MetricsError> {
    let mut out = BTreeMap::new();
    for &model in models {
        let errors: Vec<f64> = outcomes.iter().filter_map(|o| o.abs_error(model)).collect();
        if !errors.is_empty() {
            out.insert(model, QuartileSummary::of(&errors)?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::test_support::{synthetic_profile, synthetic_table, FakeBackend};
    use crate::models::all_models;

    fn study() -> Study {
        let table = synthetic_table(
            8,
            &[
                (AppKind::Fftw, 2.0),
                (AppKind::Mcb, 0.05),
                (AppKind::Milc, 0.8),
            ],
        );
        let mut app_profiles = BTreeMap::new();
        // FFTW perturbs the switch heavily, MCB moderately (bursty), MILC
        // lightly — synthetic profiles at different means.
        app_profiles.insert(AppKind::Fftw, synthetic_profile(4.0, 1.0));
        app_profiles.insert(AppKind::Mcb, synthetic_profile(2.2, 1.4));
        app_profiles.insert(AppKind::Milc, synthetic_profile(1.6, 0.4));
        Study::from_parts(table, app_profiles)
    }

    #[test]
    fn predict_all_covers_every_ordered_pair() {
        let s = study();
        let apps = [AppKind::Fftw, AppKind::Mcb, AppKind::Milc];
        let models = all_models();
        let outcomes = s.predict_all(&apps, &models);
        assert_eq!(outcomes.len(), 9);
        for o in &outcomes {
            assert_eq!(o.predicted.len(), 4, "{:?}+{:?}", o.victim, o.other);
        }
    }

    #[test]
    fn heavier_partner_predicts_larger_slowdown() {
        let s = study();
        let models = all_models();
        // FFTW (the victim, gain 2.0) next to heavy FFTW vs. light MILC.
        let with_heavy = s.predict_pair(AppKind::Fftw, AppKind::Fftw, &models);
        let with_light = s.predict_pair(AppKind::Fftw, AppKind::Milc, &models);
        for m in &models {
            let h = with_heavy.predicted[&m.kind()];
            let l = with_light.predicted[&m.kind()];
            assert!(
                h >= l,
                "{}: heavy partner {h} must beat light partner {l}",
                m.name()
            );
        }
    }

    #[test]
    fn unknown_partner_yields_no_predictions() {
        let s = study();
        let outcome = s.predict_pair(AppKind::Fftw, AppKind::Amg, &all_models());
        assert!(outcome.predicted.is_empty());
    }

    #[test]
    fn abs_error_requires_both_sides() {
        let s = study();
        let mut o = s.predict_pair(AppKind::Fftw, AppKind::Mcb, &all_models());
        assert_eq!(o.abs_error(ModelKind::Queue), None, "not measured yet");
        assert_eq!(
            o.measured_value(),
            Err(PredictionError::Unmeasured {
                victim: AppKind::Fftw,
                other: AppKind::Mcb,
            }),
            "the unmeasured hole is a typed error, not a panic"
        );
        o.measured = Some(o.predicted[&ModelKind::Queue] + 5.0);
        assert!((o.abs_error(ModelKind::Queue).unwrap() - 5.0).abs() < 1e-9);
        assert_eq!(o.measured_value(), Ok(o.measured.unwrap()));
    }

    #[test]
    fn predicted_slowdown_without_measurement() {
        let s = study();
        let pair = s.predict_pair(AppKind::Fftw, AppKind::Mcb, &all_models());
        for kind in ModelKind::ALL {
            assert_eq!(
                s.predicted_slowdown(AppKind::Fftw, AppKind::Mcb, kind),
                Ok(pair.predicted[&kind]),
                "{kind} matches the batch pipeline"
            );
        }
        // An unprofiled co-runner is a typed hole, not a panic.
        assert_eq!(
            s.predicted_slowdown(AppKind::Fftw, AppKind::Amg, ModelKind::Queue),
            Err(PredictionError::MissingProfile { app: AppKind::Amg })
        );
    }

    #[test]
    fn supervised_profiles_leave_typed_holes() {
        let cfg = ExperimentConfig::cab();
        let apps = [AppKind::Fftw, AppKind::Mcb, AppKind::Milc];
        let table = synthetic_table(
            8,
            &[
                (AppKind::Fftw, 2.0),
                (AppKind::Mcb, 0.05),
                (AppKind::Milc, 0.8),
            ],
        );
        let backend =
            FakeBackend::faulty(vec![format!("profile:{}", AppKind::Mcb.name())], Vec::new());
        let (study, failures, t) = Study::measure_profiles_supervised_with(
            &backend,
            &cfg,
            table,
            &apps,
            &Supervisor::none(),
            None,
            |_| {},
        )
        .unwrap();
        assert_eq!(failures.len(), 1);
        assert!(matches!(failures[0], TaskError::Failed { .. }));
        assert_eq!(study.app_profiles.len(), 2, "siblings complete");
        assert!(!study.app_profiles.contains_key(&AppKind::Mcb));
        // The hole propagates as "no prediction", not as a crash.
        let o = study.predict_pair(AppKind::Fftw, AppKind::Mcb, &all_models());
        assert!(o.predicted.is_empty());
        assert_eq!(t.runs.iter().filter(|r| r.outcome == "ok").count(), 2);
    }

    #[test]
    fn clean_pairs_match_across_worker_counts_and_hole_on_panic() {
        let cfg = ExperimentConfig::cab();
        let s = study();
        let apps = [AppKind::Fftw, AppKind::Milc];
        let models = all_models();

        let clean = |jobs: usize| {
            let mut outcomes = s.predict_all(&apps, &models);
            let mut lines = Vec::new();
            let (failures, _) = s
                .measure_pairs_supervised_with(
                    &FakeBackend::clean(),
                    &cfg.clone().with_jobs(jobs),
                    &mut outcomes,
                    &Supervisor::none(),
                    None,
                    |l| lines.push(l.to_owned()),
                )
                .unwrap();
            assert!(failures.is_empty());
            (outcomes, lines)
        };
        let (serial, serial_lines) = clean(1);
        let (parallel, parallel_lines) = clean(4);
        assert_eq!(parallel_lines, serial_lines, "identical progress lines");
        for (a, b) in parallel.iter().zip(&serial) {
            assert_eq!(
                a.measured.unwrap().to_bits(),
                b.measured.unwrap().to_bits(),
                "bit-identical measurements"
            );
            // The fake backend's co-run takes 130 ms against a 100 ms solo.
            assert!((a.measured.unwrap() - 30.0).abs() < 1e-9);
        }

        // Now panic one pairing: its hole stays `measured: None`, every
        // sibling pairing still lands.
        let mut faulted = s.predict_all(&apps, &models);
        let backend = FakeBackend::faulty(
            Vec::new(),
            vec![format!(
                "corun:{}+{}",
                AppKind::Milc.name(),
                AppKind::Fftw.name()
            )],
        );
        let (failures, _) = s
            .measure_pairs_supervised_with(
                &backend,
                &cfg,
                &mut faulted,
                &Supervisor::none(),
                None,
                |_| {},
            )
            .unwrap();
        assert_eq!(failures.len(), 1);
        assert!(matches!(failures[0], TaskError::Panicked { .. }));
        assert_eq!(faulted.iter().filter(|o| o.measured.is_some()).count(), 3);
        let hole = faulted
            .iter()
            .find(|o| o.victim == AppKind::Milc && o.other == AppKind::Fftw)
            .unwrap();
        assert!(hole.measured.is_none(), "the panicked pairing stays open");
    }

    /// Two cheap configurations: the campaign tests care about the
    /// ledger, not about table coverage.
    fn small_sweep() -> [CompressionConfig; 2] {
        [
            CompressionConfig::new(1, 25_000, 1),
            CompressionConfig::new(4, 250_000, 10),
        ]
    }

    fn campaign_on(backend: &FakeBackend, apps: &[AppKind], corun: bool) -> Campaign {
        measure_campaign(
            backend,
            &ExperimentConfig::cab(),
            apps,
            &small_sweep(),
            corun,
            &Supervisor::none(),
            None,
            |_, _| {},
        )
        .unwrap()
    }

    #[test]
    fn clean_campaign_is_complete() {
        let apps = [AppKind::Fftw, AppKind::Milc];
        let mut stages = Vec::new();
        let c = measure_campaign(
            &FakeBackend::clean(),
            &ExperimentConfig::cab(),
            &apps,
            &small_sweep(),
            true,
            &Supervisor::none(),
            None,
            |stage, _| stages.push(stage),
        )
        .unwrap();
        assert!(c.ledger.is_complete());
        assert_eq!(c.ledger.exit_code(), 0);
        // Table: 2 solos + 2 impacts + 4 runtimes; 2 profiles; 4 pairs.
        assert_eq!((c.ledger.completed, c.ledger.total), (14, 14));
        assert_eq!(c.telemetry.len(), 3, "table, profiles, pairs");
        assert_eq!(c.outcomes.len(), 4);
        assert!(c.outcomes.iter().all(|o| o.measured.is_some()));
        assert_eq!(stages.first(), Some(&CampaignStage::Calibration));
        assert_eq!(stages.last(), Some(&CampaignStage::Pairs));
        assert!(
            stages.windows(2).all(|w| w[0] as u8 <= w[1] as u8),
            "in order"
        );
    }

    #[test]
    fn lost_solo_baseline_is_one_hole_and_missing_pairings() {
        let apps = [AppKind::Fftw, AppKind::Milc];
        let backend =
            FakeBackend::faulty(vec![format!("solo:{}", AppKind::Fftw.name())], Vec::new());
        let c = campaign_on(&backend, &apps, true);
        let labels: Vec<&str> = c.ledger.failures.iter().map(TaskError::label).collect();
        assert_eq!(labels, ["solo:FFTW"], "the ledger lists exactly that hole");
        for o in &c.outcomes {
            assert_eq!(
                o.measured.is_none(),
                o.victim == AppKind::Fftw,
                "{}+{}",
                o.victim.name(),
                o.other.name()
            );
        }
        // The FFTW runtimes still complete (they wait for a baseline); the
        // two FFTW pairings have no measured value and count as missing.
        assert_eq!(c.ledger.total, 14);
        assert_eq!(c.ledger.completed, 14 - 1 - 2);
        assert!(!c.ledger.is_complete());
        assert_eq!(c.ledger.exit_code(), 3);
    }

    #[test]
    fn campaign_exit_codes_follow_the_partial_convention() {
        let apps = [AppKind::Fftw];
        assert_eq!(
            campaign_on(&FakeBackend::clean(), &apps, true)
                .ledger
                .exit_code(),
            0
        );

        let pair = FakeBackend::faulty(Vec::new(), vec!["corun:FFTW+FFTW".to_owned()]);
        let partial = campaign_on(&pair, &apps, true);
        assert!(partial.study.is_some());
        assert_eq!(partial.ledger.exit_code(), 3);

        // Every table cell fails: no study, no pairings, nothing completed.
        let mut dead = vec!["solo:FFTW".to_owned()];
        for comp in small_sweep() {
            dead.push(format!("impact:{}", comp.label()));
            dead.push(format!("grid:FFTW:{}", comp.label()));
        }
        let dead = campaign_on(&FakeBackend::faulty(dead, Vec::new()), &apps, true);
        assert!(dead.study.is_none() && dead.outcomes.is_empty());
        assert_eq!((dead.ledger.completed, dead.ledger.total), (0, 5));
        assert!(!dead.ledger.is_complete());
        assert_eq!(dead.ledger.exit_code(), 1);
    }

    #[test]
    fn without_coruns_a_holed_table_skips_the_profiles() {
        let apps = [AppKind::Fftw, AppKind::Milc];
        let clean = campaign_on(&FakeBackend::clean(), &apps, false);
        assert!(clean.ledger.is_complete() && clean.outcomes.is_empty());
        assert_eq!(clean.telemetry.len(), 2, "table, profiles");
        assert_eq!((clean.ledger.completed, clean.ledger.total), (10, 10));

        let backend = FakeBackend::faulty(vec!["solo:FFTW".to_owned()], Vec::new());
        let holed = campaign_on(&backend, &apps, false);
        assert!(holed.study.is_none());
        assert_eq!(holed.telemetry.len(), 1, "the table only");
        assert_eq!((holed.ledger.completed, holed.ledger.total), (7, 8));
        assert_eq!(holed.ledger.exit_code(), 3);
    }

    #[test]
    fn error_summaries_aggregate_per_model() {
        let s = study();
        let apps = [AppKind::Fftw, AppKind::Mcb, AppKind::Milc];
        let mut outcomes = s.predict_all(&apps, &all_models());
        for (i, o) in outcomes.iter_mut().enumerate() {
            o.measured = Some(o.predicted[&ModelKind::Queue] + i as f64);
        }
        let sums = error_summaries(&outcomes, &[ModelKind::AverageLt, ModelKind::Queue]).unwrap();
        assert_eq!(sums.len(), 2);
        // Queue's error was constructed as 0..8 → median 4.
        let q = &sums[&ModelKind::Queue];
        assert!((q.median - 4.0).abs() < 1e-9);
        assert_eq!(q.min, 0.0);
        assert_eq!(q.max, 8.0);
    }

    #[test]
    fn poisoned_measurement_yields_typed_metrics_error() {
        let s = study();
        let apps = [AppKind::Fftw, AppKind::Mcb];
        let mut outcomes = s.predict_all(&apps, &all_models());
        for o in outcomes.iter_mut() {
            o.measured = Some(f64::NAN);
        }
        assert_eq!(
            error_summaries(&outcomes, &[ModelKind::Queue]),
            Err(MetricsError::NanSample)
        );
    }
}
