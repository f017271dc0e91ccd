//! # anp-sched — predictive co-scheduling on measured switch impact
//!
//! The paper measures application footprints and degradation tables so
//! that a batch scheduler can *predict* the cost of co-locating two
//! workloads before placing them. This crate closes that loop: an
//! event-driven cluster simulation where a seeded stream of jobs (the
//! six `anp-workloads` proxies, with arrival times, sizes, and optional
//! slowdown SLOs) arrives at a pool of switches, and pluggable placement
//! policies decide which jobs share a switch.
//!
//! * [`truth`] — the DES-measured ground truth a study stands on: the
//!   look-up table + impact profiles (a [`Study`]) plus the directed
//!   pair-slowdown grid, assembled from one supervised prediction
//!   campaign (`anp_core::measure_campaign`).
//! * [`cluster`] — the cluster simulation itself: switches with two job
//!   slots, a FIFO wait queue, and per-job progress rates derived from
//!   the measured pair slowdowns. Realized (stretch) slowdown includes
//!   queueing delay, so a policy that defers jobs pays for it.
//! * [`policy`] — the [`PlacementPolicy`] trait and its implementations:
//!   `FirstFit`, `Random`, `SoloOnly`, the exhaustive `Oracle` (peeks at
//!   measured pair slowdowns), and `Predictive` (consults a prediction
//!   model through a measurement backend — the analytic flow engine in
//!   the inner loop for speed, or the DES for reference).
//! * [`predictor`] — the decision-time prediction plumbing: impact
//!   profiles measured lazily through a [`Backend`], so decision latency
//!   is an honest measurement of what a production scheduler would pay.
//! * [`study`] — the experiment driver: streams over a seed set, every
//!   policy on every stream, per-policy regret vs the oracle.
//! * [`report`] — deterministic schedule/summary tables and the
//!   `anp-bench-v5` telemetry records.
//!
//! [`Study`]: anp_core::Study
//! [`Backend`]: anp_core::Backend
//! [`PlacementPolicy`]: policy::PlacementPolicy

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod cluster;
pub mod policy;
pub mod predictor;
pub mod report;
pub mod study;
pub mod truth;

use anp_core::{ExperimentError, PredictionError};
use anp_workloads::AppKind;

pub use cluster::{simulate, JobRow, ScheduleOutcome, SLOTS_PER_SWITCH};
pub use policy::{
    DecisionStats, FirstFit, Oracle, PlacementPolicy, Predictive, Probed, Random, SoloOnly,
    SwitchSnapshot,
};
pub use predictor::Predictor;
pub use report::{oracle_mean, records, render_schedule, render_summary, SchedRecord};
pub use study::{
    default_specs, gated_ladder, run_suite, stream_for, DecisionEngine, PolicyOutcome, PolicySpec,
    StudyOpts,
};
pub use truth::GroundTruth;

/// Why a scheduling step could not proceed.
#[derive(Debug)]
pub enum SchedError {
    /// A prediction (or measured pair value) was unavailable.
    Prediction(PredictionError),
    /// A decision-time measurement through the backend failed.
    Experiment(ExperimentError),
    /// The ground truth has no solo baseline for an application.
    MissingSolo {
        /// The application without a baseline.
        app: AppKind,
    },
    /// A policy chose a switch that does not exist or has no free slot.
    InvalidChoice {
        /// The offending policy.
        policy: String,
        /// The chosen switch index.
        switch: usize,
    },
    /// The simulation wedged: jobs were queued, nothing was running, and
    /// the policy still refused to place — a policy bug by definition,
    /// since an all-empty cluster must accept any job.
    Stalled {
        /// Jobs stranded in the wait queue.
        queued: usize,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::Prediction(e) => write!(f, "prediction unavailable: {e}"),
            SchedError::Experiment(e) => write!(f, "decision-time measurement failed: {e}"),
            SchedError::MissingSolo { app } => {
                write!(f, "no solo baseline for {} in the ground truth", app.name())
            }
            SchedError::InvalidChoice { policy, switch } => {
                write!(
                    f,
                    "policy {policy} chose switch {switch} without a free slot"
                )
            }
            SchedError::Stalled { queued } => write!(
                f,
                "scheduler stalled with {queued} queued job(s) and an idle cluster"
            ),
        }
    }
}

impl std::error::Error for SchedError {}

impl From<PredictionError> for SchedError {
    fn from(e: PredictionError) -> Self {
        SchedError::Prediction(e)
    }
}

impl From<ExperimentError> for SchedError {
    fn from(e: ExperimentError) -> Self {
        SchedError::Experiment(e)
    }
}
