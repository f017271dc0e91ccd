//! # anp-core — the paper's measurement-and-prediction methodology
//!
//! Implementation of *Active Measurement of the Impact of Network Switch
//! Utilization on Application Performance* (Casas & Bronevetsky, IPDPS
//! 2014) over the simulated substrates in `anp-simnet` / `anp-simmpi` /
//! `anp-workloads`:
//!
//! * [`samples`] — latency profiles (mean, σ, binned PDF) of impact
//!   measurements;
//! * [`queue`] — the M/G/1 switch metric: idle-switch calibration and the
//!   Pollaczek–Khinchine inversion from mean probe latency to switch
//!   utilization (§IV-B);
//! * [`experiments`] — impact, compression, calibration, and co-run
//!   experiment drivers (§III, §V);
//! * [`lut`] — the per-CompressionB-configuration look-up table (§IV-A,
//!   §IV-C);
//! * [`models`] — the four predictors: AverageLT, AverageStDevLT, PDFLT,
//!   and the queue model (§IV);
//! * [`prediction`] — the pairing study: predict all N² co-run slowdowns
//!   from N isolated measurements and score them against ground truth
//!   (§V);
//! * [`sweep`] — what every sweep shares: worker counts, per-cell event
//!   attribution, and per-run wall/event telemetry records;
//! * [`supervise`] — the sweep engine: fans independent experiment cells
//!   across worker threads with index-ordered (byte-identical)
//!   collection, inside a supervision envelope — panic isolation,
//!   per-cell event/wall budgets, deterministic retries, and typed holes
//!   for the cells that still fail;
//! * [`journal`] — crash-safe append-only run journals (JSONL, fsync'd
//!   per cell) with bit-exact value encoding and fingerprint-verified
//!   `--resume`;
//! * [`backend`] — the object-safe [`Backend`] seam between measurement
//!   engines: [`DesBackend`] (the packet-level simulator, ground truth)
//!   and the analytic flow-level model in the `anp-flowsim` crate;
//!
//! ## The methodology in one paragraph
//!
//! Probe the switch with tiny ping-pongs while a workload runs
//! ([`experiments::impact_profile_of_app`]); the latency distribution of
//! the probes is the workload's *footprint*. Separately, run each
//! application against a sweep of CompressionB interference configurations
//! ([`lut::LookupTable::measure_supervised_with`]) to learn how it degrades
//! as switch capability shrinks. To predict A's slowdown next to B, summarize B's
//! footprint (mean / interval / PDF / P-K utilization), find the
//! CompressionB configuration with the matching footprint, and read off
//! A's measured degradation under that configuration
//! ([`prediction::Study::predict_pair`]).

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod backend;
pub mod experiments;
pub mod journal;
pub mod lut;
pub mod models;
pub mod prediction;
pub mod queue;
pub mod samples;
pub mod series;
pub mod supervise;
pub mod sweep;

pub use anp_simnet::{AuditReport, AuditViolation, InvariantKind};
pub use backend::{calibrate_with, Backend, BackendError, DesBackend, WorkloadSpec};
pub use experiments::{
    calibrate, degradation_percent, idle_profile, impact_profile, impact_profile_of_app,
    impact_profile_of_compression, impact_series, impact_series_of_app, runtime_of,
    runtime_under_compression, runtime_under_corun, solo_runtime, ExperimentConfig,
    ExperimentError, Members,
};
pub use journal::{
    config_fingerprint, json_escape, CellStatus, JournalEntry, JournalError, Journaled, RunJournal,
};
pub use lut::{CompressionEntry, LookupTable, SupervisedTable};
pub use models::{
    all_models, AverageLt, AverageStDevLt, ModelKind, PdfLt, QueueModel, QueuePhaseModel,
    SlowdownModel,
};
pub use prediction::{
    error_summaries, measure_campaign, Campaign, CampaignError, CampaignStage, PairOutcome,
    PredictionError, Study,
};
pub use queue::{Calibration, CalibrationError, MuPolicy};
pub use samples::LatencyProfile;
pub use series::TimedSeries;
pub use supervise::{
    completed_count, partial_exit_code, sweep_supervised, sweep_supervised_for, BudgetReport,
    CellResult, RetryPolicy, RunBudget, Supervision, Supervisor, TaskError,
};
pub use sweep::{Parallelism, RunRecord, SweepTelemetry};
