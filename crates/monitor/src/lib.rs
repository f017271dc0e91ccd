//! # anp-monitor — online switch-utilization estimation from live probes
//!
//! The paper's methodology is *active measurement*: probe latencies on a
//! shared switch reveal how much capability running applications consume.
//! Everything else in this workspace applies that idea offline — a
//! dedicated campaign measures, a table stores, a scheduler consults.
//! This crate closes the online loop:
//!
//! * [`probetrain`](anp_workloads::probetrain) (in `anp-workloads`)
//!   emits seeded, jittered ImpactB probe trains that co-run with real
//!   workloads inside the DES;
//! * [`LiveEstimator`] streams the probe latencies through EWMA moments,
//!   sliding-window quantiles, and the P-K inversion into a live
//!   switch-utilization estimate, window by window;
//! * a CUSUM change-point detector ([`anp_metrics::Cusum`]) flags
//!   interference regime shifts when jobs arrive or depart;
//! * [`live_slowdowns`] maps the probed latency distribution back
//!   through the paper's four models to a live per-job slowdown
//!   estimate — what the `probed:*` placement policy in `anp-sched`
//!   decides from;
//! * [`run_monitor_study`] gates the whole pipeline against DES ground
//!   truth: estimation error on the gated ladder, detection latency in
//!   probe windows, and the probe train's overhead on real jobs.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod scenario;
pub mod slowdown;
pub mod stream;
pub mod study;

pub use anp_workloads::CompressionConfig;
pub use scenario::{
    delayed_members, probed_profile_of_app, run_change_scenario, train_config, train_seed,
    train_series, ChangeOutcome, ChangeScenario,
};
pub use slowdown::{live_slowdowns, LiveSlowdown};
pub use stream::{LiveEstimator, MonitorConfig, WindowEstimate};
pub use study::{
    gate_violations, monitor_records, render_report, run_monitor_study, DetectionRow, MonitorError,
    MonitorOpts, MonitorRecord, MonitorReport, OverheadRow, UtilizationRow,
};

/// The shared four-rung utilization ladder (canonically
/// [`CompressionConfig::gated_ladder`]).
pub fn gated_ladder() -> Vec<CompressionConfig> {
    CompressionConfig::gated_ladder()
}
