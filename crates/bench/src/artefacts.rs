//! The artefact registry: every table and figure `anp run` regenerates.

use crate::cli::{ArtefactError, Report, RunCtx};

/// One artefact `anp run` can regenerate.
pub struct Artefact {
    /// The name `anp run` takes; also the telemetry's `"harness"` field.
    pub name: &'static str,
    /// The banner's first half (e.g. `Fig. 3`).
    pub title: &'static str,
    /// The banner's second half: what the artefact shows.
    pub what: &'static str,
    /// Whether it honours `--backend` other than `des`; the others
    /// reject it.
    pub reads_backend: bool,
    /// Runs it: prints its tables and returns the report.
    pub run: fn(&RunCtx) -> Result<Report, ArtefactError>,
}

/// Declares each artefact's module and its registry entry; the module
/// name is the artefact name.
macro_rules! registry {
    ($($module:ident: $title:literal, $what:literal $(, $reads:ident)?;)*) => {
        $(mod $module;)*

        /// The paper's six artefacts (§IV–V), then the eight extension
        /// studies, in `anp run`'s listing order.
        pub static ARTEFACTS: &[Artefact] = &[$(Artefact {
            name: stringify!($module),
            title: $title,
            what: $what,
            reads_backend: registry!(@reads $($reads)?),
            run: $module::run,
        }),*];
    };
    (@reads) => { false };
    (@reads reads_backend) => { true };
}

registry! {
    fig3_latency_distributions: "Fig. 3", "distributions of packet latencies on Cab";
    fig6_compression_utilization: "Fig. 6", "switch usage of the CompressionB sweep";
    fig7_degradation_curves: "Fig. 7", "performance degradation vs switch utilization";
    table1_pair_slowdowns: "Table I", "measured slowdowns for all combined workloads (%)";
    fig8_prediction_errors: "Fig. 8", "performance predictions for combined workloads",
        reads_backend;
    fig9_error_summary: "Fig. 9", "summary of prediction errors per model",
        reads_backend;
    calibration_report: "Calibration", "substrate sanity report";
    ablation_report: "Ablations", "design-choice sensitivity";
    relativity_check: "Relativity", "degraded switches vs CompressionB emulation";
    phase_model_study: "Phase model", "time-aware utilization vs constant-utilization prediction";
    seed_sensitivity: "Seeds", "across-seed spread of key metrics";
    backend_xval: "Backend x-val", "flow model vs DES ground truth";
    sched_study: "Sched study", "predictive co-scheduling regret vs oracle";
    monitor_study: "Monitor study", "online utilization estimation and interference detection";
}
