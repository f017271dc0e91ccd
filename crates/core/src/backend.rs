//! The measurement backend abstraction: one trait, many engines.
//!
//! Every observable the methodology consumes — impact profiles, solo and
//! loaded runtimes — can be produced by more than one engine. The packet
//! level discrete-event simulator (`anp-simnet`/`anp-simmpi`) is the
//! ground truth; an analytic flow-level model (`anp-flowsim`) trades
//! per-packet fidelity for orders-of-magnitude speed. [`Backend`] is the
//! object-safe seam between the two: experiment drivers, the look-up
//! table, and the prediction study all accept `&dyn Backend` and neither
//! know nor care which engine is underneath.
//!
//! [`DesBackend`] wraps today's DES path by delegating *verbatim* to the
//! free functions in [`crate::experiments`]; routing an experiment through
//! the trait therefore produces byte-identical results to calling those
//! functions directly (pinned by the `backend_dispatch` integration
//! test).
//!
//! Backends advertise **capability flags**
//! ([`Backend::supports_timed_series`]). Callers that need an unsupported
//! capability must fail loudly with a typed error — never fall back
//! silently to another engine (the CLI turns these into a stderr line and
//! exit code 1).

use anp_simnet::SimDuration;
use anp_workloads::{AppKind, CompressionConfig};

use crate::experiments::{
    idle_profile, impact_profile_of_app, impact_profile_of_compression, runtime_under_compression,
    runtime_under_corun, solo_runtime, ExperimentConfig, ExperimentError,
};
use crate::queue::{Calibration, MuPolicy};
use crate::samples::LatencyProfile;

/// What runs next to the probes during an impact measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadSpec<'a> {
    /// Nothing — the idle-switch calibration measurement.
    Idle,
    /// One application proxy running endlessly.
    App(AppKind),
    /// One CompressionB interference configuration running endlessly.
    Compression(&'a CompressionConfig),
}

impl std::fmt::Display for WorkloadSpec<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadSpec::Idle => write!(f, "idle"),
            WorkloadSpec::App(a) => write!(f, "app:{}", a.name()),
            WorkloadSpec::Compression(c) => write!(f, "compression:{}", c.label()),
        }
    }
}

/// A backend could not be resolved.
///
/// A *configuration* error, detected before any simulation runs.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendError {
    /// The requested backend name does not exist.
    UnknownBackend(String),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::UnknownBackend(name) => {
                write!(f, "unknown backend '{name}' (expected 'des' or 'flow')")
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// An engine that produces the methodology's observables.
///
/// Object-safe by design: drivers hold `&dyn Backend` so a CLI flag can
/// swap engines at run time. All methods take the same
/// [`ExperimentConfig`] the DES path uses.
pub trait Backend: Send + Sync {
    /// Short identifier recorded in sweep telemetry (`"des"`, `"flow"`).
    fn name(&self) -> &'static str;

    /// Whether the backend simulates an unreliable fabric. None does: like
    /// Cab's, the simulated fabric never drops a packet. Kept so that
    /// existing implementors still compile.
    fn supports_faults(&self) -> bool {
        false
    }

    /// Whether the backend produces genuinely time-resolved probe series
    /// (as opposed to a steady-state distribution stretched over the
    /// window). The phase-aware model needs this.
    fn supports_timed_series(&self) -> bool;

    /// Checks that `cfg` only uses options this backend supports. Every
    /// backend supports every [`ExperimentConfig`], so the default accepts
    /// it; kept so that existing implementors still compile.
    fn validate(&self, _cfg: &ExperimentConfig) -> Result<(), BackendError> {
        Ok(())
    }

    /// Probe-latency profile while `workload` runs (the paper's impact
    /// experiment; `WorkloadSpec::Idle` yields the calibration profile).
    fn measure_impact_profile(
        &self,
        cfg: &ExperimentConfig,
        workload: WorkloadSpec<'_>,
    ) -> Result<LatencyProfile, ExperimentError>;

    /// Completion time of `app` while `comp` loads the switch (the §III-B
    /// compression experiment).
    fn measure_compression_run(
        &self,
        cfg: &ExperimentConfig,
        app: AppKind,
        comp: &CompressionConfig,
    ) -> Result<SimDuration, ExperimentError>;

    /// Solo completion time of `app` at its default iteration count.
    fn measure_solo_runtime(
        &self,
        cfg: &ExperimentConfig,
        app: AppKind,
    ) -> Result<SimDuration, ExperimentError>;

    /// Completion time of `victim` next to an endless copy of `other`
    /// (the §V pairing experiment).
    fn measure_corun_runtime(
        &self,
        cfg: &ExperimentConfig,
        victim: AppKind,
        other: AppKind,
    ) -> Result<SimDuration, ExperimentError>;
}

/// Calibrates the queue model from the backend's idle profile.
pub fn calibrate_with(
    backend: &dyn Backend,
    cfg: &ExperimentConfig,
    policy: MuPolicy,
) -> Result<Calibration, ExperimentError> {
    let idle = backend.measure_impact_profile(cfg, WorkloadSpec::Idle)?;
    Ok(Calibration::from_idle_profile(&idle, policy)?)
}

/// The packet-level discrete-event backend: today's (and the reference)
/// path. Every method delegates verbatim to the corresponding free
/// function in [`crate::experiments`], so dispatching through the trait
/// is byte-identical to the pre-trait code path.
#[derive(Debug, Clone, Copy, Default)]
pub struct DesBackend;

impl Backend for DesBackend {
    fn name(&self) -> &'static str {
        "des"
    }

    fn supports_timed_series(&self) -> bool {
        true
    }

    fn measure_impact_profile(
        &self,
        cfg: &ExperimentConfig,
        workload: WorkloadSpec<'_>,
    ) -> Result<LatencyProfile, ExperimentError> {
        match workload {
            WorkloadSpec::Idle => idle_profile(cfg),
            WorkloadSpec::App(app) => impact_profile_of_app(cfg, app),
            WorkloadSpec::Compression(comp) => impact_profile_of_compression(cfg, comp),
        }
    }

    fn measure_compression_run(
        &self,
        cfg: &ExperimentConfig,
        app: AppKind,
        comp: &CompressionConfig,
    ) -> Result<SimDuration, ExperimentError> {
        runtime_under_compression(cfg, app, comp)
    }

    fn measure_solo_runtime(
        &self,
        cfg: &ExperimentConfig,
        app: AppKind,
    ) -> Result<SimDuration, ExperimentError> {
        solo_runtime(cfg, app)
    }

    fn measure_corun_runtime(
        &self,
        cfg: &ExperimentConfig,
        victim: AppKind,
        other: AppKind,
    ) -> Result<SimDuration, ExperimentError> {
        runtime_under_corun(cfg, victim, other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn des_backend_advertises_full_capabilities() {
        let b = DesBackend;
        assert_eq!(b.name(), "des");
        assert!(b.supports_timed_series());
        // The defaults kept for existing implementors.
        assert!(!b.supports_faults());
        assert_eq!(b.validate(&ExperimentConfig::cab()), Ok(()));
    }

    #[test]
    fn workload_spec_displays_label() {
        assert_eq!(WorkloadSpec::Idle.to_string(), "idle");
        assert_eq!(WorkloadSpec::App(AppKind::Fftw).to_string(), "app:FFTW");
        let c = CompressionConfig::new(7, 25_000, 10);
        assert_eq!(
            WorkloadSpec::Compression(&c).to_string(),
            format!("compression:{}", c.label())
        );
    }
}
