//! The cross-validation acceptance gates as a test: on the Cab-like
//! preset's gated ladder, the flow backend must stay inside its
//! documented error envelope (probe means within 10%, runtime ratios
//! within 15%) and beat the DES by at least the documented speedup
//! floor. This is the same check `backend_xval --quick` runs, pinned
//! here so `cargo test` catches a model regression without the binary.

use anp_bench::xval::{run_xval_supervised, MIN_SPEEDUP, PROBE_TOLERANCE, SLOWDOWN_TOLERANCE};
use anp_core::{DesBackend, ExperimentConfig, Supervisor};
use anp_flowsim::FlowBackend;
use anp_workloads::{AppKind, CompressionConfig};

#[test]
fn flow_backend_stays_inside_its_error_envelope_on_the_cab_ladder() {
    let cfg = ExperimentConfig::cab().with_seed(0xA11CE);
    let comps = [
        CompressionConfig::new(1, 25_000_000, 1),
        CompressionConfig::new(7, 2_500_000, 10),
        CompressionConfig::new(14, 250_000, 1),
        CompressionConfig::new(17, 25_000, 10),
    ];
    let apps = [AppKind::Fftw, AppKind::Milc];
    let xval = run_xval_supervised(
        &cfg,
        &apps,
        &comps,
        &DesBackend,
        &FlowBackend,
        &Supervisor::none(),
        None,
    )
    .unwrap();
    assert!(xval.ledger.is_complete(), "every grid cell must complete");
    assert_eq!(xval.ledger.completed, xval.ledger.total);
    let report = &xval.report;

    assert!(
        report.max_probe_err() <= PROBE_TOLERANCE,
        "probe-mean error {:.1}% exceeds {:.0}% tolerance",
        report.max_probe_err() * 100.0,
        PROBE_TOLERANCE * 100.0
    );
    assert!(
        report.max_slowdown_err() <= SLOWDOWN_TOLERANCE,
        "runtime-ratio error {:.1}% exceeds {:.0}% tolerance",
        report.max_slowdown_err() * 100.0,
        SLOWDOWN_TOLERANCE * 100.0
    );
    assert!(report.within_tolerance());
    assert!(
        report.speedup() >= MIN_SPEEDUP,
        "flow speedup {:.1}x below the {MIN_SPEEDUP:.0}x floor \
         (des {:.2}s vs flow {:.2}s)",
        report.speedup(),
        report.des_telemetry.wall_secs,
        report.flow_telemetry.wall_secs
    );
}
