//! The monitoring acceptance gates as a test: on the quick study's
//! default seed, every gate of `monitor_study --quick` must hold — the
//! live streaming estimate lands within tolerance of the offline truth
//! on every ladder rung, the CUSUM flags each job arrival and departure
//! within the window budget, and the probe train's overhead on real
//! jobs stays under budget. A second gate pins the closed loop: placing
//! jobs from *probed* latency profiles must realize lower mean stretch
//! than first-fit. Pinned here so `cargo test` catches a pipeline
//! regression without the binary.

use anp_core::{measure_campaign, DesBackend, ModelKind, Supervisor};
use anp_monitor::{gate_violations, monitor_records, run_monitor_study, MonitorOpts};
use anp_sched::{records, run_suite, GroundTruth, PolicySpec, StudyOpts};

#[test]
fn quick_monitor_study_passes_every_gate() {
    let opts = MonitorOpts::quick(0xA11CE, 1);
    let report = run_monitor_study(&opts, &Supervisor::none(), None, |_| {})
        .expect("monitor study must not error");

    let violations = gate_violations(&opts, &report);
    assert!(
        violations.is_empty(),
        "quick monitor gates must all hold:\n{}",
        violations.join("\n")
    );

    assert_eq!(
        report.utilization.len(),
        opts.ladder.len(),
        "one utilization row per ladder rung"
    );
    assert_eq!(
        report.detection.len(),
        opts.detect_apps.len(),
        "one detection row per change-point app"
    );
    assert_eq!(
        report.overhead.len(),
        opts.apps.len(),
        "one overhead row per app"
    );

    // Per-window telemetry must cover every utilization and detection
    // cell, and every record must carry a physical reading.
    let recs = monitor_records(&report);
    assert!(!recs.is_empty(), "v5 monitor records must not be empty");
    for row in &report.utilization {
        assert!(
            recs.iter().any(|r| r.cell == format!("util:{}", row.rung)),
            "missing window records for rung {}",
            row.rung
        );
    }
    for row in &report.detection {
        assert!(
            recs.iter()
                .any(|r| r.cell == format!("detect:{}", row.app.name())),
            "missing window records for app {}",
            row.app.name()
        );
    }
    for r in &recs {
        assert!(r.smooth_mean_us.is_finite() && r.smooth_mean_us > 0.0);
        assert!(r.utilization.is_finite() && (0.0..=1.0).contains(&r.utilization));
    }
}

#[test]
fn probed_placement_beats_first_fit_on_mean_stretch() {
    let mut opts = StudyOpts::quick(0xA11CE, 1);
    opts.cfg.jobs = anp_core::Parallelism::Auto;

    let campaign = measure_campaign(
        &DesBackend,
        &opts.cfg,
        &opts.apps,
        &opts.ladder,
        true,
        &Supervisor::none(),
        None,
        |_, _| {},
    )
    .expect("truth measurement must not error");
    assert!(campaign.ledger.is_complete(), "quick truth must complete");
    let study = campaign.study.expect("complete campaign");
    let truth = &GroundTruth::new(study, &campaign.outcomes);

    let specs = [
        PolicySpec::FirstFit,
        PolicySpec::Probed(ModelKind::Queue),
        PolicySpec::Oracle,
    ];
    let outcomes = run_suite(&opts, truth, &specs, |_| {}).unwrap();
    let recs = records(&outcomes);
    let by = |label: &str| {
        recs.iter()
            .find(|r| r.policy == label)
            .unwrap_or_else(|| panic!("no record for {label}"))
    };

    let probed = by("probed:Queue");
    assert!(probed.decisions > 0, "probed policy must decide");
    assert!(
        probed.mean_slowdown_pct < by("first-fit").mean_slowdown_pct,
        "probed Queue placement ({:.2}%) must beat first-fit ({:.2}%)",
        probed.mean_slowdown_pct,
        by("first-fit").mean_slowdown_pct
    );
    assert!(
        probed.regret_pct.is_finite(),
        "probed regret must be finite"
    );
}
