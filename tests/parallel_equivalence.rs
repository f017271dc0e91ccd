//! Parallel-vs-serial equivalence: the sweep engine's core guarantee.
//!
//! Every sweep collects results by index, and every cell is an
//! independent, self-seeded simulation — so running the look-up table,
//! the app profiles, or the pairing grid on `jobs = 1`
//! versus `jobs ≥ 4` must produce *bit-identical* numbers, not merely
//! statistically similar ones. These tests pin that guarantee with exact
//! `f64::to_bits` / integer comparisons on a small deterministic fabric.

use anp_core::{
    calibrate, sweep_supervised, Calibration, DesBackend, ExperimentConfig, LatencyProfile,
    LookupTable, MuPolicy, Parallelism, Study, Supervisor, SweepTelemetry,
};
use anp_simnet::{SimDuration, SwitchConfig};
use anp_workloads::{AppKind, CompressionConfig, ImpactConfig};

/// A small experiment config on the deterministic tiny switch, sized so
/// the whole grid finishes in seconds.
fn tiny_cfg(jobs: usize) -> ExperimentConfig {
    let mut switch = SwitchConfig::tiny_deterministic();
    switch.nodes = 18;
    switch.route_servers = 18;
    ExperimentConfig {
        switch,
        impact: ImpactConfig {
            period: SimDuration::from_micros(100),
            pairs_per_node: 1,
            ..ImpactConfig::default()
        },
        measure_window: SimDuration::from_millis(5),
        warmup_frac: 0.1,
        run_cap: SimDuration::from_secs(60),
        seed: 7,
        jobs: Parallelism::fixed(jobs),
        audit: false,
    }
}

/// Measures a complete look-up table on the DES with no budget and no
/// journal, as every harness without supervision flags does.
fn measure_table(
    cfg: &ExperimentConfig,
    calib: Calibration,
    apps: &[AppKind],
    configs: &[CompressionConfig],
    progress: impl FnMut(&str),
) -> (LookupTable, SweepTelemetry) {
    let (lut, t) = LookupTable::measure_supervised_with(
        &DesBackend,
        cfg,
        calib,
        apps,
        configs,
        &Supervisor::none(),
        None,
        progress,
    )
    .unwrap();
    assert!(lut.is_complete(), "every table cell must complete");
    (lut.table.unwrap(), t)
}

fn assert_profiles_identical(a: &LatencyProfile, b: &LatencyProfile, what: &str) {
    assert_eq!(a.count(), b.count(), "{what}: sample counts differ");
    assert_eq!(
        a.mean().to_bits(),
        b.mean().to_bits(),
        "{what}: means differ"
    );
    assert_eq!(
        a.std_dev().to_bits(),
        b.std_dev().to_bits(),
        "{what}: std devs differ"
    );
    assert_eq!(a.min().to_bits(), b.min().to_bits(), "{what}: mins differ");
    assert_eq!(a.max().to_bits(), b.max().to_bits(), "{what}: maxes differ");
}

#[test]
fn lookup_table_is_bit_identical_across_worker_counts() {
    let apps = [AppKind::Fftw, AppKind::Lulesh];
    let configs = [
        CompressionConfig::new(1, 25_000_000, 1),
        CompressionConfig::new(7, 2_500_000, 10),
        CompressionConfig::new(17, 25_000, 10),
    ];

    let serial_cfg = tiny_cfg(1);
    let parallel_cfg = tiny_cfg(4);
    let calib_serial = calibrate(&serial_cfg, MuPolicy::MinLatency).unwrap();
    let calib_parallel = calibrate(&parallel_cfg, MuPolicy::MinLatency).unwrap();
    assert_eq!(
        calib_serial.mu.to_bits(),
        calib_parallel.mu.to_bits(),
        "calibration must not depend on jobs"
    );

    let mut serial_lines = Vec::new();
    let (serial, _) = measure_table(&serial_cfg, calib_serial, &apps, &configs, |l| {
        serial_lines.push(l.to_owned())
    });
    let mut parallel_lines = Vec::new();
    let (parallel, _) = measure_table(&parallel_cfg, calib_parallel, &apps, &configs, |l| {
        parallel_lines.push(l.to_owned())
    });

    // Even the progress lines must match, text and order.
    assert_eq!(serial_lines, parallel_lines);

    assert_eq!(serial.entries.len(), parallel.entries.len());
    for (s, p) in serial.entries.iter().zip(&parallel.entries) {
        assert_eq!(s.config, p.config);
        assert_eq!(
            s.utilization.to_bits(),
            p.utilization.to_bits(),
            "utilization of {} differs",
            s.config.label()
        );
        assert_profiles_identical(&s.profile, &p.profile, &s.config.label());
        assert_eq!(s.slowdown.len(), p.slowdown.len());
        for (app, d) in &s.slowdown {
            assert_eq!(
                d.to_bits(),
                p.slowdown[app].to_bits(),
                "slowdown of {} under {} differs",
                app.name(),
                s.config.label()
            );
        }
    }
    assert_eq!(serial.solo, parallel.solo, "solo runtimes differ");
}

#[test]
fn app_profiles_and_pairings_are_bit_identical() {
    let apps = [AppKind::Lulesh, AppKind::Mcb];
    let configs = [CompressionConfig::new(7, 2_500_000, 10)];

    let run = |jobs: usize| {
        let cfg = tiny_cfg(jobs);
        let calib = calibrate(&cfg, MuPolicy::MinLatency).unwrap();
        let sup = Supervisor::none();
        let (table, _) = measure_table(&cfg, calib, &apps, &configs, |_| {});
        let (study, failures, _) = Study::measure_profiles_supervised_with(
            &DesBackend,
            &cfg,
            table,
            &apps,
            &sup,
            None,
            |_| {},
        )
        .unwrap();
        assert!(failures.is_empty());
        let mut outcomes = study.predict_all(&apps, &anp_core::all_models());
        let (failures, _) = study
            .measure_pairs_supervised_with(&DesBackend, &cfg, &mut outcomes, &sup, None, |_| {})
            .unwrap();
        assert!(failures.is_empty());
        (study, outcomes)
    };
    let (study_serial, outcomes_serial) = run(1);
    let (study_parallel, outcomes_parallel) = run(4);

    for app in apps {
        assert_profiles_identical(
            &study_serial.app_profiles[&app],
            &study_parallel.app_profiles[&app],
            app.name(),
        );
    }
    assert_eq!(outcomes_serial.len(), outcomes_parallel.len());
    for (s, p) in outcomes_serial.iter().zip(&outcomes_parallel) {
        assert_eq!((s.victim, s.other), (p.victim, p.other));
        assert_eq!(
            s.measured.unwrap().to_bits(),
            p.measured.unwrap().to_bits(),
            "measured slowdown of {}+{} differs",
            s.victim.name(),
            s.other.name()
        );
        assert_eq!(s.predicted, p.predicted);
    }
}

#[test]
fn telemetry_reflects_the_grid_shape() {
    let cfg = tiny_cfg(4);
    let calib = calibrate(&cfg, MuPolicy::MinLatency).unwrap();
    let apps = [AppKind::Lulesh];
    let configs = [
        CompressionConfig::new(1, 25_000_000, 1),
        CompressionConfig::new(17, 25_000, 10),
    ];
    let (_, t) = measure_table(&cfg, calib, &apps, &configs, |_| {});
    // apps + configs + apps×configs cells.
    assert_eq!(t.runs.len(), 1 + 2 + 2);
    assert_eq!(t.name, "lookup-table");
    assert!(t.workers >= 1);
    assert!(
        t.events_total() > 0,
        "experiment drivers must report simulation events"
    );
    assert!(t.runs.iter().all(|r| r.events > 0));
    assert!(t.runs[0].label.starts_with("solo:"));
    assert!(t.to_json().contains("\"lookup-table\""));
}

#[test]
fn explicit_sweep_of_experiment_closures_keeps_order() {
    // The engine itself, exercised the way harnesses use it:
    // heterogeneous per-cell wall times, results must still land by index.
    let cfg = tiny_cfg(8);
    let apps = [AppKind::Lulesh, AppKind::Mcb, AppKind::Fftw];
    let tasks: Vec<(String, _)> = apps
        .iter()
        .map(|&app| {
            let cfg = &cfg;
            (format!("solo:{}", app.name()), move || {
                anp_core::solo_runtime(cfg, app)
            })
        })
        .collect();
    let (parallel, _) = sweep_supervised(
        "solos",
        Parallelism::fixed(8),
        &Supervisor::none(),
        None,
        0,
        tasks,
    )
    .unwrap();
    for (i, &app) in apps.iter().enumerate() {
        let serial = anp_core::solo_runtime(&tiny_cfg(1), app).unwrap();
        assert_eq!(
            *parallel[i].as_ref().unwrap(),
            serial,
            "{} solo runtime differs",
            app.name()
        );
    }
}
