//! Golden digests: results pinned *across commits*, not only across
//! worker counts within one.
//!
//! Each digest is FNV-1a ([`fnv1a`]) over the exact bit patterns of a
//! result. A refactor or optimisation that claims to leave results
//! unchanged must leave every pinned value here unchanged; a change that
//! moves one on purpose re-pins it and says why in CHANGES.md.
//!
//! Every DES surface runs with [`ExperimentConfig::audit`] set. In a
//! plain `cargo test` the flag is inert; CI also runs
//! `cargo test --release --features audit --test golden`, where the
//! simulator's conservation auditor is live on every pinned DES run (the
//! tiny study, `backend_xval`, the Cab table and impact profile, and the
//! monitor study). That run must reproduce the same
//! committed digests with zero violations: a tripped invariant fails the
//! surface as `ExperimentError::Invariant`.

use anp_bench::xval::run_xval_supervised;
use anp_core::journal::{fnv1a, Journaled};
use anp_core::{
    all_models, calibrate_with, degradation_percent, impact_profile_of_compression, runtime_of,
    Backend, DesBackend, ExperimentConfig, LookupTable, MuPolicy, Parallelism, Study, Supervisor,
};
use anp_flowsim::{describe_members, FlowBackend, TrafficDescriptor};
use anp_monitor::{monitor_records, run_monitor_study, MonitorOpts, MonitorRecord};
use anp_simnet::{SimDuration, SwitchConfig};
use anp_workloads::{AppKind, CompressionConfig, ImpactConfig, RunMode};

/// FNV-1a over the label, the rank count and `f64::to_bits` of every
/// numeric field of `d`.
fn descriptor_digest(d: &TrafficDescriptor) -> u64 {
    let bits: Vec<String> = [
        d.compute_ns,
        d.rounds,
        d.remote_msgs,
        d.remote_bytes,
        d.remote_packets,
        d.cross_leaf_packets,
        d.local_bytes,
        d.max_node_tx_bytes,
        d.max_node_rx_bytes,
        d.peers,
    ]
    .iter()
    .map(|x| format!("{:016x}", x.to_bits()))
    .collect();
    let ranks = d.ranks.to_string();
    let mut parts: Vec<&str> = vec![&d.label, &ranks];
    parts.extend(bits.iter().map(String::as_str));
    fnv1a(&parts)
}

/// The twelve application descriptors the flow backend extracts at the
/// paper's Cab configuration: each app as a victim (salt `app + 1`) and
/// as a co-runner (salt `app + 101`), built exactly as
/// `FlowBackend` builds them.
#[test]
fn flow_traffic_descriptors_match_their_pinned_digests() {
    const PINNED: [(AppKind, u64, u64); 12] = [
        (AppKind::Fftw, 1, 0x33ea6106f9831cc2),
        (AppKind::Fftw, 101, 0x8ae6291f407f930c),
        (AppKind::Lulesh, 2, 0x5f2a89f35d4a7925),
        (AppKind::Lulesh, 102, 0x767ebec03d76e4e3),
        (AppKind::Mcb, 3, 0xa02a3666dc8e1338),
        (AppKind::Mcb, 103, 0x7d0ef591f7751ca0),
        (AppKind::Milc, 4, 0xee3233268b46f0f0),
        (AppKind::Milc, 104, 0x49f56b79354d3955),
        (AppKind::Vpfft, 5, 0xca825d5a29049984),
        (AppKind::Vpfft, 105, 0xe5a68348ee6b0b50),
        (AppKind::Amg, 6, 0x14528aaedf33a3f8),
        (AppKind::Amg, 106, 0x109b4d65fb316578),
    ];
    let cfg = ExperimentConfig::cab();
    let mut got = Vec::new();
    for app in AppKind::ALL {
        for salt in [app as u64 + 1, app as u64 + 101] {
            let members = app.build(RunMode::Iterations(0), cfg.workload_seed(salt));
            let d = describe_members(app.name(), members, &cfg.switch);
            got.push((app, salt, descriptor_digest(&d)));
        }
    }
    assert_eq!(got, PINNED);
}

// ---------------------------------------------------------------------
// Sweep surfaces, computed through the supervised entry points with no
// budget and no journal. Progress lines are part of each digest: they are
// the text every harness prints.

/// The bit pattern of `x` as hex.
fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// FNV-1a over `parts`.
fn digest(parts: &[String]) -> u64 {
    fnv1a(&parts.iter().map(String::as_str).collect::<Vec<_>>())
}

/// The deterministic 18-node fabric of `tests/parallel_equivalence.rs`,
/// audited.
fn tiny_cfg() -> ExperimentConfig {
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
        jobs: Parallelism::fixed(2),
        audit: true,
    }
}

/// The quick CompressionB subset the harnesses use (one configuration
/// per (B, M) group).
fn quick_sweep() -> Vec<CompressionConfig> {
    CompressionConfig::paper_sweep()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % 5 == (i / 5) % 5)
        .map(|(_, c)| c)
        .collect()
}

/// Measures the look-up table, the app profiles and the pairing grid on
/// `backend` and returns one digest for each, in that order.
fn study_digests(
    backend: &dyn Backend,
    cfg: &ExperimentConfig,
    apps: &[AppKind],
    configs: &[CompressionConfig],
) -> [u64; 3] {
    let sup = Supervisor::none();
    let calib = calibrate_with(backend, cfg, MuPolicy::MinLatency).unwrap();

    let mut lines = Vec::new();
    let (lut, _) =
        LookupTable::measure_supervised_with(backend, cfg, calib, apps, configs, &sup, None, |l| {
            lines.push(l.to_owned())
        })
        .unwrap();
    assert!(lut.is_complete());
    let table = lut.table.unwrap();
    for (app, t) in &table.solo {
        lines.push(format!("{}={}", app.name(), t.as_nanos()));
    }
    for e in &table.entries {
        lines.push(e.config.label());
        lines.push(e.profile.encode_journal());
        lines.push(bits(e.utilization));
        for (app, d) in &e.slowdown {
            lines.push(format!("{}={}", app.name(), bits(*d)));
        }
    }
    let lut_digest = digest(&lines);

    let mut lines = Vec::new();
    let (study, failures, _) =
        Study::measure_profiles_supervised_with(backend, cfg, table, apps, &sup, None, |l| {
            lines.push(l.to_owned())
        })
        .unwrap();
    assert!(failures.is_empty());
    for (app, p) in &study.app_profiles {
        lines.push(format!("{}={}", app.name(), p.encode_journal()));
    }
    let profile_digest = digest(&lines);

    let mut lines = Vec::new();
    let mut outcomes = study.predict_all(apps, &all_models());
    let (failures, _) = study
        .measure_pairs_supervised_with(backend, cfg, &mut outcomes, &sup, None, |l| {
            lines.push(l.to_owned())
        })
        .unwrap();
    assert!(failures.is_empty());
    for o in &outcomes {
        lines.push(format!("{}+{}", o.victim.name(), o.other.name()));
        lines.push(bits(o.measured.unwrap()));
        for (model, p) in &o.predicted {
            lines.push(format!("{model}={}", bits(*p)));
        }
    }
    [lut_digest, profile_digest, digest(&lines)]
}

#[test]
fn des_study_on_the_tiny_fabric_matches_its_pinned_digests() {
    let apps = [AppKind::Lulesh, AppKind::Mcb];
    let configs = [
        CompressionConfig::new(1, 25_000_000, 1),
        CompressionConfig::new(17, 25_000, 10),
    ];
    let got = study_digests(&DesBackend, &tiny_cfg(), &apps, &configs);
    assert_eq!(
        got,
        [0x602614b0e0717b85, 0x2234d92c9280215d, 0xfe5897656a066e52],
        "lut, profiles, pairings"
    );
}

#[test]
fn flow_study_on_cab_matches_its_pinned_digests() {
    let apps = [AppKind::Fftw, AppKind::Lulesh, AppKind::Milc];
    let cfg = ExperimentConfig::cab().with_jobs(2);
    let got = study_digests(&FlowBackend, &cfg, &apps, &quick_sweep());
    assert_eq!(
        got,
        [0x5a81e30f1297eeca, 0x81a863bfd8f66a99, 0xe26dd43d4b4a6fbc],
        "lut, profiles, pairings"
    );
}

/// DES at the paper's Cab configuration, where the tiny fabric's pins do
/// not reach: the switch's tail service distribution, deep queues under
/// CompressionB, and compute and probe timers that land microseconds
/// ahead. A reduced quick Table I (each cell built as `solo_runtime` and
/// `runtime_under_corun` build it, at a few iterations) and one impact
/// profile of the heaviest quick CompressionB load on a short window.
#[test]
fn des_on_cab_matches_its_pinned_digests() {
    const GRID: [(AppKind, u32); 3] = [
        (AppKind::Fftw, 3),
        (AppKind::Lulesh, 4),
        (AppKind::Milc, 25),
    ];
    let cfg = ExperimentConfig::cab().with_audit(true);
    let cell = |victim: AppKind, iterations: u32, other: Option<AppKind>| {
        let members = victim.build(
            RunMode::Iterations(iterations),
            cfg.workload_seed(victim as u64 + 1),
        );
        let noise = other.map(|o| o.build(RunMode::Endless, cfg.workload_seed(o as u64 + 101)));
        runtime_of(&cfg, victim.name(), members, noise).unwrap()
    };
    let mut lines = Vec::new();
    for (victim, iterations) in GRID {
        let solo = cell(victim, iterations, None);
        lines.push(format!("{}={}", victim.name(), solo.as_nanos()));
        for (other, _) in GRID {
            let loaded = cell(victim, iterations, Some(other));
            lines.push(format!(
                "{}+{}={}",
                victim.name(),
                other.name(),
                loaded.as_nanos()
            ));
            lines.push(bits(degradation_percent(solo, loaded)));
        }
    }

    let mut impact_cfg = ExperimentConfig::cab().with_audit(true);
    impact_cfg.measure_window = SimDuration::from_millis(10);
    let profile =
        impact_profile_of_compression(&impact_cfg, &CompressionConfig::new(17, 25_000, 10))
            .unwrap();
    assert_eq!(
        [digest(&lines), digest(&[profile.encode_journal()])],
        [0x0b803b76068b9d3c, 0x35c760ffeca17c63],
        "table, impact profile"
    );
}

#[test]
fn reduced_monitor_study_matches_its_pinned_digests() {
    let mut opts = MonitorOpts::quick(7, 2);
    opts.cfg.audit = true;
    opts.ladder.truncate(1);
    opts.detect_apps = vec![AppKind::Fftw];
    opts.apps = vec![AppKind::Fftw];
    let mut progress = Vec::new();
    let report = run_monitor_study(&opts, &Supervisor::none(), None, |l| {
        progress.push(l.to_owned())
    })
    .unwrap();

    let mut rows = Vec::new();
    for r in &report.utilization {
        rows.push(r.rung.clone());
        rows.push(bits(r.true_util));
        rows.push(bits(r.est_util));
        rows.push(r.windows.to_string());
    }
    for r in &report.detection {
        rows.push(format!(
            "{} {:?} {:?} {} {}",
            r.app.name(),
            r.arrival_lag,
            r.departure_lag,
            r.departed,
            r.windows
        ));
    }
    for r in &report.overhead {
        rows.push(format!(
            "{} {} {}",
            r.app.name(),
            r.solo.as_nanos(),
            r.monitored.as_nanos()
        ));
    }
    let records: Vec<String> = monitor_records(&report)
        .iter()
        .map(MonitorRecord::to_json)
        .collect();
    assert_eq!(
        [digest(&rows), digest(&records), digest(&progress)],
        [0xb640896afb3ca03d, 0xb7b8b06317e7c24e, 0xab0488f2725966d2],
        "rows, window records, progress"
    );
}

#[test]
fn backend_xval_on_the_tiny_fabric_matches_its_pinned_digest() {
    let cfg = tiny_cfg();
    let xval = run_xval_supervised(
        &cfg,
        &[AppKind::Lulesh],
        &[CompressionConfig::new(7, 2_500_000, 10)],
        &DesBackend,
        &FlowBackend,
        &Supervisor::none(),
        None,
    )
    .unwrap();
    assert!(xval.ledger.is_complete());
    let r = &xval.report;
    let lines: Vec<String> = [&r.probe_means, &r.utilizations, &r.slowdown_ratios]
        .into_iter()
        .flatten()
        .map(|c| format!("{} {} {}", c.label, bits(c.des), bits(c.flow)))
        .collect();
    assert_eq!(digest(&lines), 0xc132c664f85309a9);
}
