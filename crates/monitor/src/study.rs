//! The monitor study: accuracy, detection latency, and overhead of the
//! online pipeline, measured against DES ground truth.
//!
//! Three cell families, all fanned out through the index-ordered sweep
//! engine (so `--jobs N` is byte-identical to serial) under the caller's
//! supervisor and optional resume journal:
//!
//! * **utilization** — per ladder rung, the live streaming estimate vs.
//!   the offline full-window inversion of the *same* simulated load;
//! * **detection** — per application, an arrive-and-depart episode and
//!   the CUSUM's lag (in probe windows) behind each ground-truth edge;
//! * **overhead** — per application, solo runtime vs. runtime with the
//!   probe train co-resident: the monitoring tax on real work.

use anp_core::journal::fnv1a;
use anp_core::{
    calibrate, config_fingerprint, degradation_percent, impact_series, runtime_of, solo_runtime,
    sweep_supervised, Calibration, CellResult, ExperimentConfig, ExperimentError, JournalError,
    LatencyProfile, MuPolicy, Parallelism, RunJournal, Supervisor, SweepTelemetry, TaskError,
    TimedSeries,
};
use anp_metrics::Shift;
use anp_simnet::{SimDuration, SimTime, SwitchConfig};
use anp_workloads::{
    build_compressionb, build_probe_train, AppKind, CompressionConfig, ImpactConfig, RunMode,
};

use crate::scenario::{run_change_scenario, train_config, train_series, ChangeScenario};
use crate::stream::{LiveEstimator, MonitorConfig, WindowEstimate};

/// Everything a monitor study needs fixed up front.
#[derive(Debug, Clone)]
pub struct MonitorOpts {
    /// Fabric and probe parameters (shared with the offline methodology).
    pub cfg: ExperimentConfig,
    /// Streaming-pipeline tuning.
    pub monitor: MonitorConfig,
    /// Applications for the overhead family (the probe-train tax is
    /// measured on every proxy).
    pub apps: Vec<AppKind>,
    /// Applications for the change-point family. Only communication-steady
    /// proxies belong here: a job that ends on a compute phase (Lulesh) or
    /// barely touches the switch (MCB) has job edges that are *invisible*
    /// at the switch, so gating on them would measure the workload's duty
    /// cycle, not the detector.
    pub detect_apps: Vec<AppKind>,
    /// CompressionB rungs for the utilization family.
    pub ladder: Vec<CompressionConfig>,
    /// Gate: max |estimated − true| utilization per rung.
    pub util_tolerance: f64,
    /// Gate: max probe windows between a ground-truth edge and its flag.
    pub detect_budget_windows: u64,
    /// Gate: max probe-train overhead on a co-running job (%).
    pub overhead_budget_pct: f64,
    /// Arrival offset of the detection episodes.
    pub episode_arrival: SimDuration,
    /// Total horizon of the detection episodes.
    pub episode_horizon: SimDuration,
}

impl MonitorOpts {
    /// CI-sized study on the small deterministic fabric (probe layout
    /// widened to 18 nodes so every proxy builds). Finishes in seconds.
    pub fn quick(seed: u64, jobs: usize) -> Self {
        let mut switch = SwitchConfig::tiny_deterministic();
        switch.nodes = 18;
        switch.route_servers = 18;
        let cfg = ExperimentConfig {
            switch,
            impact: ImpactConfig {
                period: SimDuration::from_micros(100),
                pairs_per_node: 1,
                ..ImpactConfig::default()
            },
            measure_window: SimDuration::from_millis(5),
            warmup_frac: 0.1,
            run_cap: SimDuration::from_secs(60),
            seed,
            jobs: Parallelism::fixed(jobs),
            audit: false,
        }
        .with_seed(seed);
        MonitorOpts {
            cfg,
            monitor: MonitorConfig {
                window: SimDuration::from_micros(250),
                min_window_samples: 2,
                ..MonitorConfig::default()
            },
            apps: vec![AppKind::Fftw, AppKind::Lulesh, AppKind::Mcb, AppKind::Milc],
            detect_apps: vec![AppKind::Fftw, AppKind::Milc],
            ladder: CompressionConfig::gated_ladder(),
            util_tolerance: 0.05,
            detect_budget_windows: 6,
            overhead_budget_pct: 5.0,
            episode_arrival: SimDuration::from_millis(2),
            episode_horizon: SimDuration::from_millis(12),
        }
    }

    /// Paper-sized study on the Cab fabric with all six applications.
    pub fn full(seed: u64, jobs: usize) -> Self {
        let cfg = ExperimentConfig::cab().with_seed(seed).with_jobs(jobs);
        MonitorOpts {
            monitor: MonitorConfig::default(),
            apps: AppKind::ALL.to_vec(),
            detect_apps: vec![AppKind::Fftw, AppKind::Milc],
            ladder: CompressionConfig::gated_ladder(),
            util_tolerance: 0.15,
            detect_budget_windows: 12,
            overhead_budget_pct: 5.0,
            episode_arrival: SimDuration::from_millis(20),
            episode_horizon: SimDuration::from_millis(120),
            cfg,
        }
    }
}

/// One utilization-accuracy cell: live streaming estimate vs. the
/// offline inversion on one ladder rung.
#[derive(Debug, Clone)]
pub struct UtilizationRow {
    /// The rung's CompressionB label.
    pub rung: String,
    /// Offline ground truth: full-window profile through P-K inversion.
    pub true_util: f64,
    /// The live estimator's final reading on the jittered probe stream.
    pub est_util: f64,
    /// Probe windows the estimator closed while converging.
    pub windows: usize,
}

impl UtilizationRow {
    /// |estimated − true| utilization.
    pub fn abs_error(&self) -> f64 {
        (self.est_util - self.true_util).abs()
    }
}

/// One change-point cell: detection lags (in probe windows) behind the
/// two ground-truth edges of an arrive-and-depart episode.
#[derive(Debug, Clone)]
pub struct DetectionRow {
    /// The arriving (and departing) application.
    pub app: AppKind,
    /// Windows between the arrival instant and the first Up flag at or
    /// after it (`None`: never flagged).
    pub arrival_lag: Option<u64>,
    /// Windows between the departure instant and the first Down flag at
    /// or after it (`None`: never flagged, or the job outlived the
    /// horizon).
    pub departure_lag: Option<u64>,
    /// Whether the episode's job actually departed inside the horizon.
    pub departed: bool,
    /// Total probe windows in the episode.
    pub windows: u64,
}

/// One overhead cell: what the always-on probe train costs a real job.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// The measured application.
    pub app: AppKind,
    /// Solo runtime, no monitor.
    pub solo: SimDuration,
    /// Runtime with the probe train co-resident.
    pub monitored: SimDuration,
}

impl OverheadRow {
    /// Probe-train overhead as percent slowdown.
    pub fn overhead_pct(&self) -> f64 {
        degradation_percent(self.solo, self.monitored)
    }
}

/// The assembled study result.
#[derive(Debug, Clone)]
pub struct MonitorReport {
    /// The queue-model calibration behind every utilization estimate.
    pub calib: Calibration,
    /// Utilization accuracy, ladder order.
    pub utilization: Vec<UtilizationRow>,
    /// Detection latency, app order.
    pub detection: Vec<DetectionRow>,
    /// Probe overhead, app order.
    pub overhead: Vec<OverheadRow>,
    /// Every closed estimation window, keyed by cell label
    /// (`util:RUNG` / `detect:APP`) — the raw material of the
    /// `anp-bench-v5` per-window telemetry records.
    pub windows: Vec<(String, Vec<WindowEstimate>)>,
    /// Sweep telemetry across all three families.
    pub telemetry: SweepTelemetry,
}

/// One per-window telemetry record of the `anp-bench-v5` `monitor` array.
#[derive(Debug, Clone)]
pub struct MonitorRecord {
    /// The study cell the window belongs to (`util:RUNG`, `detect:APP`).
    pub cell: String,
    /// Zero-based window index within the cell's probe stream.
    pub window: u64,
    /// Simulated end of the window (µs).
    pub end_us: f64,
    /// Probe samples in the window.
    pub samples: usize,
    /// Raw window mean latency (µs); `null` for under-populated windows.
    pub mean_us: Option<f64>,
    /// EWMA-smoothed mean latency (µs).
    pub smooth_mean_us: f64,
    /// Live utilization estimate at the window's close.
    pub utilization: f64,
    /// CUSUM verdict (`"up"`, `"down"`, or `null`).
    pub shift: Option<&'static str>,
}

impl MonitorRecord {
    /// Serializes the record as a JSON object.
    pub fn to_json(&self) -> String {
        let mean = self.mean_us.map_or("null".to_owned(), |m| format!("{m}"));
        let shift = self.shift.map_or("null".to_owned(), |s| format!("\"{s}\""));
        format!(
            "{{\"cell\":\"{}\",\"window\":{},\"end_us\":{},\"samples\":{},\
             \"mean_us\":{},\"smooth_mean_us\":{},\"utilization\":{},\"shift\":{}}}",
            self.cell,
            self.window,
            self.end_us,
            self.samples,
            mean,
            self.smooth_mean_us,
            self.utilization,
            shift
        )
    }
}

/// Flattens a report's per-window estimates into `anp-bench-v5` records,
/// cell order then window order.
pub fn monitor_records(report: &MonitorReport) -> Vec<MonitorRecord> {
    report
        .windows
        .iter()
        .flat_map(|(cell, windows)| {
            windows.iter().map(move |w| MonitorRecord {
                cell: cell.clone(),
                window: w.index,
                end_us: w.end.as_micros_f64(),
                samples: w.samples,
                mean_us: w.mean_us,
                smooth_mean_us: w.smooth_mean_us,
                utilization: w.utilization,
                shift: w.shift.map(|s| match s {
                    Shift::Up => "up",
                    Shift::Down => "down",
                }),
            })
        })
        .collect()
}

/// Feeds a probe series recorded next to one endless workload through
/// the streaming pipeline and returns its reading plus every closed
/// window.
///
/// The accuracy gate compares against an offline *whole-window* truth, so
/// the fair live-side reading is the time average of the per-window means
/// (still a streaming quantity — one running sum), not the EWMA's
/// final instantaneous value, which on bursty rungs reflects whichever
/// phase of the burst cycle the stream happened to end in.
fn live_estimate(
    monitor: &MonitorConfig,
    calib: &Calibration,
    idle_live: &LatencyProfile,
    series: &TimedSeries,
) -> (f64, Vec<WindowEstimate>) {
    let mut est = LiveEstimator::new(monitor.clone(), *calib, idle_live);
    let windows = est.run(series.samples());
    let means: Vec<f64> = windows.iter().filter_map(|w| w.mean_us).collect();
    let util = if means.is_empty() {
        est.utilization()
    } else {
        calib.utilization_from_sojourn(means.iter().sum::<f64>() / means.len() as f64)
    };
    (util, windows)
}

/// Why a monitor study produced no report.
#[derive(Debug)]
pub enum MonitorError {
    /// The calibration or the idle probe-train run failed.
    Experiment(ExperimentError),
    /// The resume journal conflicts with this study.
    Journal(JournalError),
    /// A study cell produced no value; the error names the cell.
    Cell(Box<TaskError>),
}

impl std::fmt::Display for MonitorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MonitorError::Experiment(e) => write!(f, "{e}"),
            MonitorError::Journal(e) => write!(f, "{e}"),
            MonitorError::Cell(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MonitorError {}

impl From<ExperimentError> for MonitorError {
    fn from(e: ExperimentError) -> Self {
        MonitorError::Experiment(e)
    }
}

impl From<JournalError> for MonitorError {
    fn from(e: JournalError) -> Self {
        MonitorError::Journal(e)
    }
}

/// The journal fingerprint of a study: the experiment configuration plus
/// the episode timing, the only study options that change what a cell
/// simulates (ladder rungs and apps are in the cell labels).
fn study_fingerprint(opts: &MonitorOpts) -> u64 {
    fnv1a(&[
        &format!("{:016x}", config_fingerprint(&opts.cfg, "des")),
        &opts.episode_arrival.as_nanos().to_string(),
        &opts.episode_horizon.as_nanos().to_string(),
    ])
}

/// Runs the full study. Every cell runs inside `supervisor`'s envelope
/// and, with a `journal`, is journaled for resume. A cell returns only
/// what it simulated (probe series and runtimes); the deterministic
/// streaming estimator and CUSUM then run over those series after each
/// sweep, in cell order, so a resumed study reports byte-identical rows.
/// A cell that fails after its retries ends the study with
/// [`MonitorError::Cell`] naming the cell.
///
/// `progress` receives one line per completed cell (wall-clock-free, so
/// callers can mirror it to stdout without breaking byte-identity).
pub fn run_monitor_study(
    opts: &MonitorOpts,
    supervisor: &Supervisor,
    journal: Option<&RunJournal>,
    mut progress: impl FnMut(&str),
) -> Result<MonitorReport, MonitorError> {
    let cfg = &opts.cfg;
    let fp = study_fingerprint(opts);
    // Calibration is shared by the offline truth and the live pipeline;
    // the CUSUM references the *train's* own idle footprint so jitter
    // noise is part of its in-control model.
    let calib = calibrate(cfg, MuPolicy::MinLatency)?;
    let idle_live = train_series(cfg, None)?.profile();
    progress(&format!(
        "calibrated: idle {:.3}us (offline) / {:.3}us (train), mu {:.3}",
        calib.idle_mean,
        idle_live.mean(),
        calib.mu
    ));
    // Family 1: utilization accuracy over the ladder. Each cell records
    // the offline truth series and the live train series of one rung.
    let util_tasks: Vec<(String, _)> = opts
        .ladder
        .iter()
        .map(|&comp| {
            let label = format!("monitor:util:{}", comp.label());
            (label, move || -> Result<_, ExperimentError> {
                let noise = build_compressionb(&comp, cfg.switch.nodes, 2, cfg.switch.cpu_hz);
                let truth = impact_series(cfg, Some(noise))?;
                let noise = build_compressionb(&comp, cfg.switch.nodes, 2, cfg.switch.cpu_hz);
                let live = train_series(cfg, Some(noise))?;
                Ok((truth, live))
            })
        })
        .collect();
    let (util_results, mut telemetry) = sweep_supervised(
        "monitor-util",
        cfg.jobs,
        supervisor,
        journal,
        fp,
        util_tasks,
    )?;
    telemetry.name = "monitor-study".to_owned();
    let mut window_log: Vec<(String, Vec<WindowEstimate>)> = Vec::new();
    let mut utilization = Vec::new();
    for (comp, (truth, live)) in opts.ladder.iter().zip(values(util_results)?) {
        let (est_util, windows) = live_estimate(&opts.monitor, &calib, &idle_live, &live);
        let row = UtilizationRow {
            rung: comp.label(),
            true_util: calib.utilization(&truth.profile()),
            est_util,
            windows: windows.len(),
        };
        window_log.push((format!("util:{}", row.rung), windows));
        utilization.push(row);
    }
    for row in &utilization {
        progress(&format!(
            "util {}: true {:.3} est {:.3} (err {:.3}, {} windows)",
            row.rung,
            row.true_util,
            row.est_util,
            row.abs_error(),
            row.windows
        ));
    }

    // Family 2: change-point detection latency. Each cell records one
    // arrive-and-depart episode: its probe series and, if the job left
    // inside the horizon, its departure offset.
    let scenario = |app| ChangeScenario {
        app,
        arrival: opts.episode_arrival,
        iterations: 1,
        horizon: opts.episode_horizon,
    };
    let detect_tasks: Vec<(String, _)> = opts
        .detect_apps
        .iter()
        .map(|&app| {
            let scenario = scenario(app);
            let label = format!("monitor:detect:{}", app.name());
            (label, move || -> Result<_, ExperimentError> {
                let episode = run_change_scenario(cfg, &scenario)?;
                let departure = episode.departure.map(|d| d.since(SimTime::ZERO));
                Ok((episode.series, departure))
            })
        })
        .collect();
    let (detect_results, t) = sweep_supervised(
        "monitor-detect",
        cfg.jobs,
        supervisor,
        journal,
        fp,
        detect_tasks,
    )?;
    telemetry.absorb(t);
    let mut detection = Vec::new();
    for (&app, (series, departure)) in opts.detect_apps.iter().zip(values(detect_results)?) {
        let arrival = SimTime::ZERO + opts.episode_arrival;
        let departure = departure.map(|d| SimTime::ZERO + d);
        let mut est = LiveEstimator::new(opts.monitor.clone(), calib, &idle_live);
        let windows = est.run(series.samples());
        let lag_behind = |edge: SimTime, want: Shift| -> Option<u64> {
            let edge_idx = windows.iter().position(|w| w.end >= edge)?;
            windows[edge_idx..]
                .iter()
                .position(|w| w.shift == Some(want))
                .map(|off| off as u64)
        };
        let row = DetectionRow {
            app,
            arrival_lag: lag_behind(arrival, Shift::Up),
            departure_lag: departure.and_then(|d| lag_behind(d, Shift::Down)),
            departed: departure.is_some(),
            windows: windows.len() as u64,
        };
        window_log.push((format!("detect:{}", app.name()), windows));
        detection.push(row);
    }
    for row in &detection {
        progress(&format!(
            "detect {}: arrival lag {} departure lag {} ({} windows)",
            row.app.name(),
            lag_str(row.arrival_lag),
            lag_str(row.departure_lag),
            row.windows
        ));
    }

    // Family 3: probe overhead on real jobs.
    let overhead_tasks: Vec<(String, _)> = opts
        .apps
        .iter()
        .map(|&app| {
            let label = format!("monitor:overhead:{}", app.name());
            (label, move || -> Result<_, ExperimentError> {
                let solo = solo_runtime(cfg, app)?;
                let members = app.build(RunMode::Iterations(0), cfg.workload_seed(app as u64 + 1));
                let (train, _sink) = build_probe_train(&train_config(cfg), cfg.switch.nodes);
                let monitored = runtime_of(cfg, app.name(), members, Some(train))?;
                Ok((solo, monitored))
            })
        })
        .collect();
    let (overhead_results, t) = sweep_supervised(
        "monitor-overhead",
        cfg.jobs,
        supervisor,
        journal,
        fp,
        overhead_tasks,
    )?;
    telemetry.absorb(t);
    let overhead: Vec<OverheadRow> = opts
        .apps
        .iter()
        .zip(values(overhead_results)?)
        .map(|(&app, (solo, monitored))| OverheadRow {
            app,
            solo,
            monitored,
        })
        .collect();
    for row in &overhead {
        progress(&format!(
            "overhead {}: solo {} monitored {} ({:+.2}%)",
            row.app.name(),
            row.solo,
            row.monitored,
            row.overhead_pct()
        ));
    }

    Ok(MonitorReport {
        calib,
        utilization,
        detection,
        overhead,
        windows: window_log,
        telemetry,
    })
}

/// The values of a sweep in cell order, or the first hole.
fn values<T>(results: Vec<CellResult<T>>) -> Result<Vec<T>, MonitorError> {
    results
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| MonitorError::Cell(Box::new(e)))
}

fn lag_str(lag: Option<u64>) -> String {
    match lag {
        Some(n) => format!("{n}w"),
        None => "-".to_owned(),
    }
}

/// Renders the three result tables (no wall clock — callers print this
/// to stdout and it stays byte-identical across `--jobs`).
pub fn render_report(opts: &MonitorOpts, report: &MonitorReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "monitor study: {} rungs, {} apps, window {}, tolerance {:.2}\n\n",
        report.utilization.len(),
        opts.apps.len(),
        opts.monitor.window,
        opts.util_tolerance
    ));
    out.push_str(&format!(
        "{:<22} {:>9} {:>9} {:>8} {:>8}\n",
        "rung", "true", "est", "err", "windows"
    ));
    for r in &report.utilization {
        out.push_str(&format!(
            "{:<22} {:>9.3} {:>9.3} {:>8.3} {:>8}\n",
            r.rung,
            r.true_util,
            r.est_util,
            r.abs_error(),
            r.windows
        ));
    }
    out.push_str(&format!(
        "\n{:<8} {:>12} {:>14} {:>9}\n",
        "app", "arrival-lag", "departure-lag", "windows"
    ));
    for r in &report.detection {
        out.push_str(&format!(
            "{:<8} {:>12} {:>14} {:>9}\n",
            r.app.name(),
            lag_str(r.arrival_lag),
            lag_str(r.departure_lag),
            r.windows
        ));
    }
    out.push_str(&format!(
        "\n{:<8} {:>12} {:>12} {:>9}\n",
        "app", "solo", "monitored", "overhead"
    ));
    for r in &report.overhead {
        out.push_str(&format!(
            "{:<8} {:>12} {:>12} {:>8.2}%\n",
            r.app.name(),
            format!("{}", r.solo),
            format!("{}", r.monitored),
            r.overhead_pct()
        ));
    }
    out
}

/// Checks every gate of the study; returns one violation string per
/// failed gate (empty: all green).
pub fn gate_violations(opts: &MonitorOpts, report: &MonitorReport) -> Vec<String> {
    let mut out = Vec::new();
    for r in &report.utilization {
        if r.abs_error() > opts.util_tolerance {
            out.push(format!(
                "util {}: |{:.3} - {:.3}| = {:.3} exceeds tolerance {:.3}",
                r.rung,
                r.est_util,
                r.true_util,
                r.abs_error(),
                opts.util_tolerance
            ));
        }
    }
    for r in &report.detection {
        match r.arrival_lag {
            Some(lag) if lag <= opts.detect_budget_windows => {}
            Some(lag) => out.push(format!(
                "detect {}: arrival lag {lag} windows exceeds budget {}",
                r.app.name(),
                opts.detect_budget_windows
            )),
            None => out.push(format!("detect {}: arrival never flagged", r.app.name())),
        }
        if r.departed {
            match r.departure_lag {
                Some(lag) if lag <= opts.detect_budget_windows => {}
                Some(lag) => out.push(format!(
                    "detect {}: departure lag {lag} windows exceeds budget {}",
                    r.app.name(),
                    opts.detect_budget_windows
                )),
                None => out.push(format!("detect {}: departure never flagged", r.app.name())),
            }
        } else {
            out.push(format!(
                "detect {}: job outlived the episode horizon",
                r.app.name()
            ));
        }
    }
    for r in &report.overhead {
        if r.overhead_pct() > opts.overhead_budget_pct {
            out.push(format!(
                "overhead {}: {:+.2}% exceeds budget {:.2}%",
                r.app.name(),
                r.overhead_pct(),
                opts.overhead_budget_pct
            ));
        }
    }
    out
}
