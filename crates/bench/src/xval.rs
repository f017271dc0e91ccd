//! Backend cross-validation: run the same measurement grid on the DES
//! and flow backends and quantify where the analytic model stands.
//!
//! Three per-cell observables are compared:
//!
//! * mean probe latency of each impact profile (idle + one per
//!   CompressionB configuration);
//! * the P-K **utilization** each backend's own calibration reads off
//!   those profiles;
//! * the **runtime ratio** `loaded / solo` of each (app, configuration)
//!   compression run. Ratios, not percentage slowdowns: near-zero
//!   slowdowns make relative error on percentages meaningless, while the
//!   ratio is the quantity predictions actually consume.
//!
//! Wall-clock per backend comes from the sweep telemetry, so the
//! reported speedup is the same number `BENCH_anp.json` records.

use anp_core::{
    calibrate_with, config_fingerprint, sweep_supervised_for, Backend, Calibration, CellResult,
    ExperimentConfig, ExperimentError, JournalError, Journaled, LatencyProfile, MuPolicy,
    RunJournal, Supervision, Supervisor, SweepTelemetry, WorkloadSpec,
};
use anp_simnet::SimDuration;
use anp_workloads::{AppKind, CompressionConfig};

/// Highest acceptable relative error on mean probe latency. This and
/// [`SLOWDOWN_TOLERANCE`] are the only copy of the flow model's error
/// envelope: `crates/bench/tests/xval_gates.rs` gates on them, and
/// DESIGN.md and README quote them.
pub const PROBE_TOLERANCE: f64 = 0.10;
/// Highest acceptable relative error on `loaded / solo` runtime ratios
/// (see [`PROBE_TOLERANCE`]).
pub const SLOWDOWN_TOLERANCE: f64 = 0.15;
/// Lowest acceptable DES/flow wall-clock speedup on the Cab-like grid.
pub const MIN_SPEEDUP: f64 = 20.0;

/// One compared observable.
#[derive(Debug, Clone)]
pub struct XvalCell {
    /// What the cell measures (e.g. `probe:P7-B2500000-M10`).
    pub label: String,
    /// The DES (reference) value.
    pub des: f64,
    /// The flow-model value.
    pub flow: f64,
}

impl XvalCell {
    /// `|flow − des| / |des|`.
    pub fn rel_err(&self) -> f64 {
        (self.flow - self.des).abs() / self.des.abs().max(1e-12)
    }
}

/// Everything one cross-validation run produced.
#[derive(Debug, Clone)]
pub struct XvalReport {
    /// Mean probe latency cells (µs): idle plus one per configuration.
    pub probe_means: Vec<XvalCell>,
    /// P-K utilization cells (fraction of capability), same order.
    pub utilizations: Vec<XvalCell>,
    /// Runtime-ratio cells, one per (app, configuration).
    pub slowdown_ratios: Vec<XvalCell>,
    /// DES grid telemetry (wall time, per-cell records).
    pub des_telemetry: SweepTelemetry,
    /// Flow grid telemetry.
    pub flow_telemetry: SweepTelemetry,
}

impl XvalReport {
    /// DES wall time over flow wall time.
    pub fn speedup(&self) -> f64 {
        self.des_telemetry.wall_secs / self.flow_telemetry.wall_secs.max(1e-12)
    }

    /// Worst relative error across probe-mean cells.
    pub fn max_probe_err(&self) -> f64 {
        max_err(&self.probe_means)
    }

    /// Worst relative error across runtime-ratio cells.
    pub fn max_slowdown_err(&self) -> f64 {
        max_err(&self.slowdown_ratios)
    }

    /// True if every gated observable is inside its documented tolerance.
    pub fn within_tolerance(&self) -> bool {
        self.max_probe_err() <= PROBE_TOLERANCE && self.max_slowdown_err() <= SLOWDOWN_TOLERANCE
    }
}

fn max_err(cells: &[XvalCell]) -> f64 {
    cells.iter().map(XvalCell::rel_err).fold(0.0, f64::max)
}

/// A measurement cell of the grid.
enum Spec<'a> {
    Idle,
    Impact(&'a CompressionConfig),
    Solo(AppKind),
    Loaded(AppKind, &'a CompressionConfig),
}

/// A cell's result: a profile or a runtime.
#[derive(Debug, Clone)]
enum Cell {
    Profile(LatencyProfile),
    Runtime(SimDuration),
}

/// Tagged journal codec so supervised grids can resume: the wrapped
/// profile/runtime codecs are bit-exact, so replayed cells reproduce the
/// exact comparison values of an uninterrupted run.
impl Journaled for Cell {
    fn encode_journal(&self) -> String {
        match self {
            Cell::Profile(p) => format!("{{\"p\":{}}}", p.encode_journal()),
            Cell::Runtime(t) => format!("{{\"t\":{}}}", t.encode_journal()),
        }
    }

    fn decode_journal(s: &str) -> Option<Self> {
        let s = s.trim();
        if let Some(inner) = s.strip_prefix("{\"p\":").and_then(|r| r.strip_suffix('}')) {
            return Some(Cell::Profile(LatencyProfile::decode_journal(inner)?));
        }
        if let Some(inner) = s.strip_prefix("{\"t\":").and_then(|r| r.strip_suffix('}')) {
            return Some(Cell::Runtime(SimDuration::decode_journal(inner)?));
        }
        None
    }
}

/// Runs the full grid on one backend, returning cells in spec order plus
/// the sweep telemetry (whose `wall_secs` is the backend's cost). Every
/// cell runs under `sup`: failing cells come back as typed holes instead
/// of aborting the grid, and with a journal every completed cell
/// survives a crash. One journaled sweep per backend
/// (`xval-des` / `xval-flow`), fingerprinted per backend so the two grids
/// never replay each other's cells.
fn measure_grid_supervised(
    backend: &dyn Backend,
    cfg: &ExperimentConfig,
    specs: &[Spec<'_>],
    sup: &Supervisor,
    journal: Option<&RunJournal>,
) -> Result<(Vec<CellResult<Cell>>, SweepTelemetry), JournalError> {
    type Task<'s> = Box<dyn Fn() -> Result<Cell, ExperimentError> + Send + Sync + 's>;
    let tasks: Vec<(String, Task<'_>)> = specs
        .iter()
        .map(|spec| -> (String, Task<'_>) {
            match *spec {
                Spec::Idle => (
                    "probe:idle".to_owned(),
                    Box::new(move || {
                        backend
                            .measure_impact_profile(cfg, WorkloadSpec::Idle)
                            .map(Cell::Profile)
                    }),
                ),
                Spec::Impact(comp) => (
                    format!("probe:{}", comp.label()),
                    Box::new(move || {
                        backend
                            .measure_impact_profile(cfg, WorkloadSpec::Compression(comp))
                            .map(Cell::Profile)
                    }),
                ),
                Spec::Solo(app) => (
                    format!("solo:{}", app.name()),
                    Box::new(move || backend.measure_solo_runtime(cfg, app).map(Cell::Runtime)),
                ),
                Spec::Loaded(app, comp) => (
                    format!("run:{}@{}", app.name(), comp.label()),
                    Box::new(move || {
                        backend
                            .measure_compression_run(cfg, app, comp)
                            .map(Cell::Runtime)
                    }),
                ),
            }
        })
        .collect();
    sweep_supervised_for(
        &format!("xval-{}", backend.name()),
        backend.name(),
        cfg.jobs,
        sup,
        journal,
        config_fingerprint(cfg, backend.name()),
        tasks,
    )
}

/// The grid `{idle} ∪ {impact(c)} ∪ {solo(a)} ∪ {loaded(a, c)}` for every
/// `a` in `apps` and `c` in `comps`.
fn grid_specs<'a>(apps: &[AppKind], comps: &'a [CompressionConfig]) -> Vec<Spec<'a>> {
    let mut specs: Vec<Spec<'_>> = vec![Spec::Idle];
    specs.extend(comps.iter().map(Spec::Impact));
    specs.extend(apps.iter().map(|&a| Spec::Solo(a)));
    for &a in apps {
        for c in comps {
            specs.push(Spec::Loaded(a, c));
        }
    }
    specs
}

/// Builds the three comparison sections from per-backend cells. A `None`
/// on either side skips that comparison (the sibling cells still
/// compare); a ratio cell additionally needs both solo baselines.
fn assemble(
    specs: &[Spec<'_>],
    des_cells: &[Option<Cell>],
    flow_cells: &[Option<Cell>],
    des_cal: &Calibration,
    flow_cal: &Calibration,
) -> (Vec<XvalCell>, Vec<XvalCell>, Vec<XvalCell>) {
    let mut probe_means = Vec::new();
    let mut utilizations = Vec::new();
    let mut slowdown_ratios = Vec::new();
    let mut des_solo: Vec<(AppKind, f64)> = Vec::new();
    let mut flow_solo: Vec<(AppKind, f64)> = Vec::new();

    for ((spec, d), f) in specs.iter().zip(des_cells).zip(flow_cells) {
        let (d, f) = match (d, f) {
            (Some(d), Some(f)) => (d, f),
            _ => continue,
        };
        match (spec, d, f) {
            (Spec::Idle, Cell::Profile(dp), Cell::Profile(fp))
            | (Spec::Impact(_), Cell::Profile(dp), Cell::Profile(fp)) => {
                let label = match spec {
                    Spec::Idle => "probe:idle".to_owned(),
                    Spec::Impact(c) => format!("probe:{}", c.label()),
                    _ => unreachable!(),
                };
                probe_means.push(XvalCell {
                    label: label.clone(),
                    des: dp.mean(),
                    flow: fp.mean(),
                });
                utilizations.push(XvalCell {
                    label: label.replace("probe:", "util:"),
                    des: des_cal.utilization(dp),
                    flow: flow_cal.utilization(fp),
                });
            }
            (Spec::Solo(app), Cell::Runtime(dt), Cell::Runtime(ft)) => {
                des_solo.push((*app, dt.as_secs_f64()));
                flow_solo.push((*app, ft.as_secs_f64()));
            }
            (Spec::Loaded(app, comp), Cell::Runtime(dt), Cell::Runtime(ft)) => {
                let ds = des_solo.iter().find(|(a, _)| a == app).map(|(_, s)| *s);
                let fs = flow_solo.iter().find(|(a, _)| a == app).map(|(_, s)| *s);
                let (ds, fs) = match (ds, fs) {
                    (Some(ds), Some(fs)) => (ds, fs),
                    _ => continue, // a solo baseline is a hole
                };
                slowdown_ratios.push(XvalCell {
                    label: format!("ratio:{}@{}", app.name(), comp.label()),
                    des: dt.as_secs_f64() / ds,
                    flow: ft.as_secs_f64() / fs,
                });
            }
            _ => unreachable!("cell kind always matches its spec"),
        }
    }
    (probe_means, utilizations, slowdown_ratios)
}

/// Why a supervised cross-validation could not produce a report at all
/// (cell-level failures become holes, not errors).
#[derive(Debug)]
pub enum XvalError {
    /// The `--resume` journal conflicts with this grid.
    Journal(JournalError),
    /// A calibration (needed to read utilizations) failed.
    Experiment(ExperimentError),
}

impl std::fmt::Display for XvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XvalError::Journal(e) => write!(f, "{e}"),
            XvalError::Experiment(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for XvalError {}

impl From<JournalError> for XvalError {
    fn from(e: JournalError) -> Self {
        XvalError::Journal(e)
    }
}

impl From<ExperimentError> for XvalError {
    fn from(e: ExperimentError) -> Self {
        XvalError::Experiment(e)
    }
}

/// A supervised cross-validation: the report over every compared cell,
/// plus the holes and cell counts of both grids.
#[derive(Debug)]
pub struct XvalSupervised {
    /// Comparisons over the cells both backends completed.
    pub report: XvalReport,
    /// The holes and cell counts of both grids.
    pub ledger: Supervision,
}

/// Cross-validates the flow backend against the DES on one grid.
///
/// The grid is `{idle} ∪ {impact(c)} ∪ {solo(a)} ∪ {loaded(a, c)}` for
/// every `a` in `apps` and `c` in `comps`, run once per backend through
/// the sweep engine under `sup` (panic isolation, budgets, retries,
/// journaled resume). Failing cells leave typed holes, and the report
/// compares every cell both backends completed.
pub fn run_xval_supervised(
    cfg: &ExperimentConfig,
    apps: &[AppKind],
    comps: &[CompressionConfig],
    des: &dyn Backend,
    flow: &dyn Backend,
    sup: &Supervisor,
    journal: Option<&RunJournal>,
) -> Result<XvalSupervised, XvalError> {
    let specs = grid_specs(apps, comps);
    let (des_results, des_telemetry) = measure_grid_supervised(des, cfg, &specs, sup, journal)?;
    let (flow_results, flow_telemetry) = measure_grid_supervised(flow, cfg, &specs, sup, journal)?;

    let des_cal = calibrate_with(des, cfg, MuPolicy::MinLatency)?;
    let flow_cal = calibrate_with(flow, cfg, MuPolicy::MinLatency)?;

    let mut ledger = Supervision::default();
    ledger.absorb_cells(&des_results);
    ledger.absorb_cells(&flow_results);
    let to_options =
        |results: Vec<CellResult<Cell>>| results.into_iter().map(Result::ok).collect::<Vec<_>>();
    let des_cells = to_options(des_results);
    let flow_cells = to_options(flow_results);

    let (probe_means, utilizations, slowdown_ratios) =
        assemble(&specs, &des_cells, &flow_cells, &des_cal, &flow_cal);

    Ok(XvalSupervised {
        report: XvalReport {
            probe_means,
            utilizations,
            slowdown_ratios,
            des_telemetry,
            flow_telemetry,
        },
        ledger,
    })
}

/// Renders the report as the plain-text table the `backend_xval` binary
/// prints.
pub fn render_report(r: &XvalReport) -> String {
    let mut out = String::new();
    let section = |out: &mut String, title: &str, cells: &[XvalCell], unit: &str| {
        out.push_str(&format!(
            "{:<34} {:>10} {:>10} {:>8}\n",
            title, "des", "flow", "err%"
        ));
        for c in cells {
            out.push_str(&format!(
                "{:<34} {:>10.4} {:>10.4} {:>7.1}%\n",
                c.label,
                c.des,
                c.flow,
                c.rel_err() * 100.0
            ));
        }
        out.push_str(&format!(
            "  worst {title} error: {:.1}% {unit}\n\n",
            max_err(cells) * 100.0
        ));
    };
    section(&mut out, "probe mean (us)", &r.probe_means, "");
    section(&mut out, "utilization", &r.utilizations, "(not gated)");
    section(&mut out, "runtime ratio", &r.slowdown_ratios, "");
    out.push_str(&format!(
        "wall clock: des {:.3}s, flow {:.3}s -> {:.0}x speedup\n",
        r.des_telemetry.wall_secs,
        r.flow_telemetry.wall_secs,
        r.speedup()
    ));
    out
}
