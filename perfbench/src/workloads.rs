//! The four workloads and their output checks.
//!
//! Every workload is fixed work, run closed-loop on one thread: a number
//! of repetitions derived from `--seconds` (see [`Workload::reps`]), each
//! a set-up followed by the measured units of work, one after another.
//! `corun-grid` repeats one seed, so every repetition must reproduce the
//! first bit for bit. The other workloads take seed `S + i` for
//! repetition `i`: the flow backend memoizes traffic descriptors per seed
//! for the life of the process, so a repeated seed would measure the memo
//! instead of the model, and `impact-sweep` needs several seeds for a
//! steady accuracy figure (see [`impact_sweep`]).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use anp_core::{
    all_models, calibrate_with, config_fingerprint, degradation_percent, idle_profile,
    impact_profile_of_compression, runtime_of, sweep_supervised, Backend, Calibration, CellResult,
    ExperimentConfig, ExperimentError, JournalError, LookupTable, MuPolicy, PairOutcome,
    Parallelism, RunJournal, Study, Supervisor, SweepTelemetry, TaskError,
};
use anp_flowsim::FlowBackend;
use anp_simnet::SimDuration;
use anp_workloads::{AppKind, CompressionConfig, RunMode};

use crate::affinity;
use crate::report::Digest;
use crate::trace;
use crate::wrap::{self, TimedBackend};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The quick Table I grid on the packet-level simulator.
    CorunGrid,
    /// Impact profiles of the quick CompressionB sweep (Fig. 6).
    ImpactSweep,
    /// The full Fig. 8 study on the flow-level backend.
    FlowStudy,
    /// The flow study journaled, then resumed from its journal.
    FlowResume,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CorunGrid,
        Workload::ImpactSweep,
        Workload::FlowStudy,
        Workload::FlowResume,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CorunGrid => "corun-grid",
            Workload::ImpactSweep => "impact-sweep",
            Workload::FlowStudy => "flow-study",
            Workload::FlowResume => "flow-resume",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Host seconds one repetition takes on the reference machine (a
    /// 2-vCPU x86-64 VM, release build), rounded up.
    fn nominal_rep_s(self) -> f64 {
        match self {
            Workload::CorunGrid => 2.0,
            Workload::ImpactSweep => 1.25,
            Workload::FlowStudy => 0.25,
            Workload::FlowResume => 0.35,
        }
    }

    /// Repetitions that fill `seconds` on the reference machine. The
    /// count depends on `seconds` only, never on how fast this run goes,
    /// so two commits measured with the same `--seconds` do the same work.
    pub fn reps(self, seconds: f64) -> usize {
        ((seconds / self.nominal_rep_s()).round() as usize).max(1)
    }

    pub fn run(self, seed: u64, reps: usize, traced: bool) -> Run {
        let mut run = Run::default();
        match self {
            Workload::CorunGrid => corun_grid(&mut run, seed, reps, traced),
            Workload::ImpactSweep => impact_sweep(&mut run, seed, reps, traced),
            Workload::FlowStudy => flow_study(&mut run, seed, reps, traced),
            Workload::FlowResume => flow_resume(&mut run, seed, reps, traced),
        }
        run
    }
}

/// What one run measured, computed and checked.
#[derive(Debug, Default)]
pub struct Run {
    /// Host seconds of each repetition's set-up.
    pub setup_s: Vec<f64>,
    /// Host seconds of each unit of work, one sample per repetition,
    /// keyed by unit: a sweep cell's label, or the name of a whole-study
    /// unit.
    pub units: BTreeMap<String, Vec<f64>>,
    /// Sweep cells attempted and failed, over all repetitions.
    pub cells: u64,
    pub failed: u64,
    pub retries: u64,
    /// Sweep wall time not spent inside cells, over all repetitions.
    pub sweep_overhead_s: f64,
    /// Bit patterns of every result.
    pub digest: Digest,
    /// Mean distance of the results from the paper's, in percentage
    /// points.
    pub paper_err_pp: f64,
    pub journal: JournalStats,
    /// Failed output checks.
    pub problems: Vec<String>,
}

impl Run {
    /// Host seconds of one repetition's work, each unit taken at its
    /// fastest sample. On a shared VM other tenants slow each vCPU down,
    /// by up to 1.7x for seconds at a time; the fastest sample of each
    /// unit is what stays put across runs.
    pub fn wall_s(&self) -> f64 {
        self.units.values().map(|xs| crate::stats::min(xs)).sum()
    }

    fn unit(&mut self, key: &str, seconds: f64) {
        self.units.entry(key.to_owned()).or_default().push(seconds);
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Books one sweep: its cells, its failures as problems, and its
    /// engine's retries and overhead.
    fn sweep<'a>(
        &mut self,
        cells: usize,
        failures: impl IntoIterator<Item = &'a TaskError>,
        telemetry: &SweepTelemetry,
    ) {
        self.cells += cells as u64;
        for e in failures {
            self.failed += 1;
            self.problems.push(e.to_string());
        }
        self.retries += telemetry
            .runs
            .iter()
            .map(|r| u64::from(r.retries))
            .sum::<u64>();
        self.sweep_overhead_s += (telemetry.wall_secs - telemetry.serial_secs()).max(0.0);
    }

    /// The value of a sweep call, or `None` with its journal error booked
    /// as a problem.
    fn journal_ok<T>(&mut self, result: Result<T, JournalError>) -> Option<T> {
        result
            .map_err(|e| self.problems.push(format!("journal error: {e}")))
            .ok()
    }
}

/// The failed cells of a supervised sweep.
fn failures<T>(results: &[CellResult<T>]) -> impl Iterator<Item = &TaskError> {
    results.iter().filter_map(|r| r.as_ref().err())
}

/// Journal sizes and resume timings of `flow-resume`, summed over
/// repetitions.
#[derive(Debug, Default, Clone, Copy)]
pub struct JournalStats {
    pub bytes: u64,
    pub cells_written: u64,
    pub open_s: f64,
    pub resume_s: f64,
    pub decoded: u64,
    pub resumed_cells: u64,
}

/// The paper's Table I (percent slowdown of the row application co-run
/// with the column application), indexed in `AppKind::ALL` order.
const PAPER_TABLE_I: [[f64; 6]; 6] = [
    [45.0, 5.0, 3.0, 11.0, 12.0, 7.0],
    [5.0, 5.0, 3.0, 6.0, 2.0, 3.0],
    [3.0, 5.0, 4.0, 7.0, 5.0, 6.0],
    [25.0, 12.0, 1.0, 4.0, 3.0, 14.0],
    [9.0, 0.0, 2.0, 5.0, 7.0, 2.0],
    [0.0, 5.0, 4.0, 5.0, 3.0, 4.0],
];

/// The utilization range the paper's 40 CompressionB configurations
/// cover (Fig. 6), in percent.
const PAPER_UTILIZATION_RANGE: (f64, f64) = (26.0, 92.0);

fn paper_slowdown(victim: AppKind, other: AppKind) -> f64 {
    PAPER_TABLE_I[victim as usize][other as usize]
}

/// The configuration every workload starts from: the paper's Cab switch
/// at `seed`, one sweep worker.
fn config(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::cab().with_seed(seed);
    cfg.jobs = Parallelism::fixed(1);
    cfg
}

/// Quick Table I, at an eighth of each application's default iteration
/// count (25, 30 and 200) so that one run can repeat the grid a dozen
/// times. The slowdowns stay within a point of the full-length grid's.
const GRID: [(AppKind, u32); 3] = [
    (AppKind::Fftw, 3),
    (AppKind::Lulesh, 4),
    (AppKind::Milc, 25),
];

/// One Table I cell: `victim` alone, or next to an endless `other`, built
/// exactly as `solo_runtime` and `runtime_under_corun` build them.
fn grid_cell(
    cfg: &ExperimentConfig,
    (victim, iterations): (AppKind, u32),
    other: Option<AppKind>,
    traced: bool,
) -> (
    String,
    impl Fn() -> Result<SimDuration, ExperimentError> + Send + Sync + '_,
) {
    let label = match other {
        None => format!("solo:{}", victim.name()),
        Some(o) => format!("corun:{}+{}", victim.name(), o.name()),
    };
    let cell_label = label.clone();
    let task = move || {
        trace::cell("cell", &cell_label, || {
            let members = trace::span("workloads.build", || {
                victim.build(
                    RunMode::Iterations(iterations),
                    cfg.workload_seed(victim as u64 + 1),
                )
            });
            let noise = other.map(|o| {
                trace::span("workloads.build", || {
                    o.build(RunMode::Endless, cfg.workload_seed(o as u64 + 101))
                })
            });
            if traced {
                wrap::runtime_of(cfg, victim.name(), members, noise)
            } else {
                runtime_of(cfg, victim.name(), members, noise)
            }
        })
    };
    (label, task)
}

fn corun_grid(run: &mut Run, seed: u64, reps: usize, traced: bool) {
    let apps = GRID.map(|(app, _)| app);
    let supervisor = Supervisor::none();
    let mut first: Option<Digest> = None;
    for rep in affinity::spread(reps) {
        let outcome = trace::span("rep", || {
            let setup = Instant::now();
            let cfg = trace::span("setup", || config(seed));
            let (fp, solo_tasks, grid_tasks) = trace::span("setup", || {
                let solo: Vec<_> = GRID
                    .iter()
                    .map(|&v| grid_cell(&cfg, v, None, traced))
                    .collect();
                let grid: Vec<_> = GRID
                    .iter()
                    .flat_map(|&v| apps.iter().map(move |&o| (v, o)))
                    .map(|(v, o)| grid_cell(&cfg, v, Some(o), traced))
                    .collect();
                (config_fingerprint(&cfg, "des"), solo, grid)
            });
            let setup_s = setup.elapsed().as_secs_f64();
            let pass = Instant::now();
            let solos = trace::span("sweep", || {
                sweep_supervised("corun-solos", cfg.jobs, &supervisor, None, fp, solo_tasks)
            });
            let grid = trace::span("sweep", || {
                sweep_supervised("corun-grid", cfg.jobs, &supervisor, None, fp, grid_tasks)
            });
            (setup_s, pass.elapsed().as_secs_f64(), solos, grid)
        });
        let (setup_s, pass_s, solos, grid) = outcome;
        run.setup_s.push(setup_s);
        let (Some((solos, solo_t)), Some((grid, grid_t))) =
            (run.journal_ok(solos), run.journal_ok(grid))
        else {
            return;
        };
        run.sweep(solos.len(), failures(&solos), &solo_t);
        run.sweep(grid.len(), failures(&grid), &grid_t);
        for r in solo_t.runs.iter().chain(&grid_t.runs) {
            run.unit(&r.label, r.wall_secs);
        }
        run.unit(
            "pass-overhead",
            pass_s - solo_t.serial_secs() - grid_t.serial_secs(),
        );

        let (Ok(solos), Ok(grid)) = (
            solos.into_iter().collect::<Result<Vec<_>, _>>(),
            grid.into_iter().collect::<Result<Vec<_>, _>>(),
        ) else {
            return;
        };
        let mut digest = Digest::default();
        let mut slowdown = [[0.0; 3]; 3];
        for (i, &solo) in solos.iter().enumerate() {
            digest.u64(solo.as_nanos());
            for j in 0..3 {
                let loaded = grid[3 * i + j];
                slowdown[i][j] = degradation_percent(solo, loaded);
                digest.u64(loaded.as_nanos());
                digest.f64(slowdown[i][j]);
            }
        }
        if first.is_none() {
            first = Some(digest);
            run.digest = digest;
            check_grid_shape(run, &apps, &slowdown);
        }
        run.check(first == Some(digest), || {
            format!("repetition {rep} computed different results from repetition 0")
        });
    }
}

/// The paper-shape checks on Table I, and its distance from the paper.
fn check_grid_shape(run: &mut Run, apps: &[AppKind; 3], slowdown: &[[f64; 3]; 3]) {
    let fftw_self = slowdown[0][0];
    let largest = slowdown.iter().flatten().copied().fold(f64::MIN, f64::max);
    run.check(fftw_self == largest, || {
        format!("FFTW+FFTW ({fftw_self:.1}%) is not the largest cell ({largest:.1}%)")
    });
    let lulesh = slowdown[1];
    run.check(lulesh.iter().all(|&s| s < 10.0), || {
        format!("the Lulesh row reaches 10%: {lulesh:?}")
    });
    let mut err = 0.0;
    for (i, &v) in apps.iter().enumerate() {
        for (j, &o) in apps.iter().enumerate() {
            err += (slowdown[i][j] - paper_slowdown(v, o)).abs();
        }
    }
    run.paper_err_pp = err / 9.0;
}

/// The quick Fig. 6 subset: one configuration per (B, M) group, with a
/// cycling partner count.
fn quick_compression_sweep() -> Vec<CompressionConfig> {
    CompressionConfig::paper_sweep()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % 5 == (i / 5) % 5)
        .map(|(_, c)| c)
        .collect()
}

/// Probe window of `impact-sweep`: a tenth of the default 300 ms, so that
/// one run can repeat the sweep many times.
const IMPACT_WINDOW: SimDuration = SimDuration::from_millis(30);

/// `impact-sweep` runs seed `S + i` in repetition `i`. Its accuracy
/// statistic, the ends of the sweep's utilization range, moves by several
/// points from seed to seed; the mean over a run's seeds does not.
fn impact_sweep(run: &mut Run, seed: u64, reps: usize, traced: bool) {
    let configs = quick_compression_sweep();
    // The heaviest load: shortest bubble, then most messages.
    let heaviest = (0..configs.len())
        .min_by_key(|&i| (configs[i].bubble_cycles, u32::MAX - configs[i].messages))
        .unwrap_or(0);
    let supervisor = Supervisor::none();
    let mut err = 0.0;
    for rep in affinity::spread(reps) {
        let outcome = trace::span("rep", || {
            let setup = Instant::now();
            let cfg = trace::span("setup", || {
                let mut cfg = config(seed.wrapping_add(rep as u64));
                cfg.measure_window = IMPACT_WINDOW;
                cfg
            });
            let calibrated = trace::span("setup", || {
                let idle = idle_profile(&cfg)?;
                let calib = Calibration::from_idle_profile(&idle, MuPolicy::MinLatency)?;
                Ok::<_, ExperimentError>((calib.utilization(&idle), calib))
            });
            let (idle_util, calib) = match calibrated {
                Ok(c) => c,
                Err(e) => return Err(format!("idle calibration failed: {e}")),
            };
            let tasks: Vec<(String, _)> = trace::span("setup", || {
                configs
                    .iter()
                    .map(|comp| {
                        let cfg = &cfg;
                        let label = format!("impact:{}", comp.label());
                        let cell_label = label.clone();
                        let task = move || {
                            trace::cell("cell", &cell_label, || {
                                if traced {
                                    wrap::impact_profile_of_compression(cfg, comp)
                                } else {
                                    impact_profile_of_compression(cfg, comp)
                                }
                            })
                        };
                        (label, task)
                    })
                    .collect()
            });
            let fp = config_fingerprint(&cfg, "des");
            let setup_s = setup.elapsed().as_secs_f64();
            let pass = Instant::now();
            let swept = trace::span("sweep", || {
                sweep_supervised("impact-sweep", cfg.jobs, &supervisor, None, fp, tasks)
            });
            Ok((
                setup_s,
                pass.elapsed().as_secs_f64(),
                idle_util,
                calib,
                swept,
            ))
        });
        let (setup_s, pass_s, idle_util, calib, swept) = match outcome {
            Ok(o) => o,
            Err(problem) => {
                run.problems.push(problem);
                return;
            }
        };
        run.setup_s.push(setup_s);
        let Some((profiles, telemetry)) = run.journal_ok(swept) else {
            return;
        };
        run.sweep(profiles.len(), failures(&profiles), &telemetry);
        for r in &telemetry.runs {
            run.unit(&r.label, r.wall_secs);
        }
        run.unit("pass-overhead", pass_s - telemetry.serial_secs());
        let Ok(profiles) = profiles.into_iter().collect::<Result<Vec<_>, _>>() else {
            return;
        };

        run.digest.f64(idle_util);
        let mut utils = Vec::with_capacity(profiles.len());
        for p in &profiles {
            let u = calib.utilization(p);
            run.digest.u64(p.count());
            run.digest.f64(p.mean());
            run.digest.f64(p.std_dev());
            run.digest.f64(u);
            utils.push(u);
        }
        run.check(utils.iter().all(|u| (0.0..1.0).contains(u)), || {
            format!("repetition {rep}: utilizations outside [0, 1): {utils:?}")
        });
        run.check(utils[heaviest] > idle_util, || {
            format!(
                "repetition {rep}: the heaviest configuration reads {:.3}, not above idle {idle_util:.3}",
                utils[heaviest]
            )
        });
        let lo = 100.0 * crate::stats::min(&utils);
        let hi = 100.0 * utils.iter().copied().fold(f64::MIN, f64::max);
        let (paper_lo, paper_hi) = PAPER_UTILIZATION_RANGE;
        err += ((lo - paper_lo).abs() + (hi - paper_hi).abs()) / 2.0;
    }
    run.paper_err_pp = err / reps as f64;
}

/// The results of one flow study.
struct StudyOut {
    digest: Digest,
    /// Mean |measured − paper| over all 36 pairings.
    paper_err_pp: f64,
    telemetry: Vec<SweepTelemetry>,
}

/// The complete Fig. 8 study: look-up table, application profiles,
/// predictions under all four models, and measured co-run slowdowns.
fn study(
    run: &mut Run,
    backend: &dyn Backend,
    cfg: &ExperimentConfig,
    calibration: Calibration,
    journal: Option<&RunJournal>,
    traced: bool,
) -> Option<StudyOut> {
    let apps = AppKind::ALL;
    let configs = CompressionConfig::paper_sweep();
    let supervisor = Supervisor::none();
    let quiet = |_: &str| {};
    let mut telemetry = Vec::new();

    let lut = trace::span("sweep", || {
        LookupTable::measure_supervised_with(
            backend,
            cfg,
            calibration,
            &apps,
            &configs,
            &supervisor,
            journal,
            quiet,
        )
    });
    let (lut, lut_t) = run.journal_ok(lut)?;
    run.sweep(lut.total, &lut.failures, &lut_t);
    telemetry.push(lut_t);
    let table = lut.table?;

    let profiled = trace::span("sweep", || {
        Study::measure_profiles_supervised_with(
            backend,
            cfg,
            table,
            &apps,
            &supervisor,
            journal,
            quiet,
        )
    });
    let (study, failed, profile_t) = run.journal_ok(profiled)?;
    run.sweep(apps.len(), &failed, &profile_t);
    telemetry.push(profile_t);

    let models = all_models();
    let mut outcomes: Vec<PairOutcome> = if traced {
        apps.iter()
            .flat_map(|&v| apps.iter().map(move |&o| (v, o)))
            .map(|(v, o)| trace::span("prediction.predict", || study.predict_pair(v, o, &models)))
            .collect()
    } else {
        study.predict_all(&apps, &models)
    };
    let paired = trace::span("sweep", || {
        study.measure_pairs_supervised_with(
            backend,
            cfg,
            &mut outcomes,
            &supervisor,
            journal,
            quiet,
        )
    });
    let (failed, pair_t) = run.journal_ok(paired)?;
    run.sweep(outcomes.len(), &failed, &pair_t);
    telemetry.push(pair_t);

    let mut digest = Digest::default();
    for e in &study.table.entries {
        digest.f64(e.utilization);
        digest.f64(e.profile.mean());
        digest.f64(e.profile.std_dev());
        e.slowdown.values().for_each(|&s| digest.f64(s));
    }
    study
        .table
        .solo
        .values()
        .for_each(|t| digest.u64(t.as_nanos()));
    for p in study.app_profiles.values() {
        digest.f64(p.mean());
        digest.f64(p.std_dev());
    }
    let mut err = 0.0;
    for o in &outcomes {
        let complete = o.measured.is_some() && o.predicted.len() == models.len();
        run.check(complete, || {
            format!(
                "pairing {}+{} lacks a measurement or a prediction",
                o.victim.name(),
                o.other.name()
            )
        });
        let measured = o.measured.unwrap_or(f64::NAN);
        digest.f64(measured);
        o.predicted.values().for_each(|&p| digest.f64(p));
        err += (measured - paper_slowdown(o.victim, o.other)).abs();
    }
    Some(StudyOut {
        digest,
        paper_err_pp: err / outcomes.len() as f64,
        telemetry,
    })
}

/// The flow backend, timed per call when traced.
fn flow_backend(traced: bool) -> Box<dyn Backend> {
    if traced {
        Box::new(TimedBackend(FlowBackend))
    } else {
        Box::new(FlowBackend)
    }
}

/// Configuration and idle calibration of repetition `rep`.
fn flow_setup(
    backend: &dyn Backend,
    seed: u64,
    rep: usize,
) -> Result<(ExperimentConfig, Calibration), String> {
    let cfg = config(seed.wrapping_add(rep as u64));
    let calib = calibrate_with(backend, &cfg, MuPolicy::MinLatency)
        .map_err(|e| format!("idle calibration failed: {e}"))?;
    Ok((cfg, calib))
}

fn flow_study(run: &mut Run, seed: u64, reps: usize, traced: bool) {
    let backend = flow_backend(traced);
    let mut err = 0.0;
    for rep in affinity::spread(reps) {
        let out = trace::span("rep", || {
            let setup = Instant::now();
            let (cfg, calib) = match trace::span("setup", || flow_setup(&*backend, seed, rep)) {
                Ok(s) => s,
                Err(problem) => {
                    run.problems.push(problem);
                    return None;
                }
            };
            run.setup_s.push(setup.elapsed().as_secs_f64());
            let start = Instant::now();
            let out = study(run, &*backend, &cfg, calib, None, traced);
            run.unit("study", start.elapsed().as_secs_f64());
            out
        });
        let Some(out) = out else { return };
        run.digest.u64(out.digest.value());
        err += out.paper_err_pp;
    }
    run.paper_err_pp = err / reps as f64;
}

/// The directory, under the working directory, that runs write into:
/// journals while `flow-resume` runs, and traces.
pub const WORK_DIR: &str = ".perfbench";

/// Where `flow-resume` keeps its journals while it runs, removed again at
/// the end.
fn journal_dir() -> PathBuf {
    Path::new(WORK_DIR).join(format!("journals-{}", std::process::id()))
}

fn flow_resume(run: &mut Run, seed: u64, reps: usize, traced: bool) {
    let dir = journal_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        run.problems
            .push(format!("cannot create {}: {e}", dir.display()));
        return;
    }
    let backend = flow_backend(traced);
    let mut err = 0.0;
    for rep in affinity::spread(reps) {
        let path = dir.join(format!("rep{rep}.jsonl"));
        let out = trace::span("rep", || {
            resume_rep(run, &*backend, seed, rep, &path, traced)
        });
        // The journal has served its purpose once both passes ran.
        let _ = std::fs::remove_file(&path);
        let Some(paper_err_pp) = out else { break };
        err += paper_err_pp;
    }
    run.paper_err_pp = err / reps as f64;
    let _ = std::fs::remove_dir(&dir);
    // Only succeeds when no trace was written there either.
    let _ = std::fs::remove_dir(WORK_DIR);
}

/// One `flow-resume` repetition: a study that journals every cell (one
/// fsync each), then the same study resumed from that journal, which must
/// decode every cell and reproduce the first pass bit for bit.
fn resume_rep(
    run: &mut Run,
    backend: &dyn Backend,
    seed: u64,
    rep: usize,
    path: &Path,
    traced: bool,
) -> Option<f64> {
    let setup = Instant::now();
    let opened = trace::span("setup", || {
        let (cfg, calib) = flow_setup(backend, seed, rep)?;
        let journal = trace::span("journal.open", || RunJournal::create(path))
            .map_err(|e| format!("cannot create the journal: {e}"))?;
        Ok::<_, String>((cfg, calib, journal))
    });
    let (cfg, calib, journal) = opened.map_err(|p| run.problems.push(p)).ok()?;
    run.setup_s.push(setup.elapsed().as_secs_f64());

    let start = Instant::now();
    let written = study(run, backend, &cfg, calib, Some(&journal), traced);
    run.unit("journal-write", start.elapsed().as_secs_f64());
    drop(journal);
    let written = written?;
    run.journal.bytes += std::fs::metadata(path).map_or(0, |m| m.len());
    run.journal.cells_written += cells_of(&written.telemetry, |_| true);

    let start = Instant::now();
    let reopened = trace::span("journal.open", || RunJournal::resume(path));
    run.journal.open_s += start.elapsed().as_secs_f64();
    let journal = reopened
        .map_err(|e| run.problems.push(format!("cannot resume the journal: {e}")))
        .ok()?;
    let resumed = study(run, backend, &cfg, calib, Some(&journal), traced);
    let resume_s = start.elapsed().as_secs_f64();
    run.unit("journal-resume", resume_s);
    run.journal.resume_s += resume_s;
    let resumed = resumed?;

    let decoded = cells_of(&resumed.telemetry, |outcome| outcome == "resumed");
    let total = cells_of(&resumed.telemetry, |_| true);
    run.journal.decoded += decoded;
    run.journal.resumed_cells += total;
    run.check(decoded == total, || {
        format!(
            "seed {}: the resume decoded {decoded} of {total} cells",
            cfg.seed
        )
    });
    run.check(resumed.digest == written.digest, || {
        format!(
            "seed {}: the resumed study differs from the journaled one",
            cfg.seed
        )
    });
    run.digest.u64(written.digest.value());
    Some(written.paper_err_pp)
}

/// Cells of `telemetry` whose outcome satisfies `keep`.
fn cells_of(telemetry: &[SweepTelemetry], keep: impl Fn(&str) -> bool) -> u64 {
    telemetry
        .iter()
        .flat_map(|t| &t.runs)
        .filter(|r| keep(&r.outcome))
        .count() as u64
}
