//! # anp-bench — experiment harnesses for every table and figure
//!
//! One artefact per table or figure of the paper's evaluation, each run
//! with `anp run <artefact>` (see [`ARTEFACTS`]):
//!
//! | Artefact | Reproduces |
//! |---|---|
//! | `fig3_latency_distributions` | Fig. 3 — probe-latency distributions (idle + 6 apps) |
//! | `fig6_compression_utilization` | Fig. 6 — switch utilization of the 40 CompressionB configs |
//! | `fig7_degradation_curves` | Fig. 7 — % degradation vs % utilization per app |
//! | `table1_pair_slowdowns` | Table I — measured slowdowns of all 36 app pairs |
//! | `fig8_prediction_errors` | Fig. 8 — per-pairing |real − predicted| for the 4 models |
//! | `fig9_error_summary` | Fig. 9 — quartile summary of model errors |
//!
//! Extension studies beyond the paper's artefacts:
//!
//! | Artefact | What it studies |
//! |---|---|
//! | `calibration_report` | the substrate's calibration at a glance, incl. per-app network-wait fractions |
//! | `ablation_report` | µ policy, routing parallelism, exchange chaining |
//! | `relativity_check` | literally degraded switches vs CompressionB emulation |
//! | `phase_model_study` | the §V-B phase-aware queue model |
//! | `seed_sensitivity` | across-seed spread of headline metrics |
//! | `backend_xval` | flow-model vs DES cross-validation (error + speedup) |
//! | `sched_study` | predictive co-scheduling regret vs the oracle |
//! | `monitor_study` | online utilization estimation + change-point gates |
//!
//! Every artefact accepts `--quick` (a scaled-down sweep for smoke runs),
//! `--seed <n>`, `--jobs <n>`, the supervision flags (`--max-retries`,
//! `--run-budget`, `--event-budget`, `--resume`) and the telemetry flags
//! (`--bench-json <path>`, `--no-bench-json`), and prints plain-text
//! tables. `fig8`/`fig9` also accept `--backend {des,flow}` and
//! `--cache <path>` to reuse the expensive measurement study across
//! invocations; the others reject both rather than ignore them. The
//! front end ([`cli`]) holds the one flag parser, the run context and the
//! exit-code mapping.
//!
//! The `benches/` directory holds Criterion micro-benchmarks of the
//! simulator and model kernels (event queue, switch path, matching,
//! collectives, histogram metrics, P-K inversion, end-to-end probes).

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

use anp_core::{
    calibrate_with, completed_count, error_summaries, partial_exit_code, Backend, CellResult,
    ExperimentConfig, LatencyProfile, LookupTable, ModelKind, MuPolicy, PairOutcome, RunJournal,
    Study, Supervisor, SweepTelemetry, TaskError,
};
use anp_monitor::MonitorRecord;
use anp_sched::SchedRecord;
use anp_workloads::{AppKind, CompressionConfig};

use cli::{ArtefactError, Report, RunCtx};

mod artefacts;
pub mod cli;
pub mod xval;

pub use artefacts::{Artefact, ARTEFACTS};

/// Typed holes and cell counts accumulated across the sweeps of one
/// supervised measurement campaign.
#[derive(Debug, Default)]
pub struct Supervision {
    /// Why each missing cell is missing.
    pub failures: Vec<TaskError>,
    /// Cells that produced a value.
    pub completed: usize,
    /// Total cells attempted.
    pub total: usize,
}

impl Supervision {
    /// Folds one sweep's holes and counts into the campaign totals.
    pub fn absorb(&mut self, failures: Vec<TaskError>, completed: usize, total: usize) {
        self.failures.extend(failures);
        self.completed += completed;
        self.total += total;
    }

    /// Folds one sweep's cells into the campaign totals: every `Err` is a
    /// hole, every `Ok` a completed cell.
    pub fn absorb_cells<T>(&mut self, cells: &[CellResult<T>]) {
        self.failures
            .extend(cells.iter().filter_map(|r| r.as_ref().err().cloned()));
        self.completed += completed_count(cells);
        self.total += cells.len();
    }

    /// True when every cell completed.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// The campaign exit code: 0 complete, 3 partial, 1 nothing.
    pub fn exit_code(&self) -> i32 {
        partial_exit_code(self.completed, self.total)
    }

    /// Prints the holes (one stderr line per missing cell) and the
    /// standard partial-result hint naming the resume journal.
    pub fn report(&self, resume: Option<&Path>) {
        for f in &self.failures {
            eprintln!("MISSING {f}");
        }
        if !self.is_complete() {
            eprintln!(
                "{} of {} cells missing (exit code {}){}",
                self.total - self.completed,
                self.total,
                self.exit_code(),
                match resume {
                    Some(p) => format!("; re-run with --resume {} to complete", p.display()),
                    None => "; add --resume <journal> to make the campaign resumable".to_owned(),
                }
            );
        }
    }
}

/// Measures the queue calibration, look-up table, and app impact profiles
/// — everything the prediction study needs except co-run ground truth.
/// The calibration, the table, and the profiles all come from `backend`,
/// so a flow-model study is internally consistent rather than mixing
/// analytic profiles with DES calibration.
///
/// Every sweep runs under `supervisor`: failing cells leave typed holes
/// instead of aborting the harness, and with a journal every completed
/// cell survives a crash. The study comes back `None` when no
/// look-up-table entry completed (nothing to predict from); otherwise it
/// is partial where cells failed and complete where they did not. A
/// failed idle calibration is an error: nothing can be read without it.
pub fn measure_study_supervised_with(
    backend: &dyn Backend,
    cfg: &ExperimentConfig,
    apps: &[AppKind],
    sweep: &[CompressionConfig],
    supervisor: &Supervisor,
    journal: Option<&RunJournal>,
    verbose: bool,
) -> Result<(Option<Study>, Report), ArtefactError> {
    let progress = |line: &str| {
        if verbose {
            println!("  [measure] {line}");
        }
    };
    let calibration = calibrate_with(backend, cfg, MuPolicy::MinLatency)?;
    let mut report = Report::default();
    let (lut, lut_telemetry) = LookupTable::measure_supervised_with(
        backend,
        cfg,
        calibration,
        apps,
        sweep,
        supervisor,
        journal,
        progress,
    )?;
    report.sweeps.push(lut_telemetry);
    report
        .supervision
        .absorb(lut.failures, lut.completed, lut.total);
    let Some(table) = lut.table else {
        return Ok((None, report));
    };
    let (study, profile_failures, profile_telemetry) = Study::measure_profiles_supervised_with(
        backend, cfg, table, apps, supervisor, journal, progress,
    )?;
    report
        .supervision
        .absorb(profile_failures, study.app_profiles.len(), apps.len());
    report.sweeps.push(profile_telemetry);
    Ok((Some(study), report))
}

/// Runs (or loads from cache) the complete prediction study: isolated
/// measurements, predictions for every ordered pair, and co-run ground
/// truth, in victim-major order (unmeasured pairings keep `measured:
/// None`), plus the holes and telemetry of every sweep that actually ran
/// (none when served from cache). Every sweep runs under the context's supervision
/// envelope (`--max-retries`, `--run-budget`, `--event-budget`,
/// `--resume`): failures leave typed holes and siblings complete. The
/// cache is honored only when it holds a *complete* campaign, and written
/// only when this campaign completes — a partial cache would silently
/// shadow the missing cells on the next run.
pub fn full_outcomes(ctx: &RunCtx) -> Result<(Vec<PairOutcome>, Report), ArtefactError> {
    if let Some(path) = &ctx.cache {
        if let Some(outcomes) = load_outcomes(path) {
            if outcomes.iter().all(|o| o.measured.is_some()) {
                println!(
                    "(loaded {} cached pairings from {})",
                    outcomes.len(),
                    path.display()
                );
                return Ok((outcomes, Report::default()));
            }
            println!(
                "(ignoring incomplete cache {} — re-measuring)",
                path.display()
            );
        }
    }
    let apps = ctx.apps();
    let backend = ctx.backend.as_ref();
    let (study, mut report) = measure_study_supervised_with(
        backend,
        &ctx.cfg,
        &apps,
        &ctx.compression_sweep(),
        &ctx.supervisor,
        ctx.journal.as_ref(),
        true,
    )?;
    let Some(study) = study else {
        return Ok((Vec::new(), report));
    };
    let mut outcomes = study.predict_all(&apps, &anp_core::all_models());
    let total_pairs = outcomes.len();
    let (pair_failures, pair_telemetry) = study.measure_pairs_supervised_with(
        backend,
        &ctx.cfg,
        &mut outcomes,
        &ctx.supervisor,
        ctx.journal.as_ref(),
        |line| println!("  [corun] {line}"),
    )?;
    let pair_completed = total_pairs - pair_failures.len();
    report
        .supervision
        .absorb(pair_failures, pair_completed, total_pairs);
    report.sweeps.push(pair_telemetry);
    if report.supervision.is_complete() {
        if let Some(path) = &ctx.cache {
            if save_outcomes(path, &outcomes) {
                println!("(cached pairings to {})", path.display());
            }
        }
    }
    Ok((outcomes, report))
}

/// Writes `bytes` to `path` atomically: a unique temp file in the same
/// directory is written, flushed to disk, and renamed over the target,
/// so a crash (or kill) mid-write can never leave a torn artefact — the
/// old file survives intact until the rename lands.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("artefact");
    let tmp = dir.join(format!(".{name}.tmp-{}", std::process::id()));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// Writes sweep telemetry records to `path` as a single JSON document —
/// the `BENCH_anp.json` perf-trajectory artefact. Schema (one object):
///
/// ```text
/// { "schema": "anp-bench-v5", "harness": "<binary>", "seed": N,
///   "journal": "<path>" | null,
///   "sweeps": [ <SweepTelemetry::to_json() objects> ],
///   "sched": [ <SchedRecord::to_json() objects> ],
///   "monitor": [ <MonitorRecord::to_json() objects> ] }
/// ```
///
/// Each sweep object carries `backend` (`"des"`, `"flow"`, or `"mixed"`),
/// `workers`, end-to-end `wall_secs`, the serial-equivalent
/// `serial_secs`, the realized `speedup`, total simulation `events`,
/// aggregate `events_per_sec`, and a `per_run` array of
/// `{label, backend, wall_secs, events, outcome, retries}` cells. v2
/// added the sweep- and run-level `backend` fields; v3 added the
/// top-level `journal` path and the per-run `outcome`
/// (`ok`/`resumed`/`failed`/`panicked`/`budget`) and `retries` fields;
/// v4 added the top-level `sched` array of per-policy scheduling records
/// (`{policy, model, backend, mean_slowdown_pct, makespan_us,
/// regret_pct, slo_violations, decisions, decision_wall_secs}`), empty
/// for harnesses that do not schedule; v5 added the top-level `monitor`
/// array of per-window online-estimation records (`{cell, window,
/// end_us, samples, mean_us, smooth_mean_us, utilization, shift}`),
/// empty for harnesses that do not monitor (see DESIGN.md, "Telemetry
/// schema"). The file is written atomically ([`write_atomic`]).
pub fn write_bench_json(
    path: &Path,
    harness: &str,
    seed: u64,
    journal: Option<&Path>,
    sweeps: &[&SweepTelemetry],
    sched: &[SchedRecord],
    monitor: &[MonitorRecord],
) -> std::io::Result<()> {
    let journal = journal.map_or("null".to_owned(), |p| format!("\"{}\"", p.display()));
    let array = |items: Vec<String>| {
        let rows: Vec<String> = items.iter().map(|j| format!("    {j}")).collect();
        rows.join(",\n")
    };
    let out = format!(
        "{{\n  \"schema\": \"anp-bench-v5\",\n  \"harness\": \"{harness}\",\n  \"seed\": {seed},\n  \"journal\": {journal},\n  \"sweeps\": [\n{}\n  ],\n  \"sched\": [\n{}\n  ],\n  \"monitor\": [\n{}\n  ]\n}}\n",
        array(sweeps.iter().map(|t| t.to_json()).collect()),
        array(sched.iter().map(SchedRecord::to_json).collect()),
        array(monitor.iter().map(MonitorRecord::to_json).collect()),
    );
    write_atomic(path, out.as_bytes())
}

/// Serializes outcomes to a plain TSV file (no external dependencies).
/// The write is atomic ([`write_atomic`]); a failure warns on stderr and
/// returns `false` rather than aborting — the cache is an accelerator,
/// not a dependency of the campaign.
pub fn save_outcomes(path: &Path, outcomes: &[PairOutcome]) -> bool {
    let mut out = String::from("victim\tother\tmeasured\tmodel=prediction...\n");
    for o in outcomes {
        out.push_str(&format!(
            "{}\t{}\t{}",
            o.victim.name(),
            o.other.name(),
            o.measured.map_or("NA".to_owned(), |m| format!("{m:.6}"))
        ));
        for (name, p) in &o.predicted {
            out.push_str(&format!("\t{name}={p:.6}"));
        }
        out.push('\n');
    }
    match write_atomic(path, out.as_bytes()) {
        Ok(()) => true,
        Err(e) => {
            eprintln!(
                "warning: cannot write cache {}: {e}; continuing without a cache",
                path.display()
            );
            false
        }
    }
}

/// Loads outcomes from [`save_outcomes`]' format; `None` if absent or
/// malformed.
pub fn load_outcomes(path: &Path) -> Option<Vec<PairOutcome>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut out = Vec::new();
    for line in text.lines().skip(1) {
        let mut cols = line.split('\t');
        let victim = AppKind::from_name(cols.next()?)?;
        let other = AppKind::from_name(cols.next()?)?;
        let measured = match cols.next()? {
            "NA" => None,
            v => Some(v.parse().ok()?),
        };
        let mut predicted = BTreeMap::new();
        for kv in cols {
            let (name, v) = kv.split_once('=')?;
            let kind: ModelKind = name.parse().ok()?;
            predicted.insert(kind, v.parse().ok()?);
        }
        out.push(PairOutcome {
            victim,
            other,
            measured,
            predicted,
        });
    }
    (!out.is_empty()).then_some(out)
}

/// Renders a latency histogram as rows of `bin-center  frequency%  bar`,
/// the textual equivalent of one Fig. 3 series.
pub fn render_histogram(profile: &LatencyProfile) -> String {
    let h = profile.histogram();
    let mut out = String::new();
    for i in 0..h.bins() {
        let f = h.frequency(i) * 100.0;
        let bar = "#".repeat((f / 2.0).round() as usize);
        out.push_str(&format!("{:>6.2}us {:>5.1}% {}\n", h.bin_center(i), f, bar));
    }
    let over = h.overflow() as f64 / h.total().max(1) as f64 * 100.0;
    if over > 0.0 {
        out.push_str(&format!("  >10us {over:>5.1}%\n"));
    }
    out
}

/// Prints the Fig. 9-style summary table from pairing outcomes. A
/// degenerate error sample (e.g. NaN from a poisoned cell) is reported as
/// a one-line hole instead of aborting the report.
pub fn print_error_summary(outcomes: &[PairOutcome]) {
    let summaries = match error_summaries(outcomes, &ModelKind::ALL) {
        Ok(s) => s,
        Err(e) => {
            println!("error summary unavailable: {e}");
            return;
        }
    };
    println!(
        "{:<15} {:>7} {:>7} {:>7} {:>7} {:>7}  {:>10}",
        "model", "min", "q1", "median", "q3", "max", "<10% err"
    );
    for kind in ModelKind::ALL {
        if let Some(s) = summaries.get(&kind) {
            let errors: Vec<f64> = outcomes.iter().filter_map(|o| o.abs_error(kind)).collect();
            let under10 =
                errors.iter().filter(|e| **e < 10.0).count() as f64 / errors.len() as f64 * 100.0;
            println!(
                "{:<15} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>7.1}  {:>9.0}%",
                kind.name(),
                s.min,
                s.q1,
                s.median,
                s.q3,
                s.max,
                under10
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_cache_roundtrips() {
        let dir = std::env::temp_dir().join("anp_bench_cache_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("outcomes.tsv");
        let outcomes = vec![
            PairOutcome {
                victim: AppKind::Fftw,
                other: AppKind::Mcb,
                measured: Some(12.5),
                predicted: [(ModelKind::Queue, 11.0), (ModelKind::AverageLt, 30.0)]
                    .into_iter()
                    .collect(),
            },
            PairOutcome {
                victim: AppKind::Amg,
                other: AppKind::Amg,
                measured: None,
                predicted: BTreeMap::new(),
            },
        ];
        save_outcomes(&path, &outcomes);
        let loaded = load_outcomes(&path).expect("cache must load");
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].victim, AppKind::Fftw);
        assert_eq!(loaded[0].measured, Some(12.5));
        assert_eq!(loaded[0].predicted[&ModelKind::Queue], 11.0);
        assert_eq!(loaded[1].measured, None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_cache_returns_none() {
        assert!(load_outcomes(Path::new("/nonexistent/anp.tsv")).is_none());
    }

    #[test]
    fn atomic_write_replaces_without_leftovers() {
        let dir = std::env::temp_dir().join("anp_bench_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artefact.json");
        write_atomic(&path, b"one").unwrap();
        write_atomic(&path, b"two").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "two");
        let leftovers = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .contains(".tmp-")
            })
            .count();
        assert_eq!(leftovers, 0, "temp files must not survive");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bench_json_carries_v5_fields() {
        use anp_core::RunRecord;
        let dir = std::env::temp_dir().join("anp_bench_v5_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let t = SweepTelemetry {
            name: "s".to_owned(),
            backend: "des".to_owned(),
            workers: 2,
            wall_secs: 1.0,
            runs: vec![RunRecord {
                label: "cell0".to_owned(),
                backend: "des".to_owned(),
                wall_secs: 0.5,
                events: 10,
                outcome: "resumed".to_owned(),
                retries: 1,
            }],
        };
        write_bench_json(&path, "h", 7, Some(Path::new("run.jsonl")), &[&t], &[], &[]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"schema\": \"anp-bench-v5\""));
        assert!(text.contains("\"journal\": \"run.jsonl\""));
        assert!(text.contains("\"outcome\":\"resumed\""));
        assert!(text.contains("\"retries\":1"));
        assert!(
            text.contains("\"sched\": ["),
            "v5 always carries a sched array"
        );
        assert!(
            text.contains("\"monitor\": ["),
            "v5 always carries a monitor array"
        );
        let rec = SchedRecord {
            policy: "predictive:Queue:flow".to_owned(),
            model: Some(ModelKind::Queue),
            backend: Some("flow".to_owned()),
            mean_slowdown_pct: 12.0,
            makespan_us: 50_000.0,
            regret_pct: 2.0,
            slo_violations: 1,
            decisions: 10,
            decision_wall_secs: 0.012,
        };
        let win = MonitorRecord {
            cell: "util:P5-B1.0e6-M10".to_owned(),
            window: 3,
            end_us: 1000.0,
            samples: 9,
            mean_us: Some(2.75),
            smooth_mean_us: 2.6,
            utilization: 0.42,
            shift: Some("up"),
        };
        let quiet = MonitorRecord {
            cell: "detect:FFTW".to_owned(),
            window: 0,
            end_us: 250.0,
            samples: 1,
            mean_us: None,
            smooth_mean_us: 2.45,
            utilization: 0.0,
            shift: None,
        };
        write_bench_json(&path, "h", 7, None, &[&t], &[rec], &[win, quiet]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"journal\": null"));
        assert!(text.contains("\"policy\":\"predictive:Queue:flow\""));
        assert!(text.contains("\"regret_pct\":2"));
        assert!(text.contains("\"cell\":\"util:P5-B1.0e6-M10\""));
        assert!(text.contains("\"shift\":\"up\""));
        assert!(text.contains("\"mean_us\":null"));
        assert!(text.contains("\"shift\":null"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn supervision_exit_codes_follow_convention() {
        let mut s = Supervision::default();
        assert!(s.is_complete());
        assert_eq!(s.exit_code(), 0, "empty campaign is vacuously complete");
        s.absorb(Vec::new(), 4, 4);
        assert_eq!(s.exit_code(), 0);
        s.absorb(Vec::new(), 1, 2); // one hole (failure list elided)
        assert_eq!(s.exit_code(), 3);
        let mut dead = Supervision::default();
        dead.absorb(Vec::new(), 0, 3);
        assert_eq!(dead.exit_code(), 1);
        let mut cells = Supervision::default();
        let hole = TaskError::Panicked {
            cell: 1,
            label: "b".to_owned(),
            payload: "boom".to_owned(),
        };
        cells.absorb_cells(&[Ok(1u8), Err(hole), Ok(3)]);
        assert_eq!((cells.completed, cells.total), (2, 3));
        assert_eq!(cells.failures.len(), 1);
        assert_eq!(cells.exit_code(), 3);
    }

    #[test]
    fn histogram_rendering_contains_all_bins() {
        let p = LatencyProfile::from_samples(&[1.1, 1.3, 2.4, 11.0]);
        let text = render_histogram(&p);
        assert_eq!(text.lines().count(), 21, "20 bins + overflow row");
        assert!(text.contains(">10us"));
    }
}
