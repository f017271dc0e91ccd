//! # anp-bench — experiment harnesses for every table and figure
//!
//! One binary per artefact of the paper's evaluation:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `fig3_latency_distributions` | Fig. 3 — probe-latency distributions (idle + 6 apps) |
//! | `fig6_compression_utilization` | Fig. 6 — switch utilization of the 40 CompressionB configs |
//! | `fig7_degradation_curves` | Fig. 7 — % degradation vs % utilization per app |
//! | `table1_pair_slowdowns` | Table I — measured slowdowns of all 36 app pairs |
//! | `fig8_prediction_errors` | Fig. 8 — per-pairing |real − predicted| for the 4 models |
//! | `fig9_error_summary` | Fig. 9 — quartile summary of model errors |
//!
//! Extension harnesses beyond the paper's artefacts:
//!
//! | Binary | What it studies |
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
//! Every binary accepts `--quick` (a scaled-down sweep for smoke runs),
//! `--seed <n>`, `--backend {des,flow}`, and prints plain-text tables.
//! `fig8`/`fig9` additionally accept `--cache <path>` to reuse the
//! expensive measurement study across invocations.
//!
//! The `benches/` directory holds Criterion micro-benchmarks of the
//! simulator and model kernels (event queue, switch path, matching,
//! collectives, histogram metrics, P-K inversion, end-to-end probes).

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use std::time::Duration;

use anp_core::{
    calibrate_with, error_summaries, partial_exit_code, Backend, Calibration, ExperimentConfig,
    JournalError, LatencyProfile, LookupTable, ModelKind, MuPolicy, PairOutcome, Parallelism,
    RetryPolicy, RunBudget, RunJournal, Study, Supervisor, SweepTelemetry, TaskError,
};
use anp_monitor::MonitorRecord;
use anp_sched::SchedRecord;
use anp_workloads::{AppKind, CompressionConfig};

pub mod xval;

/// Command-line options shared by all harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Run a scaled-down sweep (fewer configurations / pairings).
    pub quick: bool,
    /// Base seed for the whole study.
    pub seed: u64,
    /// Optional path for caching study measurements (fig8/fig9).
    pub cache: Option<PathBuf>,
    /// Worker threads for the experiment sweeps (`None` = all cores).
    pub jobs: Option<usize>,
    /// Where sweep telemetry is written (default `BENCH_anp.json`;
    /// `--no-bench-json` disables the emitter).
    pub bench_json: Option<PathBuf>,
    /// Measurement backend name (`"des"` or `"flow"`); resolved by
    /// [`HarnessOpts::backend`].
    pub backend: String,
    /// Re-attempts per failed/panicked sweep cell (`--max-retries`).
    pub max_retries: u32,
    /// Per-cell wall-clock budget in seconds (`--run-budget`).
    pub run_budget_secs: Option<f64>,
    /// Per-cell simulator-event budget (`--event-budget`).
    pub event_budget: Option<u64>,
    /// Run journal for crash-safe resume (`--resume <path>`): created
    /// when absent, resumed when present.
    pub resume: Option<PathBuf>,
}

/// Reports a command-line usage error and exits with status 2, the
/// conventional "bad invocation" code. The bench harness is a binary
/// boundary: bad flags are operator errors, not states the library
/// should try to recover from.
fn usage_error(msg: &str) -> ! {
    eprintln!("anp-bench: {msg}");
    std::process::exit(2);
}

impl HarnessOpts {
    /// Parses `--quick`, `--seed <n>`, `--cache <path>`, `--jobs <n>`,
    /// `--bench-json <path>` / `--no-bench-json`, `--backend <name>`,
    /// `--max-retries <n>`, `--run-budget <secs>`, `--event-budget <n>`,
    /// and `--resume <path>` from `std::env`.
    pub fn from_args() -> Self {
        let mut opts = HarnessOpts {
            quick: false,
            seed: 0xA11CE,
            cache: None,
            jobs: None,
            bench_json: Some(PathBuf::from("BENCH_anp.json")),
            backend: "des".to_owned(),
            max_retries: 0,
            run_budget_secs: None,
            event_budget: None,
            resume: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => opts.quick = true,
                "--seed" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage_error("--seed needs a value"));
                    opts.seed = v
                        .parse()
                        .unwrap_or_else(|_| usage_error("--seed needs an integer"));
                }
                "--cache" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage_error("--cache needs a path"));
                    opts.cache = Some(PathBuf::from(v));
                }
                "--jobs" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage_error("--jobs needs a value"));
                    opts.jobs = Some(
                        v.parse()
                            .unwrap_or_else(|_| usage_error("--jobs needs an integer")),
                    );
                }
                "--bench-json" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage_error("--bench-json needs a path"));
                    opts.bench_json = Some(PathBuf::from(v));
                }
                "--no-bench-json" => opts.bench_json = None,
                "--backend" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage_error("--backend needs a value (des or flow)"));
                    opts.backend = v;
                }
                "--max-retries" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage_error("--max-retries needs a value"));
                    opts.max_retries = v
                        .parse()
                        .unwrap_or_else(|_| usage_error("--max-retries needs an integer"));
                }
                "--run-budget" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage_error("--run-budget needs seconds"));
                    let secs: f64 = v
                        .parse()
                        .unwrap_or_else(|_| usage_error("--run-budget needs a number of seconds"));
                    if secs <= 0.0 {
                        usage_error("--run-budget must be positive");
                    }
                    opts.run_budget_secs = Some(secs);
                }
                "--event-budget" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage_error("--event-budget needs a value"));
                    opts.event_budget = Some(
                        v.parse()
                            .unwrap_or_else(|_| usage_error("--event-budget needs an integer")),
                    );
                }
                "--resume" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage_error("--resume needs a journal path"));
                    opts.resume = Some(PathBuf::from(v));
                }
                other => usage_error(&format!(
                    "unknown argument: {other} (try --quick / --seed N / --cache P / \
                     --jobs N / --bench-json P / --no-bench-json / --backend des|flow / \
                     --max-retries N / --run-budget SECS / --event-budget N / --resume P)"
                )),
            }
        }
        opts
    }

    /// The supervision envelope these options describe: per-cell budgets
    /// and retry policy (the backoff doubles from 100 ms).
    pub fn supervisor(&self) -> Supervisor {
        Supervisor {
            budget: RunBudget {
                wall: self.run_budget_secs.map(Duration::from_secs_f64),
                events: self.event_budget,
            },
            retry: RetryPolicy {
                max_retries: self.max_retries,
                backoff: if self.max_retries > 0 {
                    Duration::from_millis(100)
                } else {
                    Duration::ZERO
                },
            },
        }
    }

    /// Opens the `--resume` journal: resumed when the file exists,
    /// created otherwise; `None` without the flag. A journal that cannot
    /// be opened is a hard error (exit 1) — silently running without the
    /// requested crash net would be worse.
    pub fn open_journal(&self) -> Option<RunJournal> {
        let path = self.resume.as_ref()?;
        let journal = if path.exists() {
            RunJournal::resume(path)
        } else {
            RunJournal::create(path)
        };
        match journal {
            Ok(j) => {
                if j.completed_cells() > 0 {
                    println!(
                        "(resuming: {} completed cells journaled in {})",
                        j.completed_cells(),
                        path.display()
                    );
                }
                Some(j)
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }

    /// Resolves `--backend` to a measurement engine, validated against
    /// the experiment configuration. Per the no-silent-fallback rule, an
    /// unknown name or an unsupported option prints the typed error to
    /// stderr and exits with code 1.
    pub fn resolve_backend(&self) -> Box<dyn Backend> {
        let backend = match anp_flowsim::backend_from_name(&self.backend) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = backend.validate(&self.experiment_config()) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        backend
    }

    /// The experiment configuration this harness run uses.
    pub fn experiment_config(&self) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::cab().with_seed(self.seed);
        if let Some(n) = self.jobs {
            cfg.jobs = Parallelism::fixed(n);
        }
        cfg
    }

    /// Serializes sweep telemetry to the configured `BENCH_anp.json`
    /// (no-op under `--no-bench-json`).
    pub fn emit_bench_json(&self, harness: &str, sweeps: &[&SweepTelemetry]) {
        self.emit_bench_json_full(harness, sweeps, &[], &[]);
    }

    /// [`HarnessOpts::emit_bench_json`] with the optional arrays: per-policy
    /// `sched` records (`sched_study`) and per-window `monitor` records
    /// (`monitor_study`). Harnesses that populate neither call
    /// [`HarnessOpts::emit_bench_json`].
    pub fn emit_bench_json_full(
        &self,
        harness: &str,
        sweeps: &[&SweepTelemetry],
        sched: &[SchedRecord],
        monitor: &[MonitorRecord],
    ) {
        let Some(path) = &self.bench_json else { return };
        match write_bench_json(
            path,
            harness,
            self.seed,
            self.resume.as_deref(),
            sweeps,
            sched,
            monitor,
        ) {
            Ok(()) => println!("(sweep telemetry written to {})", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }

    /// The CompressionB sweep: the paper's 40 configurations, or an
    /// 8-configuration subset in quick mode.
    pub fn compression_sweep(&self) -> Vec<CompressionConfig> {
        let all = CompressionConfig::paper_sweep();
        if self.quick {
            // Diagonal subset: one config per (B, M) group with a cycling
            // partner count, so the quick sweep still spans P, B and M.
            all.into_iter()
                .enumerate()
                .filter(|(i, _)| i % 5 == (i / 5) % 5)
                .map(|(_, c)| c)
                .collect()
        } else {
            all
        }
    }

    /// The applications under study: all six, or three in quick mode.
    pub fn apps(&self) -> Vec<AppKind> {
        if self.quick {
            vec![AppKind::Fftw, AppKind::Lulesh, AppKind::Milc]
        } else {
            AppKind::ALL.to_vec()
        }
    }
}

/// Prints the standard harness banner.
pub fn banner(artifact: &str, what: &str, opts: &HarnessOpts) {
    println!("=== {artifact} — {what} ===");
    println!(
        "(Casas & Bronevetsky, IPDPS 2014; simulated Cab switch, seed={}, {})",
        opts.seed,
        if opts.quick {
            "QUICK sweep"
        } else {
            "full sweep"
        }
    );
    println!();
}

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
/// is partial where cells failed and complete where they did not.
pub fn measure_study_supervised_with(
    backend: &dyn Backend,
    cfg: &ExperimentConfig,
    apps: &[AppKind],
    sweep: &[CompressionConfig],
    supervisor: &Supervisor,
    journal: Option<&RunJournal>,
    verbose: bool,
) -> Result<(Option<Study>, Supervision, Vec<SweepTelemetry>), JournalError> {
    let progress = |line: &str| {
        if verbose {
            println!("  [measure] {line}");
        }
    };
    let calibration: Calibration =
        // anp-lint: allow(D003) — bench harness boundary: a failed measurement invalidates the whole benchmark run, so aborting with the error text is the contract
        calibrate_with(backend, cfg, MuPolicy::MinLatency).expect("idle calibration failed");
    let mut supervision = Supervision::default();
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
    let mut telemetry = vec![lut_telemetry];
    let (table, failures, completed, total) = (lut.table, lut.failures, lut.completed, lut.total);
    supervision.absorb(failures, completed, total);
    let Some(table) = table else {
        return Ok((None, supervision, telemetry));
    };
    let (study, profile_failures, profile_telemetry) = Study::measure_profiles_supervised_with(
        backend,
        cfg,
        table,
        apps,
        supervisor,
        journal,
        |line| {
            if verbose {
                println!("  [measure] {line}");
            }
        },
    )?;
    supervision.absorb(profile_failures, study.app_profiles.len(), apps.len());
    telemetry.push(profile_telemetry);
    Ok((Some(study), supervision, telemetry))
}

/// The result of a supervised end-to-end prediction campaign.
#[derive(Debug)]
pub struct SupervisedOutcomes {
    /// Pairing outcomes in victim-major order; unmeasured pairings (from
    /// failed cells or missing baselines) keep `measured: None`.
    pub outcomes: Vec<PairOutcome>,
    /// Holes and cell counts across every sweep that ran.
    pub supervision: Supervision,
    /// Telemetry of every sweep that ran (empty when served from cache).
    pub telemetry: Vec<SweepTelemetry>,
}

/// Runs (or loads from cache) the complete prediction study: isolated
/// measurements, predictions for every ordered pair, and co-run ground
/// truth, in victim-major order, plus the telemetry of every sweep that
/// actually ran. Every sweep runs under the options' supervision envelope
/// (`--max-retries`, `--run-budget`, `--event-budget`, `--resume`):
/// failures leave typed holes, siblings complete, and the caller maps
/// [`Supervision::exit_code`] onto the 0/3/1 convention. The cache is
/// honored only when it holds a *complete* campaign, and written only
/// when this campaign completes — a partial cache would silently shadow
/// the missing cells on the next run.
pub fn full_outcomes_supervised(opts: &HarnessOpts) -> SupervisedOutcomes {
    if let Some(path) = &opts.cache {
        if let Some(outcomes) = load_outcomes(path) {
            if outcomes.iter().all(|o| o.measured.is_some()) {
                println!(
                    "(loaded {} cached pairings from {})",
                    outcomes.len(),
                    path.display()
                );
                return SupervisedOutcomes {
                    outcomes,
                    supervision: Supervision::default(),
                    telemetry: Vec::new(),
                };
            }
            println!(
                "(ignoring incomplete cache {} — re-measuring)",
                path.display()
            );
        }
    }
    let cfg = opts.experiment_config();
    let backend = opts.resolve_backend();
    let apps = opts.apps();
    let sweep = opts.compression_sweep();
    let supervisor = opts.supervisor();
    let journal = opts.open_journal();
    let die = |e: JournalError| -> ! {
        eprintln!("error: {e}");
        std::process::exit(1);
    };
    let (study, mut supervision, mut telemetry) = measure_study_supervised_with(
        backend.as_ref(),
        &cfg,
        &apps,
        &sweep,
        &supervisor,
        journal.as_ref(),
        true,
    )
    .unwrap_or_else(|e| die(e));
    let Some(study) = study else {
        return SupervisedOutcomes {
            outcomes: Vec::new(),
            supervision,
            telemetry,
        };
    };
    let models = anp_core::all_models();
    let mut outcomes = study.predict_all(&apps, &models);
    let total_pairs = outcomes.len();
    let (pair_failures, pair_telemetry) = study
        .measure_pairs_supervised_with(
            backend.as_ref(),
            &cfg,
            &mut outcomes,
            &supervisor,
            journal.as_ref(),
            |line| println!("  [corun] {line}"),
        )
        .unwrap_or_else(|e| die(e));
    let pair_completed = total_pairs - pair_failures.len();
    supervision.absorb(pair_failures, pair_completed, total_pairs);
    telemetry.push(pair_telemetry);
    if supervision.is_complete() {
        if let Some(path) = &opts.cache {
            if save_outcomes(path, &outcomes) {
                println!("(cached pairings to {})", path.display());
            }
        }
    }
    SupervisedOutcomes {
        outcomes,
        supervision,
        telemetry,
    }
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
    let mut out = String::new();
    let journal = journal.map_or("null".to_owned(), |p| format!("\"{}\"", p.display()));
    out.push_str(&format!(
        "{{\n  \"schema\": \"anp-bench-v5\",\n  \"harness\": \"{harness}\",\n  \"seed\": {seed},\n  \"journal\": {journal},\n  \"sweeps\": [\n"
    ));
    for (i, t) in sweeps.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("    ");
        out.push_str(&t.to_json());
    }
    out.push_str("\n  ],\n  \"sched\": [\n");
    for (i, r) in sched.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("    ");
        out.push_str(&r.to_json());
    }
    out.push_str("\n  ],\n  \"monitor\": [\n");
    for (i, r) in monitor.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("    ");
        out.push_str(&r.to_json());
    }
    out.push_str("\n  ]\n}\n");
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
    fn quick_sweep_is_a_subset() {
        let quick = HarnessOpts {
            quick: true,
            seed: 1,
            cache: None,
            jobs: None,
            bench_json: None,
            backend: "des".to_owned(),
            max_retries: 0,
            run_budget_secs: None,
            event_budget: None,
            resume: None,
        };
        let full = HarnessOpts {
            quick: false,
            seed: 1,
            cache: None,
            jobs: None,
            bench_json: None,
            backend: "des".to_owned(),
            max_retries: 0,
            run_budget_secs: None,
            event_budget: None,
            resume: None,
        };
        assert_eq!(full.compression_sweep().len(), 40);
        assert_eq!(quick.compression_sweep().len(), 8);
        let partners: std::collections::HashSet<u32> = quick
            .compression_sweep()
            .iter()
            .map(|c| c.partners)
            .collect();
        assert!(partners.len() >= 3, "quick sweep must vary P");
        assert_eq!(full.apps().len(), 6);
        assert_eq!(quick.apps().len(), 3);
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
    fn supervisor_reflects_flags() {
        let mut opts = HarnessOpts {
            quick: false,
            seed: 1,
            cache: None,
            jobs: None,
            bench_json: None,
            backend: "des".to_owned(),
            max_retries: 2,
            run_budget_secs: Some(1.5),
            event_budget: Some(100),
            resume: None,
        };
        let sup = opts.supervisor();
        assert_eq!(sup.retry.max_retries, 2);
        assert!(!sup.retry.backoff.is_zero());
        assert_eq!(sup.budget.wall, Some(Duration::from_secs_f64(1.5)));
        assert_eq!(sup.budget.events, Some(100));
        opts.max_retries = 0;
        opts.run_budget_secs = None;
        opts.event_budget = None;
        let sup = opts.supervisor();
        assert!(sup.budget.is_unlimited());
        assert_eq!(sup.retry.max_retries, 0);
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
    }

    #[test]
    fn histogram_rendering_contains_all_bins() {
        let p = LatencyProfile::from_samples(&[1.1, 1.3, 2.4, 11.0]);
        let text = render_histogram(&p);
        assert_eq!(text.lines().count(), 21, "20 bins + overflow row");
        assert!(text.contains(">10us"));
    }
}
