//! The one command-line front end shared by `anp` and `anp run`: the
//! option parser, the run context every artefact receives, the report it
//! returns, and the mapping of that report onto an exit code.
//!
//! Exit codes: 0 every cell completed, 3 a partial result (resumable), 1
//! nothing completed, a gate failed, or an error stopped the run, 2 a bad
//! invocation.

use std::iter::Peekable;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use anp_core::{
    config_fingerprint, sweep_supervised, Backend, BackendError, CampaignError, CellResult,
    ExperimentConfig, ExperimentError, JournalError, Journaled, RetryPolicy, RunBudget, RunJournal,
    Supervision, Supervisor, SweepTelemetry,
};
use anp_monitor::{MonitorError, MonitorRecord};
use anp_sched::{SchedError, SchedRecord};
use anp_workloads::{AppKind, CompressionConfig};

use crate::artefacts::{Artefact, ARTEFACTS};
use crate::write_bench_json;
use crate::xval::XvalError;

/// Flags `anp run <artefact>` accepts after the artefact name: the
/// global set (the first seven) plus the artefact-only ones.
const RUN_FLAGS: &[&str] = &[
    "--seed",
    "--jobs",
    "--backend",
    "--max-retries",
    "--run-budget",
    "--event-budget",
    "--resume",
    "--quick",
    "--bench-json",
    "--no-bench-json",
];

/// Flags `anp` accepts before its command.
pub const GLOBAL_FLAGS: &[&str] = RUN_FLAGS.split_at(7).0;

/// Every option the front end understands, parsed and validated.
#[derive(Debug, Clone, PartialEq)]
pub struct Flags {
    /// Run a scaled-down sweep (fewer configurations / pairings).
    pub quick: bool,
    /// Base seed for the whole study (`--seed`).
    pub seed: u64,
    /// Worker threads for the experiment sweeps (`None` = all cores).
    pub jobs: Option<usize>,
    /// Measurement backend name (`--backend des|flow`), resolved by
    /// [`RunCtx::new`].
    pub backend: String,
    /// Where sweep telemetry is written (default `BENCH_anp.json`;
    /// `--no-bench-json` disables it).
    pub bench_json: Option<PathBuf>,
    /// Re-attempts per failed or panicked sweep cell (`--max-retries`).
    pub max_retries: u32,
    /// Per-cell wall-clock budget (`--run-budget SECS`).
    pub run_budget: Option<Duration>,
    /// Per-cell simulator-event budget (`--event-budget`).
    pub event_budget: Option<u64>,
    /// Run journal for crash-safe resume (`--resume`).
    pub resume: Option<PathBuf>,
}

impl Default for Flags {
    fn default() -> Self {
        Flags {
            quick: false,
            seed: 0xA11CE,
            jobs: None,
            backend: "des".to_owned(),
            bench_json: Some(PathBuf::from("BENCH_anp.json")),
            max_retries: 0,
            run_budget: None,
            event_budget: None,
            resume: None,
        }
    }
}

/// A malformed invocation (exit code 2).
#[derive(Debug, Clone, PartialEq)]
pub enum UsageError {
    /// A flag was given without its value.
    MissingValue(String),
    /// A flag's value does not parse, or is out of range.
    InvalidValue {
        /// The flag.
        flag: String,
        /// The offending text.
        value: String,
    },
    /// An argument no parser position accepts.
    UnknownArgument(String),
    /// `anp run` without an artefact name.
    MissingArtefact,
    /// `anp run` with a name that is not in the registry.
    UnknownArtefact(String),
    /// A flag the chosen artefact would silently ignore.
    NotRead {
        /// The artefact.
        artefact: &'static str,
        /// The flag as given (with its value when it has one).
        flag: String,
    },
}

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names = || {
            ARTEFACTS
                .iter()
                .map(|a| a.name)
                .collect::<Vec<_>>()
                .join(", ")
        };
        match self {
            UsageError::MissingValue(flag) => write!(f, "missing value for {flag}"),
            UsageError::InvalidValue { flag, value } => {
                write!(f, "invalid value for {flag}: \"{value}\"")
            }
            UsageError::UnknownArgument(arg) => write!(f, "unknown argument: {arg}"),
            UsageError::MissingArtefact => write!(f, "run needs an artefact: {}", names()),
            UsageError::UnknownArtefact(name) => {
                write!(f, "unknown artefact '{name}'; one of: {}", names())
            }
            UsageError::NotRead { artefact, flag } => write!(
                f,
                "{artefact} does not read {flag} and will not ignore it silently"
            ),
        }
    }
}

impl std::error::Error for UsageError {}

/// Takes the value after `flag` and parses it.
fn value<T: FromStr, I: Iterator<Item = String>>(
    flag: &str,
    args: &mut Peekable<I>,
) -> Result<T, UsageError> {
    let v = args
        .next()
        .ok_or_else(|| UsageError::MissingValue(flag.to_owned()))?;
    v.parse().map_err(|_| UsageError::InvalidValue {
        flag: flag.to_owned(),
        value: v,
    })
}

impl Flags {
    /// Parses flags off the front of `args` for as long as they are in
    /// `accept`, and leaves the first other argument in place. This is
    /// the only flag parser: `anp` calls it with [`GLOBAL_FLAGS`] before
    /// its command and [`parse_run`] with the full set after the artefact.
    /// `--run-budget` must be a finite, positive number of seconds.
    pub fn parse<I: Iterator<Item = String>>(
        &mut self,
        args: &mut Peekable<I>,
        accept: &[&str],
    ) -> Result<(), UsageError> {
        while let Some(flag) = args.next_if(|a| accept.contains(&a.as_str())) {
            match flag.as_str() {
                "--quick" => self.quick = true,
                "--no-bench-json" => self.bench_json = None,
                "--seed" => self.seed = value(&flag, args)?,
                "--jobs" => self.jobs = Some(value(&flag, args)?),
                "--backend" => self.backend = value(&flag, args)?,
                "--bench-json" => self.bench_json = Some(value(&flag, args)?),
                "--max-retries" => self.max_retries = value(&flag, args)?,
                "--event-budget" => self.event_budget = Some(value(&flag, args)?),
                "--resume" => self.resume = Some(value(&flag, args)?),
                "--run-budget" => {
                    let raw: String = value(&flag, args)?;
                    let budget = raw
                        .parse()
                        .ok()
                        .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
                        .filter(|d| !d.is_zero());
                    self.run_budget = Some(budget.ok_or(UsageError::InvalidValue {
                        flag: flag.clone(),
                        value: raw,
                    })?);
                }
                other => return Err(UsageError::UnknownArgument(other.to_owned())),
            }
        }
        Ok(())
    }

    /// Parses the rest of `args` with [`RUN_FLAGS`], rejecting leftovers.
    fn parse_rest<I: Iterator<Item = String>>(
        &mut self,
        args: &mut Peekable<I>,
    ) -> Result<(), UsageError> {
        self.parse(args, RUN_FLAGS)?;
        match args.next() {
            Some(extra) => Err(UsageError::UnknownArgument(extra)),
            None => Ok(()),
        }
    }

    /// The supervision envelope these flags describe: per-cell budgets,
    /// the retry policy (the backoff doubles from 100 ms) and the
    /// [`fault_hook`].
    fn supervisor(&self) -> Supervisor {
        Supervisor {
            budget: RunBudget {
                wall: self.run_budget,
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
            fault_hook: Some(fault_hook),
        }
    }
}

/// Chaos hook for the supervision integration tests: `ANP_FAULT_PANIC`
/// and `ANP_FAULT_SPIN` name sweep-cell labels (comma-separated). A
/// matching cell panics, or burns its whole event budget up front so the
/// deterministic watchdog trips on its first simulation. Both are inert
/// unless the variables are set, and both go through the same supervised
/// code paths a real fault would.
fn fault_hook(label: &str) {
    let listed = |var: &str| {
        std::env::var(var)
            .map(|v| v.split(',').any(|l| l == label))
            .unwrap_or(false)
    };
    if listed("ANP_FAULT_PANIC") {
        panic!("injected fault: panic in {label}");
    }
    if listed("ANP_FAULT_SPIN") {
        anp_core::supervise::charge_events(u64::MAX / 2);
    }
}

/// Opens the `--resume` journal: resumed when the file exists, created
/// otherwise, `None` without the flag. Resuming is noted on stderr so
/// stdout stays identical between a fresh and a resumed run. A journal
/// that cannot be opened is an error: running without the requested
/// crash net would be worse than stopping.
fn open_journal(path: Option<&Path>) -> Result<Option<RunJournal>, JournalError> {
    let Some(path) = path else { return Ok(None) };
    let journal = if path.exists() {
        RunJournal::resume(path)?
    } else {
        RunJournal::create(path)?
    };
    if journal.completed_cells() > 0 {
        eprintln!(
            "(resuming: {} completed cells journaled in {})",
            journal.completed_cells(),
            path.display()
        );
    }
    Ok(Some(journal))
}

/// Everything an artefact needs to run, resolved from the flags.
pub struct RunCtx {
    /// Scaled-down sweep (`--quick`).
    pub quick: bool,
    /// Base seed (`--seed`).
    pub seed: u64,
    /// The experiment configuration: the Cab preset at `--seed`, with
    /// `--jobs` workers (all cores without it).
    pub cfg: ExperimentConfig,
    /// The resolved measurement engine (`--backend`).
    pub backend: Box<dyn Backend>,
    /// Per-cell budgets and retries.
    pub supervisor: Supervisor,
    /// The `--resume` journal, when given.
    pub journal: Option<RunJournal>,
}

impl RunCtx {
    /// Resolves the flags: builds the configuration, resolves the
    /// backend (an unknown name is an error, never a silent fallback to
    /// another engine), and opens the journal.
    pub fn new(flags: &Flags) -> Result<Self, ArtefactError> {
        let mut cfg = ExperimentConfig::cab().with_seed(flags.seed);
        if let Some(n) = flags.jobs {
            cfg = cfg.with_jobs(n);
        }
        let backend = anp_flowsim::backend_from_name(&flags.backend)?;
        Ok(RunCtx {
            quick: flags.quick,
            seed: flags.seed,
            cfg,
            backend,
            supervisor: flags.supervisor(),
            journal: open_journal(flags.resume.as_deref())?,
        })
    }

    /// The applications under study: all six, or three in quick mode.
    pub(crate) fn apps(&self) -> Vec<AppKind> {
        if self.quick {
            vec![AppKind::Fftw, AppKind::Lulesh, AppKind::Milc]
        } else {
            AppKind::ALL.to_vec()
        }
    }

    /// The CompressionB sweep: the paper's 40 configurations, or the
    /// 8-configuration [`CompressionConfig::quick_sweep`] in quick mode.
    pub(crate) fn compression_sweep(&self) -> Vec<CompressionConfig> {
        if self.quick {
            CompressionConfig::quick_sweep()
        } else {
            CompressionConfig::paper_sweep()
        }
    }

    /// Runs DES measurement cells as one supervised sweep under this
    /// context's envelope and journal, fingerprinted with its
    /// configuration.
    pub(crate) fn sweep<T, F>(
        &self,
        name: &str,
        tasks: Vec<(String, F)>,
    ) -> Result<(Vec<CellResult<T>>, SweepTelemetry), JournalError>
    where
        T: Send + Journaled,
        F: Fn() -> Result<T, ExperimentError> + Send + Sync,
    {
        sweep_supervised(
            name,
            self.cfg.jobs,
            &self.supervisor,
            self.journal.as_ref(),
            config_fingerprint(&self.cfg, "des"),
            tasks,
        )
    }
}

/// What an artefact hands back to the runner once its tables are printed.
#[derive(Debug, Default)]
pub struct Report {
    /// Telemetry of every sweep that ran, in run order.
    pub sweeps: Vec<SweepTelemetry>,
    /// Per-policy scheduling records (`sched_study`).
    pub sched: Vec<SchedRecord>,
    /// Per-window monitoring records (`monitor_study`).
    pub monitor: Vec<MonitorRecord>,
    /// Holes and cell counts across the sweeps.
    pub supervision: Supervision,
    /// An acceptance gate failed (exit code 1 whatever the holes).
    pub gate_failed: bool,
}

impl Report {
    /// Records one sweep: its holes and its telemetry.
    pub(crate) fn record<T>(&mut self, cells: &[CellResult<T>], telemetry: SweepTelemetry) {
        self.supervision.absorb_cells(cells);
        self.sweeps.push(telemetry);
    }
}

/// Why an artefact stopped before producing its report (exit code 1).
#[derive(Debug)]
pub enum ArtefactError {
    /// The run journal failed.
    Journal(JournalError),
    /// A measurement outside the supervised sweeps failed.
    Experiment(ExperimentError),
    /// The `--backend` name is unknown.
    Backend(BackendError),
    /// The cross-validation grid failed.
    Xval(XvalError),
    /// The scheduling study failed.
    Sched(SchedError),
    /// The monitoring study failed.
    Monitor(MonitorError),
    /// A result broke an invariant the tables rely on.
    Check(String),
}

impl std::fmt::Display for ArtefactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtefactError::Journal(e) => e.fmt(f),
            ArtefactError::Experiment(e) => e.fmt(f),
            ArtefactError::Backend(e) => e.fmt(f),
            ArtefactError::Xval(e) => e.fmt(f),
            ArtefactError::Sched(e) => e.fmt(f),
            ArtefactError::Monitor(e) => e.fmt(f),
            ArtefactError::Check(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ArtefactError {}

macro_rules! artefact_error_from {
    ($($variant:ident($ty:ty)),*) => {$(
        impl From<$ty> for ArtefactError {
            fn from(e: $ty) -> Self {
                ArtefactError::$variant(e)
            }
        }
    )*};
}

impl From<CampaignError> for ArtefactError {
    fn from(e: CampaignError) -> Self {
        match e {
            CampaignError::Calibration(e) => ArtefactError::Experiment(e),
            CampaignError::Journal(e) => ArtefactError::Journal(e),
        }
    }
}

artefact_error_from!(
    Journal(JournalError),
    Experiment(ExperimentError),
    Backend(BackendError),
    Xval(XvalError),
    Sched(SchedError),
    Monitor(MonitorError)
);

/// Looks an artefact up by name.
fn find(name: &str) -> Result<&'static Artefact, UsageError> {
    ARTEFACTS
        .iter()
        .find(|a| a.name == name)
        .ok_or_else(|| UsageError::UnknownArtefact(name.to_owned()))
}

/// Parses `anp run`'s arguments (the artefact name, then its flags, on
/// top of any global `flags`) and rejects flags the artefact would
/// ignore.
pub fn parse_run<I: Iterator<Item = String>>(
    flags: &mut Flags,
    args: &mut Peekable<I>,
) -> Result<&'static Artefact, UsageError> {
    let artefact = find(&args.next().ok_or(UsageError::MissingArtefact)?)?;
    flags.parse_rest(args)?;
    if flags.backend != "des" && !artefact.reads_backend {
        return Err(UsageError::NotRead {
            artefact: artefact.name,
            flag: format!("--backend {}", flags.backend),
        });
    }
    Ok(artefact)
}

/// Prints a campaign's holes to stderr: one `MISSING` line per missing
/// cell, then the partial-result summary naming the resume journal.
pub fn report_holes(ledger: &Supervision, resume: Option<&Path>) {
    for f in &ledger.failures {
        eprintln!("MISSING {f}");
    }
    if !ledger.is_complete() {
        eprintln!(
            "{} of {} cells missing (exit code {}){}",
            ledger.total - ledger.completed,
            ledger.total,
            ledger.exit_code(),
            match resume {
                Some(p) => format!("; re-run with --resume {} to complete", p.display()),
                None => "; add --resume <journal> to make the campaign resumable".to_owned(),
            }
        );
    }
}

/// Runs one artefact: prints the banner, runs it, writes its telemetry,
/// prints its holes, and maps the outcome onto the exit code.
pub fn run(artefact: &Artefact, flags: &Flags) -> ExitCode {
    println!("=== {} — {} ===", artefact.title, artefact.what);
    println!(
        "(Casas & Bronevetsky, IPDPS 2014; simulated Cab switch, seed={}, {})",
        flags.seed,
        if flags.quick {
            "QUICK sweep"
        } else {
            "full sweep"
        }
    );
    println!();
    let report = match RunCtx::new(flags).and_then(|ctx| (artefact.run)(&ctx)) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = flags
        .bench_json
        .as_deref()
        .filter(|_| !report.sweeps.is_empty())
    {
        let sweeps: Vec<&SweepTelemetry> = report.sweeps.iter().collect();
        match write_bench_json(
            path,
            artefact.name,
            flags.seed,
            flags.resume.as_deref(),
            &sweeps,
            &report.sched,
            &report.monitor,
        ) {
            Ok(()) => println!("(sweep telemetry written to {})", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
    report_holes(&report.supervision, flags.resume.as_deref());
    if report.gate_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::from(report.supervision.exit_code() as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Flags, UsageError> {
        let mut flags = Flags::default();
        flags.parse_rest(&mut args.iter().map(|a| a.to_string()).peekable())?;
        Ok(flags)
    }

    #[test]
    fn quick_flag_shrinks_apps_and_sweep() {
        let quick = parse(&["--quick", "--seed", "1"]).unwrap();
        let full = parse(&["--seed", "1"]).unwrap();
        assert!(quick.quick && !full.quick);
        let ctx = |flags: &Flags| RunCtx::new(flags).unwrap();
        assert_eq!(ctx(&full).apps().len(), 6);
        assert_eq!(ctx(&quick).apps().len(), 3);
        assert_eq!(ctx(&full).compression_sweep().len(), 40);
        assert_eq!(
            ctx(&quick).compression_sweep(),
            CompressionConfig::quick_sweep()
        );
    }

    #[test]
    fn supervisor_reflects_flags() {
        let flags = parse(&[
            "--max-retries",
            "2",
            "--run-budget",
            "1.5",
            "--event-budget",
            "100",
        ])
        .unwrap();
        let sup = flags.supervisor();
        assert_eq!(sup.retry.max_retries, 2);
        assert!(!sup.retry.backoff.is_zero());
        assert_eq!(sup.budget.wall, Some(Duration::from_secs_f64(1.5)));
        assert_eq!(sup.budget.events, Some(100));
        let sup = parse(&[]).unwrap().supervisor();
        assert!(sup.budget.is_unlimited());
        assert_eq!(sup.retry.max_retries, 0);
    }

    #[test]
    fn run_budget_must_be_finite_and_positive() {
        for bad in ["inf", "NaN", "1e400", "0", "-1", "1e-12", "soon"] {
            assert_eq!(
                parse(&["--run-budget", bad]),
                Err(UsageError::InvalidValue {
                    flag: "--run-budget".to_owned(),
                    value: bad.to_owned()
                }),
                "{bad} must be rejected"
            );
        }
        assert_eq!(
            parse(&["--run-budget", "0.25"]).unwrap().run_budget,
            Some(Duration::from_millis(250))
        );
    }

    #[test]
    fn global_position_stops_at_the_command() {
        let mut args = ["--seed", "7", "--jobs", "2", "--quick", "sched"]
            .iter()
            .map(|a| a.to_string())
            .peekable();
        let mut flags = Flags::default();
        flags.parse(&mut args, GLOBAL_FLAGS).unwrap();
        assert_eq!((flags.seed, flags.jobs), (7, Some(2)));
        assert_eq!(args.next().as_deref(), Some("--quick"), "not a global flag");
        assert_eq!(
            parse(&["--seed"]),
            Err(UsageError::MissingValue("--seed".to_owned()))
        );
        assert_eq!(
            parse(&["--bogus"]),
            Err(UsageError::UnknownArgument("--bogus".to_owned()))
        );
    }

    #[test]
    fn artefacts_reject_flags_they_do_not_read() {
        let run = |args: &[&str]| {
            let mut flags = Flags::default();
            parse_run(
                &mut flags,
                &mut args.iter().map(|a| a.to_string()).peekable(),
            )
            .map(|a| a.name)
        };
        assert_eq!(
            run(&["fig9_error_summary", "--backend", "flow"]),
            Ok("fig9_error_summary")
        );
        assert!(matches!(
            run(&["fig6_compression_utilization", "--backend", "flow"]),
            Err(UsageError::NotRead { .. })
        ));
        assert_eq!(
            run(&["fig8_prediction_errors", "--cache", "x"]),
            Err(UsageError::UnknownArgument("--cache".to_owned()))
        );
        assert_eq!(
            run(&["fig6_compression_utilization", "--backend", "des"]),
            Ok("fig6_compression_utilization")
        );
        assert_eq!(run(&[]), Err(UsageError::MissingArtefact));
        assert!(matches!(
            run(&["fig10"]),
            Err(UsageError::UnknownArtefact(_))
        ));
    }
}
