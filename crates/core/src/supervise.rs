//! The sweep engine: index-ordered parallel fan-out of independent
//! cells, each run inside a supervision envelope — panic isolation,
//! per-cell run budgets, retries, and journal-backed resume.
//!
//! Every sweep in the workspace runs through [`sweep_supervised_for`]
//! (or its `"des"`-attributed shorthand [`sweep_supervised`]). A caller
//! with no supervision flags passes [`Supervisor::none`] and no journal:
//! cells then run exactly once, in task order on one worker or claimed
//! by index across several, and a panic still becomes a typed hole
//! instead of aborting the siblings. The envelope:
//!
//! * **Panic isolation** — each cell runs under
//!   [`std::panic::catch_unwind`]; a panic becomes
//!   [`TaskError::Panicked`] with the payload and cell index, and every
//!   sibling cell still completes.
//! * **Run budgets** — [`RunBudget`] caps each *attempt* by simulator
//!   events and wall clock. The budget is installed in a thread-local
//!   that the experiment drivers consult ([`world_allowance`]) and
//!   charge ([`charge_events`]); the DES world stops cooperatively and
//!   the cell yields [`TaskError::Budget`] with the stall diagnostics.
//!   The event cap is deterministic; the wall cap is a watchdog.
//! * **Retries** — [`RetryPolicy`] re-invokes failed or panicked cells
//!   up to `max_retries` times with doubling backoff. Cells are pure
//!   functions of the experiment config (every seed re-derives from it),
//!   so a retry reproduces the clean run bit-for-bit; budget errors are
//!   **not** retried, because a deterministic event budget would fail
//!   identically again.
//! * **Resume** — with a [`RunJournal`], each finished cell is journaled
//!   and a later run with `--resume` decodes completed cells instead of
//!   re-simulating them, after fingerprint verification.
//! * **Fault injection** — [`Supervisor::fault_hook`] sees every cell
//!   attempt's label inside the envelope, so a front end can fault any
//!   cell of any sweep by the label its journal records.
//!
//! Results come back as index-ordered `Vec<CellResult<T>>` — a completed
//! sweep is byte-identical to a serial loop over the tasks, for any
//! worker count; an incomplete sweep has typed holes where cells failed,
//! and callers map the hole pattern onto the 0 (complete) / 3 (partial) /
//! 1 (failed) exit-code convention via [`partial_exit_code`].

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
#[expect(clippy::disallowed_types, reason = "wall budgets never alter results")]
use std::time::{Duration, Instant};

use anp_simmpi::StallReport;

use crate::experiments::ExperimentError;
use crate::journal::{CellStatus, JournalEntry, JournalError, Journaled, RunJournal};
use crate::sweep::{take_events, Parallelism, RunRecord, SweepTelemetry};

/// Per-attempt resource caps for one sweep cell. `None` = unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunBudget {
    /// Wall-clock cap per attempt (a watchdog: checked every 65 536
    /// simulator events, so enforcement lags by up to one check window).
    pub wall: Option<Duration>,
    /// Simulator-event cap per attempt. Deterministic: the same cell
    /// trips after exactly the same event under any schedule.
    pub events: Option<u64>,
}

impl RunBudget {
    /// No caps at all.
    pub fn unlimited() -> Self {
        RunBudget::default()
    }

    /// True when neither cap is set.
    pub fn is_unlimited(&self) -> bool {
        self.wall.is_none() && self.events.is_none()
    }
}

/// How often and how patiently failed cells are re-attempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryPolicy {
    /// Re-attempts allowed per cell after the first try (0 = fail fast).
    pub max_retries: u32,
    /// Pause before the first retry; doubles on every further retry.
    pub backoff: Duration,
}

/// The supervision envelope applied to every cell of a supervised sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct Supervisor {
    /// Per-attempt resource caps.
    pub budget: RunBudget,
    /// Retry policy for failed and panicked cells.
    pub retry: RetryPolicy,
    /// Fault-injection hook: called with the cell's label at the start of
    /// every attempt, after the budget is installed and inside the panic
    /// isolation, so a hook that panics or charges events faults exactly
    /// that cell the way an organic fault would.
    pub fault_hook: Option<fn(&str)>,
}

impl Supervisor {
    /// No budgets, no retries, no fault hook — pure panic isolation.
    pub fn none() -> Self {
        Supervisor::default()
    }
}

/// Diagnostics of a budget-tripped cell attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetReport {
    /// Wall-clock seconds the attempt ran before tripping.
    pub wall_secs: f64,
    /// Simulator events the attempt processed.
    pub events: u64,
    /// The budget that tripped.
    pub budget: RunBudget,
    /// Where the simulation stood when the watchdog gave up.
    pub stall: StallReport,
}

impl std::fmt::Display for BudgetReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "run budget spent after {:.2}s / {} events",
            self.wall_secs, self.events
        )?;
        if let Some(cap) = self.budget.events {
            write!(f, " (event cap {cap})")?;
        }
        if let Some(wall) = self.budget.wall {
            write!(f, " (wall cap {:.2}s)", wall.as_secs_f64())?;
        }
        write!(f, ": {}", self.stall)
    }
}

/// Why a supervised cell produced no value.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskError {
    /// The cell panicked; the payload was captured and siblings kept
    /// running.
    Panicked {
        /// Cell index (serial task order).
        cell: usize,
        /// The cell's label.
        label: String,
        /// The panic payload, if it was a string (the common case).
        payload: String,
    },
    /// The cell's per-attempt [`RunBudget`] was spent. Not retried: the
    /// deterministic event budget would trip identically on every retry.
    Budget {
        /// Cell index (serial task order).
        cell: usize,
        /// The cell's label.
        label: String,
        /// What tripped and where the simulation stood.
        report: BudgetReport,
    },
    /// The cell returned a typed experiment error.
    Failed {
        /// Cell index (serial task order).
        cell: usize,
        /// The cell's label.
        label: String,
        /// The underlying error.
        error: ExperimentError,
    },
}

impl TaskError {
    /// The failed cell's index.
    pub fn cell(&self) -> usize {
        match self {
            TaskError::Panicked { cell, .. }
            | TaskError::Budget { cell, .. }
            | TaskError::Failed { cell, .. } => *cell,
        }
    }

    /// The failed cell's label.
    pub fn label(&self) -> &str {
        match self {
            TaskError::Panicked { label, .. }
            | TaskError::Budget { label, .. }
            | TaskError::Failed { label, .. } => label,
        }
    }

    /// The journal status of this failure.
    pub fn status(&self) -> CellStatus {
        match self {
            TaskError::Panicked { .. } => CellStatus::Panicked,
            TaskError::Budget { .. } => CellStatus::Budget,
            TaskError::Failed { .. } => CellStatus::Failed,
        }
    }

    /// Whether a retry could help. Panics and experiment errors are
    /// retried (the environment may differ — and a deterministic failure
    /// simply fails again, costing only the retry budget); a spent
    /// deterministic budget cannot succeed on a retry.
    pub fn retryable(&self) -> bool {
        !matches!(self, TaskError::Budget { .. })
    }
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Panicked {
                cell,
                label,
                payload,
            } => write!(f, "cell {cell} '{label}' panicked: {payload}"),
            TaskError::Budget {
                cell,
                label,
                report,
            } => write!(f, "cell {cell} '{label}': {report}"),
            TaskError::Failed { cell, label, error } => {
                write!(f, "cell {cell} '{label}' failed: {error}")
            }
        }
    }
}

impl std::error::Error for TaskError {}

/// The outcome of one supervised cell: a value, or a typed hole.
pub type CellResult<T> = Result<T, TaskError>;

/// Cells of `results` that produced a value.
pub fn completed_count<T>(results: &[CellResult<T>]) -> usize {
    results.iter().filter(|r| r.is_ok()).count()
}

/// The campaign exit-code convention: 0 when every cell completed, 3
/// when some did (a partial result worth keeping — resumable), 1 when
/// none did. An empty campaign is vacuously complete.
pub fn partial_exit_code(completed: usize, total: usize) -> i32 {
    if completed == total {
        0
    } else if completed > 0 {
        3
    } else {
        1
    }
}

/// The hole ledger of one supervised campaign: typed holes and cell
/// counts accumulated across its sweeps.
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

    /// True when no cell failed.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// The campaign exit code ([`partial_exit_code`]): 0 complete, 3
    /// partial, 1 nothing.
    pub fn exit_code(&self) -> i32 {
        partial_exit_code(self.completed, self.total)
    }
}

#[expect(clippy::disallowed_types, reason = "a wall budget's starting point")]
struct BudgetState {
    started: Instant,
    wall: Option<Duration>,
    event_cap: Option<u64>,
    events_used: u64,
}

thread_local! {
    /// The budget of the cell attempt currently running on this thread.
    /// Installed by the supervised engine, consulted by the experiment
    /// drivers; absent outside supervised sweeps (unlimited).
    static BUDGET: RefCell<Option<BudgetState>> = const { RefCell::new(None) };
}

#[expect(clippy::disallowed_types, reason = "starts the attempt's wall budget")]
fn install_budget(budget: RunBudget) {
    BUDGET.with(|slot| {
        *slot.borrow_mut() = Some(BudgetState {
            started: Instant::now(),
            wall: budget.wall,
            event_cap: budget.events,
            events_used: 0,
        });
    });
}

fn clear_budget() {
    BUDGET.with(|slot| *slot.borrow_mut() = None);
}

/// Charges `n` simulator events against the current cell attempt's
/// budget (no-op outside supervised sweeps). Called by
/// [`crate::sweep::note_events`], so drivers need no extra plumbing.
pub fn charge_events(n: u64) {
    BUDGET.with(|slot| {
        if let Some(state) = slot.borrow_mut().as_mut() {
            state.events_used = state.events_used.saturating_add(n);
        }
    });
}

/// What the current cell attempt may still spend: `(remaining events,
/// wall deadline)`, both `None` when unlimited. Experiment drivers pass
/// this straight to [`anp_simmpi::World::set_run_budget`] before every
/// run, so one cell's budget spans all of its simulations.
#[expect(clippy::disallowed_types, reason = "hands the deadline to worlds")]
pub fn world_allowance() -> (Option<u64>, Option<Instant>) {
    BUDGET.with(|slot| {
        slot.borrow().as_ref().map_or((None, None), |state| {
            (
                state
                    .event_cap
                    .map(|cap| cap.saturating_sub(state.events_used)),
                state.wall.map(|w| state.started + w),
            )
        })
    })
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Extends a configuration fingerprint with the sweep's name and task
/// labels, so cells can only be resumed into the same position of the
/// same sweep.
fn sweep_fingerprint(config_fp: u64, name: &str, labels: &[String]) -> u64 {
    let mut parts: Vec<&str> = Vec::with_capacity(labels.len() + 2);
    let fp = format!("{config_fp:016x}");
    parts.push(&fp);
    parts.push(name);
    for label in labels {
        parts.push(label);
    }
    crate::journal::fnv1a(&parts)
}

/// [`sweep_supervised_for`] attributed to the default `"des"` backend.
pub fn sweep_supervised<T, F>(
    name: &str,
    par: Parallelism,
    sup: &Supervisor,
    journal: Option<&RunJournal>,
    config_fp: u64,
    tasks: Vec<(String, F)>,
) -> Result<(Vec<CellResult<T>>, SweepTelemetry), JournalError>
where
    T: Send + Journaled,
    F: Fn() -> Result<T, ExperimentError> + Send + Sync,
{
    sweep_supervised_for(name, "des", par, sup, journal, config_fp, tasks)
}

/// The sweep engine: fans `tasks` out across up to
/// [`Parallelism::workers`] threads, runs every cell inside the
/// supervision envelope (panic isolation, budgets, retries) and, with a
/// journal, records it for resume. Telemetry attributes every cell to
/// `backend` (`"des"`, `"flow"`, …). Tasks are `Fn` rather than `FnOnce`
/// because retries re-invoke them; cells are pure functions of the
/// experiment config, so re-invocation is deterministic.
///
/// Results are index-ordered; completed cells are byte-identical to a
/// serial loop over the tasks. The only error is a journal/fingerprint
/// conflict — cell failures come back *inside* the vector as typed holes.
#[expect(clippy::disallowed_types, reason = "wall times are telemetry only")]
pub fn sweep_supervised_for<T, F>(
    name: &str,
    backend: &str,
    par: Parallelism,
    sup: &Supervisor,
    journal: Option<&RunJournal>,
    config_fp: u64,
    tasks: Vec<(String, F)>,
) -> Result<(Vec<CellResult<T>>, SweepTelemetry), JournalError>
where
    T: Send + Journaled,
    F: Fn() -> Result<T, ExperimentError> + Send + Sync,
{
    let n = tasks.len();
    let labels: Vec<String> = tasks.iter().map(|(label, _)| label.clone()).collect();
    let fp = sweep_fingerprint(config_fp, name, &labels);
    let prior = match journal {
        Some(j) => j.prior(name, fp, &labels)?,
        None => (0..n).map(|_| None).collect(),
    };
    if let Some(j) = journal {
        j.begin_sweep(name, fp, n);
    }
    let workers = par.workers().min(n.max(1));
    let sweep_start = Instant::now();

    // One cell, with retries: drain stale event tallies, install the
    // budget, isolate panics (the fault hook's too), classify, and
    // (maybe) try again.
    let run_cell = |i: usize, label: &str, f: &F| -> (CellResult<T>, RunRecord) {
        let mut retries = 0u32;
        loop {
            let _ = take_events();
            install_budget(sup.budget);
            let start = Instant::now();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                if let Some(hook) = sup.fault_hook {
                    hook(label);
                }
                f()
            }));
            let wall_secs = start.elapsed().as_secs_f64();
            clear_budget();
            let events = take_events();
            let result: CellResult<T> = match caught {
                Ok(Ok(value)) => Ok(value),
                Ok(Err(ExperimentError::Budget(stall))) => Err(TaskError::Budget {
                    cell: i,
                    label: label.to_owned(),
                    report: BudgetReport {
                        wall_secs,
                        events,
                        budget: sup.budget,
                        stall,
                    },
                }),
                Ok(Err(error)) => Err(TaskError::Failed {
                    cell: i,
                    label: label.to_owned(),
                    error,
                }),
                Err(payload) => Err(TaskError::Panicked {
                    cell: i,
                    label: label.to_owned(),
                    payload: panic_message(payload),
                }),
            };
            let outcome = match &result {
                Ok(_) => "ok".to_owned(),
                Err(e) => {
                    if e.retryable() && retries < sup.retry.max_retries {
                        let pause = sup.retry.backoff.saturating_mul(1 << retries.min(20));
                        if !pause.is_zero() {
                            std::thread::sleep(pause);
                        }
                        retries += 1;
                        continue;
                    }
                    e.status().as_str().to_owned()
                }
            };
            let record = RunRecord {
                label: label.to_owned(),
                backend: backend.to_owned(),
                wall_secs,
                events,
                outcome,
                retries,
            };
            return (result, record);
        }
    };

    // One cell, resume-aware: journaled successes decode instead of
    // re-running; fresh outcomes are journaled as soon as they exist.
    let finish_cell = |i: usize| -> (CellResult<T>, RunRecord) {
        let (label, f) = &tasks[i];
        if let Some(value) = prior[i]
            .as_ref()
            .filter(|e| e.status == CellStatus::Ok)
            .and_then(|e| e.value.as_deref())
            .and_then(T::decode_journal)
        {
            let record = RunRecord {
                label: label.clone(),
                backend: backend.to_owned(),
                wall_secs: 0.0,
                events: 0,
                outcome: "resumed".to_owned(),
                retries: 0,
            };
            return (Ok(value), record);
        }
        let (result, record) = run_cell(i, label, f);
        if let Some(j) = journal {
            j.record(&JournalEntry {
                sweep: name.to_owned(),
                cell: i,
                label: label.clone(),
                status: match &result {
                    Ok(_) => CellStatus::Ok,
                    Err(e) => e.status(),
                },
                retries: record.retries,
                wall_secs: record.wall_secs,
                events: record.events,
                error: result.as_ref().err().map(|e| e.to_string()),
                value: result.as_ref().ok().map(Journaled::encode_journal),
            });
        }
        (result, record)
    };

    let (results, runs) = if workers <= 1 || n <= 1 {
        let mut results = Vec::with_capacity(n);
        let mut runs = Vec::with_capacity(n);
        for i in 0..n {
            let (r, rec) = finish_cell(i);
            results.push(r);
            runs.push(rec);
        }
        (results, runs)
    } else {
        // Parallel path: workers claim indices from an atomic counter and
        // each result lands in its own slot, so collection order is task
        // order. Cells cannot poison anything: the closure never panics
        // (panics are caught and typed inside `finish_cell`).
        type CellSlot<T> = Mutex<Option<(CellResult<T>, RunRecord)>>;
        let next = AtomicUsize::new(0);
        let slots: Vec<CellSlot<T>> = (0..n).map(|_| Mutex::new(None)).collect();
        let finish_cell = &finish_cell;
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let out = finish_cell(i);
                    *slots[i]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(out);
                });
            }
        });
        let mut results = Vec::with_capacity(n);
        let mut runs = Vec::with_capacity(n);
        for slot in slots {
            #[expect(
                clippy::expect_used,
                reason = "thread::scope joins every worker before collection, so each slot holds exactly one result"
            )]
            let (r, rec) = slot
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("supervised cell did not produce a result");
            results.push(r);
            runs.push(rec);
        }
        (results, runs)
    };

    let telemetry = SweepTelemetry {
        name: name.to_owned(),
        backend: backend.to_owned(),
        workers: if workers <= 1 || n <= 1 { 1 } else { workers },
        wall_secs: sweep_start.elapsed().as_secs_f64(),
        runs,
    };
    Ok((results, telemetry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use anp_simmpi::JobId;
    use anp_simnet::SimTime;

    fn stall() -> StallReport {
        StallReport {
            job: JobId(0),
            job_name: "test".to_owned(),
            at: SimTime::ZERO,
            blocked: Vec::new(),
            failed_sends: Vec::new(),
        }
    }

    fn sup() -> Supervisor {
        Supervisor::none()
    }

    type CellFn = Box<dyn Fn() -> Result<u64, ExperimentError> + Send + Sync>;

    /// An unsupervised-style sweep: no budget, no journal, every cell
    /// must complete. Returns the values in task order.
    fn clean_sweep<T, F>(
        name: &str,
        par: Parallelism,
        tasks: Vec<(String, F)>,
    ) -> (Vec<T>, SweepTelemetry)
    where
        T: Send + Journaled,
        F: Fn() -> Result<T, ExperimentError> + Send + Sync,
    {
        let (results, t) = sweep_supervised(name, par, &sup(), None, 0, tasks).unwrap();
        let values = results.into_iter().map(|r| r.unwrap()).collect();
        (values, t)
    }

    #[test]
    fn results_come_back_in_task_order() {
        // Give later tasks *less* work so they finish first under any
        // parallel schedule; the output must still be index-ordered.
        let tasks: Vec<(String, _)> = (0..64u64)
            .map(|i| {
                (format!("cell{i}"), move || {
                    let spin = (64 - i) * 1_000;
                    let mut acc = 0u64;
                    for k in 0..spin {
                        acc = acc.wrapping_add(k ^ i);
                    }
                    Ok((i, acc.wrapping_mul(0))) // value depends only on i
                })
            })
            .collect();
        let (out, _) = clean_sweep("order", Parallelism::fixed(8), tasks);
        let ids: Vec<u64> = out.iter().map(|(i, _)| *i).collect();
        assert_eq!(ids, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial_output() {
        let mk = || {
            (0..40u64)
                .map(|i| {
                    (format!("cell{i}"), move || {
                        Ok(i.wrapping_mul(0x9E37_79B9).rotate_left(i as u32 % 13))
                    })
                })
                .collect::<Vec<_>>()
        };
        let (serial, _) = clean_sweep::<u64, _>("s", Parallelism::fixed(1), mk());
        let (parallel, _) = clean_sweep::<u64, _>("p", Parallelism::fixed(7), mk());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single_task_sweeps() {
        let none: Vec<(String, CellFn)> = vec![];
        assert!(clean_sweep("empty", Parallelism::Auto, none).0.is_empty());
        let one = vec![("one".to_owned(), || Ok(41u64 + 1))];
        assert_eq!(clean_sweep("one", Parallelism::Auto, one).0, vec![42]);
    }

    #[test]
    fn telemetry_counts_runs_and_events() {
        let tasks: Vec<(String, _)> = (0..5u64)
            .map(|i| {
                (format!("cell{i}"), move || {
                    crate::sweep::note_events(100 + i);
                    Ok(i)
                })
            })
            .collect();
        let (values, t) = clean_sweep("unit", Parallelism::fixed(3), tasks);
        assert_eq!(values, vec![0, 1, 2, 3, 4]);
        assert_eq!(t.runs.len(), 5);
        assert_eq!(t.name, "unit");
        assert_eq!(t.workers, 3);
        assert_eq!(t.events_total(), 100 + 101 + 102 + 103 + 104);
        assert_eq!(t.runs[2].label, "cell2");
        assert_eq!(t.runs[2].events, 102);
        assert!(t.serial_secs() >= 0.0);
    }

    #[test]
    fn serial_telemetry_reports_one_worker() {
        let (_, t) = clean_sweep(
            "serial",
            Parallelism::fixed(1),
            vec![("a".to_owned(), || Ok(0u64))],
        );
        assert_eq!(t.workers, 1);
    }

    #[test]
    fn stale_events_do_not_leak_between_cells() {
        crate::sweep::note_events(999); // tally left by an earlier, unswept experiment
        let tasks = vec![("only".to_owned(), || {
            crate::sweep::note_events(5);
            Ok(0u64)
        })];
        let (_, t) = clean_sweep("leak", Parallelism::fixed(1), tasks);
        assert_eq!(t.events_total(), 5);
    }

    #[test]
    fn backend_attribution_defaults_to_des_and_mixes_on_absorb() {
        let cell = || vec![("a".to_owned(), || Ok(0u64))];
        let (_, des) = clean_sweep("d", Parallelism::fixed(1), cell());
        assert_eq!(des.backend, "des");
        assert_eq!(des.runs[0].backend, "des");
        let (_, flow) =
            sweep_supervised_for("f", "flow", Parallelism::fixed(1), &sup(), None, 0, cell())
                .unwrap();
        assert_eq!(flow.backend, "flow");
        assert_eq!(flow.runs[0].backend, "flow");
        let mut agg = des.clone();
        agg.absorb(des.clone());
        assert_eq!(agg.backend, "des", "same-backend absorb stays pure");
        agg.absorb(flow);
        assert_eq!(agg.backend, "mixed");
        assert_eq!(agg.runs[2].backend, "flow", "per-run attribution survives");
    }

    #[test]
    fn panicking_cell_does_not_kill_siblings() {
        let tasks: Vec<(String, CellFn)> = (0..8u64)
            .map(|i| {
                let f: CellFn = if i == 3 {
                    Box::new(|| panic!("injected panic in cell 3"))
                } else {
                    Box::new(move || Ok(i * 10))
                };
                (format!("cell{i}"), f)
            })
            .collect();
        let (results, t) =
            sweep_supervised("iso", Parallelism::fixed(8), &sup(), None, 0, tasks).unwrap();
        assert_eq!(completed_count(&results), 7);
        for (i, r) in results.iter().enumerate() {
            if i == 3 {
                let err = r.as_ref().unwrap_err();
                assert_eq!(err.cell(), 3);
                assert!(matches!(err, TaskError::Panicked { payload, .. }
                    if payload.contains("injected panic")));
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u64 * 10, "sibling {i} completes");
            }
        }
        assert_eq!(t.runs[3].outcome, "panicked");
        assert_eq!(t.runs[2].outcome, "ok");
        assert_eq!(
            partial_exit_code(completed_count(&results), results.len()),
            3
        );
    }

    #[test]
    fn retries_rerun_failed_and_panicked_cells() {
        let attempts = AtomicUsize::new(0);
        let tasks: Vec<(String, _)> = vec![("flaky".to_owned(), || {
            match attempts.fetch_add(1, Ordering::SeqCst) {
                0 => Err(ExperimentError::NoSamples),
                1 => panic!("second attempt panics"),
                _ => Ok(7u64),
            }
        })];
        let supervisor = Supervisor {
            retry: RetryPolicy {
                max_retries: 2,
                backoff: Duration::ZERO,
            },
            ..Supervisor::none()
        };
        let (results, t) =
            sweep_supervised("retry", Parallelism::fixed(1), &supervisor, None, 0, tasks).unwrap();
        assert_eq!(*results[0].as_ref().unwrap(), 7);
        assert_eq!(attempts.load(Ordering::SeqCst), 3);
        assert_eq!(t.runs[0].retries, 2);
        assert_eq!(t.runs[0].outcome, "ok");
    }

    #[test]
    fn budget_errors_are_not_retried() {
        let attempts = AtomicUsize::new(0);
        let tasks: Vec<(String, _)> = vec![("capped".to_owned(), || {
            attempts.fetch_add(1, Ordering::SeqCst);
            Err::<u64, _>(ExperimentError::Budget(stall()))
        })];
        let supervisor = Supervisor {
            retry: RetryPolicy {
                max_retries: 5,
                backoff: Duration::ZERO,
            },
            ..Supervisor::none()
        };
        let (results, t) =
            sweep_supervised("budget", Parallelism::fixed(1), &supervisor, None, 0, tasks).unwrap();
        assert!(matches!(
            results[0].as_ref().unwrap_err(),
            TaskError::Budget { .. }
        ));
        assert_eq!(attempts.load(Ordering::SeqCst), 1, "budget must fail fast");
        assert_eq!(t.runs[0].outcome, "budget");
        assert_eq!(
            partial_exit_code(completed_count(&results), results.len()),
            1
        );
    }

    #[test]
    fn exhausted_retries_keep_the_typed_hole() {
        let tasks: Vec<(String, _)> = vec![("dead".to_owned(), || {
            Err::<u64, _>(ExperimentError::NoSamples)
        })];
        let supervisor = Supervisor {
            retry: RetryPolicy {
                max_retries: 2,
                backoff: Duration::ZERO,
            },
            ..Supervisor::none()
        };
        let (results, t) =
            sweep_supervised("dead", Parallelism::fixed(1), &supervisor, None, 0, tasks).unwrap();
        let err = results[0].as_ref().unwrap_err();
        assert!(matches!(
            err,
            TaskError::Failed {
                error: ExperimentError::NoSamples,
                ..
            }
        ));
        assert_eq!(t.runs[0].retries, 2);
        assert_eq!(t.runs[0].outcome, "failed");
    }

    #[test]
    fn journal_round_trip_resumes_only_missing_cells() {
        let dir = std::env::temp_dir().join(format!("anp-supervise-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.jsonl");

        let calls = AtomicUsize::new(0);
        let mk_tasks = |fail_two: bool| -> Vec<(String, _)> {
            (0..4u64)
                .map(|i| {
                    let calls = &calls;
                    (format!("cell{i}"), move || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        if fail_two && i == 2 {
                            Err(ExperimentError::NoSamples)
                        } else {
                            Ok(i * 111)
                        }
                    })
                })
                .collect()
        };

        let journal = RunJournal::create(&path).unwrap();
        let (first, _) = sweep_supervised(
            "res",
            Parallelism::fixed(2),
            &sup(),
            Some(&journal),
            99,
            mk_tasks(true),
        )
        .unwrap();
        assert_eq!(completed_count(&first), 3);
        assert_eq!(calls.load(Ordering::SeqCst), 4);
        drop(journal);

        let journal = RunJournal::resume(&path).unwrap();
        let (second, t) = sweep_supervised(
            "res",
            Parallelism::fixed(2),
            &sup(),
            Some(&journal),
            99,
            mk_tasks(false),
        )
        .unwrap();
        assert_eq!(
            calls.load(Ordering::SeqCst),
            5,
            "only the failed cell re-runs"
        );
        let values: Vec<u64> = second.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, vec![0, 111, 222, 333]);
        let resumed = t.runs.iter().filter(|r| r.outcome == "resumed").count();
        assert_eq!(resumed, 3);

        // A different config fingerprint must refuse the journal.
        let err = sweep_supervised(
            "res",
            Parallelism::fixed(1),
            &sup(),
            Some(&journal),
            100,
            mk_tasks(false),
        )
        .unwrap_err();
        assert!(matches!(err, JournalError::FingerprintMismatch { .. }));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn world_allowance_tracks_charged_events() {
        install_budget(RunBudget {
            wall: None,
            events: Some(1000),
        });
        assert_eq!(world_allowance().0, Some(1000));
        charge_events(300);
        assert_eq!(world_allowance().0, Some(700));
        charge_events(900);
        assert_eq!(world_allowance().0, Some(0), "saturates at zero");
        clear_budget();
        assert_eq!(world_allowance(), (None, None));
        charge_events(5); // no-op outside a supervised cell
    }

    thread_local! {
        /// Labels [`recording_hook`] saw on this (serial-sweep) thread.
        static HOOKED: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    }

    /// Records every label and panics on `cell2`, like `ANP_FAULT_PANIC`.
    fn recording_hook(label: &str) {
        HOOKED.with(|h| h.borrow_mut().push(label.to_owned()));
        if label == "cell2" {
            panic!("injected fault: panic in {label}");
        }
    }

    #[test]
    fn fault_hook_sees_every_attempt_by_its_cell_label() {
        let flaky = AtomicUsize::new(0);
        let tasks: Vec<(String, _)> = (0..4u64)
            .map(|i| {
                let flaky = &flaky;
                (format!("cell{i}"), move || {
                    if i == 1 && flaky.fetch_add(1, Ordering::SeqCst) == 0 {
                        return Err(ExperimentError::NoSamples);
                    }
                    Ok(i)
                })
            })
            .collect();
        let supervisor = Supervisor {
            retry: RetryPolicy {
                max_retries: 1,
                backoff: Duration::ZERO,
            },
            fault_hook: Some(recording_hook),
            ..Supervisor::none()
        };
        let (results, t) =
            sweep_supervised("hooked", Parallelism::fixed(1), &supervisor, None, 0, tasks).unwrap();
        // Once per attempt: cell1 fails once and cell2's hook panics on
        // both of its attempts, so each is seen again on its retry.
        assert_eq!(
            HOOKED.with(|h| h.take()),
            ["cell0", "cell1", "cell1", "cell2", "cell2", "cell3"]
        );
        assert!(
            matches!(&results[2], Err(TaskError::Panicked { cell: 2, label, payload })
            if label == "cell2" && payload == "injected fault: panic in cell2")
        );
        for i in [0, 1, 3] {
            assert_eq!(results[i].as_ref().ok(), Some(&(i as u64)), "cell{i}");
        }
        assert_eq!(t.runs[1].retries, 1);
        assert_eq!(t.runs[2].outcome, "panicked");
        // Unsupervised sweeps (perfbench, the library tests) carry no hook.
        assert!(Supervisor::none().fault_hook.is_none());
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
}
