//! Shared vocabulary of the sweep engine: worker counts, per-cell event
//! attribution, and telemetry records.
//!
//! Every expensive artefact of the paper is a grid of *independent,
//! deterministic* simulations: one impact run per CompressionB
//! configuration, an `apps × configs` grid of runtime runs (§IV-A), and a
//! quadratic grid of co-run pairings (Table I). Each cell seeds its own
//! [`anp_simmpi::World`] from the experiment config alone, so cells share
//! no state and can execute on any thread in any order.
//!
//! The engine that exploits this is
//! [`crate::supervise::sweep_supervised_for`]: it fans the cells out
//! across [`Parallelism::workers`] threads and collects results **by
//! index**, so the output is byte-identical to a serial loop in task
//! order regardless of scheduling. This module holds what that engine
//! and the experiment drivers share:
//!
//! * [`Parallelism`] — how many workers a sweep may use;
//! * [`note_events`] / [`take_events`] — a thread-local tally through
//!   which experiment drivers credit simulation events to the cell
//!   running on their thread;
//! * [`RunRecord`] / [`SweepTelemetry`] — per-cell wall time, events and
//!   outcome, plus whole-sweep wall time and worker count. Harnesses
//!   serialize these records to `BENCH_anp.json` so the performance
//!   trajectory of the engine is tracked run over run.

use std::cell::Cell;

use crate::journal::json_escape;

/// How many worker threads a sweep may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One worker per available hardware thread
    /// ([`std::thread::available_parallelism`]).
    #[default]
    Auto,
    /// Exactly this many workers. `Fixed(1)` runs every task in order on
    /// the calling thread — the exact pre-sweep-engine serial behavior.
    Fixed(usize),
}

impl Parallelism {
    /// A fixed worker count (clamped to at least 1).
    pub fn fixed(n: usize) -> Self {
        Parallelism::Fixed(n.max(1))
    }

    /// The number of workers this setting resolves to on this machine.
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Parallelism::Fixed(n) => n.max(1),
        }
    }
}

thread_local! {
    /// Simulation events processed by experiment drivers on this thread
    /// since the last [`take_events`]. Thread-local so parallel workers
    /// attribute events to their own runs.
    static RUN_EVENTS: Cell<u64> = const { Cell::new(0) };
}

/// Credits `n` simulation events to the current thread's running tally.
/// Called by the experiment drivers after each `World` run. Also charges
/// the supervised run budget of the current cell attempt, if one is
/// installed (see [`crate::supervise`]).
pub fn note_events(n: u64) {
    RUN_EVENTS.with(|c| c.set(c.get().saturating_add(n)));
    crate::supervise::charge_events(n);
}

/// Drains the current thread's event tally (used by the sweep runner to
/// attribute events to the task that just finished).
pub fn take_events() -> u64 {
    RUN_EVENTS.with(|c| c.replace(0))
}

/// Telemetry of one run (one sweep cell): an independent simulation or a
/// small serial batch of them.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Human-readable cell label, e.g. `solo:FFTW` or `grid:FFTW/P7-B2.5e6-M10`.
    pub label: String,
    /// Measurement backend that produced the cell (`"des"` for the
    /// packet-level simulator, `"flow"` for the analytic model).
    pub backend: String,
    /// Wall-clock seconds the cell took on its worker.
    pub wall_secs: f64,
    /// Simulation events processed by the cell (from
    /// [`anp_simmpi::World::events_processed`] via [`note_events`]).
    /// Zero for analytic backends, which process no events.
    pub events: u64,
    /// How the cell ended: `"ok"`, `"resumed"` (decoded from a run
    /// journal), or a failure kind from [`crate::journal::CellStatus`]
    /// (`"failed"`, `"panicked"`, `"budget"`).
    pub outcome: String,
    /// Retries the supervisor spent on the cell.
    pub retries: u32,
}

impl RunRecord {
    /// Simulation events per wall-clock second — the engine's throughput
    /// on this cell.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.events as f64 / self.wall_secs
    }
}

/// Telemetry of one whole sweep: the per-run records plus the fan-out
/// shape and end-to-end wall time.
#[derive(Debug, Clone)]
pub struct SweepTelemetry {
    /// Name of the sweep (e.g. `lookup-table`, `table1-grid`).
    pub name: String,
    /// Backend the sweep's cells ran on (`"des"`, `"flow"`, or `"mixed"`
    /// after absorbing a sweep from a different backend).
    pub backend: String,
    /// Worker threads the sweep ran on.
    pub workers: usize,
    /// End-to-end wall-clock seconds for the whole sweep.
    pub wall_secs: f64,
    /// One record per task, in task (= serial) order.
    pub runs: Vec<RunRecord>,
}

impl SweepTelemetry {
    /// Total simulation events across all runs.
    pub fn events_total(&self) -> u64 {
        self.runs.iter().map(|r| r.events).sum()
    }

    /// Sum of per-run wall times — the serial-equivalent duration of the
    /// sweep (what one worker would have needed).
    pub fn serial_secs(&self) -> f64 {
        self.runs.iter().map(|r| r.wall_secs).sum()
    }

    /// Aggregate throughput: total events over end-to-end wall time.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.events_total() as f64 / self.wall_secs
    }

    /// Parallel speedup actually realized: serial-equivalent time over
    /// end-to-end wall time. ~1.0 for a serial sweep.
    pub fn speedup(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 1.0;
        }
        self.serial_secs() / self.wall_secs
    }

    /// Folds `other` into `self`: runs concatenate, wall times add (the
    /// sweeps ran one after the other), worker count keeps the maximum.
    /// Absorbing a sweep from a different backend marks the aggregate as
    /// `"mixed"` (the per-run records keep their own backend).
    pub fn absorb(&mut self, other: SweepTelemetry) {
        self.workers = self.workers.max(other.workers);
        self.wall_secs += other.wall_secs;
        if self.backend != other.backend {
            self.backend = "mixed".to_owned();
        }
        self.runs.extend(other.runs);
    }

    /// Serializes the record to a self-contained JSON object (the
    /// element schema of `BENCH_anp.json`; no external dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.runs.len() * 96);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"backend\":\"{}\",\"workers\":{},\"wall_secs\":{:.6},\
             \"serial_secs\":{:.6},\
             \"speedup\":{:.3},\"runs\":{},\"events\":{},\"events_per_sec\":{:.0},\
             \"per_run\":[",
            json_escape(&self.name),
            json_escape(&self.backend),
            self.workers,
            self.wall_secs,
            self.serial_secs(),
            self.speedup(),
            self.runs.len(),
            self.events_total(),
            self.events_per_sec(),
        ));
        for (i, r) in self.runs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"label\":\"{}\",\"backend\":\"{}\",\"wall_secs\":{:.6},\"events\":{},\
                 \"outcome\":\"{}\",\"retries\":{}}}",
                json_escape(&r.label),
                json_escape(&r.backend),
                r.wall_secs,
                r.events,
                json_escape(&r.outcome),
                r.retries
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_record_is_well_formed() {
        let t = SweepTelemetry {
            name: "t\"est".to_owned(),
            backend: "flow".to_owned(),
            workers: 4,
            wall_secs: 1.5,
            runs: vec![RunRecord {
                label: "a".to_owned(),
                backend: "flow".to_owned(),
                wall_secs: 0.5,
                events: 10,
                outcome: "ok".to_owned(),
                retries: 1,
            }],
        };
        let j = t.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"name\":\"t\\\"est\""));
        assert!(j.contains("\"backend\":\"flow\""));
        assert!(j.contains("\"workers\":4"));
        assert!(j.contains("\"events\":10"));
        assert!(j.contains("\"outcome\":\"ok\""));
        assert!(j.contains("\"retries\":1"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(j.matches('{').count(), j.matches('}').count(),);
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn speedup_of_serial_sweep_is_about_one() {
        let rec = |events| RunRecord {
            label: String::new(),
            backend: "des".to_owned(),
            wall_secs: 1.0,
            events,
            outcome: "ok".to_owned(),
            retries: 0,
        };
        let t = SweepTelemetry {
            name: "s".into(),
            backend: "des".to_owned(),
            workers: 1,
            wall_secs: 2.0,
            runs: vec![rec(1), rec(1)],
        };
        assert!((t.speedup() - 1.0).abs() < 1e-9);
        assert!((t.events_per_sec() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parallelism_resolves_to_positive_workers() {
        assert!(Parallelism::Auto.workers() >= 1);
        assert_eq!(Parallelism::fixed(0).workers(), 1);
        assert_eq!(Parallelism::Fixed(0).workers(), 1);
        assert_eq!(Parallelism::fixed(6).workers(), 6);
        assert_eq!(Parallelism::default(), Parallelism::Auto);
    }
}
