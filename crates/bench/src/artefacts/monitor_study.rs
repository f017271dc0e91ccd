//! Online monitoring study (not a paper artefact): the live probe-train
//! pipeline — streaming EWMA/quantile estimation, P-K inversion, and
//! CUSUM change-point detection — gated against DES ground truth on
//! three axes:
//!
//! * utilization accuracy on the CompressionB gated ladder,
//! * change-point detection latency (in probe windows) around job
//!   arrival/departure episodes,
//! * probe-train overhead on co-running applications.
//!
//! ```text
//! cargo run --release -- run monitor_study \
//!     [--quick] [--seed N] [--jobs N] [--no-bench-json] \
//!     [--max-retries N] [--run-budget SECS] [--event-budget N] [--resume P]
//! ```
//!
//! Every study cell runs under the supervision flags; with `--resume`
//! completed cells are journaled and a re-run decodes them instead of
//! re-simulating.
//!
//! Exit 0 when every gate holds, 1 on any violation (each printed to
//! stderr). Stdout is wall-clock-free and byte-identical across
//! `--jobs`, like every other harness.

use anp_monitor::{
    gate_violations, monitor_records, render_report, run_monitor_study, MonitorOpts,
};

use crate::cli::{ArtefactError, Report, RunCtx};

pub(super) fn run(ctx: &RunCtx) -> Result<Report, ArtefactError> {
    let mut mopts = if ctx.quick {
        MonitorOpts::quick(ctx.seed, 1)
    } else {
        MonitorOpts::full(ctx.seed, 1)
    };
    mopts.cfg.jobs = ctx.cfg.jobs;

    let study = run_monitor_study(&mopts, &ctx.supervisor, ctx.journal.as_ref(), |line| {
        println!("  [monitor] {line}")
    })?;

    println!();
    print!("{}", render_report(&mopts, &study));

    let violations = gate_violations(&mopts, &study);
    for v in &violations {
        eprintln!("gate violation: {v}");
    }
    Ok(Report {
        monitor: monitor_records(&study),
        sweeps: vec![study.telemetry],
        gate_failed: !violations.is_empty(),
        ..Report::default()
    })
}
