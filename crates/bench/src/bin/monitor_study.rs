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
//! cargo run --release -p anp-bench --bin monitor_study \
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

use anp_bench::{banner, HarnessOpts};
use anp_core::Parallelism;
use anp_monitor::{
    gate_violations, monitor_records, render_report, run_monitor_study, MonitorOpts,
};

fn main() {
    let opts = HarnessOpts::from_args();
    banner(
        "Monitor study",
        "online utilization estimation and interference detection",
        &opts,
    );

    let mut mopts = if opts.quick {
        MonitorOpts::quick(opts.seed, opts.jobs.unwrap_or(1))
    } else {
        MonitorOpts::full(opts.seed, opts.jobs.unwrap_or(1))
    };
    if opts.jobs.is_none() {
        mopts.cfg.jobs = Parallelism::Auto;
    }

    let journal = opts.open_journal();
    let report = run_monitor_study(&mopts, &opts.supervisor(), journal.as_ref(), |line| {
        println!("  [monitor] {line}")
    })
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });

    println!();
    print!("{}", render_report(&mopts, &report));

    let sweeps = [&report.telemetry];
    opts.emit_bench_json_full("monitor_study", &sweeps, &[], &monitor_records(&report));

    let violations = gate_violations(&mopts, &report);
    for v in &violations {
        eprintln!("gate violation: {v}");
    }
    if !violations.is_empty() {
        std::process::exit(1);
    }
}
