//! Reproduces **Table I**: the measured % performance slowdown of every
//! application when co-run with every application (including itself) on
//! the same switch — 36 directed pairings for the 6 applications.
//!
//! The solo runtimes and the quadratic pairing grid are independent
//! simulations, so they fan out across the sweep engine's workers
//! (`--jobs N`, default all cores); collection is index-ordered, so the
//! table is byte-identical for any worker count. Every cell runs under
//! the supervision envelope: a panicking or failing cell prints `-` in
//! its table slot while every sibling completes, `--max-retries` /
//! `--run-budget` / `--event-budget` bound each cell, and `--resume
//! <journal>` makes the grid crash-safe (exit code 0 complete, 3
//! partial, 1 nothing). Sweep telemetry lands in `BENCH_anp.json`.
//!
//! ```text
//! cargo run --release -- run table1_pair_slowdowns \
//!     [--quick] [--jobs N] [--max-retries N] [--resume run.jsonl]
//! ```

use anp_core::{degradation_percent, runtime_under_corun, solo_runtime};

use crate::cli::{ArtefactError, Report, RunCtx};

pub(super) fn run(ctx: &RunCtx) -> Result<Report, ArtefactError> {
    let cfg = &ctx.cfg;
    let apps = ctx.apps();
    let mut report = Report::default();

    // Solo baselines: one independent run per application.
    let solo_tasks: Vec<(String, _)> = apps
        .iter()
        .map(|&a| (format!("solo:{}", a.name()), move || solo_runtime(cfg, a)))
        .collect();
    let (solos, solo_telemetry) = ctx.sweep("table1-solos", solo_tasks)?;
    report.record(&solos, solo_telemetry);
    for (a, r) in apps.iter().zip(&solos) {
        match r {
            Ok(t) => println!("solo {:<7} {}", a.name(), t),
            Err(e) => println!("solo {:<7} (failed: {e})", a.name()),
        }
    }
    println!();

    // The quadratic grid, victim-major — the expensive part of Table I.
    let grid_tasks: Vec<(String, _)> = apps
        .iter()
        .flat_map(|&victim| {
            apps.iter().map(move |&other| {
                (
                    format!("corun:{}+{}", victim.name(), other.name()),
                    move || runtime_under_corun(cfg, victim, other),
                )
            })
        })
        .collect();
    let (grid, grid_telemetry) = ctx.sweep("table1-grid", grid_tasks)?;

    // Header row: co-runner names. Holes (failed cells, or cells whose
    // solo baseline is missing) render as `-`.
    print!("{:<8}", "victim\\w");
    for other in &apps {
        print!(" {:>7}", other.name());
    }
    println!();
    let mut cells = grid.iter();
    for (victim, solo) in apps.iter().zip(&solos) {
        print!("{:<8}", victim.name());
        for _ in &apps {
            let cell = cells.next().ok_or_else(|| {
                ArtefactError::Check("Table I grid has fewer cells than app pairs".to_owned())
            })?;
            match (solo, cell) {
                (Ok(solo), Ok(t)) => print!(" {:>7.0}", degradation_percent(*solo, *t)),
                _ => print!(" {:>7}", "-"),
            }
        }
        println!();
    }
    println!();
    println!("Rows: the measured application; columns: the co-running one.");
    println!("Paper shape check: the FFT row dominates (45% with itself in the");
    println!("paper), MILC+FFT is the next largest, and rows for Lulesh, MCB");
    println!("and AMG stay in the low single digits.");
    println!();
    println!(
        "grid: {} runs on {} workers in {:.2}s (serial-equivalent {:.2}s, {:.2}x speedup, {:.0} events/s)",
        grid_telemetry.runs.len(),
        grid_telemetry.workers,
        grid_telemetry.wall_secs,
        grid_telemetry.serial_secs(),
        grid_telemetry.speedup(),
        grid_telemetry.events_per_sec(),
    );
    report.record(&grid, grid_telemetry);
    Ok(report)
}
