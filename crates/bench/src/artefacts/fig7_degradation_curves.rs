//! Reproduces **Fig. 7**: per-application % performance degradation as a
//! function of the % switch utilization removed by CompressionB, with the
//! paper's linear trend fit per application.
//!
//! The per-configuration impact runs and the app × config runtime grid
//! are independent simulations; both fan out across the sweep engine
//! (`--jobs N`, default all cores) with index-ordered collection, so the
//! curves are byte-identical for any worker count. Every cell runs under
//! the supervision envelope: failing cells print `-` rows while every
//! sibling completes, `--max-retries` / `--run-budget` / `--event-budget`
//! bound each cell, and `--resume <journal>` makes the sweep crash-safe
//! (exit code 0 complete, 3 partial, 1 nothing). Sweep telemetry lands
//! in `BENCH_anp.json`.
//!
//! ```text
//! cargo run --release -- run fig7_degradation_curves \
//!     [--quick] [--jobs N] [--max-retries N] [--resume run.jsonl]
//! ```

use anp_core::{
    calibrate, degradation_percent, impact_profile_of_compression, runtime_under_compression,
    solo_runtime, MuPolicy,
};
use anp_metrics::linear_fit;

use crate::cli::{ArtefactError, Report, RunCtx};

pub(super) fn run(ctx: &RunCtx) -> Result<Report, ArtefactError> {
    let cfg = &ctx.cfg;
    let calib = calibrate(cfg, MuPolicy::MinLatency)?;
    let mut report = Report::default();

    // Measure each configuration's utilization once — one independent
    // impact run per configuration.
    let sweep = ctx.compression_sweep();
    let impact_tasks: Vec<(String, _)> = sweep
        .iter()
        .map(|comp| {
            (format!("impact:{}", comp.label()), move || {
                impact_profile_of_compression(cfg, comp)
            })
        })
        .collect();
    let (profiles, impact_telemetry) = ctx.sweep("fig7-impacts", impact_tasks)?;
    let utils: Vec<Option<f64>> = profiles
        .iter()
        .map(|r| r.as_ref().ok().map(|p| calib.utilization(p) * 100.0))
        .collect();
    report.record(&profiles, impact_telemetry);

    // Solo baselines plus the full app × config runtime grid, app-major.
    let apps = ctx.apps();
    let solo_tasks: Vec<(String, _)> = apps
        .iter()
        .map(|&app| {
            (format!("solo:{}", app.name()), move || {
                solo_runtime(cfg, app)
            })
        })
        .collect();
    let (solos, solo_telemetry) = ctx.sweep("fig7-solos", solo_tasks)?;
    report.record(&solos, solo_telemetry);
    let grid_tasks: Vec<(String, _)> = apps
        .iter()
        .flat_map(|&app| {
            sweep.iter().map(move |comp| {
                (format!("grid:{}:{}", app.name(), comp.label()), move || {
                    runtime_under_compression(cfg, app, comp)
                })
            })
        })
        .collect();
    let (grid, grid_telemetry) = ctx.sweep("fig7-grid", grid_tasks)?;
    report.record(&grid, grid_telemetry);

    let mut cells = grid.iter();
    for (app, solo) in apps.iter().zip(&solos) {
        match solo {
            Ok(t) => println!("{} (solo {}):", app.name(), t),
            Err(e) => println!("{} (solo failed: {e}):", app.name()),
        }
        println!("  {:>6}  {:>8}  {:<16}", "util", "degr", "config");
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (comp, util) in sweep.iter().zip(&utils) {
            let cell = cells.next().ok_or_else(|| {
                ArtefactError::Check("fig7 grid has fewer cells than apps × configs".to_owned())
            })?;
            match (solo, util, cell) {
                (Ok(solo), Some(util), Ok(t)) => {
                    let d = degradation_percent(*solo, *t);
                    xs.push(*util);
                    ys.push(d);
                    println!("  {:>5.1}%  {:>+7.1}%  {}", util, d, comp.label());
                }
                _ => println!("  {:>6}  {:>8}  {}", "-", "-", comp.label()),
            }
        }
        match linear_fit(&xs, &ys) {
            Some(fit) => println!(
                "  trend: degr% = {:.3} * util% {:+.1}   (R^2 = {:.2})",
                fit.slope, fit.intercept, fit.r2
            ),
            None => println!("  trend: (not enough spread to fit)"),
        }
        println!();
    }

    println!("Paper shape check: FFTW and VPFFT degrade steepest (>100% at the");
    println!("top of the range), MILC is intermediate, Lulesh mild (~10-15%),");
    println!("MCB and AMG nearly flat (<5%).");
    Ok(report)
}
