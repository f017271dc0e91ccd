//! Reproduces **Fig. 6**: switch utilization achieved by every
//! CompressionB configuration (P ∈ {1,4,7,14,17}, B ∈ {2.5e4..2.5e7}
//! cycles, M ∈ {1,10}) on the simulated Cab switch.
//!
//! The per-configuration impact runs are independent simulations, so
//! they fan out across the sweep engine (`--jobs N`) under the
//! supervision envelope: failing cells print `-` rows while every
//! sibling completes, `--max-retries` / `--run-budget` /
//! `--event-budget` bound each cell, and `--resume <journal>` makes the
//! sweep crash-safe (exit code 0 complete, 3 partial, 1 nothing).
//!
//! ```text
//! cargo run --release -- run fig6_compression_utilization \
//!     [--quick] [--jobs N] [--max-retries N] [--resume run.jsonl]
//! ```

use anp_core::{calibrate, impact_profile_of_compression, MuPolicy};

use crate::cli::{ArtefactError, Report, RunCtx};

pub(super) fn run(ctx: &RunCtx) -> Result<Report, ArtefactError> {
    let cfg = &ctx.cfg;
    let calib = calibrate(cfg, MuPolicy::MinLatency)?;
    println!(
        "calibration: mu={:.4}/us  Var(S)={:.4}us^2  idle mean={:.3}us",
        calib.mu, calib.var_s, calib.idle_mean
    );
    println!();

    let sweep = ctx.compression_sweep();
    let tasks: Vec<(String, _)> = sweep
        .iter()
        .map(|comp| {
            (format!("impact:{}", comp.label()), move || {
                impact_profile_of_compression(cfg, comp)
            })
        })
        .collect();
    let (profiles, telemetry) = ctx.sweep("fig6-impacts", tasks)?;
    let mut report = Report::default();
    report.record(&profiles, telemetry);

    println!(
        "{:<7} {:<12} {:<5} {:>10} {:>8}  bar",
        "P", "B (cycles)", "M", "mean (us)", "util"
    );
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (comp, cell) in sweep.iter().zip(&profiles) {
        match cell {
            Ok(p) => {
                let u = calib.utilization(p);
                lo = lo.min(u);
                hi = hi.max(u);
                println!(
                    "{:<7} {:<12} {:<5} {:>10.3} {:>7.1}%  {}",
                    comp.partners,
                    format!("{:.1e}", comp.bubble_cycles as f64),
                    comp.messages,
                    p.mean(),
                    u * 100.0,
                    "=".repeat((u * 40.0).round() as usize)
                );
            }
            Err(_) => println!(
                "{:<7} {:<12} {:<5} {:>10} {:>8}  -",
                comp.partners,
                format!("{:.1e}", comp.bubble_cycles as f64),
                comp.messages,
                "-",
                "-"
            ),
        }
    }
    println!();
    if lo.is_finite() {
        println!(
            "covered utilization range: {:.1}% .. {:.1}%  (paper: 26% .. 92%)",
            lo * 100.0,
            hi * 100.0
        );
    } else {
        println!("covered utilization range: unavailable (no cell completed)");
    }
    println!("Paper shape check: utilization is driven primarily by the bubble");
    println!("size B (smaller bubbles -> higher utilization), secondarily by");
    println!("partner count P and message count M.");
    Ok(report)
}
