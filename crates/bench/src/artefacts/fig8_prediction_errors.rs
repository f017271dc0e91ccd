//! Reproduces **Fig. 8**: |measured − predicted| % slowdown for each of
//! the 36 pairings under all four models (AverageLT, AverageStDevLT,
//! PDFLT, Queue).
//!
//! This runs the full §V pipeline: isolated impact profiles for every
//! workload, the 40-configuration look-up table, co-run ground truth, and
//! the four predictors. Pass `--resume <journal>` to keep the
//! measurements: `fig9_error_summary` with the same journal (and the same
//! seed, backend and `--quick`) reuses every cell instead of re-running.
//!
//! The look-up table, the app impact profiles, and the co-run ground
//! truth grid all fan out across the sweep engine (`--jobs N`, default
//! all cores); sweep telemetry lands in `BENCH_anp.json`.
//!
//! ```text
//! cargo run --release -- run fig8_prediction_errors [--quick] [--resume study.jsonl] [--jobs N]
//! ```

use anp_core::ModelKind;

use crate::cli::{ArtefactError, Report, RunCtx};
use crate::full_outcomes;

pub(super) fn run(ctx: &RunCtx) -> Result<Report, ArtefactError> {
    let (outcomes, report) = full_outcomes(ctx)?;

    println!();
    println!(
        "{:<8} {:<8} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "victim", "with", "measured", "AvgLT", "AvgSdLT", "PDFLT", "Queue"
    );
    for o in &outcomes {
        print!("{:<8} {:<8}", o.victim.name(), o.other.name());
        match o.measured {
            Some(m) => print!(" {:>8.1}%", m),
            None => print!(" {:>9}", "-"),
        }
        for m in ModelKind::ALL {
            match o.abs_error(m) {
                Some(e) => print!(" {:>8.1} ", e),
                None => print!(" {:>9}", "-"),
            }
        }
        println!();
    }
    println!();
    println!("(model columns show the absolute error |real% - predicted%|)");
    println!("Paper shape check: the LUT models do well on Lulesh/AMG rows but");
    println!("miss on FFT/VPFFT; the queue model keeps most pairings under 10%");
    println!("with its worst case at FFTW predicted against AMG (phase-blind).");
    Ok(report)
}
