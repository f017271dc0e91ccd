//! Reproduces **Fig. 9**: the quartile summary (min / Q1 / median / Q3 /
//! max box data) of each model's absolute prediction errors across all
//! pairings.
//!
//! Pass the same `--resume <journal>` used with `fig8_prediction_errors`
//! to reuse its measurements instead of re-running the whole study; a
//! journal recorded under another seed or backend is refused.
//!
//! ```text
//! cargo run --release -- run fig9_error_summary [--quick] [--resume study.jsonl]
//! ```

use crate::cli::{ArtefactError, Report, RunCtx};
use crate::{full_outcomes, print_error_summary};

pub(super) fn run(ctx: &RunCtx) -> Result<Report, ArtefactError> {
    let (outcomes, report) = full_outcomes(ctx)?;
    println!();
    print_error_summary(&outcomes);
    println!();
    println!("Paper shape check: AverageStDevLT improves on AverageLT; PDFLT");
    println!("matches AverageStDevLT (mean+sd already summarize the PDF); the");
    println!("queue model wins overall, with >75% of its predictions under 10%");
    println!("absolute error in the paper.");
    Ok(report)
}
