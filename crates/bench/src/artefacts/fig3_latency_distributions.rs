//! Reproduces **Fig. 3**: distributions of probe packet latencies on an
//! idle switch and while each of the six applications runs.
//!
//! Each distribution is an independent simulation, so the cells fan out
//! across the sweep engine (`--jobs N`) under the supervision envelope:
//! failing cells print `-` rows while every sibling completes,
//! `--max-retries` / `--run-budget` / `--event-budget` bound each cell,
//! and `--resume <journal>` makes the sweep crash-safe (exit code 0
//! complete, 3 partial, 1 nothing).
//!
//! ```text
//! cargo run --release -- run fig3_latency_distributions \
//!     [--quick] [--jobs N] [--max-retries N] [--resume run.jsonl]
//! ```

use anp_core::{idle_profile, impact_profile_of_app, ExperimentError, LatencyProfile};

use crate::cli::{ArtefactError, Report, RunCtx};
use crate::render_histogram;

type Task<'a> = Box<dyn Fn() -> Result<LatencyProfile, ExperimentError> + Send + Sync + 'a>;

pub(super) fn run(ctx: &RunCtx) -> Result<Report, ArtefactError> {
    let cfg = &ctx.cfg;
    // One cell per distribution: the idle baseline plus one per app.
    let apps = ctx.apps();
    let mut tasks: Vec<(String, Task<'_>)> =
        vec![("idle".to_owned(), Box::new(|| idle_profile(cfg)))];
    for &app in &apps {
        tasks.push((
            format!("app:{}", app.name()),
            Box::new(move || impact_profile_of_app(cfg, app)),
        ));
    }
    let (profiles, telemetry) = ctx.sweep("fig3-distributions", tasks)?;
    let mut report = Report::default();
    report.record(&profiles, telemetry);

    let names: Vec<String> = std::iter::once("No App".to_owned())
        .chain(apps.iter().map(|a| a.name().to_owned()))
        .collect();
    for (name, cell) in names.iter().zip(&profiles) {
        match cell {
            Ok(p) => {
                println!(
                    "{}  (n={}, mean={:.2}us, sd={:.2}us)",
                    name,
                    p.count(),
                    p.mean(),
                    p.std_dev()
                );
                println!("{}", render_histogram(p));
            }
            Err(e) => {
                println!("{name}  -  (cell failed: {e})");
                println!();
            }
        }
    }

    println!("Paper shape check: the idle distribution has a sharp mode near");
    println!("1.25us with a small far tail; applications shift mass right by");
    println!("app-specific amounts (all-to-all codes most, MCB via a tail).");
    Ok(report)
}
