//! Extension study: the **phase-aware queue model** on the pairing the
//! paper could not predict.
//!
//! §V-B identifies the queue model's only significant error: predicting
//! FFTW's slowdown next to AMG. "As AMG executions go through phases that
//! do not significantly use the network, the switch capacity available to
//! FFTW is close to 100 % during a significant portion of its co-run …
//! the queue model has not considered \[this\] as it assumes a constant
//! utilization." This harness implements the fix that discussion implies:
//! evaluate the utilization per time window of the probe series and
//! average the victim's degradation curve over the *distribution* of
//! utilizations instead of its mean.
//!
//! The study measures phased co-runners (AMG and bursty MCB) against
//! network-sensitive victims and compares three predictors: the plain
//! queue model, the phase-aware model, and the measured truth.
//!
//! Every measurement (look-up table, probe series, solo and co-run
//! runtimes) runs as a supervised sweep cell: failing cells print `-`
//! rows while every sibling completes, `--max-retries` / `--run-budget`
//! / `--event-budget` bound each cell, and `--resume <journal>` makes
//! the study crash-safe (exit code 0 complete, 3 partial, 1 nothing).
//!
//! ```text
//! cargo run --release -- run phase_model_study \
//!     [--quick] [--jobs N] [--max-retries N] [--resume run.jsonl]
//! ```

use anp_core::{
    calibrate, degradation_percent, impact_series_of_app, runtime_under_corun, solo_runtime,
    DesBackend, ExperimentError, LookupTable, MuPolicy, QueueModel, QueuePhaseModel, SlowdownModel,
};
use anp_simnet::SimDuration;
use anp_workloads::{AppKind, CompressionConfig};

use crate::cli::{ArtefactError, Report, RunCtx};

type RuntimeTask<'a> = Box<dyn Fn() -> Result<SimDuration, ExperimentError> + Send + Sync + 'a>;

pub(super) fn run(ctx: &RunCtx) -> Result<Report, ArtefactError> {
    let cfg = &ctx.cfg;
    let mut report = Report::default();

    // Victims: the network-sensitive applications; co-runners: the phased
    // ones whose average footprint misrepresents their instantaneous one.
    let victims = if ctx.quick {
        vec![AppKind::Fftw]
    } else {
        vec![AppKind::Fftw, AppKind::Vpfft, AppKind::Milc]
    };
    let phased = [AppKind::Amg, AppKind::Mcb];

    // Look-up table over a reduced sweep (the degradation curves only
    // need enough points to interpolate), measured under supervision:
    // failed cells leave holes; the table interpolates the survivors.
    println!("[measuring look-up table]");
    let calib = calibrate(cfg, MuPolicy::MinLatency)?;
    let sweep = CompressionConfig::quick_sweep();
    let (lut, lut_telemetry) = LookupTable::measure_supervised_with(
        &DesBackend,
        cfg,
        calib,
        &victims,
        &sweep,
        &ctx.supervisor,
        ctx.journal.as_ref(),
        |line| println!("  {line}"),
    )?;
    report
        .supervision
        .absorb(lut.failures, lut.completed, lut.total);
    report.sweeps.push(lut_telemetry);
    let table = lut.table;

    // One timed impact series per phased co-runner.
    let series_tasks: Vec<(String, _)> = phased
        .iter()
        .map(|&other| {
            (format!("series:{}", other.name()), move || {
                impact_series_of_app(cfg, other)
            })
        })
        .collect();
    let (series_cells, series_telemetry) = ctx.sweep("phase-series", series_tasks)?;
    report.record(&series_cells, series_telemetry);

    // Solo baselines plus the victim × co-runner ground-truth grid.
    let mut runtime_tasks: Vec<(String, RuntimeTask<'_>)> = Vec::new();
    for &victim in &victims {
        runtime_tasks.push((
            format!("solo:{}", victim.name()),
            Box::new(move || solo_runtime(cfg, victim)),
        ));
    }
    for &other in &phased {
        for &victim in &victims {
            runtime_tasks.push((
                format!("corun:{}:{}", victim.name(), other.name()),
                Box::new(move || runtime_under_corun(cfg, victim, other)),
            ));
        }
    }
    let (runtimes, runtime_telemetry) = ctx.sweep("phase-runtimes", runtime_tasks)?;
    report.record(&runtimes, runtime_telemetry);

    let phase_model = QueuePhaseModel {
        window: SimDuration::from_millis(10),
        min_samples: 4,
    };

    println!();
    if table.is_none() {
        println!("(no look-up table cell completed: predictions unavailable)");
    }
    println!(
        "{:<8} {:<8} {:>9} {:>9} {:>11} | {:>8} {:>10}",
        "victim", "with", "measured", "Queue", "QueuePhase", "err(Q)", "err(QP)"
    );
    let mut q_errors = Vec::new();
    let mut qp_errors = Vec::new();
    for (oi, &other) in phased.iter().enumerate() {
        let series = series_cells[oi].as_ref().ok();
        match (series, table.as_ref()) {
            (Some(series), Some(table)) => {
                let dist = series.utilization_distribution(
                    &table.calibration,
                    phase_model.window,
                    phase_model.min_samples,
                );
                let u_lo = dist.iter().map(|(u, _)| *u).fold(1.0, f64::min);
                let u_hi = dist.iter().map(|(u, _)| *u).fold(0.0, f64::max);
                println!(
                    "-- {} windows: {} usable, utilization spread {:.0}%..{:.0}% (mean-based reading {:.0}%)",
                    other.name(),
                    dist.len(),
                    u_lo * 100.0,
                    u_hi * 100.0,
                    table.calibration.utilization(&series.profile()) * 100.0
                );
            }
            _ => println!("-- {} windows: -  (series cell failed)", other.name()),
        }
        for (vi, &victim) in victims.iter().enumerate() {
            let solo = runtimes[vi].as_ref().ok();
            let corun = runtimes[victims.len() + oi * victims.len() + vi]
                .as_ref()
                .ok();
            let measured = match (solo, corun) {
                (Some(s), Some(l)) => Some(degradation_percent(*s, *l)),
                _ => None,
            };
            let predictions = match (series, table.as_ref()) {
                (Some(series), Some(table)) => {
                    let q = QueueModel.predict(table, victim, &series.profile());
                    let qp = phase_model.predict_series(table, victim, series);
                    q.zip(qp)
                }
                _ => None,
            };
            match (measured, predictions) {
                (Some(measured), Some((q, qp))) => {
                    q_errors.push((measured - q).abs());
                    qp_errors.push((measured - qp).abs());
                    println!(
                        "{:<8} {:<8} {:>+8.1}% {:>+8.1}% {:>+10.1}% | {:>8.1} {:>10.1}",
                        victim.name(),
                        other.name(),
                        measured,
                        q,
                        qp,
                        (measured - q).abs(),
                        (measured - qp).abs()
                    );
                }
                _ => println!(
                    "{:<8} {:<8} {:>9} {:>9} {:>11} | {:>8} {:>10}",
                    victim.name(),
                    other.name(),
                    measured.map_or("-".to_owned(), |m| format!("{m:+.1}%")),
                    "-",
                    "-",
                    "-",
                    "-"
                ),
            }
        }
    }
    println!();
    if q_errors.is_empty() {
        println!("mean |error|: unavailable (no fully measured pairing)");
    } else {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        println!(
            "mean |error|: Queue {:.1} pts, QueuePhase {:.1} pts over {} pairings",
            mean(&q_errors),
            mean(&qp_errors),
            q_errors.len()
        );
    }
    println!();
    println!("Expected: for phased co-runners the time-blind queue model");
    println!("over-predicts (it charges the victim for the co-runner's burst");
    println!("utilization all the time); the phase-aware average is closer to");
    println!("the measured slowdown.");
    Ok(report)
}
