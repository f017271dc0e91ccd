//! Substrate calibration report (not a paper artefact): the simulated
//! switch's idle behaviour, the queue-model calibration, and each
//! workload's one-line footprint. Useful when re-tuning `SwitchConfig` or
//! application parameters.
//!
//! The probe, runtime, and phase-tracing cells are independent
//! simulations that fan out across the sweep engine (`--jobs N`) under
//! the supervision envelope: failing cells print `-` entries while every
//! sibling completes, `--max-retries` / `--run-budget` /
//! `--event-budget` bound each cell, and `--resume <journal>` makes the
//! report crash-safe (exit code 0 complete, 3 partial, 1 nothing).
//!
//! ```text
//! cargo run --release -- run calibration_report \
//!     [--quick] [--jobs N] [--max-retries N] [--resume run.jsonl]
//! ```

use anp_core::{
    calibrate, degradation_percent, idle_profile, impact_profile_of_app,
    impact_profile_of_compression, runtime_under_compression, solo_runtime, ExperimentConfig,
    ExperimentError, LatencyProfile, MuPolicy,
};
use anp_simmpi::{RunOutcome, World};
use anp_simnet::{SimDuration, SimTime};
use anp_workloads::{AppKind, CompressionConfig, RunMode};

use crate::cli::{ArtefactError, Report, RunCtx};

/// Measures the fraction of an app's solo runtime spent blocked on the
/// network (via the world's phase accounting) — the ceiling on how much
/// interference can hurt it. A run that does not converge is an error.
fn solo_wait_fraction(cfg: &ExperimentConfig, app: AppKind) -> Result<f64, ExperimentError> {
    let mut world = World::new(cfg.switch.clone());
    let job = world.add_job(app.name(), app.build(RunMode::Iterations(0), 17));
    world.enable_tracing();
    let cap = SimTime::ZERO + cfg.run_cap;
    match world.run_until_job_done(job, cap) {
        RunOutcome::Completed { .. } => Ok(world.job_phase_totals(job).waiting_fraction()),
        RunOutcome::DeadlineExpired(report) => Err(ExperimentError::HorizonExceeded {
            job: app.name().to_owned(),
            cap,
            report,
        }),
        RunOutcome::Stalled(report) => Err(ExperimentError::Stalled(report)),
        RunOutcome::BudgetExhausted(report) => Err(ExperimentError::Budget(report)),
    }
}

type ProfileTask<'a> = Box<dyn Fn() -> Result<LatencyProfile, ExperimentError> + Send + Sync + 'a>;
type RuntimeTask<'a> = Box<dyn Fn() -> Result<SimDuration, ExperimentError> + Send + Sync + 'a>;

pub(super) fn run(ctx: &RunCtx) -> Result<Report, ArtefactError> {
    let cfg = &ctx.cfg;
    let mut report = Report::default();
    let apps = ctx.apps();
    let heavy = &CompressionConfig::new(17, 25_000, 10);

    // Probe distributions: the idle baseline, the heaviest CompressionB
    // footprint, and one impact profile per app.
    let mut profile_tasks: Vec<(String, ProfileTask<'_>)> = vec![
        ("idle".to_owned(), Box::new(|| idle_profile(cfg))),
        (
            "impact:heavy".to_owned(),
            Box::new(move || impact_profile_of_compression(cfg, heavy)),
        ),
    ];
    for &app in &apps {
        profile_tasks.push((
            format!("profile:{}", app.name()),
            Box::new(move || impact_profile_of_app(cfg, app)),
        ));
    }
    let (profiles, profile_telemetry) = ctx.sweep("calibration-profiles", profile_tasks)?;
    report.record(&profiles, profile_telemetry);

    // Runtimes: each app solo and under the heavy configuration.
    let mut runtime_tasks: Vec<(String, RuntimeTask<'_>)> = Vec::new();
    for &app in &apps {
        runtime_tasks.push((
            format!("solo:{}", app.name()),
            Box::new(move || solo_runtime(cfg, app)),
        ));
        runtime_tasks.push((
            format!("loaded:{}", app.name()),
            Box::new(move || runtime_under_compression(cfg, app, heavy)),
        ));
    }
    let (runtimes, runtime_telemetry) = ctx.sweep("calibration-runtimes", runtime_tasks)?;
    report.record(&runtimes, runtime_telemetry);

    // Network-wait fractions from phase tracing (a non-converging or
    // panicking cell is isolated into a typed hole).
    let wait_tasks: Vec<(String, _)> = apps
        .iter()
        .map(|&app| {
            (format!("wait:{}", app.name()), move || {
                solo_wait_fraction(cfg, app)
            })
        })
        .collect();
    let (waits, wait_telemetry) = ctx.sweep("calibration-waits", wait_tasks)?;
    report.record(&waits, wait_telemetry);

    let idle = profiles[0].as_ref().ok();
    let heavy_profile = profiles[1].as_ref().ok();
    let calib = calibrate(cfg, MuPolicy::MinLatency)?;
    match idle {
        Some(idle) => {
            println!(
                "idle switch: mean={:.3}us sd={:.3}us min={:.3}us max={:.3}us (n={})",
                idle.mean(),
                idle.std_dev(),
                idle.min(),
                idle.max(),
                idle.count()
            );
            println!(
                "queue calibration: mu={:.4}/us Var(S)={:.4}us^2 idle-reading={:.1}%",
                calib.mu,
                calib.var_s,
                calib.utilization(idle) * 100.0
            );
        }
        None => println!("idle switch: -  (cell failed)"),
    }
    println!();

    match heavy_profile {
        Some(p) => println!(
            "heaviest CompressionB ({}): probe mean={:.2}us -> util={:.1}%",
            heavy.label(),
            p.mean(),
            calib.utilization(p) * 100.0
        ),
        None => println!(
            "heaviest CompressionB ({}): -  (cell failed)",
            heavy.label()
        ),
    }
    println!();

    println!(
        "{:<8} {:>7} {:>11} {:>10} {:>14}",
        "app", "util", "solo", "net-wait", "degr@heavy"
    );
    for (i, &app) in apps.iter().enumerate() {
        let p = profiles[2 + i].as_ref().ok();
        let solo = runtimes[2 * i].as_ref().ok();
        let loaded = runtimes[2 * i + 1].as_ref().ok();
        let wait = waits[i].as_ref().ok();
        let util = p.map_or("-".to_owned(), |p| {
            format!("{:.1}%", calib.utilization(p) * 100.0)
        });
        let solo_txt = solo.map_or("-".to_owned(), |t| format!("{t}"));
        let wait_txt = wait.map_or("-".to_owned(), |w| format!("{:.0}%", w * 100.0));
        let degr = match (solo, loaded) {
            (Some(s), Some(l)) => format!("{:+.1}%", degradation_percent(*s, *l)),
            _ => "-".to_owned(),
        };
        println!(
            "{:<8} {:>7} {:>11} {:>10} {:>14}",
            app.name(),
            util,
            solo_txt,
            wait_txt,
            degr
        );
    }
    println!();
    println!("net-wait is the solo run's network-blocked time fraction (phase");
    println!("tracing): the ceiling on how much switch contention can hurt.");
    Ok(report)
}
