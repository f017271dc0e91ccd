//! Seed-sensitivity study (not a paper artefact): how much do the key
//! reproduction metrics move across independent random seeds?
//!
//! The simulator is deterministic per seed; this harness quantifies the
//! across-seed spread of the idle calibration, the heaviest CompressionB
//! utilization, and one sensitive and one insensitive application's
//! degradation — evidence that the reproduction's conclusions are not an
//! artifact of one lucky seed.
//!
//! The per-seed studies are fully independent, so they fan out across the
//! sweep engine (`--jobs N`, default all cores) under the supervision
//! envelope: a failing seed prints a `-` row while the others complete,
//! `--max-retries` / `--run-budget` / `--event-budget` bound each cell,
//! and `--resume <journal>` makes the study crash-safe (exit code 0
//! complete, 3 partial, 1 nothing). Sweep telemetry lands in
//! `BENCH_anp.json`.
//!
//! ```text
//! cargo run --release -- run seed_sensitivity \
//!     [--quick] [--jobs N] [--max-retries N] [--resume run.jsonl]
//! ```

use anp_core::{
    calibrate, degradation_percent, idle_profile, impact_profile_of_compression,
    runtime_under_compression, solo_runtime, MuPolicy,
};
use anp_metrics::OnlineStats;
use anp_workloads::{AppKind, CompressionConfig};

use crate::cli::{ArtefactError, Report, RunCtx};

pub(super) fn run(ctx: &RunCtx) -> Result<Report, ArtefactError> {
    let seeds: Vec<u64> = if ctx.quick {
        vec![1, 2, 3]
    } else {
        vec![1, 2, 3, 4, 5]
    };
    let heavy = &CompressionConfig::new(17, 25_000, 10);
    let base = &ctx.cfg;

    // One task per seed: each re-derives its own config and runs the full
    // metric set. Seeds are independent studies, ideal fan-out cells.
    // The nested-pair return type is what the run journal can encode
    // bit-exactly: ((idle mean, heavy utilization), (FFTW, MCB degr)).
    let tasks: Vec<(String, _)> = seeds
        .iter()
        .map(|&seed| {
            (format!("seed:{seed}"), move || {
                let cfg = base.clone().with_seed(seed);
                let idle = idle_profile(&cfg)?;
                let calib = calibrate(&cfg, MuPolicy::MinLatency)?;
                let u = calib.utilization(&impact_profile_of_compression(&cfg, heavy)?);
                let fftw = degradation_percent(
                    solo_runtime(&cfg, AppKind::Fftw)?,
                    runtime_under_compression(&cfg, AppKind::Fftw, heavy)?,
                );
                let mcb = degradation_percent(
                    solo_runtime(&cfg, AppKind::Mcb)?,
                    runtime_under_compression(&cfg, AppKind::Mcb, heavy)?,
                );
                Ok(((idle.mean(), u), (fftw, mcb)))
            })
        })
        .collect();
    let (rows, telemetry) = ctx.sweep("seed-sensitivity", tasks)?;
    let mut report = Report::default();
    report.record(&rows, telemetry);

    let mut idle_mean = OnlineStats::new();
    let mut heavy_util = OnlineStats::new();
    let mut fftw_degr = OnlineStats::new();
    let mut mcb_degr = OnlineStats::new();
    println!(
        "{:>6} {:>10} {:>10} {:>12} {:>12}",
        "seed", "idle (us)", "util@heavy", "FFTW degr", "MCB degr"
    );
    for (seed, row) in seeds.iter().zip(&rows) {
        match row {
            Ok(((idle, u), (fftw, mcb))) => {
                println!(
                    "{:>6} {:>10.3} {:>9.1}% {:>+11.1}% {:>+11.1}%",
                    seed,
                    idle,
                    u * 100.0,
                    fftw,
                    mcb
                );
                idle_mean.push(*idle);
                heavy_util.push(u * 100.0);
                fftw_degr.push(*fftw);
                mcb_degr.push(*mcb);
            }
            Err(_) => println!(
                "{:>6} {:>10} {:>10} {:>12} {:>12}",
                seed, "-", "-", "-", "-"
            ),
        }
    }
    println!();
    if idle_mean.count() == 0 {
        println!("(no seed completed: spread unavailable)");
    } else {
        let line = |name: &str, s: &OnlineStats| {
            println!(
                "{:<12} mean {:>8.2}  sd {:>6.2}  (cv {:>4.1}%)",
                name,
                s.mean(),
                s.std_dev(),
                s.std_dev() / s.mean().abs().max(1e-9) * 100.0
            );
        };
        line("idle (us)", &idle_mean);
        line("util@heavy", &heavy_util);
        line("FFTW degr", &fftw_degr);
        line("MCB degr", &mcb_degr);
    }
    println!();
    println!("Low coefficients of variation mean the reproduction's headline");
    println!("numbers are properties of the model, not of a particular seed.");
    Ok(report)
}
