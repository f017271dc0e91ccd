//! Validates the paper's **performance-relativity principle** directly —
//! something the original study could not do, because real switches cannot
//! be down-clocked: *"from the perspective of software components, less
//! capable networks behave very similarly to networks that are partially
//! utilized by other software components"* (§I).
//!
//! In simulation we can build literally degraded switches. For each
//! application and each degradation level this harness measures:
//!
//! 1. the runtime on a *literally* less capable switch (link bandwidth and
//!    routing parallelism scaled down);
//! 2. the probe utilization `U` that the degraded switch exhibits relative
//!    to the intact one (how much capability "went missing");
//! 3. the runtime on the intact switch next to the CompressionB
//!    configuration whose utilization is closest to `U` — the paper's
//!    software emulation of (1).
//!
//! If the relativity principle holds in this model, columns (1) and (3)
//! should tell similar stories. This also doubles as the §I motivation
//! use-case: predicting performance on future systems with poorer
//! network-to-node ratios.
//!
//! Every measurement runs as a supervised sweep cell (`--jobs N` fans
//! them out): failing cells print `-` entries while every sibling
//! completes, `--max-retries` / `--run-budget` / `--event-budget` bound
//! each cell, and `--resume <journal>` makes the check crash-safe (exit
//! code 0 complete, 3 partial, 1 nothing).
//!
//! ```text
//! cargo run --release -- run relativity_check \
//!     [--quick] [--jobs N] [--max-retries N] [--resume run.jsonl]
//! ```

use anp_core::{
    calibrate, degradation_percent, impact_profile_of_compression, runtime_under_compression,
    solo_runtime, ExperimentConfig, ExperimentError, MuPolicy,
};
use anp_simnet::SimDuration;
use anp_workloads::{AppKind, CompressionConfig};

use crate::cli::{ArtefactError, Report, RunCtx};

/// A literally degraded Cab: ports and routing scaled by `num/den`.
fn degraded(cfg: &ExperimentConfig, num: u64, den: u64) -> ExperimentConfig {
    let mut out = cfg.clone();
    out.switch.link_bandwidth = cfg.switch.link_bandwidth * num / den;
    out.switch.local_bandwidth = cfg.switch.local_bandwidth * num / den;
    out.switch.route_servers = ((u64::from(cfg.switch.route_servers) * num / den).max(1)) as u32;
    out
}

type RuntimeTask<'a> = Box<dyn Fn() -> Result<SimDuration, ExperimentError> + Send + Sync + 'a>;

pub(super) fn run(ctx: &RunCtx) -> Result<Report, ArtefactError> {
    let cfg = &ctx.cfg;
    let calib = calibrate(cfg, MuPolicy::MinLatency)?;
    let mut report = Report::default();

    // Utilization of each sweep configuration, measured once.
    let sweep = ctx.compression_sweep();
    let impact_tasks: Vec<(String, _)> = sweep
        .iter()
        .map(|comp| {
            (format!("impact:{}", comp.label()), move || {
                impact_profile_of_compression(cfg, comp)
            })
        })
        .collect();
    let (profiles, impact_telemetry) = ctx.sweep("relativity-impacts", impact_tasks)?;
    let sweep_utils: Vec<Option<f64>> = profiles
        .iter()
        .map(|r| r.as_ref().ok().map(|p| calib.utilization(p)))
        .collect();
    report.record(&profiles, impact_telemetry);
    let idle_util = calib.utilization_from_sojourn(calib.idle_mean);
    if idle_util.is_nan() || sweep_utils.iter().flatten().any(|u| u.is_nan()) {
        return Err(ArtefactError::Check(
            "a measured utilization is not a number: no nearest configuration".to_owned(),
        ));
    }
    let nearest_config = |target: f64| -> Option<(&CompressionConfig, f64)> {
        sweep
            .iter()
            .zip(&sweep_utils)
            .filter_map(|(c, u)| u.map(|u| (c, u)))
            .min_by(|a, b| (a.1 - target).abs().total_cmp(&(b.1 - target).abs()))
    };

    let apps = if ctx.quick {
        vec![AppKind::Fftw, AppKind::Milc]
    } else {
        vec![
            AppKind::Fftw,
            AppKind::Vpfft,
            AppKind::Milc,
            AppKind::Lulesh,
        ]
    };
    let fractions: [(u64, u64); 3] = [(3, 4), (1, 2), (1, 4)];

    // The emulating configuration per fraction, from the measured sweep
    // utilizations (None when no impact cell completed).
    let choices: Vec<Option<(&CompressionConfig, f64)>> = fractions
        .iter()
        .map(|&(num, den)| {
            // The capability removed, expressed on the paper's utilization
            // scale: a switch at num/den capability behaves like the intact
            // one with (1 - num/den) consumed by someone else.
            let removed = 1.0 - num as f64 / den as f64;
            nearest_config(removed + idle_util)
        })
        .collect();

    // Solo, degraded-switch, and emulated runtimes, app-major.
    let mut runtime_tasks: Vec<(String, RuntimeTask<'_>)> = Vec::new();
    for &app in &apps {
        runtime_tasks.push((
            format!("solo:{}", app.name()),
            Box::new(move || solo_runtime(cfg, app)),
        ));
        for &(num, den) in &fractions {
            runtime_tasks.push((
                format!("weak:{}:{num}-{den}", app.name()),
                Box::new(move || solo_runtime(&degraded(cfg, num, den), app)),
            ));
        }
        for (&(num, den), choice) in fractions.iter().zip(&choices) {
            match choice {
                Some((comp, _)) => {
                    let comp = *comp;
                    runtime_tasks.push((
                        format!("emul:{}:{num}-{den}", app.name()),
                        Box::new(move || runtime_under_compression(cfg, app, comp)),
                    ));
                }
                None => runtime_tasks.push((
                    format!("emul:{}:{num}-{den}", app.name()),
                    Box::new(move || {
                        panic!("no emulating configuration: every impact cell failed")
                    }),
                )),
            }
        }
    }
    let per_app = 1 + 2 * fractions.len();
    let (runtimes, runtime_telemetry) = ctx.sweep("relativity-runtimes", runtime_tasks)?;
    report.record(&runtimes, runtime_telemetry);

    for (ai, &app) in apps.iter().enumerate() {
        let base = ai * per_app;
        let solo = runtimes[base].as_ref().ok();
        match solo {
            Some(solo) => println!("{} (solo on intact switch: {})", app.name(), solo),
            None => println!("{} (solo on intact switch: -)", app.name()),
        }
        println!(
            "  {:>9} | {:>14} | {:>7} {:>16} {:>14}",
            "capability", "degraded switch", "~util", "emulating config", "emulated run"
        );
        for (fi, &(num, den)) in fractions.iter().enumerate() {
            let t_weak = runtimes[base + 1 + fi].as_ref().ok();
            let t_emul = runtimes[base + 1 + fractions.len() + fi].as_ref().ok();
            let d_weak = solo.zip(t_weak).map_or("-".to_owned(), |(s, t)| {
                format!("{:+.1}%", degradation_percent(*s, *t))
            });
            let (comp_txt, u_txt) = match choices[fi] {
                Some((comp, u)) => (comp.label(), format!("{:.1}%", u * 100.0)),
                None => ("-".to_owned(), "-".to_owned()),
            };
            let d_emul = solo.zip(t_emul).map_or("-".to_owned(), |(s, t)| {
                format!("{:+.1}%", degradation_percent(*s, *t))
            });
            println!(
                "  {:>6}/{:<2} | {:>14} | {:>7} {:>16} {:>14}",
                num, den, d_weak, u_txt, comp_txt, d_emul
            );
        }
        println!();
    }
    println!("Reading: for each capability fraction, the left column is the");
    println!("ground truth (a literally weaker switch) and the right column is");
    println!("the paper's software emulation at the matching utilization. The");
    println!("relativity principle predicts they agree in sign and order of");
    println!("magnitude for network-sensitive applications.");
    Ok(report)
}
