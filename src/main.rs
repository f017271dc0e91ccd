//! `anp` — command-line front end for the active-measurement toolkit.
//!
//! ```text
//! anp calibrate                 # idle-switch calibration
//! anp probe <APP>               # impact experiment: APP's switch footprint
//! anp sweep <APP>               # degradation ladder for APP (mini Fig. 7)
//! anp predict <APP> <APP>       # predict mutual slowdown of a pairing
//! anp apps                      # list the built-in application proxies
//! anp run <ARTEFACT> [--quick]  # regenerate a paper artefact or study
//! ```
//!
//! Global flags: `--seed <n>`, `--jobs <n>`, `--backend <des|flow>`,
//! plus the supervision envelope for the sweeping commands:
//! `--max-retries <n>`, `--run-budget <secs>`, `--event-budget <n>`,
//! `--resume <journal>`. All commands run on the simulated Cab switch;
//! `anp run <ARTEFACT>` regenerates the paper's tables and figures and
//! the extension studies (the `anp-bench` registry), among them the
//! scheduling and monitoring studies (`sched_study`, `monitor_study`).

use std::fmt::Display;
use std::process::ExitCode;

use anp_bench::cli::{parse_run, report_holes, Flags, RunCtx, UsageError, GLOBAL_FLAGS};
use anp_bench::ARTEFACTS;
use anp_core::{
    all_models, calibrate_with, completed_count, config_fingerprint, degradation_percent,
    measure_campaign, partial_exit_code, sweep_supervised_for, CampaignStage, MuPolicy,
    WorkloadSpec,
};
use anp_workloads::{AppKind, CompressionConfig};

fn usage() {
    eprintln!(
        "usage: anp [--seed N] [--jobs N] [--backend des|flow]\n\
         \x20          [--max-retries N] [--run-budget SECS] [--event-budget N]\n\
         \x20          [--resume JOURNAL] <command>\n\
         commands:\n\
         \x20 calibrate            idle-switch calibration report\n\
         \x20 apps                 list application proxies\n\
         \x20 probe <APP>          measure APP's switch utilization\n\
         \x20 sweep <APP>          degradation vs utilization ladder for APP\n\
         \x20 predict <A> <B>      predict A and B's mutual slowdown\n\
         \x20 run <ARTEFACT> [--quick] [--bench-json PATH] [--no-bench-json]\n\
         \x20     [global flags]\n\
         \x20                      regenerate a paper artefact or extension\n\
         \x20                      study, e.g. sched_study (predictive\n\
         \x20                      co-scheduling) or monitor_study (online\n\
         \x20                      monitoring; exits 1 on a gate violation);\n\
         \x20                      only fig8/fig9 read --backend flow, the\n\
         \x20                      others reject it; fig9 reuses fig8's\n\
         \x20                      cells through a shared --resume journal\n\
         APP is one of: FFTW, Lulesh, MCB, MILC, VPFFT, AMG (case-insensitive)\n\
         --jobs N runs experiment sweeps on N worker threads (default: all\n\
         cores; results are identical for any setting, 1 = serial)\n\
         --backend selects the measurement engine: 'des' (packet-level\n\
         simulation, the default and reference) or 'flow' (analytic\n\
         flow-level model; see DESIGN.md for its error envelope)\n\
         --max-retries N retries failed or panicked sweep cells (budget\n\
         trips are never retried); --run-budget / --event-budget cap each\n\
         cell attempt; --resume JOURNAL makes 'sweep', 'predict' and\n\
         'run' crash-safe: completed cells are journaled\n\
         and re-invocation re-runs only the missing ones. Sweeping\n\
         commands exit 0 when every cell completed, 3 on a partial\n\
         result, 1 when nothing did."
    );
    eprintln!("ARTEFACT is one of:");
    for a in ARTEFACTS {
        eprintln!("  {:<30} {} — {}", a.name, a.title, a.what);
    }
}

/// How a command that cannot finish normally ends.
enum Failure {
    /// A malformed invocation: the message (when there is one), then the
    /// usage text; exit 2.
    Usage(String),
    /// An experiment-level failure: `error: …`; exit 1.
    Error(String),
}

impl From<UsageError> for Failure {
    fn from(e: UsageError) -> Self {
        Failure::Usage(format!("anp: {e}"))
    }
}

/// An experiment-level failure (exit 1), as opposed to a malformed
/// invocation.
fn fail<E: Display>(err: E) -> Failure {
    Failure::Error(err.to_string())
}

/// The bare usage text (exit 2).
fn bad_usage() -> Failure {
    Failure::Usage(String::new())
}

/// A 0/3/1 campaign code ([`partial_exit_code`] or
/// [`anp_core::Supervision::exit_code`]) as a process exit code.
fn campaign_exit(code: i32) -> ExitCode {
    ExitCode::from(code as u8)
}

fn parse_app(arg: Option<String>) -> Result<AppKind, Failure> {
    let name = arg.ok_or_else(bad_usage)?;
    AppKind::from_name(&name).ok_or_else(|| Failure::Usage(format!("unknown application '{name}'")))
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(code) => code,
        Err(Failure::Usage(msg)) => {
            if !msg.is_empty() {
                eprintln!("{msg}");
            }
            usage();
            ExitCode::from(2)
        }
        Err(Failure::Error(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch() -> Result<ExitCode, Failure> {
    let mut args = std::env::args().skip(1).peekable();
    let mut flags = Flags::default();
    flags.parse(&mut args, GLOBAL_FLAGS)?;
    // `run` resolves its own context, so it dispatches before the
    // backend is resolved.
    if args.next_if(|a| a == "run").is_some() {
        let artefact = parse_run(&mut flags, &mut args)?;
        return Ok(anp_bench::cli::run(artefact, &flags));
    }
    // Resolve the measurement engine and reject configurations it cannot
    // honor up front: a typed error on stderr and exit 1, never a silent
    // fallback to another backend.
    let ctx = RunCtx::new(&flags).map_err(fail)?;
    ctx.cfg.switch.validate().map_err(fail)?;
    let cmd = args.next().ok_or_else(bad_usage)?;
    match cmd.as_str() {
        "calibrate" => calibrate(&ctx),
        "apps" => {
            for app in AppKind::ALL {
                let l = app.layout();
                println!(
                    "{:<7} {:>4} ranks on {:>2} nodes ({} per node)  {}",
                    app.name(),
                    l.ranks(),
                    l.nodes,
                    l.per_node,
                    app.skeleton()
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        "probe" => probe(&ctx, parse_app(args.next())?),
        "sweep" => sweep(&ctx, &flags, parse_app(args.next())?),
        "predict" => {
            let a = parse_app(args.next())?;
            predict(&ctx, &flags, a, parse_app(args.next())?)
        }
        _ => Err(bad_usage()),
    }
}

/// The hint a partial sweeping command prints under its holes.
fn resume_hint(flags: &Flags) {
    if let Some(p) = &flags.resume {
        eprintln!("(re-run with --resume {} to complete)", p.display());
    }
}

fn calibrate(ctx: &RunCtx) -> Result<ExitCode, Failure> {
    let (backend, cfg) = (ctx.backend.as_ref(), &ctx.cfg);
    let idle = backend
        .measure_impact_profile(cfg, WorkloadSpec::Idle)
        .map_err(fail)?;
    let calib = calibrate_with(backend, cfg, MuPolicy::MinLatency).map_err(fail)?;
    println!(
        "idle probe latency: mean {:.3}us, sd {:.3}us, min {:.3}us (n={})",
        idle.mean(),
        idle.std_dev(),
        idle.min(),
        idle.count()
    );
    println!(
        "queue model: mu = {:.4} packets/us, Var(S) = {:.4} us^2",
        calib.mu, calib.var_s
    );
    println!(
        "idle utilization reading: {:.1}%",
        calib.utilization(&idle) * 100.0
    );
    Ok(ExitCode::SUCCESS)
}

fn probe(ctx: &RunCtx, app: AppKind) -> Result<ExitCode, Failure> {
    let (backend, cfg) = (ctx.backend.as_ref(), &ctx.cfg);
    let calib = calibrate_with(backend, cfg, MuPolicy::MinLatency).map_err(fail)?;
    let p = backend
        .measure_impact_profile(cfg, WorkloadSpec::App(app))
        .map_err(fail)?;
    println!(
        "{}: probe mean {:.2}us (sd {:.2}us, n={})",
        app.name(),
        p.mean(),
        p.std_dev(),
        p.count()
    );
    println!(
        "estimated switch utilization: {:.1}%",
        calib.utilization(&p) * 100.0
    );
    Ok(ExitCode::SUCCESS)
}

fn sweep(ctx: &RunCtx, flags: &Flags, app: AppKind) -> Result<ExitCode, Failure> {
    let (backend, cfg) = (ctx.backend.as_ref(), &ctx.cfg);
    let calib = calibrate_with(backend, cfg, MuPolicy::MinLatency).map_err(fail)?;
    let solo = backend.measure_solo_runtime(cfg, app).map_err(fail)?;
    println!("{} solo: {}", app.name(), solo);
    println!("{:<18} {:>7} {:>12}", "config", "util", "degradation");
    let ladder = CompressionConfig::gated_ladder();
    // Each rung (impact + runtime, one cell) runs inside the supervision
    // envelope: a panicking or over-budget rung becomes a `-` row while
    // its siblings complete, and with `--resume` completed rungs are
    // journaled for crash-safe re-invocation. Collection is
    // ladder-ordered, so the table is byte-identical for any `--jobs`
    // setting.
    let fp = config_fingerprint(cfg, backend.name());
    let tasks: Vec<(String, _)> = ladder
        .iter()
        .map(|comp| {
            (format!("rung:{}", comp.label()), move || {
                let p = backend.measure_impact_profile(cfg, WorkloadSpec::Compression(comp))?;
                let t = backend.measure_compression_run(cfg, app, comp)?;
                Ok((p, t))
            })
        })
        .collect();
    let (rungs, _telemetry) = sweep_supervised_for(
        "sweep-ladder",
        backend.name(),
        cfg.jobs,
        &ctx.supervisor,
        ctx.journal.as_ref(),
        fp,
        tasks,
    )
    .map_err(fail)?;
    for (comp, cell) in ladder.iter().zip(&rungs) {
        match cell {
            Ok((p, t)) => println!(
                "{:<18} {:>6.1}% {:>+11.1}%",
                comp.label(),
                calib.utilization(p) * 100.0,
                degradation_percent(solo, *t)
            ),
            Err(e) => {
                println!("{:<18} {:>7} {:>12}", comp.label(), "-", "-");
                eprintln!("error: {e}");
            }
        }
    }
    let completed = completed_count(&rungs);
    if completed < rungs.len() {
        eprintln!(
            "error: {} rung(s) did not complete",
            rungs.len() - completed
        );
        resume_hint(flags);
    }
    Ok(campaign_exit(partial_exit_code(completed, rungs.len())))
}

fn predict(ctx: &RunCtx, flags: &Flags, a: AppKind, b: AppKind) -> Result<ExitCode, Failure> {
    let apps = if a == b { vec![a] } else { vec![a, b] };
    eprintln!("measuring look-up table (this takes a few minutes)...");
    // Without co-runs the campaign stops after the profiles, or already
    // after a holed table. Its sweeps run under the supervision envelope;
    // with `--resume` their completed cells are journaled. A hole leaves
    // nothing trustworthy to predict from, so it is reported and the
    // command exits with the partial-result code.
    let campaign = measure_campaign(
        ctx.backend.as_ref(),
        &ctx.cfg,
        &apps,
        &CompressionConfig::quick_sweep(),
        false,
        &ctx.supervisor,
        ctx.journal.as_ref(),
        |stage, line| {
            if stage == CampaignStage::Table {
                eprintln!("  {line}");
            }
        },
    )
    .map_err(fail)?;
    let Some(study) = campaign.study.filter(|_| campaign.ledger.is_complete()) else {
        report_holes(&campaign.ledger, flags.resume.as_deref());
        return Ok(campaign_exit(campaign.ledger.exit_code()));
    };
    let models = all_models();
    for (victim, other) in [(a, b), (b, a)] {
        let outcome = study.predict_pair(victim, other, &models);
        println!("{} co-run with {}:", victim.name(), other.name());
        for (model, pred) in &outcome.predicted {
            println!("  {:<15} predicts {:+6.1}%", model, pred);
        }
        if a == b {
            break;
        }
    }
    Ok(ExitCode::SUCCESS)
}
