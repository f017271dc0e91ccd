//! Predictive co-scheduling study (not a paper artefact): a seeded
//! stream of application jobs arrives at a pool of switches, and every
//! placement policy — the three baselines, the four prediction models on
//! the flow engine, the Queue model on the DES engine, and the
//! exhaustive oracle — schedules the *same* streams over the same
//! DES-measured ground truth. Reports mean realized stretch, regret vs
//! the oracle, makespan, SLO violations, and (to stderr / telemetry
//! only) decision latency per engine.
//!
//! The ground truth runs through the supervised sweep engine: failing
//! cells leave typed holes (reported as MISSING lines),
//! `--max-retries` / `--run-budget` / `--event-budget` bound each cell,
//! and `--resume <journal>` makes the campaign crash-safe. Scheduling
//! itself only runs on a complete truth — placing jobs against a grid
//! with holes would silently bias the regret table.
//!
//! ```text
//! cargo run --release -- run sched_study \
//!     [--quick] [--seed N] [--jobs N] [--max-retries N] [--resume run.jsonl]
//! ```
//!
//! Exit follows the supervision convention: 0 when every truth cell
//! completed (and the regret table printed), 3 on a partial truth, 1
//! when nothing completed.

use anp_core::{measure_campaign, DesBackend, ModelKind};
use anp_sched::{
    records, render_summary, run_suite, DecisionEngine, GroundTruth, PolicySpec, StudyOpts,
};

use crate::cli::{ArtefactError, Report, RunCtx};

pub(super) fn run(ctx: &RunCtx) -> Result<Report, ArtefactError> {
    let mut sopts = if ctx.quick {
        StudyOpts::quick(ctx.seed, 1)
    } else {
        StudyOpts::full(ctx.seed, 1)
    };
    sopts.cfg.jobs = ctx.cfg.jobs;

    // Ground truth always comes from the DES, the reference engine; the
    // suite below consults both decision engines.
    let campaign = measure_campaign(
        &DesBackend,
        &sopts.cfg,
        &sopts.apps,
        &sopts.ladder,
        true,
        &ctx.supervisor,
        ctx.journal.as_ref(),
        |_, line| println!("  [truth] {line}"),
    )?;
    let mut report = Report {
        sweeps: campaign.telemetry,
        supervision: campaign.ledger,
        ..Report::default()
    };
    let Some(study) = campaign.study.filter(|_| report.supervision.is_complete()) else {
        eprintln!("truth incomplete: scheduling skipped (a holed pair grid would bias regret)");
        return Ok(report);
    };
    let truth = GroundTruth::new(study, &campaign.outcomes);

    // The default suite plus the Queue model on the DES engine, so the
    // telemetry carries a flow-vs-DES decision-latency comparison.
    let mut specs = anp_sched::default_specs();
    specs.push(PolicySpec::Predictive(
        ModelKind::Queue,
        DecisionEngine::Des,
    ));

    let outcomes = run_suite(&sopts, &truth, &specs, |line| println!("  [sched] {line}"))?;

    println!();
    print!("{}", render_summary(&outcomes));

    // Wall-clock comparison goes to stderr only: stdout stays
    // byte-identical across machines and worker counts.
    let per_decision = |spec: PolicySpec| {
        outcomes
            .iter()
            .find(|o| o.spec == spec)
            .filter(|o| o.decisions > 0)
            .map(|o| o.decision_wall.as_secs_f64() / o.decisions as f64)
    };
    if let (Some(flow), Some(des)) = (
        per_decision(PolicySpec::Predictive(
            ModelKind::Queue,
            DecisionEngine::Flow,
        )),
        per_decision(PolicySpec::Predictive(
            ModelKind::Queue,
            DecisionEngine::Des,
        )),
    ) {
        eprintln!(
            "decision latency (Queue model): flow {:.3}ms vs des {:.3}ms per decision ({:.0}x)",
            flow * 1e3,
            des * 1e3,
            des / flow
        );
    }
    report.sched = records(&outcomes);
    Ok(report)
}
