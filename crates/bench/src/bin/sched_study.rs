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
//! cargo run --release -p anp-bench --bin sched_study \
//!     [--quick] [--seed N] [--jobs N] [--max-retries N] [--resume run.jsonl]
//! ```
//!
//! Exit follows the supervision convention: 0 when every truth cell
//! completed (and the regret table printed), 3 on a partial truth, 1
//! when nothing completed.

use anp_bench::{banner, HarnessOpts};
use anp_core::{ModelKind, Parallelism, SweepTelemetry};
use anp_sched::{
    measure_truth_supervised, records, render_summary, run_suite, DecisionEngine, PolicySpec,
    StudyOpts,
};

fn main() {
    let opts = HarnessOpts::from_args();
    banner(
        "Sched study",
        "predictive co-scheduling regret vs oracle",
        &opts,
    );

    let mut sopts = if opts.quick {
        StudyOpts::quick(opts.seed, opts.jobs.unwrap_or(1))
    } else {
        StudyOpts::full(opts.seed, opts.jobs.unwrap_or(1))
    };
    if opts.jobs.is_none() {
        sopts.cfg.jobs = Parallelism::Auto;
    }

    let backend = match anp_flowsim::backend_from_name(&opts.backend) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = backend.validate(&sopts.cfg) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }

    let supervisor = opts.supervisor();
    let journal = opts.open_journal();
    let campaign = measure_truth_supervised(
        backend.as_ref(),
        &sopts.cfg,
        &sopts.apps,
        &sopts.ladder,
        &supervisor,
        journal.as_ref(),
        |line| println!("  [truth] {line}"),
    )
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let sweeps: Vec<&SweepTelemetry> = campaign.telemetry.iter().collect();

    if !campaign.is_complete() {
        campaign.report(|line| eprintln!("{line}"));
        eprintln!("truth incomplete: scheduling skipped (a holed pair grid would bias regret)");
        opts.emit_bench_json("sched_study", &sweeps);
        std::process::exit(campaign.exit_code());
    }
    let truth = campaign
        .truth
        .as_ref()
        .expect("complete campaign has truth");

    // The default suite plus the Queue model on the DES engine, so the
    // telemetry carries a flow-vs-DES decision-latency comparison.
    let mut specs = anp_sched::default_specs();
    specs.push(PolicySpec::Predictive(
        ModelKind::Queue,
        DecisionEngine::Des,
    ));

    let outcomes = run_suite(&sopts, truth, &specs, |line| println!("  [sched] {line}"))
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });

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

    opts.emit_bench_json_full("sched_study", &sweeps, &records(&outcomes), &[]);
    std::process::exit(campaign.exit_code());
}
