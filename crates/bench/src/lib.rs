//! # anp-bench — experiment harnesses for every table and figure
//!
//! One artefact per table or figure of the paper's evaluation, each run
//! with `anp run <artefact>` (see [`ARTEFACTS`]):
//!
//! | Artefact | Reproduces |
//! |---|---|
//! | `fig3_latency_distributions` | Fig. 3 — probe-latency distributions (idle + 6 apps) |
//! | `fig6_compression_utilization` | Fig. 6 — switch utilization of the 40 CompressionB configs |
//! | `fig7_degradation_curves` | Fig. 7 — % degradation vs % utilization per app |
//! | `table1_pair_slowdowns` | Table I — measured slowdowns of all 36 app pairs |
//! | `fig8_prediction_errors` | Fig. 8 — per-pairing |real − predicted| for the 4 models |
//! | `fig9_error_summary` | Fig. 9 — quartile summary of model errors |
//!
//! Extension studies beyond the paper's artefacts:
//!
//! | Artefact | What it studies |
//! |---|---|
//! | `calibration_report` | the substrate's calibration at a glance, incl. per-app network-wait fractions |
//! | `ablation_report` | µ policy, routing parallelism, exchange chaining |
//! | `relativity_check` | literally degraded switches vs CompressionB emulation |
//! | `phase_model_study` | the §V-B phase-aware queue model |
//! | `seed_sensitivity` | across-seed spread of headline metrics |
//! | `backend_xval` | flow-model vs DES cross-validation (error + speedup) |
//! | `sched_study` | predictive co-scheduling regret vs the oracle |
//! | `monitor_study` | online utilization estimation + change-point gates |
//!
//! Every artefact accepts `--quick` (a scaled-down sweep for smoke runs),
//! `--seed <n>`, `--jobs <n>`, the supervision flags (`--max-retries`,
//! `--run-budget`, `--event-budget`, `--resume`) and the telemetry flags
//! (`--bench-json <path>`, `--no-bench-json`), and prints plain-text
//! tables. `fig8`/`fig9` also accept `--backend {des,flow}`; the others
//! reject it rather than ignore it. `fig9` reuses `fig8`'s measurements
//! through a shared `--resume` journal. The front end ([`cli`]) holds the
//! one flag parser, the run context and the exit-code mapping.
//!
//! The `benches/` directory holds Criterion micro-benchmarks of the
//! simulator and model kernels (event queue, switch path, matching,
//! collectives, histogram metrics, P-K inversion, end-to-end probes).

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::io::Write as _;
use std::path::Path;

use anp_core::{
    error_summaries, json_escape, measure_campaign, CampaignStage, LatencyProfile, ModelKind,
    PairOutcome, SweepTelemetry,
};
use anp_monitor::MonitorRecord;
use anp_sched::SchedRecord;

use cli::{ArtefactError, Report, RunCtx};

mod artefacts;
pub mod cli;
pub mod xval;

pub use artefacts::{Artefact, ARTEFACTS};

/// Runs the complete prediction study ([`measure_campaign`]): isolated
/// measurements, predictions for every ordered pair, and co-run ground
/// truth, in victim-major order (unmeasured pairings keep `measured:
/// None`), plus the holes and telemetry of every sweep. Every sweep runs
/// under the context's supervision envelope (`--max-retries`,
/// `--run-budget`, `--event-budget`, `--resume`): failures leave typed
/// holes and siblings complete, and a journal shared with an earlier
/// `fig8`/`fig9` run hands its cells over bit for bit.
pub fn full_outcomes(ctx: &RunCtx) -> Result<(Vec<PairOutcome>, Report), ArtefactError> {
    let apps = ctx.apps();
    let campaign = measure_campaign(
        ctx.backend.as_ref(),
        &ctx.cfg,
        &apps,
        &ctx.compression_sweep(),
        true,
        &ctx.supervisor,
        ctx.journal.as_ref(),
        |stage, line| match stage {
            CampaignStage::Calibration => {}
            CampaignStage::Table | CampaignStage::Profiles => println!("  [measure] {line}"),
            CampaignStage::Pairs => println!("  [corun] {line}"),
        },
    )?;
    let report = Report {
        sweeps: campaign.telemetry,
        supervision: campaign.ledger,
        ..Report::default()
    };
    Ok((campaign.outcomes, report))
}

/// Writes `bytes` to `path` atomically: a unique temp file in the same
/// directory is written, flushed to disk, and renamed over the target,
/// so a crash (or kill) mid-write can never leave a torn artefact — the
/// old file survives intact until the rename lands.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("artefact");
    let tmp = dir.join(format!(".{name}.tmp-{}", std::process::id()));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// Writes sweep telemetry records to `path` as a single JSON document —
/// the `BENCH_anp.json` perf-trajectory artefact. Schema (one object):
///
/// ```text
/// { "schema": "anp-bench-v5", "harness": "<binary>", "seed": N,
///   "journal": "<path>" | null,
///   "sweeps": [ <SweepTelemetry::to_json() objects> ],
///   "sched": [ <SchedRecord::to_json() objects> ],
///   "monitor": [ <MonitorRecord::to_json() objects> ] }
/// ```
///
/// Each sweep object carries `backend` (`"des"`, `"flow"`, or `"mixed"`),
/// `workers`, end-to-end `wall_secs`, the serial-equivalent
/// `serial_secs`, the realized `speedup`, total simulation `events`,
/// aggregate `events_per_sec`, and a `per_run` array of
/// `{label, backend, wall_secs, events, outcome, retries}` cells. v2
/// added the sweep- and run-level `backend` fields; v3 added the
/// top-level `journal` path and the per-run `outcome`
/// (`ok`/`resumed`/`failed`/`panicked`/`budget`) and `retries` fields;
/// v4 added the top-level `sched` array of per-policy scheduling records
/// (`{policy, model, backend, mean_slowdown_pct, makespan_us,
/// regret_pct, slo_violations, decisions, decision_wall_secs}`), empty
/// for harnesses that do not schedule; v5 added the top-level `monitor`
/// array of per-window online-estimation records (`{cell, window,
/// end_us, samples, mean_us, smooth_mean_us, utilization, shift}`),
/// empty for harnesses that do not monitor (see DESIGN.md, "Telemetry
/// schema"). The file is written atomically ([`write_atomic`]).
pub fn write_bench_json(
    path: &Path,
    harness: &str,
    seed: u64,
    journal: Option<&Path>,
    sweeps: &[&SweepTelemetry],
    sched: &[SchedRecord],
    monitor: &[MonitorRecord],
) -> std::io::Result<()> {
    let journal = journal.map_or("null".to_owned(), |p| {
        format!("\"{}\"", json_escape(&p.display().to_string()))
    });
    let harness = json_escape(harness);
    let array = |items: Vec<String>| {
        let rows: Vec<String> = items.iter().map(|j| format!("    {j}")).collect();
        rows.join(",\n")
    };
    let out = format!(
        "{{\n  \"schema\": \"anp-bench-v5\",\n  \"harness\": \"{harness}\",\n  \"seed\": {seed},\n  \"journal\": {journal},\n  \"sweeps\": [\n{}\n  ],\n  \"sched\": [\n{}\n  ],\n  \"monitor\": [\n{}\n  ]\n}}\n",
        array(sweeps.iter().map(|t| t.to_json()).collect()),
        array(sched.iter().map(SchedRecord::to_json).collect()),
        array(monitor.iter().map(MonitorRecord::to_json).collect()),
    );
    write_atomic(path, out.as_bytes())
}

/// Renders a latency histogram as rows of `bin-center  frequency%  bar`,
/// the textual equivalent of one Fig. 3 series.
pub fn render_histogram(profile: &LatencyProfile) -> String {
    let h = profile.histogram();
    let mut out = String::new();
    for i in 0..h.bins() {
        let f = h.frequency(i) * 100.0;
        let bar = "#".repeat((f / 2.0).round() as usize);
        out.push_str(&format!("{:>6.2}us {:>5.1}% {}\n", h.bin_center(i), f, bar));
    }
    let over = h.overflow() as f64 / h.total().max(1) as f64 * 100.0;
    if over > 0.0 {
        out.push_str(&format!("  >10us {over:>5.1}%\n"));
    }
    out
}

/// Prints the Fig. 9-style summary table from pairing outcomes. A
/// degenerate error sample (e.g. NaN from a poisoned cell) is reported as
/// a one-line hole instead of aborting the report.
pub fn print_error_summary(outcomes: &[PairOutcome]) {
    let summaries = match error_summaries(outcomes, &ModelKind::ALL) {
        Ok(s) => s,
        Err(e) => {
            println!("error summary unavailable: {e}");
            return;
        }
    };
    println!(
        "{:<15} {:>7} {:>7} {:>7} {:>7} {:>7}  {:>10}",
        "model", "min", "q1", "median", "q3", "max", "<10% err"
    );
    for kind in ModelKind::ALL {
        if let Some(s) = summaries.get(&kind) {
            let errors: Vec<f64> = outcomes.iter().filter_map(|o| o.abs_error(kind)).collect();
            let under10 =
                errors.iter().filter(|e| **e < 10.0).count() as f64 / errors.len() as f64 * 100.0;
            println!(
                "{:<15} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>7.1}  {:>9.0}%",
                kind.name(),
                s.min,
                s.q1,
                s.median,
                s.q3,
                s.max,
                under10
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_replaces_without_leftovers() {
        let dir = std::env::temp_dir().join("anp_bench_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artefact.json");
        write_atomic(&path, b"one").unwrap();
        write_atomic(&path, b"two").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "two");
        let leftovers = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .contains(".tmp-")
            })
            .count();
        assert_eq!(leftovers, 0, "temp files must not survive");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bench_json_carries_v5_fields() {
        use anp_core::RunRecord;
        let dir = std::env::temp_dir().join("anp_bench_v5_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let t = SweepTelemetry {
            name: "s".to_owned(),
            backend: "des".to_owned(),
            workers: 2,
            wall_secs: 1.0,
            runs: vec![RunRecord {
                label: "cell0".to_owned(),
                backend: "des".to_owned(),
                wall_secs: 0.5,
                events: 10,
                outcome: "resumed".to_owned(),
                retries: 1,
            }],
        };
        write_bench_json(&path, "h", 7, Some(Path::new("run.jsonl")), &[&t], &[], &[]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"schema\": \"anp-bench-v5\""));
        assert!(text.contains("\"journal\": \"run.jsonl\""));
        assert!(text.contains("\"outcome\":\"resumed\""));
        assert!(text.contains("\"retries\":1"));
        assert!(
            text.contains("\"sched\": ["),
            "v5 always carries a sched array"
        );
        assert!(
            text.contains("\"monitor\": ["),
            "v5 always carries a monitor array"
        );
        let rec = SchedRecord {
            policy: "predictive:Queue:flow".to_owned(),
            model: Some(ModelKind::Queue),
            backend: Some("flow".to_owned()),
            mean_slowdown_pct: 12.0,
            makespan_us: 50_000.0,
            regret_pct: 2.0,
            slo_violations: 1,
            decisions: 10,
            decision_wall_secs: 0.012,
        };
        let win = MonitorRecord {
            cell: "util:P5-B1.0e6-M10".to_owned(),
            window: 3,
            end_us: 1000.0,
            samples: 9,
            mean_us: Some(2.75),
            smooth_mean_us: 2.6,
            utilization: 0.42,
            shift: Some("up"),
        };
        let quiet = MonitorRecord {
            cell: "detect:FFTW".to_owned(),
            window: 0,
            end_us: 250.0,
            samples: 1,
            mean_us: None,
            smooth_mean_us: 2.45,
            utilization: 0.0,
            shift: None,
        };
        write_bench_json(&path, "h", 7, None, &[&t], &[rec], &[win, quiet]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"journal\": null"));
        assert!(text.contains("\"policy\":\"predictive:Queue:flow\""));
        assert!(text.contains("\"regret_pct\":2"));
        assert!(text.contains("\"cell\":\"util:P5-B1.0e6-M10\""));
        assert!(text.contains("\"shift\":\"up\""));
        assert!(text.contains("\"mean_us\":null"));
        assert!(text.contains("\"shift\":null"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bench_json_escapes_the_journal_path_and_harness() {
        let dir = std::env::temp_dir().join("anp_bench_escape_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let journal = Path::new("we\"ird\\x.jsonl");
        write_bench_json(&path, "h\"1", 7, Some(journal), &[], &[], &[]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(r#""journal": "we\"ird\\x.jsonl","#), "{text}");
        assert!(text.contains(r#""harness": "h\"1","#), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn histogram_rendering_contains_all_bins() {
        let p = LatencyProfile::from_samples(&[1.1, 1.3, 2.4, 11.0]);
        let text = render_histogram(&p);
        assert_eq!(text.lines().count(), 21, "20 bins + overflow row");
        assert!(text.contains(">10us"));
    }
}
