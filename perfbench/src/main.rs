//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <corun-grid|impact-sweep|flow-study|flow-resume> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--json FILE]
//! ```
//!
//! An untraced run (`--trace 0`, the default) prints every end-to-end
//! metric as a `name value unit` line. A traced run re-runs the workload
//! untraced in a child process for reference, runs it again traced in
//! this process, checks that both computed identical results, prints the
//! per-layer metrics and a self-time table, and writes the spans as a
//! Chrome trace. Either way the last line of standard output is the JSON
//! report, which `--json` also writes to a file. The exit code is 0 when
//! every output check passed, 1 when one failed, and 2 on a usage error.
//! See `README.md` for the workloads and metrics.

mod affinity;
mod json;
mod report;
mod stats;
mod trace;
mod workloads;
mod wrap;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use report::Report;
use trace::Span;
use workloads::{Run, Workload};
use wrap::SimCounters;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload <corun-grid|impact-sweep|flow-study|flow-resume> \
                     [--seed N] [--seconds S] [--trace 0|1] [--json FILE]";

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut parsed = Args {
            workload: Workload::CorunGrid,
            seed: 1,
            seconds: 20.0,
            trace: false,
            json: None,
        };
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(
                        Workload::from_name(&name).ok_or(format!("unknown workload '{name}'"))?,
                    );
                }
                "--seed" => {
                    parsed.seed = value()?
                        .parse()
                        .map_err(|_| "--seed needs a whole number".to_owned())?;
                }
                "--seconds" => {
                    parsed.seconds = value()?
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds needs a positive number")?;
                }
                "--trace" => {
                    parsed.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_owned()),
                    };
                }
                "--json" => parsed.json = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        parsed.workload = workload.ok_or("--workload is required")?;
        Ok(parsed)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let reps = args.workload.reps(args.seconds);
    println!(
        "# perfbench {} seed={} seconds={} reps={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        reps,
        u8::from(args.trace)
    );
    let (report, problems) = if args.trace {
        traced(&args, reps)
    } else {
        untraced(&args, reps)
    };
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("ops {} count", report.attempted);
    println!("ops_failed {} count", report.failed);
    print!("{}", report.lines());
    let line = report.to_json();
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, format!("{line}\n")) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end-to-end run: every `BENCHMARK.json` end-to-end metric.
fn untraced(args: &Args, reps: usize) -> (Report, Vec<String>) {
    let run = args.workload.run(args.seed, reps, false);
    println!("digest {:016x}", run.digest.value());
    for (unit, xs) in &run.units {
        println!(
            "# unit {unit}: fastest {:.6} s, median {:.6} s, {} samples",
            stats::min(xs),
            stats::median(xs),
            xs.len()
        );
    }
    let mut report = report_of(&run);
    let mut problems = run.problems.clone();
    let rss = peak_rss_mb().unwrap_or_else(|| {
        problems.push("cannot read VmHWM from /proc/self/status".to_owned());
        0.0
    });
    end_to_end(&mut report, &run, rss);
    finish(report, problems)
}

fn end_to_end(report: &mut Report, run: &Run, peak_rss_mb: f64) {
    report.push("wall_s", run.wall_s(), "s");
    report.push("setup_s", stats::min(&run.setup_s), "s");
    report.push("peak_rss_mb", peak_rss_mb, "MB");
    report.push("paper_err_pp", run.paper_err_pp, "pp");
}

fn report_of(run: &Run) -> Report {
    Report {
        correct: false,
        attempted: run.cells,
        failed: run.failed,
        metrics: Vec::new(),
    }
}

/// Settles `correct`: no failed check, no failed cell, no value JSON
/// cannot hold.
fn finish(mut report: Report, mut problems: Vec<String>) -> (Report, Vec<String>) {
    for name in report.non_finite() {
        problems.push(format!("metric {name} is not a finite number"));
    }
    if report.attempted == 0 {
        problems.push("no cell ran".to_owned());
    }
    report.correct = problems.is_empty() && report.failed == 0;
    (report, problems)
}

/// Peak resident set size of this process, from `VmHWM`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What the untraced reference run reported.
struct Reference {
    digest: String,
    report: Report,
}

/// Runs this binary untraced, with the same workload, seed and length.
fn reference_run(args: &Args) -> Result<Reference, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| format!("cannot start the untraced run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("the untraced run failed ({})", output.status));
    }
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest "))
        .ok_or("the untraced run printed no digest")?
        .to_owned();
    let last = stdout.lines().last().unwrap_or_default();
    let report = Report::from_json(last)?;
    Ok(Reference { digest, report })
}

/// The per-layer run: every `BENCHMARK.json` per-layer metric.
fn traced(args: &Args, reps: usize) -> (Report, Vec<String>) {
    let reference = reference_run(args);
    trace::enable();
    let run = args.workload.run(args.seed, reps, true);
    let spans = trace::finish();
    let sim = wrap::take_counters();
    let digest = format!("{:016x}", run.digest.value());
    println!("digest {digest}");

    let mut report = report_of(&run);
    let mut problems = run.problems.clone();
    let untraced_wall = match &reference {
        Ok(r) => {
            if r.digest != digest {
                problems.push(format!(
                    "traced results (digest {digest}) differ from untraced ones (digest {})",
                    r.digest
                ));
            }
            r.report.get("wall_s")
        }
        Err(e) => {
            problems.push(e.clone());
            None
        }
    };
    let own = trace::self_times(&spans);
    print!("{}", self_time_table(&spans, &own, reps));
    let overhead = untraced_wall.map_or(0.0, |w| 100.0 * (run.wall_s() / w - 1.0));
    layer_metrics(&mut report, &run, reps, &spans, &own, &sim, overhead);
    match write_trace(args, &spans) {
        Ok(path) => println!("# chrome trace written to {}", path.display()),
        Err(e) => problems.push(e),
    }
    finish(report, problems)
}

/// Per-repetition self time of every layer, largest first.
fn self_time_table(spans: &[Span], own: &[u64], reps: usize) -> String {
    let mut by_layer: Vec<(&str, u64)> = Vec::new();
    for (s, &ns) in spans.iter().zip(own) {
        match by_layer.iter_mut().find(|(name, _)| *name == s.name) {
            Some(entry) => entry.1 += ns,
            None => by_layer.push((s.name, ns)),
        }
    }
    by_layer.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let total: u64 = by_layer.iter().map(|(_, ns)| ns).sum();
    let mut out = String::from("# layer self time per repetition:\n");
    for (name, ns) in by_layer {
        out.push_str(&format!(
            "#   {name:<26} {:>12.3} ms {:>6.2}%\n",
            ns as f64 / 1e6 / reps as f64,
            100.0 * ns as f64 / total.max(1) as f64
        ));
    }
    out
}

/// Sum of the self times of spans named `name`, in seconds.
fn self_s(spans: &[Span], own: &[u64], name: &str) -> f64 {
    spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == name)
        .fold(0.0, |total, (_, &ns)| total + ns as f64 / 1e9)
}

/// Durations of spans named `name`, in microseconds.
fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer metrics. Totals are per repetition; call latencies are
/// percentiles over every call of the run. `overhead_pct` is the traced
/// run's `wall_s` against the untraced run's.
fn layer_metrics(
    report: &mut Report,
    run: &Run,
    reps: usize,
    spans: &[Span],
    own: &[u64],
    sim: &SimCounters,
    overhead_pct: f64,
) {
    let per_rep = |x: f64| x / reps as f64;
    let events = sim.events as f64;
    let next_op_s = sim.next_op_ns as f64 / 1e9;

    report.push(
        "workloads.next_op_calls",
        per_rep(sim.next_op_calls as f64),
        "count",
    );
    report.push("workloads.next_op_self_ms", per_rep(next_op_s * 1e3), "ms");
    report.push(
        "workloads.ns_per_op",
        ratio(next_op_s * 1e9, sim.next_op_calls as f64),
        "ns",
    );
    report.push(
        "workloads.build_ms",
        per_rep(self_s(spans, own, "workloads.build") * 1e3),
        "ms",
    );

    let run_self = self_s(spans, own, "simmpi.run");
    report.push(
        "simmpi.build_ms",
        per_rep(self_s(spans, own, "simmpi.build") * 1e3),
        "ms",
    );
    report.push("simmpi.run_self_s", per_rep(run_self), "s");
    report.push("simmpi.ns_per_event", ratio(run_self * 1e9, events), "ns");
    report.push("simmpi.ops", per_rep(sim.ops as f64), "count");

    report.push("sim.events", per_rep(events), "count");
    report.push("sim.packets", per_rep(sim.packets as f64), "count");
    report.push("sim.messages", per_rep(sim.messages as f64), "count");
    report.push(
        "sim.events_per_packet",
        ratio(events, sim.packets as f64),
        "count",
    );
    report.push(
        "sim.backpressure_stalls",
        per_rep(sim.backpressure_stalls as f64),
        "count",
    );
    report.push(
        "sim.switch_util",
        ratio(sim.switch_busy_ns as f64, sim.switch_capacity_ns as f64),
        "ratio",
    );
    report.push(
        "sim.switch_mean_wait_us",
        ratio(sim.switch_wait_ns as f64 / 1e3, sim.switch_served as f64),
        "us",
    );
    report.push(
        "sim.switch_queue_len",
        ratio(sim.switch_queue_len_sum as f64, sim.switch_arrivals as f64),
        "count",
    );
    report.push(
        "sim.simulated_s",
        per_rep(sim.simulated_ns as f64 / 1e9),
        "s",
    );

    report.push(
        "samples.profile_us",
        stats::median(&durations_us(spans, "samples.profile")),
        "us",
    );

    report.push("sweep.cells", per_rep(run.cells as f64), "count");
    report.push("sweep.retries", per_rep(run.retries as f64), "count");
    report.push(
        "sweep.overhead_us_per_cell",
        ratio(run.sweep_overhead_s * 1e6, run.cells as f64),
        "us",
    );

    let j = &run.journal;
    report.push(
        "journal.bytes_per_cell",
        ratio(j.bytes as f64, j.cells_written as f64),
        "bytes",
    );
    report.push("journal.resume_open_ms", per_rep(j.open_s * 1e3), "ms");
    report.push("journal.resume_pass_ms", per_rep(j.resume_s * 1e3), "ms");
    report.push(
        "journal.decoded_frac",
        ratio(j.decoded as f64, j.resumed_cells as f64),
        "ratio",
    );

    // The tail is the highest percentile with at least ten calls beyond
    // it, so its level follows from the `_n` count (the median when
    // there are fewer than 20 calls).
    for layer in [
        "flowsim.impact",
        "flowsim.solo",
        "flowsim.compression_run",
        "flowsim.corun",
        "prediction.predict",
    ] {
        let us = durations_us(spans, layer);
        let tail = stats::tail_level(us.len()).unwrap_or(50.0);
        report.push(&format!("{layer}_n"), us.len() as f64, "count");
        report.push(&format!("{layer}_us_p50"), stats::median(&us), "us");
        report.push(
            &format!("{layer}_us_tail"),
            stats::percentile(&us, tail),
            "us",
        );
    }
    report.push("trace.overhead_pct", overhead_pct, "%");
    report.push("trace.coverage_pct", trace::coverage_pct(spans, own), "%");
}

/// Writes the spans as a Chrome trace into the work directory.
fn write_trace(args: &Args, spans: &[Span]) -> Result<PathBuf, String> {
    let dir = Path::new(workloads::WORK_DIR);
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace::chrome_json(spans)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args(&[
            "--workload",
            "flow-resume",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::FlowResume);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "flow-study", "--trace", "2"],
            &["--workload", "flow-study", "--seconds", "0"],
            &["--workload", "flow-study", "--seed"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    /// The `(name, unit)` pairs a run reports under `--trace 0` or
    /// `--trace 1`, sorted.
    fn reported(traced: bool) -> Vec<(String, String)> {
        let run = Run::default();
        let mut report = report_of(&run);
        if traced {
            layer_metrics(&mut report, &run, 1, &[], &[], &SimCounters::default(), 0.0);
        } else {
            end_to_end(&mut report, &run, 0.0);
        }
        let mut pairs: Vec<_> = report
            .metrics
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect();
        pairs.sort();
        pairs
    }

    #[test]
    fn reported_metrics_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = json::parse(&text).unwrap();
        for (section, traced) in [("end_to_end", false), ("per_layer", true)] {
            let field = |m: &json::Value, key: &str| {
                m.get(key).and_then(json::Value::as_str).unwrap().to_owned()
            };
            let mut declared: Vec<(String, String)> = doc
                .get(section)
                .and_then(json::Value::as_array)
                .unwrap()
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect();
            declared.sort();
            assert_eq!(declared, reported(traced), "{section}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(json::Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(json::Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }
}
