//! End-to-end tests of `anp monitor` and the CLI's flag diagnostics:
//! the monitor study's stdout must be byte-identical for any `--jobs`
//! setting and deterministic per seed, a bad flag value must name the
//! flag and the offending value on stderr before the usage text, and
//! `anp apps` must carry the communication-skeleton column. A journaled
//! study must resume every cell and reproduce its report byte for byte.

use std::process::{Command, Output};

use active_netprobe::core::{RunJournal, Supervisor};
use active_netprobe::workloads::AppKind;
use anp_monitor::{monitor_records, render_report, run_monitor_study, MonitorOpts};

const ANP: &str = env!("CARGO_BIN_EXE_anp");

fn run(args: &[&str]) -> Output {
    Command::new(ANP)
        .args(args)
        .output()
        .expect("anp binary runs")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn monitor_stdout_is_byte_identical_for_any_worker_count() {
    let serial = run(&["--seed", "42", "--jobs", "1", "monitor", "--quick"]);
    assert_eq!(
        serial.status.code(),
        Some(0),
        "serial monitor must pass its gates:\n{}",
        stderr_of(&serial)
    );
    let parallel = run(&["--seed", "42", "--jobs", "8", "monitor", "--quick"]);
    assert_eq!(
        parallel.status.code(),
        Some(0),
        "parallel monitor must pass its gates:\n{}",
        stderr_of(&parallel)
    );
    let serial_out = stdout_of(&serial);
    assert_eq!(
        serial_out,
        stdout_of(&parallel),
        "monitor stdout must not depend on the worker count"
    );
    // The report carries all three tables.
    for needle in ["rung", "arrival-lag", "departure-lag", "overhead"] {
        assert!(
            serial_out.contains(needle),
            "report must mention {needle:?}:\n{serial_out}"
        );
    }
}

#[test]
fn monitor_is_deterministic_per_seed_and_sensitive_to_it() {
    let a = run(&["--seed", "7", "--jobs", "2", "monitor", "--quick"]);
    let b = run(&["--seed", "7", "--jobs", "2", "monitor", "--quick"]);
    assert_eq!(
        stdout_of(&a),
        stdout_of(&b),
        "same seed must reproduce the same report"
    );
    let c = run(&["--seed", "8", "--jobs", "2", "monitor", "--quick"]);
    assert_ne!(
        stdout_of(&a),
        stdout_of(&c),
        "a different seed must perturb the report"
    );
}

#[test]
fn bad_flag_values_are_named_on_stderr() {
    let out = run(&["--seed", "foo", "probe"]);
    assert_eq!(out.status.code(), Some(2), "bad value is a usage error");
    let err = stderr_of(&out);
    assert!(
        err.contains("invalid value for --seed: \"foo\""),
        "stderr must name the flag and the value:\n{err}"
    );

    let out = run(&["--jobs", "many", "probe"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("invalid value for --jobs: \"many\""),
        "stderr must name the flag and the value:\n{}",
        stderr_of(&out)
    );

    let out = run(&["--seed"]);
    assert_eq!(out.status.code(), Some(2), "missing value is a usage error");
    assert!(
        stderr_of(&out).contains("missing value for --seed"),
        "stderr must name the flag missing its value:\n{}",
        stderr_of(&out)
    );
}

#[test]
fn apps_listing_carries_communication_skeletons() {
    let out = run(&["apps"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout_of(&out);
    for app in ["FFTW", "Lulesh", "MCB", "MILC", "VPFFT", "AMG"] {
        assert!(text.contains(app), "apps must list {app}:\n{text}");
    }
    // Every row ends in a one-line communication skeleton.
    for needle in ["all-to-all", "stencil"] {
        assert!(
            text.contains(needle),
            "apps must describe skeletons ({needle}):\n{text}"
        );
    }
}

#[test]
fn journaled_monitor_study_resumes_every_cell_byte_identically() {
    let mut opts = MonitorOpts::quick(7, 2);
    opts.ladder.truncate(1);
    opts.detect_apps = vec![AppKind::Fftw];
    opts.apps = vec![AppKind::Fftw];
    let path =
        std::env::temp_dir().join(format!("anp-monitor-resume-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let run = |journal: &RunJournal| {
        let mut progress = Vec::new();
        let report = run_monitor_study(&opts, &Supervisor::none(), Some(journal), |l| {
            progress.push(l.to_owned())
        })
        .unwrap();
        let records: Vec<String> = monitor_records(&report)
            .iter()
            .map(|r| r.to_json())
            .collect();
        let text = render_report(&opts, &report);
        (report, text, records, progress)
    };
    let (first, first_text, first_records, first_progress) =
        run(&RunJournal::create(&path).unwrap());
    assert!(first.telemetry.runs.iter().all(|r| r.outcome == "ok"));

    let (second, second_text, second_records, second_progress) =
        run(&RunJournal::resume(&path).unwrap());
    assert_eq!(second.telemetry.runs.len(), 3, "one cell per family");
    assert!(
        second.telemetry.runs.iter().all(|r| r.outcome == "resumed"),
        "every cell must decode from the journal"
    );
    assert_eq!(second_text, first_text, "byte-identical report");
    assert_eq!(second_records, first_records, "identical window records");
    assert_eq!(second_progress, first_progress);
    std::fs::remove_file(&path).ok();
}
