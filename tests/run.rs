//! End-to-end tests of `anp run <artefact>`, the one front end of the
//! paper artefacts and extension studies: a quick flow-backed artefact
//! must exit 0 with stdout byte-identical for any `--jobs`, and bad
//! invocations (an unknown artefact, a flag the artefact would ignore, a
//! non-finite `--run-budget`) must exit 2 with the problem named on
//! stderr before any simulation runs.

use std::process::{Command, Output};

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
fn flow_fig9_is_byte_identical_for_any_worker_count() {
    let fig9 = |jobs: &str| {
        run(&[
            "run",
            "fig9_error_summary",
            "--quick",
            "--backend",
            "flow",
            "--no-bench-json",
            "--jobs",
            jobs,
        ])
    };
    let serial = fig9("1");
    assert_eq!(
        serial.status.code(),
        Some(0),
        "quick flow Fig. 9 must complete:\n{}",
        stderr_of(&serial)
    );
    let parallel = fig9("2");
    assert_eq!(parallel.status.code(), Some(0), "{}", stderr_of(&parallel));
    let text = stdout_of(&serial);
    assert_eq!(
        text,
        stdout_of(&parallel),
        "stdout must not depend on the worker count"
    );
    for needle in ["=== Fig. 9 — ", "QUICK sweep", "Queue", "median"] {
        assert!(text.contains(needle), "missing {needle:?}:\n{text}");
    }
}

#[test]
fn unknown_artefact_lists_the_registry() {
    let out = run(&["run", "fig10_nonexistent", "--quick"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "unknown artefact is a usage error"
    );
    let err = stderr_of(&out);
    assert!(
        err.contains("unknown artefact 'fig10_nonexistent'"),
        "{err}"
    );
    for name in [
        "fig3_latency_distributions",
        "table1_pair_slowdowns",
        "fig9_error_summary",
        "backend_xval",
        "sched_study",
        "monitor_study",
    ] {
        assert!(err.contains(name), "stderr must list {name}:\n{err}");
    }
    let out = run(&["run"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "a missing artefact is a usage error"
    );
}

#[test]
fn flags_an_artefact_cannot_honour_are_rejected_before_simulating() {
    let out = run(&["run", "fig6_compression_utilization", "--backend", "flow"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stdout_of(&out).is_empty(),
        "nothing may run or print before the rejection:\n{}",
        stdout_of(&out)
    );
    let err = stderr_of(&out);
    assert!(
        err.contains("fig6_compression_utilization does not read --backend flow"),
        "stderr must name the artefact and the flag:\n{err}"
    );

    let out = run(&["run", "sched_study", "--quick", "--cache", "study.tsv"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("sched_study does not read --cache"),
        "{}",
        stderr_of(&out)
    );

    let out = run(&["run", "fig3_latency_distributions", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("unknown argument: --bogus"));
}

#[test]
fn non_finite_run_budgets_are_usage_errors() {
    for budget in ["inf", "NaN"] {
        for args in [
            vec!["--run-budget", budget, "sweep", "FFTW"],
            vec!["run", "fig9_error_summary", "--run-budget", budget],
        ] {
            let out = run(&args);
            assert_eq!(
                out.status.code(),
                Some(2),
                "{args:?} must be a usage error, not a panic:\n{}",
                stderr_of(&out)
            );
            assert!(
                stderr_of(&out).contains(&format!(
                    "anp: invalid value for --run-budget: \"{budget}\""
                )),
                "{args:?}: stderr must name the flag and the value:\n{}",
                stderr_of(&out)
            );
        }
    }
}
