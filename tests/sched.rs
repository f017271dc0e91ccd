//! End-to-end tests of `anp run sched_study`, the scheduling study's
//! one entry point: its stdout must be byte-identical for any `--jobs`
//! setting (the regret table is a simulation result, not a wall-clock
//! artifact), and a fault injected into one ground-truth cell through
//! the sweep engine's chaos hook must skip scheduling and exit with the
//! partial-result code instead of printing a regret table biased by the
//! hole. `anp sched`, `anp monitor`, `anp audit`, `anp losses` and
//! `--model` are usage errors.

use std::process::{Command, Output};

const ANP: &str = env!("CARGO_BIN_EXE_anp");

fn run(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(ANP);
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("anp binary runs")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn sched_stdout_is_byte_identical_for_any_worker_count() {
    let study = |jobs: &str| {
        run(
            &[
                "run",
                "sched_study",
                "--quick",
                "--no-bench-json",
                "--seed",
                "42",
                "--jobs",
                jobs,
            ],
            &[],
        )
    };
    let serial = study("1");
    assert_eq!(
        serial.status.code(),
        Some(0),
        "serial sched must complete:\n{}",
        stderr_of(&serial)
    );
    let parallel = study("8");
    assert_eq!(
        parallel.status.code(),
        Some(0),
        "parallel sched must complete:\n{}",
        stderr_of(&parallel)
    );
    let serial_out = stdout_of(&serial);
    assert_eq!(
        serial_out,
        stdout_of(&parallel),
        "sched stdout must not depend on the worker count"
    );
    // The report carries the policy roster and the regret anchor.
    for needle in [
        "predictive:Queue:des",
        "first-fit",
        "random",
        "solo-only",
        "oracle",
        "regret%",
    ] {
        assert!(
            serial_out.contains(needle),
            "summary must mention {needle:?}:\n{serial_out}"
        );
    }
}

#[test]
fn faulted_truth_cell_skips_scheduling_and_exits_partial() {
    // FFTW and Lulesh are both in the quick app set, so exactly this
    // directed co-run cell of the pairing grid panics; every sibling
    // completes and the campaign lands partial (exit 3), with the hole
    // attributed on stderr and no regret table on stdout.
    let out = run(
        &[
            "run",
            "sched_study",
            "--quick",
            "--no-bench-json",
            "--jobs",
            "8",
        ],
        &[("ANP_FAULT_PANIC", "corun:FFTW+Lulesh")],
    );
    assert_eq!(
        out.status.code(),
        Some(3),
        "one hole in the truth is a partial result:\n{}",
        stderr_of(&out)
    );
    let err = stderr_of(&out);
    assert!(
        err.contains("corun:FFTW+Lulesh"),
        "stderr must attribute the hole to its cell:\n{err}"
    );
    assert!(
        err.contains("truth incomplete"),
        "stderr must say scheduling was skipped:\n{err}"
    );
    assert!(
        !stdout_of(&out).contains("regret%"),
        "no regret table may print off a holed truth:\n{}",
        stdout_of(&out)
    );
}

#[test]
fn retired_sched_monitor_and_audit_commands_are_usage_errors() {
    let retired: [&[&str]; 5] = [
        &["sched", "--quick"],
        &["monitor", "--quick"],
        &["audit"],
        &["audit", "--quick"],
        &["losses", "Lulesh"],
    ];
    for args in retired {
        let cmd = args.join(" ");
        let out = run(args, &[]);
        assert_eq!(out.status.code(), Some(2), "`anp {cmd}` is gone");
        assert!(
            stdout_of(&out).is_empty() && stderr_of(&out).starts_with("usage: anp"),
            "`anp {cmd}` must print only the usage text:\n{}",
            stderr_of(&out)
        );
    }
    let out = run(&["run", "sched_study", "--quick", "--model", "Queue"], &[]);
    assert_eq!(out.status.code(), Some(2), "--model is gone");
    assert!(
        stderr_of(&out).contains("unknown argument: --model"),
        "stderr must name the retired flag:\n{}",
        stderr_of(&out)
    );
}
