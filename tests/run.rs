//! End-to-end tests of `anp run <artefact>`, the one front end of the
//! paper artefacts and extension studies: a quick flow-backed artefact
//! must exit 0 with stdout byte-identical for any `--jobs`, fig9 must
//! reuse fig8's `--resume` journal cell for cell, bad invocations (an
//! unknown artefact, a flag the artefact would ignore, a non-finite
//! `--run-budget`) must exit 2 with the problem named on stderr before
//! any simulation runs, every command the docs show must name a command
//! `anp` lists and, for `anp run`, parse, and the chaos hook must reach
//! an artefact's cells by their journal labels.

use std::path::Path;
use std::process::{Command, Output};

use anp_bench::cli::{parse_run, Flags, GLOBAL_FLAGS};

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
fn fig9_resumes_every_cell_from_fig8s_journal() {
    let dir = std::env::temp_dir().join(format!("anp-run-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("study.jsonl");
    let bench = dir.join("bench.json");
    std::fs::remove_file(&journal).ok();
    let (journal, bench) = (journal.to_str().unwrap(), bench.to_str().unwrap());
    let study = |artefact: &str, backend: &str, extra: &[&str]| {
        let mut args = vec!["run", artefact, "--quick", "--backend", backend];
        args.extend(extra);
        run(&args)
    };
    let resume = ["--resume", journal, "--bench-json", bench];

    let fig8 = study("fig8_prediction_errors", "flow", &resume);
    assert_eq!(fig8.status.code(), Some(0), "{}", stderr_of(&fig8));
    let resumed = study("fig9_error_summary", "flow", &resume);
    assert_eq!(resumed.status.code(), Some(0), "{}", stderr_of(&resumed));
    // Quick study: 3 solo + 8 impact + 24 grid table cells, 3 profiles
    // and 9 pairings, every one decoded from fig8's journal.
    assert!(
        stderr_of(&resumed).contains("(resuming: 47 completed cells journaled in"),
        "{}",
        stderr_of(&resumed)
    );
    let telemetry = std::fs::read_to_string(bench).unwrap();
    assert_eq!(telemetry.matches("\"outcome\":\"resumed\"").count(), 47);
    assert_eq!(telemetry.matches("\"outcome\":").count(), 47);
    let fresh = study("fig9_error_summary", "flow", &["--no-bench-json"]);
    assert_eq!(fresh.status.code(), Some(0), "{}", stderr_of(&fresh));
    assert_eq!(
        stdout_of(&resumed).replace(&format!("(sweep telemetry written to {bench})\n"), ""),
        stdout_of(&fresh),
        "a resumed fig9 prints exactly what a fresh one does"
    );

    // The journal was recorded by the flow model: the DES refuses it.
    let des = study("fig9_error_summary", "des", &["--resume", journal]);
    assert_eq!(des.status.code(), Some(1), "{}", stderr_of(&des));
    assert!(
        stderr_of(&des).contains("recorded under a different configuration"),
        "{}",
        stderr_of(&des)
    );
    std::fs::remove_dir_all(&dir).ok();

    let cache = run(&["run", "fig9_error_summary", "--cache", "study.tsv"]);
    assert_eq!(cache.status.code(), Some(2));
    assert!(stderr_of(&cache).contains("unknown argument: --cache"));
}

#[test]
fn documented_run_commands_parse() {
    // The commands `anp` lists in the usage text it prints, with exit
    // code 2 and no simulation, when run without arguments.
    let bare = run(&[]);
    assert_eq!(bare.status.code(), Some(2));
    assert!(stdout_of(&bare).is_empty(), "{}", stdout_of(&bare));
    let usage = stderr_of(&bare);
    let commands: Vec<&str> = usage
        .lines()
        .skip_while(|l| *l != "commands:")
        .skip(1)
        .take_while(|l| l.starts_with(' '))
        .filter_map(|l| l.strip_prefix("  "))
        .filter(|l| l.starts_with(|c: char| c.is_ascii_lowercase()))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(
        commands,
        ["calibrate", "apps", "probe", "sweep", "predict", "run"],
        "usage lists:\n{usage}"
    );

    const CMD: &str = "cargo run --release --";
    let (mut seen, mut runs) = (0, 0);
    for doc in ["README.md", "EXPERIMENTS.md", "DESIGN.md"] {
        let text = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(doc))
            .unwrap_or_else(|e| panic!("{doc}: {e}"));
        for (at, _) in text.match_indices(CMD) {
            let rest = &text[at + CMD.len()..];
            // `--features …`, `--bin …` and `--example …` are cargo's own.
            if !rest.starts_with(char::is_whitespace) {
                continue;
            }
            // An inline code span may wrap onto the next line; a line of
            // a fenced block ends at its newline.
            let end = if text[..at].ends_with('`') {
                rest.find('`')
            } else {
                rest.find('\n')
            };
            let command = rest[..end.unwrap_or(rest.len())].trim();
            let mut args = command.split_whitespace().map(str::to_owned).peekable();
            let mut flags = Flags::default();
            if let Err(e) = flags.parse(&mut args, GLOBAL_FLAGS) {
                panic!("{doc}: `{CMD} {command}` does not parse: {e}");
            }
            let name = args.next().unwrap_or_default();
            assert!(
                commands.contains(&name.as_str()),
                "{doc}: `{CMD} {command}` names no command `anp` lists ({commands:?})"
            );
            if name == "run" {
                if let Err(e) = parse_run(&mut flags, &mut args) {
                    panic!("{doc}: `{CMD} {command}` does not parse: {e}");
                }
                runs += 1;
            }
            seen += 1;
        }
    }
    assert!(runs >= 20, "only {runs} documented run commands found");
    assert!(seen > runs, "no documented non-run command found");
}

#[test]
fn chaos_hook_faults_an_artefact_cell_by_its_journal_label() {
    // fig9's pairing sweep journals this directed co-run as
    // `corun:FFTW+Lulesh`; the sweep engine's hook panics it, the study
    // lands partial and the hole is listed by that label.
    let out = Command::new(ANP)
        .args([
            "run",
            "fig9_error_summary",
            "--quick",
            "--backend",
            "flow",
            "--no-bench-json",
        ])
        .env("ANP_FAULT_PANIC", "corun:FFTW+Lulesh")
        .output()
        .expect("anp binary runs");
    let err = stderr_of(&out);
    assert_eq!(
        out.status.code(),
        Some(3),
        "one hole is a partial result:\n{err}"
    );
    assert!(
        err.lines()
            .any(|l| l.starts_with("MISSING") && l.contains("corun:FFTW+Lulesh")),
        "stderr must list the faulted cell:\n{err}"
    );
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
