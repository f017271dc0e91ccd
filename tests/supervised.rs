//! End-to-end supervision of the `anp` binary: fault-injected sweeps
//! must isolate the faulted cells, print `-` holes while every sibling
//! completes, exit with the partial-result code, and — re-invoked with
//! the same `--resume` journal — complete only the missing cells and
//! produce stdout byte-identical to a clean serial run.
//!
//! Faults are injected through the binary's chaos hook (`ANP_FAULT_PANIC`
//! / `ANP_FAULT_SPIN` name sweep-cell labels), which exercises the same
//! supervised code paths a real panic or runaway simulation would. The
//! kill test crashes a live sweep mid-journal with SIGKILL, the harshest
//! interruption the journal must survive.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

const ANP: &str = env!("CARGO_BIN_EXE_anp");

/// Ladder labels from `anp sweep` (see `src/main.rs`), as journaled.
const RUNGS: [&str; 4] = [
    "rung:P1-B2.5e7-M1",
    "rung:P7-B2.5e6-M10",
    "rung:P14-B2.5e5-M1",
    "rung:P17-B2.5e4-M10",
];

fn scratch_journal(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "anp-supervised-{}-{name}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

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
fn faulted_parallel_sweep_isolates_cells_then_resumes_byte_identically() {
    // Ground truth: a clean serial run, no supervision flags at all.
    let baseline = run(&["--jobs", "1", "sweep", "Lulesh"], &[]);
    assert!(baseline.status.success(), "baseline sweep must pass");
    let baseline_out = stdout_of(&baseline);

    // Fault two of the four rungs inside an 8-worker sweep: one panics,
    // one burns its whole event budget (the cap is far above what any
    // healthy rung uses, so only the spinning cell trips it).
    let journal = scratch_journal("faulted");
    let jpath = journal.to_str().unwrap();
    let faulted = run(
        &[
            "--jobs",
            "8",
            "--event-budget",
            "1000000000000",
            "--resume",
            jpath,
            "sweep",
            "Lulesh",
        ],
        &[("ANP_FAULT_PANIC", RUNGS[1]), ("ANP_FAULT_SPIN", RUNGS[2])],
    );
    assert_eq!(
        faulted.status.code(),
        Some(3),
        "two holes out of four cells is a partial result:\n{}",
        stderr_of(&faulted)
    );
    let faulted_out = stdout_of(&faulted);
    let faulted_err = stderr_of(&faulted);

    // Siblings complete byte-identically despite the faults next door.
    for line in baseline_out.lines() {
        if line.starts_with("P1-") || line.starts_with("P17-") || line.starts_with("Lulesh solo") {
            assert!(
                faulted_out.contains(line),
                "healthy row {line:?} missing from faulted stdout:\n{faulted_out}"
            );
        }
    }
    // The faulted rungs render as holes, with typed detail on stderr.
    for rung in ["P7-B2.5e6-M10", "P14-B2.5e5-M1"] {
        let row = faulted_out
            .lines()
            .find(|l| l.starts_with(rung))
            .unwrap_or_else(|| panic!("no row for faulted rung {rung}:\n{faulted_out}"));
        assert!(
            !row.contains('%'),
            "faulted rung must print a hole, not data: {row:?}"
        );
    }
    assert!(
        faulted_err.contains("panicked") && faulted_err.contains(RUNGS[1]),
        "stderr must attribute the panic to its cell:\n{faulted_err}"
    );
    assert!(
        faulted_err.contains("run budget spent") && faulted_err.contains(RUNGS[2]),
        "stderr must attribute the budget trip to its cell:\n{faulted_err}"
    );
    assert!(
        faulted_err.contains("2 rung(s) did not complete"),
        "stderr must count the holes:\n{faulted_err}"
    );

    // The journal holds exactly the two healthy cells.
    let journal_text = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(
        journal_text.matches("\"status\":\"ok\"").count(),
        2,
        "only the healthy cells journal as ok:\n{journal_text}"
    );

    // Resume with the faults lifted: only the two missing cells re-run,
    // and the finished table is byte-identical to the clean serial run.
    let resumed = run(&["--jobs", "8", "--resume", jpath, "sweep", "Lulesh"], &[]);
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "resume must complete the sweep:\n{}",
        stderr_of(&resumed)
    );
    assert_eq!(
        stdout_of(&resumed),
        baseline_out,
        "resumed stdout must be byte-identical to the clean serial run"
    );
    assert!(
        stderr_of(&resumed).contains("(resuming: 2 completed cells"),
        "resume must report the journaled cells:\n{}",
        stderr_of(&resumed)
    );
    let journal_text = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(
        journal_text.matches("\"status\":\"ok\"").count(),
        4,
        "resume journals the two cells it completed:\n{journal_text}"
    );
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn sweep_with_every_cell_faulted_exits_with_failure() {
    let all_rungs = RUNGS.join(",");
    let out = run(
        &["--jobs", "8", "sweep", "Lulesh"],
        &[("ANP_FAULT_PANIC", all_rungs.as_str())],
    );
    assert_eq!(
        out.status.code(),
        Some(1),
        "no completed cells means exit 1:\n{}",
        stderr_of(&out)
    );
    assert!(
        stderr_of(&out).contains("4 rung(s) did not complete"),
        "stderr must count the holes:\n{}",
        stderr_of(&out)
    );
}

#[test]
fn sigkilled_sweep_resumes_to_completion() {
    let baseline = run(&["--jobs", "1", "sweep", "Lulesh"], &[]);
    assert!(baseline.status.success(), "baseline sweep must pass");

    // Start a serial sweep journaling into a fresh file, and kill it the
    // moment the first completed cell hits the journal — the process
    // dies mid-sweep with no chance to clean up.
    let journal = scratch_journal("killed");
    let jpath = journal.to_str().unwrap();
    let mut child = Command::new(ANP)
        .args(["--jobs", "1", "--resume", jpath, "sweep", "Lulesh"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("anp binary spawns");
    for _ in 0..600 {
        if let Ok(Some(_)) = child.try_wait() {
            break; // finished before we could kill it; resume still works
        }
        let journaled_ok = std::fs::read_to_string(&journal)
            .map(|t| t.contains("\"status\":\"ok\""))
            .unwrap_or(false);
        if journaled_ok {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let _ = child.kill();
    let _ = child.wait();

    let resumed = run(&["--jobs", "8", "--resume", jpath, "sweep", "Lulesh"], &[]);
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "resume after SIGKILL must complete:\n{}",
        stderr_of(&resumed)
    );
    assert_eq!(
        stdout_of(&resumed),
        stdout_of(&baseline),
        "post-kill resume must be byte-identical to the clean serial run"
    );
    let _ = std::fs::remove_file(&journal);
}
