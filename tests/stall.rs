//! A job that can never finish ends in a structured stall, not a hang.
//!
//! Two ranks exchange tagged traffic, then rank 0 waits on a tag nobody
//! sends. Once the exchange drains, no event is left that could match
//! that receive, so the run stops long before its horizon as
//! `RunOutcome::Stalled`. Its `StallReport` names the blocked rank and
//! the `(source, tag)` it waits on, and the experiment layer hands the
//! same report back as `ExperimentError::Stalled`.

use active_netprobe::core::{runtime_of, ExperimentConfig, ExperimentError, Members};
use active_netprobe::simmpi::{
    BlockedOn, Op, Program, RunOutcome, Scripted, Src, StallReport, World,
};
use active_netprobe::simnet::{NodeId, SimTime, SwitchConfig};

/// The tag rank 0 waits on and nobody sends.
const ORPHAN_TAG: u32 = 7;

/// Ranks 0 and 1 on nodes 0 and 1 exchange three tagged 1 KB messages
/// each way, one `WaitAll` per round; then rank 0 posts a receive for
/// [`ORPHAN_TAG`] from rank 1 and waits.
fn members() -> Members {
    let mut a = Vec::new();
    let mut b = Vec::new();
    for tag in 0..3 {
        for (ops, peer) in [(&mut a, 1), (&mut b, 0)] {
            ops.extend([
                Op::Isend {
                    dst: peer,
                    bytes: 1024,
                    tag,
                },
                Op::Irecv {
                    src: Src::Rank(peer),
                    tag,
                },
                Op::WaitAll,
            ]);
        }
    }
    a.extend([
        Op::Irecv {
            src: Src::Rank(1),
            tag: ORPHAN_TAG,
        },
        Op::WaitAll,
    ]);
    a.push(Op::Stop);
    b.push(Op::Stop);
    vec![
        (Box::new(Scripted::new(a)) as Box<dyn Program>, NodeId(0)),
        (Box::new(Scripted::new(b)) as Box<dyn Program>, NodeId(1)),
    ]
}

/// The report must name rank 0 alone, blocked on the orphaned receive.
fn assert_names_the_orphan(report: &StallReport) {
    assert_eq!(report.job_name, "exchange");
    assert_eq!(report.blocked.len(), 1, "{report}");
    let rank = &report.blocked[0];
    assert_eq!((rank.local, rank.node), (0, NodeId(0)));
    assert_eq!(
        rank.waiting_on,
        BlockedOn::WaitAll {
            outstanding: 1,
            pending_recvs: vec![(Src::Rank(1), ORPHAN_TAG)],
        }
    );
    let text = report.to_string();
    assert!(text.contains("exchange"), "{text}");
    assert!(text.contains("rank 0"), "{text}");
    assert!(text.contains("(rank 1, tag 7)"), "{text}");
}

#[test]
fn unmatched_receive_fails_with_a_structured_stall_report_not_a_hang() {
    let horizon = SimTime::from_secs(30);
    let run = || {
        let mut w = World::new(SwitchConfig::tiny_deterministic());
        let job = w.add_job("exchange", members());
        match w.run_until_job_done(job, horizon) {
            RunOutcome::Stalled(report) => report,
            other => panic!("an unmatched receive must end in a stall, got {other:?}"),
        }
    };
    let report = run();
    assert_names_the_orphan(&report);
    // The queue drained once the exchange was done, long before the
    // horizon.
    assert!(
        report.at < SimTime::from_millis(1),
        "stalled at {}",
        report.at
    );
    // Deterministic: the diagnosis itself replays identically.
    assert_eq!(run(), report);

    // The experiment layer returns the same report as a typed error.
    let mut cfg = ExperimentConfig::cab();
    cfg.switch = SwitchConfig::tiny_deterministic();
    match runtime_of(&cfg, "exchange", members(), None) {
        Err(ExperimentError::Stalled(typed)) => assert_eq!(typed, report),
        other => panic!("expected ExperimentError::Stalled, got {other:?}"),
    }
}
