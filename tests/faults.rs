//! Fault-injection integration tests: the full stack (fault plan →
//! fabric → reliability layer → stall diagnostics) exercised through the
//! public `active_netprobe::` API.
//!
//! Three properties from the fault model's contract:
//!
//! 1. **Determinism** — a lossy fabric under a fixed seed replays
//!    bit-identically: same finish time, same phase totals, same drop and
//!    retransmit counters.
//! 2. **Recovery** — a ping-pong job over a 1% lossy fabric completes via
//!    retransmission, with exact wire-message accounting (every wire
//!    message is either one of the logical sends or a counted retransmit).
//! 3. **Bounded failure** — a permanently dead link exhausts the retry
//!    budget and ends the run as `RunOutcome::Stalled`, whose structured
//!    `StallReport` names the failed send and the blocked receiver,
//!    instead of hanging forever.

use active_netprobe::simmpi::{Op, Program, ReliabilityConfig, RunOutcome, Scripted, Src, World};
use active_netprobe::simnet::{
    FaultPlan, FaultWindow, LinkFault, LinkId, LinkSelector, NodeId, SimDuration, SimTime,
    SwitchConfig,
};

/// Two ranks on two nodes exchanging `rounds` tagged 1 KB messages each
/// way, every round synchronized with a `WaitAll`.
fn ping_pong(world: &mut World, rounds: u32) -> active_netprobe::simmpi::JobId {
    let mut a = Vec::new();
    let mut b = Vec::new();
    for r in 0..rounds {
        a.push(Op::Isend {
            dst: 1,
            bytes: 1024,
            tag: r,
        });
        a.push(Op::Irecv {
            src: Src::Rank(1),
            tag: r,
        });
        a.push(Op::WaitAll);
        b.push(Op::Isend {
            dst: 0,
            bytes: 1024,
            tag: r,
        });
        b.push(Op::Irecv {
            src: Src::Rank(0),
            tag: r,
        });
        b.push(Op::WaitAll);
    }
    a.push(Op::Stop);
    b.push(Op::Stop);
    world.add_job(
        "ping-pong",
        vec![
            (Box::new(Scripted::new(a)) as Box<dyn Program>, NodeId(0)),
            (Box::new(Scripted::new(b)) as Box<dyn Program>, NodeId(1)),
        ],
    )
}

fn lossy_world(loss: f64, seed: u64) -> World {
    let cfg = SwitchConfig::tiny_deterministic()
        .with_fault_plan(FaultPlan::uniform_loss(loss).with_seed(seed));
    let mut w = World::new(cfg);
    w.set_reliability(ReliabilityConfig {
        retransmit_timeout: SimDuration::from_micros(100),
        max_retries: 10,
    });
    w
}

/// One full lossy ping-pong run, reduced to everything that must replay
/// identically under a fixed seed.
fn lossy_run_fingerprint(rounds: u32) -> (SimTime, u64, u64, u64, u64, u64) {
    let mut w = lossy_world(0.01, 42);
    let job = ping_pong(&mut w, rounds);
    w.enable_tracing();
    let outcome = w.run_until_job_done(job, SimTime::from_secs(30));
    let RunOutcome::Completed { at } = outcome else {
        panic!("lossy ping-pong must complete via retransmission: {outcome:?}");
    };
    let totals = w.job_phase_totals(job);
    let stats = w.fabric().stats().clone();
    let rel = w.reliability_stats();
    (
        at,
        totals.total_ns(),
        stats.messages_sent,
        stats.packets_dropped,
        rel.retransmits,
        rel.duplicates,
    )
}

#[test]
fn lossy_run_replays_bit_identically_under_a_fixed_seed() {
    let a = lossy_run_fingerprint(200);
    let b = lossy_run_fingerprint(200);
    assert_eq!(a, b, "same seed + same fault plan must replay identically");
    // A different fault seed must actually perturb the run, or the
    // fingerprint above proves nothing.
    let mut w = lossy_world(0.01, 43);
    let job = ping_pong(&mut w, 200);
    let outcome = w.run_until_job_done(job, SimTime::from_secs(30));
    let RunOutcome::Completed { at } = outcome else {
        panic!("seed 43 run must also complete: {outcome:?}");
    };
    assert_ne!(a.0, at, "different fault seeds should not collide");
}

#[test]
fn ping_pong_over_lossy_link_completes_with_exact_accounting() {
    let rounds = 200;
    let mut w = lossy_world(0.01, 42);
    let job = ping_pong(&mut w, rounds);
    assert!(
        w.run_until_job_done(job, SimTime::from_secs(30))
            .completed(),
        "1% loss must be recoverable"
    );
    let stats = w.fabric().stats();
    let rel = w.reliability_stats();
    assert!(rel.retransmits > 0, "this seed must exercise recovery");
    assert_eq!(rel.failures, 0, "no send may exhaust its budget at 1%");
    // Wire accounting: the 2·rounds logical messages plus one wire message
    // per retransmit, nothing else; every wire message either delivered
    // or was dropped by the fault layer.
    assert_eq!(stats.messages_sent, u64::from(2 * rounds) + rel.retransmits);
    assert_eq!(
        stats.messages_sent,
        stats.messages_delivered + stats.messages_dropped
    );
    // App-level totals stay exact despite loss: duplicates are suppressed,
    // so delivered = logical + spurious-retransmit copies that arrived.
    assert_eq!(
        stats.messages_delivered,
        u64::from(2 * rounds) + rel.duplicates
    );
}

#[test]
fn dead_link_fails_with_a_structured_stall_report_not_a_hang() {
    // Node 0's uplink is dead for the whole run: its send can never get
    // out, the retry budget burns down, and the run must end in a
    // diagnosable stall rather than spinning to the horizon.
    let fault = LinkFault::on(LinkSelector::Link(LinkId::NodeUp(NodeId(0))))
        .with_down(FaultWindow::new(SimTime::ZERO, SimTime::from_secs(3600)));
    let cfg = SwitchConfig::tiny_deterministic()
        .with_fault_plan(FaultPlan::none().with_link_fault(fault));
    let run = || {
        let mut w = World::new(cfg.clone());
        w.set_reliability(ReliabilityConfig {
            retransmit_timeout: SimDuration::from_micros(50),
            max_retries: 2,
        });
        let job = ping_pong(&mut w, 1);
        // Once the retry budget is spent no event is left that could
        // unblock the receiver, long before the horizon: a stall, not an
        // expired deadline.
        match w.run_until_job_done(job, SimTime::from_secs(30)) {
            RunOutcome::Stalled(report) => report,
            other => panic!("a dead link must end in a stall, got {other:?}"),
        }
    };
    let report = run();
    assert_eq!(report.job_name, "ping-pong");
    // The send from rank 0 burned its budget: 1 original + 2 retries.
    assert_eq!(report.failed_sends.len(), 1);
    let failed = &report.failed_sends[0];
    assert_eq!((failed.src, failed.dst, failed.tag), (0, 1, 0));
    assert_eq!(failed.attempts, 3);
    // Rank 0 still finishes: its send completed locally at injection and
    // rank 1's reply crosses healthy links. Only the receiver of the lost
    // message hangs, and the report names the receive that cannot match.
    assert_eq!(report.blocked.len(), 1);
    let text = report.to_string();
    assert!(
        text.contains("ping-pong"),
        "report must name the job: {text}"
    );
    assert!(
        text.contains("rank 1"),
        "report must name blocked ranks: {text}"
    );
    // Deterministic: the diagnosis itself replays identically.
    assert_eq!(run().to_string(), text);
}
