//! The world: jobs of ranks executing op streams over a shared fabric.
//!
//! A *job* is one MPI-like application: a set of ranks with job-local
//! numbering, its own tag space, and its own collectives. Several jobs can
//! share the same switch — exactly the co-scheduling scenario the paper
//! studies (an application plus ImpactB, plus CompressionB, plus a second
//! application).
//!
//! Ranks are cooperative state machines: the world pulls operations from a
//! rank's [`Program`] until the rank blocks (compute span, wait, stop), and
//! resumes it when the blocking condition resolves. Everything runs on one
//! event queue, so software timing and network timing share one clock and
//! every run is deterministic for a given configuration seed.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

#[cfg(feature = "audit")]
use anp_simnet::audit::{AuditLog, InvariantKind};

use anp_simnet::util::IdHashMap;
use anp_simnet::{
    AuditReport, ConfigError, EventQueue, Fabric, NetEvent, NodeId, Notice, SimDuration, SimTime,
    SwitchConfig,
};

use crate::coll::Lowering;
use crate::op::{Op, Src};
use crate::p2p::{Envelope, Mailbox};
use crate::program::{Ctx, Program};
use crate::trace::{PhaseTotals, RankPhase, TraceLog};

/// Identifies a job (one application / benchmark instance) in the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u32);

/// Event type of the composed simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorldEvent {
    /// A network event for the fabric.
    Net(NetEvent),
    /// A rank's compute/sleep span elapsed.
    RankTimer {
        /// Global rank index.
        rank: u32,
    },
}

impl From<NetEvent> for WorldEvent {
    fn from(ev: NetEvent) -> Self {
        WorldEvent::Net(ev)
    }
}

/// The kinds of event a [`World`] pops: the six [`NetEvent`]s, in that
/// enum's declaration order, and its own rank timer. [`World::events_of`]
/// counts them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// [`NetEvent::NicTxDone`].
    NicTxDone,
    /// [`NetEvent::SwitchArrive`].
    SwitchArrive,
    /// [`NetEvent::ServiceDone`].
    ServiceDone,
    /// [`NetEvent::EgressTxDone`].
    EgressTxDone,
    /// [`NetEvent::Deliver`].
    Deliver,
    /// [`NetEvent::LocalInjectDone`].
    LocalInjectDone,
    /// [`WorldEvent::RankTimer`].
    RankTimer,
}

impl EventKind {
    /// Every kind, in declaration order.
    pub const ALL: [EventKind; 7] = [
        EventKind::NicTxDone,
        EventKind::SwitchArrive,
        EventKind::ServiceDone,
        EventKind::EgressTxDone,
        EventKind::Deliver,
        EventKind::LocalInjectDone,
        EventKind::RankTimer,
    ];
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ready,
    Computing,
    BlockedWaitAll,
    Stopped,
}

struct RankState {
    job: JobId,
    local: u32,
    node: NodeId,
    /// The rank's NIC flow: its index among the ranks on its node, so each
    /// NIC's per-flow table holds exactly the ranks it serves.
    flow: u32,
    program: Box<dyn Program>,
    /// The collective being lowered: its ops are served before the
    /// program is consulted again.
    lowering: Lowering,
    /// Requests posted since the last completed wait.
    outstanding: u32,
    mailbox: Mailbox,
    status: Status,
    stopped_at: Option<SimTime>,
    coll_seq: u32,
    ops_executed: u64,
    /// Next eager sequence number per destination global rank, resized on
    /// first send to a peer. Kept on the rank rather than in a world-level
    /// map so the per-message counter bump stays cache-local.
    seq_send: Vec<u64>,
    /// Eager delivery cursor per source global rank. The low bits are the
    /// next sequence number to hand to matching; the top bit
    /// ([`SEQ_BUFFERED`]) marks a pair with out-of-order arrivals parked
    /// in [`World::recv_buffers`].
    seq_recv: Vec<u64>,
}

struct JobInfo {
    name: String,
    /// Global rank index of each job-local rank.
    ranks: Vec<u32>,
    /// Ranks that have not executed [`Op::Stop`] yet.
    unstopped: usize,
}

/// What a message in flight carries above the fabric, kept in
/// [`World::meta`] at the message's fabric id.
#[derive(Debug, Clone, Copy, Default)]
struct WireMeta {
    /// Sending global rank: its send request completes on injection.
    src_global: u32,
    /// Receiving global rank.
    dst_global: u32,
    /// Sending job-local rank, as the receiver's envelope names it.
    src_local: u32,
    tag: u32,
    /// Per-(source, destination) sequence number. The fabric's k-server
    /// routing stage can reorder whole messages, so the receiver always
    /// resequences.
    seq: u64,
}

/// How a [`World::run_until_job_done`] call ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every rank of the job executed [`Op::Stop`].
    Completed {
        /// When the last rank stopped.
        at: SimTime,
    },
    /// The horizon passed with events still queued: the job was making
    /// (or could still make) progress but ran out of simulated time.
    DeadlineExpired(StallReport),
    /// The event queue drained with the job incomplete: no future event
    /// can unblock it. This is a deadlock, such as a receive that no send
    /// will ever match.
    Stalled(StallReport),
    /// The run budget installed via [`World::set_run_budget`] was spent
    /// (too many simulation events, or the wall-clock deadline passed)
    /// before the job finished. Unlike [`RunOutcome::DeadlineExpired`]
    /// this says nothing about simulated time: the watchdog tripped.
    BudgetExhausted(StallReport),
}

impl RunOutcome {
    /// `true` iff the job ran to completion.
    pub fn completed(&self) -> bool {
        matches!(self, RunOutcome::Completed { .. })
    }

    /// The stall diagnostics, for the incomplete outcomes.
    pub fn stall_report(&self) -> Option<&StallReport> {
        match self {
            RunOutcome::Completed { .. } => None,
            RunOutcome::DeadlineExpired(r)
            | RunOutcome::Stalled(r)
            | RunOutcome::BudgetExhausted(r) => Some(r),
        }
    }
}

/// Structured diagnostics for a job that failed to complete: which ranks
/// are blocked, and on what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallReport {
    /// The job that did not finish.
    pub job: JobId,
    /// Its human-readable name.
    pub job_name: String,
    /// Simulated time when the run gave up.
    pub at: SimTime,
    /// Every rank of the job that has not executed [`Op::Stop`].
    pub blocked: Vec<BlockedRank>,
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "job '{}' incomplete at {}: {} rank(s) not stopped",
            self.job_name,
            self.at,
            self.blocked.len()
        )?;
        for b in &self.blocked {
            writeln!(f, "  {b}")?;
        }
        Ok(())
    }
}

/// One unfinished rank in a [`StallReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedRank {
    /// Job-local rank index.
    pub local: u32,
    /// Global rank index.
    pub global: u32,
    /// The node the rank runs on.
    pub node: NodeId,
    /// What the rank is blocked on.
    pub waiting_on: BlockedOn,
}

impl fmt::Display for BlockedRank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank {} (node {}): ", self.local, self.node.0)?;
        match &self.waiting_on {
            BlockedOn::WaitAll {
                outstanding,
                pending_recvs,
            } => {
                write!(f, "WaitAll on {outstanding} request(s)")?;
                if !pending_recvs.is_empty() {
                    write!(f, ", unmatched recvs:")?;
                    for (src, tag) in pending_recvs {
                        match src {
                            Src::Any => write!(f, " (any, tag {tag})")?,
                            Src::Rank(r) => write!(f, " (rank {r}, tag {tag})")?,
                        }
                    }
                }
                Ok(())
            }
            BlockedOn::Computing => write!(f, "mid-compute span"),
            BlockedOn::Ready => write!(f, "runnable (never blocked)"),
        }
    }
}

/// The blocking condition of one rank in a [`StallReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockedOn {
    /// Blocked in [`Op::WaitAll`].
    WaitAll {
        /// Requests still outstanding.
        outstanding: u32,
        /// Posted receives with no matching message, as `(source, tag)`
        /// selectors — the usual culprits of a stall.
        pending_recvs: Vec<(Src, u32)>,
    },
    /// Inside a compute/sleep span (only possible for
    /// [`RunOutcome::DeadlineExpired`]; a drained queue has no timers).
    Computing,
    /// Runnable but not finished when the run gave up.
    Ready,
}

/// Top bit of a [`RankState::seq_recv`] cursor: set while the pair has
/// out-of-order arrivals parked in [`World::recv_buffers`]. A pair whose
/// messages arrive in order never sets it, so per-message delivery stays a
/// flat vector read.
const SEQ_BUFFERED: u64 = 1 << 63;
/// Mask extracting the delivery cursor from a [`RankState::seq_recv`] slot.
const SEQ_CURSOR: u64 = SEQ_BUFFERED - 1;

/// The composed simulation: fabric + jobs + event loop.
pub struct World {
    fabric: Fabric,
    q: EventQueue<WorldEvent>,
    ranks: Vec<RankState>,
    jobs: Vec<JobInfo>,
    /// Per message in flight, indexed by its
    /// [`MessageId`](anp_simnet::MessageId). The fabric reuses an id only
    /// after both of its message's notices, so an entry is overwritten
    /// only once nothing reads it again.
    meta: Vec<WireMeta>,
    ready: VecDeque<u32>,
    in_ready: Vec<bool>,
    started: bool,
    notice_scratch: Vec<Notice>,
    trace: TraceLog,
    /// Out-of-order eager arrivals per (src_global << 32 | dst_global)
    /// pair, by sequence number. Only pairs whose [`RankState::seq_recv`]
    /// cursor carries [`SEQ_BUFFERED`] have an entry.
    recv_buffers: IdHashMap<u64, BTreeMap<u64, Envelope>>,
    /// Hard cap on [`World::events_processed`]; `None` = unlimited.
    max_events: Option<u64>,
    /// Wall-clock deadline for the run loops, checked every
    /// [`WALL_CHECK_MASK`]+1 events; `None` = unlimited.
    #[expect(
        clippy::disallowed_types,
        reason = "cooperative wall budget from the supervisor; trips only abort a cell, never alter a completed result"
    )]
    wall_deadline: Option<std::time::Instant>,
    /// Set once a run loop stopped because the budget was spent.
    budget_exhausted: bool,
    /// Popped [`WorldEvent::RankTimer`]s; the fabric counts the network
    /// kinds as it handles them. Telemetry only: never read by the
    /// simulation.
    rank_timers: u64,
    /// World-level invariant auditor (FIFO ordering, sequence windows,
    /// monotonic time). `None` until [`World::enable_audit`]; the field only
    /// exists when the `audit` feature is compiled in.
    #[cfg(feature = "audit")]
    audit: Option<Box<WorldAudit>>,
}

/// Shadow state for the world-level invariants. The eager FIFO check works
/// by *issue indices*: every eager payload send on a (source rank,
/// destination rank, tag) channel gets the next index, and the resequencer
/// must hand strictly increasing indices to matching — exactly MPI's
/// non-overtaking rule.
#[cfg(feature = "audit")]
struct WorldAudit {
    log: AuditLog,
    /// Clock of the previously popped event, for the monotonicity check.
    prev_now: SimTime,
    /// Next issue index per (pair key, tag) channel.
    issue_next: BTreeMap<(u64, u32), u64>,
    /// (pair key, sequence number) → (channel, issue index), stamped at
    /// send time and consumed when the resequencer hands the slot to
    /// matching.
    seq_issue: BTreeMap<(u64, u64), ((u64, u32), u64)>,
    /// One past the last delivered issue index per channel.
    delivered: BTreeMap<(u64, u32), u64>,
    /// Lowest legal value of each pair's resequencing cursor.
    seq_floor: BTreeMap<u64, u64>,
}

#[cfg(feature = "audit")]
impl WorldAudit {
    fn new() -> Self {
        WorldAudit {
            log: AuditLog::new(),
            prev_now: SimTime::ZERO,
            issue_next: BTreeMap::new(),
            seq_issue: BTreeMap::new(),
            delivered: BTreeMap::new(),
            seq_floor: BTreeMap::new(),
        }
    }
}

/// The run loops consult the wall clock only when
/// `events_processed & WALL_CHECK_MASK == 0`, keeping the watchdog's
/// steady-state cost to one branch per event.
const WALL_CHECK_MASK: u64 = 0xFFFF;

impl World {
    /// Creates a world over a fresh fabric.
    ///
    /// # Panics
    /// Panics if the configuration is invalid; use [`World::try_new`] to
    /// handle [`ConfigError`] gracefully.
    pub fn new(cfg: SwitchConfig) -> Self {
        match Self::try_new(cfg) {
            Ok(w) => w,
            Err(e) => panic!("invalid switch configuration: {e}"),
        }
    }

    /// Creates a world over a fresh fabric, validating the configuration.
    pub fn try_new(cfg: SwitchConfig) -> Result<Self, ConfigError> {
        Ok(World {
            fabric: Fabric::try_new(cfg)?,
            q: EventQueue::new(),
            ranks: Vec::new(),
            jobs: Vec::new(),
            meta: Vec::new(),
            ready: VecDeque::new(),
            in_ready: Vec::new(),
            started: false,
            notice_scratch: Vec::new(),
            trace: TraceLog::new(),
            recv_buffers: IdHashMap::default(),
            max_events: None,
            wall_deadline: None,
            budget_exhausted: false,
            rank_timers: 0,
            #[cfg(feature = "audit")]
            audit: None,
        })
    }

    /// Turns on the invariant auditor for this world and its fabric. No-op
    /// unless compiled with the `audit` feature (see
    /// [`anp_simnet::audit::audit_compiled`]), so callers never need feature
    /// gates of their own. Call before running; enabling mid-run misses
    /// events sent earlier.
    pub fn enable_audit(&mut self) {
        self.fabric.enable_audit();
        #[cfg(feature = "audit")]
        if self.audit.is_none() {
            self.audit = Some(Box::new(WorldAudit::new()));
        }
    }

    /// `true` when the auditor is compiled in and enabled.
    pub fn audit_enabled(&self) -> bool {
        self.fabric.audit_enabled()
    }

    /// Drains the auditor's findings — the world-level checks (FIFO,
    /// sequence windows, monotonic time) merged with the fabric's
    /// conservation sweep. Returns `None` when auditing is off or compiled
    /// out. A non-clean report means the *simulator* broke its own physics:
    /// the run's artefacts cannot be trusted.
    pub fn take_audit_report(&mut self) -> Option<AuditReport> {
        #[cfg(feature = "audit")]
        {
            let mut report = self.audit.as_deref_mut()?.log.take_report();
            if let Some(fabric_report) = self.fabric.take_audit_report() {
                report.merge(fabric_report);
            }
            Some(report)
        }
        #[cfg(not(feature = "audit"))]
        {
            None
        }
    }

    /// Installs a run budget: the run loops stop once
    /// [`World::events_processed`] reaches `max_events` or the wall clock
    /// passes `wall_deadline`, whichever comes first (`None` = unlimited).
    /// A tripped budget makes [`World::run_until_job_done`] return
    /// [`RunOutcome::BudgetExhausted`] and sets
    /// [`World::budget_exhausted`] for the horizon-only
    /// [`World::run_until`] path.
    ///
    /// The event cap is deterministic (the simulation stops after exactly
    /// the same event under any schedule); the wall deadline is checked
    /// every 65 536 events, so it is a watchdog, not a precise limit.
    #[expect(
        clippy::disallowed_types,
        reason = "deadline handed down by the supervision envelope (anp-core::supervise), not read here"
    )]
    pub fn set_run_budget(
        &mut self,
        max_events: Option<u64>,
        wall_deadline: Option<std::time::Instant>,
    ) {
        self.max_events = max_events;
        self.wall_deadline = wall_deadline;
    }

    /// True once a run loop stopped because the installed budget
    /// ([`World::set_run_budget`]) was spent.
    pub fn budget_exhausted(&self) -> bool {
        self.budget_exhausted
    }

    /// Whether the installed budget is spent; latches
    /// [`World::budget_exhausted`] on first trip.
    fn budget_tripped(&mut self) -> bool {
        if self.budget_exhausted {
            return true;
        }
        let events = self.q.events_processed();
        #[expect(
            clippy::disallowed_types,
            reason = "wall-budget trip check; a trip yields a typed BudgetReport, never a silent result change"
        )]
        let tripped = self.max_events.is_some_and(|cap| events >= cap)
            || (events & WALL_CHECK_MASK == 0
                && self
                    .wall_deadline
                    .is_some_and(|dl| std::time::Instant::now() >= dl));
        if tripped {
            self.budget_exhausted = true;
        }
        tripped
    }

    /// Turns on per-rank phase accounting (compute vs network-wait vs
    /// run). Call after adding all jobs and before running.
    pub fn enable_tracing(&mut self) {
        self.trace.enable(self.ranks.len(), self.q.now());
    }

    /// This rank's phase totals up to the current time (zeros unless
    /// tracing was enabled).
    pub fn rank_phase_totals(&self, rank: u32) -> PhaseTotals {
        self.trace.totals_at(rank, self.q.now())
    }

    /// Aggregated phase totals over all ranks of `job` (zeros unless
    /// tracing was enabled).
    pub fn job_phase_totals(&self, job: JobId) -> PhaseTotals {
        self.trace
            .aggregate_at(&self.jobs[job.0 as usize].ranks, self.q.now())
    }

    /// Adds a job: one program per rank, with its node placement.
    ///
    /// # Panics
    /// Panics if called after the simulation started, if `members` is
    /// empty, or if any node index is out of range.
    pub fn add_job(
        &mut self,
        name: impl Into<String>,
        members: Vec<(Box<dyn Program>, NodeId)>,
    ) -> JobId {
        // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
        assert!(!self.started, "cannot add jobs after the world started");
        // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
        assert!(!members.is_empty(), "a job needs at least one rank");
        let job = JobId(self.jobs.len() as u32);
        let mut ranks = Vec::with_capacity(members.len());
        for (local, (program, node)) in members.into_iter().enumerate() {
            // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
            assert!(
                node.index() < self.fabric.nodes() as usize,
                "node {} out of range for a {}-node fabric",
                node.0,
                self.fabric.nodes()
            );
            let global = self.ranks.len() as u32;
            ranks.push(global);
            let flow = self.ranks.iter().filter(|r| r.node == node).count() as u32;
            self.ranks.push(RankState {
                job,
                local: local as u32,
                node,
                flow,
                program,
                lowering: Lowering::default(),
                outstanding: 0,
                mailbox: Mailbox::default(),
                status: Status::Ready,
                stopped_at: None,
                coll_seq: 0,
                ops_executed: 0,
                seq_send: Vec::new(),
                seq_recv: Vec::new(),
            });
            self.in_ready.push(false);
        }
        self.jobs.push(JobInfo {
            name: name.into(),
            unstopped: ranks.len(),
            ranks,
        });
        job
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.q.now()
    }

    /// The underlying fabric (telemetry).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.q.events_processed()
    }

    /// Events of `kind` processed so far; over [`EventKind::ALL`] these
    /// sum to [`World::events_processed`].
    pub fn events_of(&self, kind: EventKind) -> u64 {
        match kind {
            EventKind::RankTimer => self.rank_timers,
            net => self.fabric.events_handled()[net as usize],
        }
    }

    /// The most events that have been pending at once in this world's
    /// event queue. Like [`World::events_of`], a plain counter that never
    /// feeds a result; with [`Fabric::nic_peak_backlog`] it sizes the
    /// state the simulation holds.
    pub fn queue_high_water(&self) -> usize {
        self.q.high_water()
    }

    /// Job name.
    pub fn job_name(&self, job: JobId) -> &str {
        &self.jobs[job.0 as usize].name
    }

    /// True when every rank of `job` has executed [`Op::Stop`].
    pub fn job_done(&self, job: JobId) -> bool {
        self.jobs[job.0 as usize].unstopped == 0
    }

    /// The time the last rank of `job` stopped, if the job is done.
    pub fn job_finish_time(&self, job: JobId) -> Option<SimTime> {
        let info = &self.jobs[job.0 as usize];
        info.ranks
            .iter()
            .map(|&g| self.ranks[g as usize].stopped_at)
            .try_fold(SimTime::ZERO, |acc, t| t.map(|t| acc.max(t)))
    }

    /// Total ops executed by all ranks of a job (progress telemetry).
    pub fn job_ops_executed(&self, job: JobId) -> u64 {
        self.jobs[job.0 as usize]
            .ranks
            .iter()
            .map(|&g| self.ranks[g as usize].ops_executed)
            .sum()
    }

    /// Runs until no events remain at or before `horizon`, or until the
    /// installed run budget is spent (see [`World::set_run_budget`];
    /// check [`World::budget_exhausted`] afterwards).
    pub fn run_until(&mut self, horizon: SimTime) {
        self.bootstrap();
        while !self.budget_tripped() && self.step(horizon) {}
    }

    /// Runs until `job` completes, the event queue drains, `horizon`
    /// passes, or the installed run budget is spent — distinct outcomes
    /// (completion, deadlock/stall, deadline expiry, budget exhaustion)
    /// that callers must not conflate: an expired deadline means "needed
    /// more simulated time", a stall means no amount of time can help,
    /// and a spent budget means the watchdog gave up on the run.
    pub fn run_until_job_done(&mut self, job: JobId, horizon: SimTime) -> RunOutcome {
        self.bootstrap();
        while !self.job_done(job) {
            if self.budget_tripped() || !self.step(horizon) {
                break;
            }
        }
        if self.job_done(job) {
            return RunOutcome::Completed {
                at: self.job_finish_time(job).unwrap_or_else(|| self.q.now()),
            };
        }
        let report = self.stall_report(job);
        if self.budget_exhausted {
            RunOutcome::BudgetExhausted(report)
        } else if self.q.peek_time().is_some() {
            RunOutcome::DeadlineExpired(report)
        } else {
            RunOutcome::Stalled(report)
        }
    }

    /// Diagnostics for an unfinished job: every non-stopped rank with its
    /// blocking condition.
    pub fn stall_report(&self, job: JobId) -> StallReport {
        let blocked = self.jobs[job.0 as usize]
            .ranks
            .iter()
            .filter_map(|&g| {
                let r = &self.ranks[g as usize];
                let waiting_on = match r.status {
                    Status::Stopped => return None,
                    Status::Computing => BlockedOn::Computing,
                    Status::Ready => BlockedOn::Ready,
                    Status::BlockedWaitAll => BlockedOn::WaitAll {
                        outstanding: r.outstanding,
                        pending_recvs: r.mailbox.posted_descriptors(),
                    },
                };
                Some(BlockedRank {
                    local: r.local,
                    global: g,
                    node: r.node,
                    waiting_on,
                })
            })
            .collect();
        StallReport {
            job,
            job_name: self.jobs[job.0 as usize].name.clone(),
            at: self.q.now(),
            blocked,
        }
    }

    fn bootstrap(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for g in 0..self.ranks.len() as u32 {
            self.make_ready(g);
        }
        self.drain_ready();
    }

    /// Processes one event. Returns `false` when the queue is empty or the
    /// next event lies beyond `horizon`.
    fn step(&mut self, horizon: SimTime) -> bool {
        let Some((_, ev)) = self.q.pop_until(horizon) else {
            return false;
        };
        #[cfg(feature = "audit")]
        if let Some(a) = self.audit.as_deref_mut() {
            let t = self.q.now();
            if t < a.prev_now {
                let detail = format!("event clock moved backwards: {} after {}", t, a.prev_now);
                a.log.violate(InvariantKind::TimeMonotonicity, t, detail);
            }
            a.prev_now = t;
            a.log.note_event(format!("t={t} {ev:?}"));
        }
        match ev {
            WorldEvent::Net(ne) => {
                let mut notices = std::mem::take(&mut self.notice_scratch);
                notices.clear();
                self.fabric.handle(&mut self.q, ne, &mut notices);
                for n in notices.drain(..) {
                    self.apply_notice(n);
                }
                self.notice_scratch = notices;
            }
            WorldEvent::RankTimer { rank } => {
                self.rank_timers += 1;
                debug_assert_eq!(self.ranks[rank as usize].status, Status::Computing);
                self.make_ready(rank);
            }
        }
        self.drain_ready();
        true
    }

    fn apply_notice(&mut self, n: Notice) {
        match n {
            Notice::MessageInjected { msg } => {
                let owner = self.meta[msg.0 as usize].src_global;
                let r = &mut self.ranks[owner as usize];
                debug_assert!(r.outstanding > 0);
                r.outstanding -= 1;
                self.maybe_unblock(owner);
            }
            Notice::MessageDelivered { msg } => {
                let meta = self.meta[msg.0 as usize];
                let env = Envelope {
                    src: meta.src_local,
                    tag: meta.tag,
                };
                self.accept_sequenced(meta.src_global, meta.dst_global, meta.seq, env);
            }
        }
    }

    /// Hands an eager envelope to the destination rank's matching engine.
    fn deliver_envelope(&mut self, dst_global: u32, env: Envelope) {
        let r = &mut self.ranks[dst_global as usize];
        let matched = r.mailbox.deliver(env);
        if matched {
            debug_assert!(r.outstanding > 0);
            r.outstanding -= 1;
            self.maybe_unblock(dst_global);
        }
    }

    /// Accepts a sequenced arrival: buffers out-of-order messages, and
    /// drains everything now in order.
    fn accept_sequenced(&mut self, src_global: u32, dst_global: u32, seq: u64, env: Envelope) {
        let cursors = &mut self.ranks[dst_global as usize].seq_recv;
        if cursors.len() <= src_global as usize {
            cursors.resize(src_global as usize + 1, 0);
        }
        let stored = cursors[src_global as usize];
        if stored & SEQ_BUFFERED == 0 {
            // Nothing parked behind this pair: a flat cursor bump and a
            // direct delivery.
            debug_assert!(
                seq >= stored,
                "pair ({src_global}, {dst_global}) seq {seq} twice"
            );
            if seq == stored {
                cursors[src_global as usize] = stored + 1;
                #[cfg(feature = "audit")]
                {
                    let key = pair_key(src_global, dst_global);
                    self.audit_fifo_delivery(key, seq);
                    self.audit_seq_window(src_global, dst_global);
                }
                self.deliver_envelope(dst_global, env);
                return;
            }
            // Gap: park the arrival and flag the cursor so later messages
            // take the buffered path until the pair drains dry.
            cursors[src_global as usize] = stored | SEQ_BUFFERED;
        }
        let cur = self.ranks[dst_global as usize].seq_recv[src_global as usize] & SEQ_CURSOR;
        let key = pair_key(src_global, dst_global);
        let buffer = self.recv_buffers.entry(key).or_default();
        debug_assert!(
            seq >= cur && !buffer.contains_key(&seq),
            "pair ({src_global}, {dst_global}) seq {seq} twice"
        );
        buffer.insert(seq, env);
        self.drain_sequenced(src_global, dst_global);
        #[cfg(feature = "audit")]
        self.audit_seq_window(src_global, dst_global);
    }

    /// Checks a pair's resequencing window after it absorbed an arrival:
    /// the delivery cursor must never regress, and nothing below the cursor
    /// may remain buffered (it would be delivered out of order or never).
    #[cfg(feature = "audit")]
    fn audit_seq_window(&mut self, src_global: u32, dst_global: u32) {
        let Some(a) = self.audit.as_deref_mut() else {
            return;
        };
        let key = pair_key(src_global, dst_global);
        let next = self.ranks[dst_global as usize]
            .seq_recv
            .get(src_global as usize)
            .copied()
            .unwrap_or(0)
            & SEQ_CURSOR;
        let now = self.q.now();
        let floor = a.seq_floor.entry(key).or_insert(0);
        if next < *floor {
            let detail = format!(
                "pair ({src_global}, {dst_global}): delivery cursor moved backwards from {} to {next}",
                *floor
            );
            a.log.violate(InvariantKind::SeqWindow, now, detail);
        }
        *floor = next;
        if let Some((&first, _)) = self.recv_buffers.get(&key).and_then(|b| b.iter().next()) {
            if first < next {
                let detail = format!(
                    "pair ({src_global}, {dst_global}): buffered seq {first} below delivery cursor {next}"
                );
                a.log.violate(InvariantKind::SeqWindow, now, detail);
            }
        }
    }

    /// Checks the eager non-overtaking rule end to end: on each (source,
    /// destination, tag) channel, send-time issue indices must reach the
    /// matching engine strictly in increasing order. Called as the
    /// resequencer drains a slot; an independent check of the pipeline
    /// (fabric reordering + resequencing buffer) using only send-time
    /// stamps.
    #[cfg(feature = "audit")]
    fn audit_fifo_delivery(&mut self, key: u64, seq: u64) {
        let Some(a) = self.audit.as_deref_mut() else {
            return;
        };
        let Some((chan, issue)) = a.seq_issue.remove(&(key, seq)) else {
            return;
        };
        let last = a.delivered.entry(chan).or_insert(0);
        if issue < *last {
            let ((_, tag), prev) = (chan, *last - 1);
            let (src, dst) = (key >> 32, key & u64::from(u32::MAX));
            let detail = format!(
                "channel (src {src}, dst {dst}, tag {tag}): send #{issue} \
                 delivered after send #{prev} (FIFO overtaking)"
            );
            a.log
                .violate(InvariantKind::FifoOrdering, self.q.now(), detail);
        } else {
            *last = issue + 1;
        }
    }

    /// Delivers the in-order prefix of a pair's side buffer, then clears
    /// the cursor's [`SEQ_BUFFERED`] flag (and drops the buffer) once the
    /// pair drains dry so later arrivals take the flat fast path again.
    fn drain_sequenced(&mut self, src_global: u32, dst_global: u32) {
        let key = pair_key(src_global, dst_global);
        loop {
            let next = self.ranks[dst_global as usize].seq_recv[src_global as usize] & SEQ_CURSOR;
            #[expect(
                clippy::expect_used,
                reason = "internal engine ledger invariant; breakage means corrupted simulator state, which must halt rather than emit plausible-but-wrong results"
            )]
            let buffer = self
                .recv_buffers
                .get_mut(&key)
                .expect("pair buffer vanished");
            let Some(env) = buffer.remove(&next) else {
                if buffer.is_empty() {
                    self.recv_buffers.remove(&key);
                    self.ranks[dst_global as usize].seq_recv[src_global as usize] = next;
                }
                return;
            };
            self.ranks[dst_global as usize].seq_recv[src_global as usize] =
                (next + 1) | SEQ_BUFFERED;
            #[cfg(feature = "audit")]
            self.audit_fifo_delivery(key, next);
            self.deliver_envelope(dst_global, env);
        }
    }

    fn maybe_unblock(&mut self, rank: u32) {
        let r = &self.ranks[rank as usize];
        if r.status == Status::BlockedWaitAll && r.outstanding == 0 {
            self.make_ready(rank);
        }
    }

    fn make_ready(&mut self, rank: u32) {
        let r = &mut self.ranks[rank as usize];
        if r.status == Status::Stopped || self.in_ready[rank as usize] {
            return;
        }
        r.status = Status::Ready;
        self.trace
            .transition(rank, RankPhase::Running, self.q.now());
        self.in_ready[rank as usize] = true;
        self.ready.push_back(rank);
    }

    fn drain_ready(&mut self) {
        while let Some(rank) = self.ready.pop_front() {
            self.in_ready[rank as usize] = false;
            if self.ranks[rank as usize].status == Status::Ready {
                self.advance(rank);
            }
        }
    }

    /// Executes ops for one rank until it blocks or stops.
    fn advance(&mut self, rank: u32) {
        loop {
            let op = {
                let r = &mut self.ranks[rank as usize];
                match r.lowering.next() {
                    Some(op) => op,
                    None => {
                        let ctx = Ctx { now: self.q.now() };
                        r.program.next_op(&ctx)
                    }
                }
            };
            self.ranks[rank as usize].ops_executed += 1;
            match op {
                Op::Compute(d) | Op::Sleep(d) => {
                    if d == SimDuration::ZERO {
                        continue;
                    }
                    self.ranks[rank as usize].status = Status::Computing;
                    self.trace
                        .transition(rank, RankPhase::Computing, self.q.now());
                    self.q.schedule_after(d, WorldEvent::RankTimer { rank });
                    return;
                }
                Op::Isend { dst, bytes, tag } => {
                    self.do_isend(rank, dst, bytes, tag);
                }
                Op::Irecv { src, tag } => {
                    // A match means the payload already arrived: the
                    // request is complete immediately.
                    let r = &mut self.ranks[rank as usize];
                    if !r.mailbox.post(src, tag) {
                        r.outstanding += 1;
                    }
                }
                Op::WaitAll => {
                    let r = &mut self.ranks[rank as usize];
                    if r.outstanding > 0 {
                        r.status = Status::BlockedWaitAll;
                        self.trace
                            .transition(rank, RankPhase::Waiting, self.q.now());
                        return;
                    }
                }
                coll @ (Op::Barrier
                | Op::Allreduce { .. }
                | Op::Alltoall { .. }
                | Op::Bcast { .. }
                | Op::Reduce { .. }
                | Op::Allgather { .. }) => self.inject_collective(rank, coll),
                Op::Stop => {
                    let r = &mut self.ranks[rank as usize];
                    assert_eq!(
                        r.outstanding, 0,
                        "rank stopped with outstanding requests (job {:?} local {})",
                        r.job, r.local
                    );
                    r.status = Status::Stopped;
                    r.stopped_at = Some(self.q.now());
                    self.jobs[r.job.0 as usize].unstopped -= 1;
                    self.trace
                        .transition(rank, RankPhase::Running, self.q.now());
                    return;
                }
            }
        }
    }

    fn do_isend(&mut self, rank: u32, dst_local: u32, bytes: u64, tag: u32) {
        let (job, src_local, src_node, flow) = {
            let r = &self.ranks[rank as usize];
            (r.job, r.local, r.node, r.flow)
        };
        let job_info = &self.jobs[job.0 as usize];
        // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
        assert!(
            (dst_local as usize) < job_info.ranks.len(),
            "Isend to rank {dst_local} outside job '{}' of size {}",
            job_info.name,
            job_info.ranks.len()
        );
        let dst_global = job_info.ranks[dst_local as usize];
        let dst_node = self.ranks[dst_global as usize].node;
        let msg = self
            .fabric
            .send_message(&mut self.q, flow, src_node, dst_node, bytes);
        // Every eager payload is sequenced per (src, dst) pair: the
        // switch's k-server routing stage
        // legitimately reorders packet completions, so a later, shorter
        // message can finish before an earlier one — the receiver must
        // resequence or MPI's non-overtaking rule breaks (the invariant
        // auditor caught exactly that on the saturated ladder rungs).
        let seq = {
            let counters = &mut self.ranks[rank as usize].seq_send;
            if counters.len() <= dst_global as usize {
                counters.resize(dst_global as usize + 1, 0);
            }
            let seq = counters[dst_global as usize];
            counters[dst_global as usize] += 1;
            seq
        };
        let i = msg.0 as usize;
        if i >= self.meta.len() {
            self.meta.resize(i + 1, WireMeta::default());
        }
        self.meta[i] = WireMeta {
            src_global: rank,
            dst_global,
            src_local,
            tag,
            seq,
        };
        #[cfg(feature = "audit")]
        {
            // Stamp the send with the channel's next issue index so
            // delivery can verify non-overtaking independently of the
            // resequencing buffer that enforces it.
            if let Some(a) = self.audit.as_deref_mut() {
                let chan = (pair_key(rank, dst_global), tag);
                let issue = {
                    let c = a.issue_next.entry(chan).or_insert(0);
                    let v = *c;
                    *c += 1;
                    v
                };
                a.seq_issue
                    .insert((pair_key(rank, dst_global), seq), (chan, issue));
            }
        }
        self.ranks[rank as usize].outstanding += 1;
    }

    fn inject_collective(&mut self, rank: u32, coll: Op) {
        let (job, local, seq) = {
            let r = &mut self.ranks[rank as usize];
            assert_eq!(
                r.outstanding, 0,
                "collective entered with outstanding requests (job {:?} local {})",
                r.job, r.local
            );
            let seq = r.coll_seq;
            r.coll_seq = r.coll_seq.wrapping_add(1);
            (r.job, r.local, seq)
        };
        let n = self.jobs[job.0 as usize].ranks.len() as u32;
        // Two tags per instance, cycling within the reserved tag space.
        let tag_base = Op::RESERVED_TAG_BASE + ((seq % (1 << 28)) << 1);
        let r = &mut self.ranks[rank as usize];
        debug_assert!(
            r.lowering.is_done(),
            "collective issued from within a collective expansion"
        );
        r.lowering = Lowering::new(coll, local, n, tag_base);
    }
}

/// Dense key for a (source, destination) global-rank pair.
fn pair_key(src_global: u32, dst_global: u32) -> u64 {
    (u64::from(src_global) << 32) | u64::from(dst_global)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Src;
    use crate::program::{Looping, Scripted};
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn tiny_world() -> World {
        World::new(SwitchConfig::tiny_deterministic())
    }

    fn boxed(p: impl Program + 'static) -> Box<dyn Program> {
        Box::new(p)
    }

    #[test]
    fn compute_only_job_finishes_at_sum_of_spans() {
        let mut w = tiny_world();
        let job = w.add_job(
            "calc",
            vec![(
                boxed(Scripted::new(vec![
                    Op::Compute(SimDuration::from_nanos(100)),
                    Op::Compute(SimDuration::from_nanos(150)),
                    Op::Stop,
                ])),
                NodeId(0),
            )],
        );
        assert!(w
            .run_until_job_done(job, SimTime::from_nanos(10_000))
            .completed());
        assert_eq!(w.job_finish_time(job), Some(SimTime::from_nanos(250)));
    }

    #[test]
    fn ping_pong_completes_with_exact_latency() {
        let mut w = tiny_world();
        // Rank 0 on node 0 sends 512 B to rank 1 on node 1, which replies.
        // One-way: 512 (nic) + 100 (wire) + 200 (svc) + 512 (egress) + 100
        // (wire) = 1424 ns; round trip 2848 ns.
        let job = w.add_job(
            "pingpong",
            vec![
                (
                    boxed(Scripted::new(vec![
                        Op::Isend {
                            dst: 1,
                            bytes: 512,
                            tag: 0,
                        },
                        Op::Irecv {
                            src: Src::Rank(1),
                            tag: 1,
                        },
                        Op::WaitAll,
                        Op::Stop,
                    ])),
                    NodeId(0),
                ),
                (
                    boxed(Scripted::new(vec![
                        Op::Irecv {
                            src: Src::Rank(0),
                            tag: 0,
                        },
                        Op::WaitAll,
                        Op::Isend {
                            dst: 0,
                            bytes: 512,
                            tag: 1,
                        },
                        Op::WaitAll,
                        Op::Stop,
                    ])),
                    NodeId(1),
                ),
            ],
        );
        assert!(w
            .run_until_job_done(job, SimTime::from_nanos(100_000))
            .completed());
        assert_eq!(w.job_finish_time(job), Some(SimTime::from_nanos(2848)));
    }

    #[test]
    fn barrier_synchronizes_ranks() {
        // Rank 0 computes 10 µs before the barrier; all ranks must leave
        // the barrier after it.
        let mut w = tiny_world();
        let mk = |first_compute: u64| {
            boxed(Scripted::new(vec![
                Op::Compute(SimDuration::from_nanos(first_compute)),
                Op::Barrier,
                Op::Stop,
            ]))
        };
        let job = w.add_job(
            "barrier",
            vec![
                (mk(10_000), NodeId(0)),
                (mk(10), NodeId(1)),
                (mk(10), NodeId(2)),
                (mk(10), NodeId(3)),
            ],
        );
        assert!(w.run_until_job_done(job, SimTime::from_secs(1)).completed());
        let t = w.job_finish_time(job).unwrap();
        assert!(
            t > SimTime::from_nanos(10_000),
            "barrier must not complete before the slowest rank arrives (t={t})"
        );
    }

    #[test]
    fn allreduce_completes_on_non_power_of_two() {
        let mut w = tiny_world();
        let members: Vec<_> = (0..3)
            .map(|i| {
                (
                    boxed(Scripted::new(vec![Op::Allreduce { bytes: 800 }, Op::Stop])),
                    NodeId(i),
                )
            })
            .collect();
        let job = w.add_job("allreduce3", members);
        assert!(w.run_until_job_done(job, SimTime::from_secs(1)).completed());
    }

    #[test]
    fn alltoall_completes_and_moves_all_pairs() {
        let mut w = tiny_world();
        let members: Vec<_> = (0..4)
            .map(|i| {
                (
                    boxed(Scripted::new(vec![
                        Op::Alltoall {
                            bytes_per_pair: 256,
                        },
                        Op::Stop,
                    ])),
                    NodeId(i),
                )
            })
            .collect();
        let job = w.add_job("a2a", members);
        assert!(w.run_until_job_done(job, SimTime::from_secs(1)).completed());
        // 4 ranks × 3 peers = 12 messages.
        assert_eq!(w.fabric().stats().messages_sent, 12);
        assert_eq!(w.fabric().stats().messages_delivered, 12);
    }

    #[test]
    fn bcast_reduce_allgather_complete() {
        let mut w = tiny_world();
        let members: Vec<_> = (0..6)
            .map(|i| {
                (
                    boxed(Scripted::new(vec![
                        Op::Bcast {
                            root: 2,
                            bytes: 4_000,
                        },
                        Op::Reduce {
                            root: 1,
                            bytes: 2_000,
                        },
                        Op::Allgather {
                            bytes_per_rank: 512,
                        },
                        Op::Stop,
                    ])),
                    NodeId(i % 4),
                )
            })
            .collect();
        let job = w.add_job("rooted", members);
        assert!(w
            .run_until_job_done(job, SimTime::from_secs(10))
            .completed());
    }

    #[test]
    fn rooted_collectives_with_every_root_complete() {
        for root in 0..5u32 {
            let mut w = tiny_world();
            let members: Vec<_> = (0..5)
                .map(|i| {
                    (
                        boxed(Scripted::new(vec![
                            Op::Bcast { root, bytes: 1_000 },
                            Op::Reduce { root, bytes: 1_000 },
                            Op::Stop,
                        ])),
                        NodeId(i % 4),
                    )
                })
                .collect();
            let job = w.add_job("rooted", members);
            assert!(
                w.run_until_job_done(job, SimTime::from_secs(10))
                    .completed(),
                "root {root} deadlocked"
            );
        }
    }

    #[test]
    fn jobs_have_isolated_tag_spaces() {
        // Two jobs exchange with the same tags between the same nodes; the
        // matching must never cross jobs.
        let mut w = tiny_world();
        let mk_sender = || {
            boxed(Scripted::new(vec![
                Op::Isend {
                    dst: 1,
                    bytes: 128,
                    tag: 42,
                },
                Op::WaitAll,
                Op::Stop,
            ]))
        };
        let mk_recver = || {
            boxed(Scripted::new(vec![
                Op::Irecv {
                    src: Src::Rank(0),
                    tag: 42,
                },
                Op::WaitAll,
                Op::Stop,
            ]))
        };
        let a = w.add_job(
            "a",
            vec![(mk_sender(), NodeId(0)), (mk_recver(), NodeId(1))],
        );
        let b = w.add_job(
            "b",
            vec![(mk_sender(), NodeId(0)), (mk_recver(), NodeId(1))],
        );
        w.run_until(SimTime::from_secs(1));
        assert!(w.job_done(a));
        assert!(w.job_done(b));
    }

    #[test]
    fn wildcard_receive_accepts_any_source() {
        let mut w = tiny_world();
        let job = w.add_job(
            "wild",
            vec![
                (
                    boxed(Scripted::new(vec![
                        Op::Irecv {
                            src: Src::Any,
                            tag: 0,
                        },
                        Op::Irecv {
                            src: Src::Any,
                            tag: 0,
                        },
                        Op::WaitAll,
                        Op::Stop,
                    ])),
                    NodeId(0),
                ),
                (
                    boxed(Scripted::new(vec![
                        Op::Isend {
                            dst: 0,
                            bytes: 100,
                            tag: 0,
                        },
                        Op::WaitAll,
                        Op::Stop,
                    ])),
                    NodeId(1),
                ),
                (
                    boxed(Scripted::new(vec![
                        Op::Isend {
                            dst: 0,
                            bytes: 100,
                            tag: 0,
                        },
                        Op::WaitAll,
                        Op::Stop,
                    ])),
                    NodeId(2),
                ),
            ],
        );
        assert!(w.run_until_job_done(job, SimTime::from_secs(1)).completed());
    }

    #[test]
    fn same_node_ranks_communicate_locally() {
        let mut w = tiny_world();
        let job = w.add_job(
            "local",
            vec![
                (
                    boxed(Scripted::new(vec![
                        Op::Isend {
                            dst: 1,
                            bytes: 2048,
                            tag: 0,
                        },
                        Op::WaitAll,
                        Op::Stop,
                    ])),
                    NodeId(0),
                ),
                (
                    boxed(Scripted::new(vec![
                        Op::Irecv {
                            src: Src::Rank(0),
                            tag: 0,
                        },
                        Op::WaitAll,
                        Op::Stop,
                    ])),
                    NodeId(0),
                ),
            ],
        );
        assert!(w.run_until_job_done(job, SimTime::from_secs(1)).completed());
        assert_eq!(w.fabric().switch_stats().arrivals, 0);
        assert_eq!(w.fabric().stats().local_messages, 1);
    }

    #[test]
    fn reply_on_delivery_does_not_reuse_an_uninjected_message_id() {
        // With no local-channel latency a message's `Deliver` and
        // `LocalInjectDone` fall on the same instant and `Deliver` pops
        // first. Rank 1's reply is sent in between; were the request's
        // slot freed at `Deliver`, the reply would take its id and the
        // request's injection would be charged to rank 1.
        let mut cfg = SwitchConfig::tiny_deterministic();
        cfg.local_latency = SimDuration::ZERO;
        let mut w = World::new(cfg);
        let job = w.add_job(
            "reply",
            vec![
                (
                    boxed(Scripted::new(vec![
                        Op::Isend {
                            dst: 1,
                            bytes: 512,
                            tag: 0,
                        },
                        Op::WaitAll,
                        Op::Irecv {
                            src: Src::Rank(1),
                            tag: 1,
                        },
                        Op::WaitAll,
                        Op::Stop,
                    ])),
                    NodeId(0),
                ),
                (
                    boxed(Scripted::new(vec![
                        Op::Irecv {
                            src: Src::Rank(0),
                            tag: 0,
                        },
                        Op::WaitAll,
                        Op::Isend {
                            dst: 0,
                            bytes: 512,
                            tag: 1,
                        },
                        Op::WaitAll,
                        Op::Stop,
                    ])),
                    NodeId(0),
                ),
            ],
        );
        assert!(w.run_until_job_done(job, SimTime::from_secs(1)).completed());
        assert_eq!(w.fabric().stats().messages_delivered, 2);
        assert!(w.fabric().is_quiescent());
    }

    #[test]
    fn looping_job_runs_to_horizon_without_stopping() {
        let mut w = tiny_world();
        let job = w.add_job(
            "noise",
            vec![
                (
                    boxed(
                        Looping::new(vec![
                            Op::Isend {
                                dst: 1,
                                bytes: 512,
                                tag: 0,
                            },
                            Op::Irecv {
                                src: Src::Rank(1),
                                tag: 0,
                            },
                            Op::WaitAll,
                            Op::Sleep(SimDuration::from_micros(10)),
                        ])
                        .named("ping"),
                    ),
                    NodeId(0),
                ),
                (
                    boxed(
                        Looping::new(vec![
                            Op::Irecv {
                                src: Src::Rank(0),
                                tag: 0,
                            },
                            Op::Isend {
                                dst: 0,
                                bytes: 512,
                                tag: 0,
                            },
                            Op::WaitAll,
                            Op::Sleep(SimDuration::from_micros(10)),
                        ])
                        .named("pong"),
                    ),
                    NodeId(1),
                ),
            ],
        );
        w.run_until(SimTime::from_millis(1));
        assert!(!w.job_done(job));
        // ~1 ms / ~12.8 µs per iteration ≈ 78 exchanges of 2 messages.
        let sent = w.fabric().stats().messages_sent;
        assert!(sent > 100, "expected steady traffic, got {sent} messages");
    }

    #[test]
    fn determinism_across_identical_runs() {
        let run = || {
            let mut w = World::new(SwitchConfig::cab().with_seed(3));
            let members: Vec<_> = (0..8)
                .map(|i| {
                    (
                        boxed(Scripted::new(vec![
                            Op::Alltoall {
                                bytes_per_pair: 4096,
                            },
                            Op::Allreduce { bytes: 1024 },
                            Op::Stop,
                        ])),
                        NodeId(i % 18),
                    )
                })
                .collect();
            let job = w.add_job("det", members);
            assert!(w
                .run_until_job_done(job, SimTime::from_secs(10))
                .completed());
            (w.job_finish_time(job), w.events_processed())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn program_ctx_reports_simulated_time() {
        struct TimeProbe {
            times: Rc<RefCell<Vec<SimTime>>>,
            step: u32,
        }
        impl Program for TimeProbe {
            fn next_op(&mut self, ctx: &Ctx) -> Op {
                self.times.borrow_mut().push(ctx.now);
                self.step += 1;
                match self.step {
                    1 => Op::Compute(SimDuration::from_nanos(500)),
                    _ => Op::Stop,
                }
            }
        }
        let times = Rc::new(RefCell::new(Vec::new()));
        let mut w = tiny_world();
        let job = w.add_job(
            "probe",
            vec![(
                Box::new(TimeProbe {
                    times: Rc::clone(&times),
                    step: 0,
                }) as Box<dyn Program>,
                NodeId(0),
            )],
        );
        assert!(w.run_until_job_done(job, SimTime::from_secs(1)).completed());
        let t = times.borrow();
        assert_eq!(t[0], SimTime::ZERO);
        assert_eq!(t[1], SimTime::from_nanos(500));
    }

    #[test]
    #[should_panic(expected = "outside job")]
    fn isend_outside_job_panics() {
        let mut w = tiny_world();
        let job = w.add_job(
            "bad",
            vec![(
                boxed(Scripted::new(vec![Op::Isend {
                    dst: 5,
                    bytes: 1,
                    tag: 0,
                }])),
                NodeId(0),
            )],
        );
        w.run_until_job_done(job, SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "cannot add jobs")]
    fn adding_jobs_after_start_panics() {
        let mut w = tiny_world();
        let job = w.add_job(
            "first",
            vec![(boxed(Scripted::new(vec![Op::Stop])), NodeId(0))],
        );
        w.run_until_job_done(job, SimTime::from_secs(1));
        w.add_job(
            "late",
            vec![(boxed(Scripted::new(vec![Op::Stop])), NodeId(0))],
        );
    }

    #[test]
    fn job_finish_time_is_none_while_running() {
        let mut w = tiny_world();
        let job = w.add_job(
            "slow",
            vec![(
                boxed(Scripted::new(vec![
                    Op::Compute(SimDuration::from_secs(5)),
                    Op::Stop,
                ])),
                NodeId(0),
            )],
        );
        w.run_until(SimTime::from_secs(1));
        assert!(!w.job_done(job));
        assert_eq!(w.job_finish_time(job), None);
    }

    #[test]
    fn eager_send_completes_before_receiver_posts() {
        // Eager semantics: a send completes once its payload has left the
        // sender, so the sender finishes long before the receiver posts
        // its receive.
        let mut w = tiny_world();
        let sender_stop = Rc::new(RefCell::new(SimTime::ZERO));
        struct StopProbe {
            inner: Scripted,
            stop_at: Rc<RefCell<SimTime>>,
        }
        impl Program for StopProbe {
            fn next_op(&mut self, ctx: &Ctx) -> Op {
                let op = self.inner.next_op(ctx);
                if matches!(op, Op::Stop) {
                    *self.stop_at.borrow_mut() = ctx.now;
                }
                op
            }
        }
        let job = w.add_job(
            "eager-early",
            vec![
                (
                    Box::new(StopProbe {
                        inner: Scripted::new(vec![
                            Op::Isend {
                                dst: 1,
                                bytes: 8_192,
                                tag: 0,
                            },
                            Op::WaitAll,
                            Op::Stop,
                        ]),
                        stop_at: Rc::clone(&sender_stop),
                    }) as Box<dyn Program>,
                    NodeId(0),
                ),
                (
                    boxed(Scripted::new(vec![
                        Op::Compute(SimDuration::from_micros(500)),
                        Op::Irecv {
                            src: Src::Rank(0),
                            tag: 0,
                        },
                        Op::WaitAll,
                        Op::Stop,
                    ])),
                    NodeId(1),
                ),
            ],
        );
        assert!(w.run_until_job_done(job, SimTime::from_secs(1)).completed());
        assert!(
            *sender_stop.borrow() < SimTime::from_micros(100),
            "eager sender must finish on injection (stopped {})",
            sender_stop.borrow()
        );
    }

    #[test]
    fn tracing_attributes_compute_time() {
        let mut w = tiny_world();
        let job = w.add_job(
            "calc",
            vec![(
                boxed(Scripted::new(vec![
                    Op::Compute(SimDuration::from_micros(100)),
                    Op::Stop,
                ])),
                NodeId(0),
            )],
        );
        w.enable_tracing();
        assert!(w.run_until_job_done(job, SimTime::from_secs(1)).completed());
        let t = w.job_phase_totals(job);
        assert!(
            t.computing_fraction() > 0.99,
            "pure compute must account as computing: {t:?}"
        );
        assert_eq!(t.waiting_ns, 0);
    }

    #[test]
    fn tracing_attributes_network_wait() {
        let mut w = tiny_world();
        // Rank 0 waits for a message that only arrives after rank 1
        // computes 100 µs: almost all of rank 0's time is Waiting.
        let job = w.add_job(
            "waity",
            vec![
                (
                    boxed(Scripted::new(vec![
                        Op::Irecv {
                            src: Src::Rank(1),
                            tag: 0,
                        },
                        Op::WaitAll,
                        Op::Stop,
                    ])),
                    NodeId(0),
                ),
                (
                    boxed(Scripted::new(vec![
                        Op::Compute(SimDuration::from_micros(100)),
                        Op::Isend {
                            dst: 0,
                            bytes: 64,
                            tag: 0,
                        },
                        Op::WaitAll,
                        Op::Stop,
                    ])),
                    NodeId(1),
                ),
            ],
        );
        w.enable_tracing();
        assert!(w.run_until_job_done(job, SimTime::from_secs(1)).completed());
        let waiter = w.rank_phase_totals(0);
        assert!(
            waiter.waiting_fraction() > 0.95,
            "receiver must account as waiting: {waiter:?}"
        );
        let sender = w.rank_phase_totals(1);
        assert!(sender.computing_fraction() > 0.95, "{sender:?}");
    }

    #[test]
    fn tracing_disabled_reports_zeros() {
        let mut w = tiny_world();
        let job = w.add_job(
            "calc",
            vec![(
                boxed(Scripted::new(vec![
                    Op::Compute(SimDuration::from_micros(10)),
                    Op::Stop,
                ])),
                NodeId(0),
            )],
        );
        assert!(w.run_until_job_done(job, SimTime::from_secs(1)).completed());
        assert_eq!(w.job_phase_totals(job).total_ns(), 0);
    }

    // ------------------------------------------------------------------
    // Run outcomes and stall diagnostics.

    #[test]
    fn deadline_expiry_is_distinct_from_completion() {
        let mut w = tiny_world();
        let job = w.add_job(
            "slow",
            vec![(
                boxed(Scripted::new(vec![
                    Op::Compute(SimDuration::from_secs(5)),
                    Op::Stop,
                ])),
                NodeId(0),
            )],
        );
        let outcome = w.run_until_job_done(job, SimTime::from_secs(1));
        let RunOutcome::DeadlineExpired(report) = outcome else {
            panic!("expected DeadlineExpired, got {outcome:?}");
        };
        assert_eq!(report.blocked.len(), 1);
        assert_eq!(report.blocked[0].waiting_on, BlockedOn::Computing);
    }

    #[test]
    fn stall_report_names_the_blocked_recv() {
        // Rank 0 waits for a message nobody sends: the queue drains and
        // the report must name the rank and its unmatched selector.
        let mut w = tiny_world();
        let job = w.add_job(
            "orphan",
            vec![
                (
                    boxed(Scripted::new(vec![
                        Op::Irecv {
                            src: Src::Rank(1),
                            tag: 9,
                        },
                        Op::WaitAll,
                        Op::Stop,
                    ])),
                    NodeId(0),
                ),
                (boxed(Scripted::new(vec![Op::Stop])), NodeId(1)),
            ],
        );
        let outcome = w.run_until_job_done(job, SimTime::from_secs(1));
        let RunOutcome::Stalled(report) = outcome else {
            panic!("expected Stalled, got {outcome:?}");
        };
        assert_eq!(report.blocked.len(), 1);
        assert_eq!(report.blocked[0].local, 0);
        assert_eq!(
            report.blocked[0].waiting_on,
            BlockedOn::WaitAll {
                outstanding: 1,
                pending_recvs: vec![(Src::Rank(1), 9)],
            }
        );
        // The rendered report is meant for humans; spot-check it.
        let text = report.to_string();
        assert!(text.contains("rank 0"), "{text}");
        assert!(text.contains("tag 9"), "{text}");
    }

    #[test]
    fn event_budget_trips_deterministically() {
        // The same ping-pong with a tight event cap must stop at the same
        // event count every time, and report BudgetExhausted — distinct
        // from both deadline expiry and a stall.
        let run = |cap: Option<u64>| {
            let (mut w, job) = ping_pong_world(50);
            w.set_run_budget(cap, None);
            let outcome = w.run_until_job_done(job, SimTime::from_secs(1));
            (outcome, w.events_processed(), w.budget_exhausted())
        };
        let (clean, clean_events, clean_flag) = run(None);
        assert!(clean.completed());
        assert!(!clean_flag);
        let cap = clean_events / 2;
        let (a, ea, fa) = run(Some(cap));
        let (b, eb, fb) = run(Some(cap));
        assert!(fa && fb);
        assert_eq!(ea, eb, "event budget must trip at a fixed event");
        assert_eq!(ea, cap);
        let RunOutcome::BudgetExhausted(report) = a else {
            panic!("expected BudgetExhausted, got {a:?}");
        };
        assert_eq!(b.stall_report(), Some(&report), "reports must match");
        assert!(!report.blocked.is_empty());
    }

    #[test]
    fn zero_event_budget_trips_before_any_work() {
        let (mut w, job) = ping_pong_world(1);
        w.set_run_budget(Some(0), None);
        let outcome = w.run_until_job_done(job, SimTime::from_secs(1));
        assert!(matches!(outcome, RunOutcome::BudgetExhausted(_)));
        assert_eq!(w.events_processed(), 0);
    }

    #[test]
    #[expect(clippy::disallowed_types, reason = "needs an already-passed deadline")]
    fn expired_wall_deadline_stops_run_until() {
        let mut w = tiny_world();
        w.add_job(
            "busy",
            vec![(
                boxed(Scripted::new(vec![
                    Op::Compute(SimDuration::from_secs(5)),
                    Op::Stop,
                ])),
                NodeId(0),
            )],
        );
        // A deadline already in the past trips on the very first check.
        w.set_run_budget(None, Some(std::time::Instant::now()));
        w.run_until(SimTime::from_secs(1));
        assert!(w.budget_exhausted());
        assert_eq!(w.events_processed(), 0);
    }

    #[test]
    fn unlimited_budget_changes_nothing() {
        let (mut w, job) = ping_pong_world(3);
        w.set_run_budget(None, None);
        assert!(w.run_until_job_done(job, SimTime::from_secs(1)).completed());
        assert!(!w.budget_exhausted());
    }

    fn ping_pong_world(rounds: usize) -> (World, JobId) {
        let mut w = tiny_world();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..rounds {
            a.extend([
                Op::Isend {
                    dst: 1,
                    bytes: 512,
                    tag: 0,
                },
                Op::Irecv {
                    src: Src::Rank(1),
                    tag: 0,
                },
                Op::WaitAll,
            ]);
            b.extend([
                Op::Irecv {
                    src: Src::Rank(0),
                    tag: 0,
                },
                Op::WaitAll,
                Op::Isend {
                    dst: 0,
                    bytes: 512,
                    tag: 0,
                },
                Op::WaitAll,
            ]);
        }
        a.push(Op::Stop);
        b.push(Op::Stop);
        let job = w.add_job(
            "pingpong",
            vec![
                (boxed(Scripted::new(a)), NodeId(0)),
                (boxed(Scripted::new(b)), NodeId(1)),
            ],
        );
        (w, job)
    }

    #[test]
    fn one_deliver_per_message_leaves_an_alltoall_unchanged() {
        // 8 ranks, two per Cab node, send 10 KB (three 4 KB packets) to
        // every peer: remote and intra-node traffic, each message with a
        // single `Deliver`.
        let mut w = World::new(SwitchConfig::cab());
        let members = (0..8)
            .map(|i| {
                let ops = vec![
                    Op::Alltoall {
                        bytes_per_pair: 10_000,
                    },
                    Op::Stop,
                ];
                (boxed(Scripted::new(ops)), NodeId(i / 2))
            })
            .collect();
        let job = w.add_job("a2a", members);
        assert!(w.run_until_job_done(job, SimTime::from_secs(1)).completed());
        // The finish time a `Deliver` per packet gave.
        assert_eq!(w.job_finish_time(job), Some(SimTime::from_nanos(28_960)));
        let messages = w.fabric().stats().messages_delivered;
        assert_eq!(messages, 8 * 7);
        assert_eq!(w.events_of(EventKind::Deliver), messages);
        // 48 remote messages of three packets, and 8 local ones.
        let counts: Vec<u64> = EventKind::ALL.iter().map(|&k| w.events_of(k)).collect();
        assert_eq!(counts, [144, 144, 144, 144, 56, 8, 0]);
        assert_eq!(counts.iter().sum::<u64>(), w.events_processed());
    }

    #[test]
    fn audit_is_off_by_default_and_reports_none() {
        let (mut w, job) = ping_pong_world(2);
        assert!(!w.audit_enabled());
        assert!(w.run_until_job_done(job, SimTime::from_secs(1)).completed());
        assert_eq!(w.take_audit_report(), None);
    }

    #[cfg(feature = "audit")]
    #[test]
    fn audited_ping_pong_is_clean_and_traces_events() {
        let (mut w, job) = ping_pong_world(5);
        w.enable_audit();
        assert!(w.audit_enabled());
        assert!(w.run_until_job_done(job, SimTime::from_secs(1)).completed());
        let report = w.take_audit_report().expect("audit enabled");
        assert!(report.is_clean(), "unexpected violations: {report}");
        assert!(report.events_audited > 0);
        assert!(
            !report.trace_tail.is_empty(),
            "the flight recorder must capture the event stream"
        );
    }

    #[cfg(feature = "audit")]
    #[test]
    fn audited_run_does_not_change_timing() {
        // The auditor observes; it must never perturb the simulation.
        let (mut plain, job_p) = ping_pong_world(5);
        let (mut audited, job_a) = ping_pong_world(5);
        audited.enable_audit();
        assert!(plain
            .run_until_job_done(job_p, SimTime::from_secs(1))
            .completed());
        assert!(audited
            .run_until_job_done(job_a, SimTime::from_secs(1))
            .completed());
        assert_eq!(plain.job_finish_time(job_p), audited.job_finish_time(job_a));
        assert_eq!(plain.events_processed(), audited.events_processed());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Allreduce and barrier complete without deadlock for arbitrary
        /// job sizes and node placements.
        #[test]
        fn prop_collectives_complete(n in 2u32..14, per_node in 1u32..4) {
            let mut w = tiny_world();
            let members: Vec<_> = (0..n)
                .map(|i| {
                    (
                        boxed(Scripted::new(vec![
                            Op::Allreduce { bytes: 256 },
                            Op::Barrier,
                            Op::Stop,
                        ])),
                        NodeId((i / per_node) % 4),
                    )
                })
                .collect();
            let job = w.add_job("coll", members);
            prop_assert!(w.run_until_job_done(job, SimTime::from_secs(60)).completed());
        }

        /// A random mesh of paired sends/recvs always drains: for every
        /// (src, dst) exchange both sides are generated, so WaitAll can
        /// never hang.
        #[test]
        fn prop_paired_p2p_completes(
            pairs in proptest::collection::vec((0u32..6, 0u32..6, 1u64..5_000), 1..20)
        ) {
            let n = 6u32;
            // sends[i] = list of (dst, bytes); recvs[i] = list of srcs.
            let mut sends = vec![Vec::new(); n as usize];
            let mut recvs = vec![Vec::new(); n as usize];
            for (a, b, bytes) in &pairs {
                sends[*a as usize].push((*b, *bytes));
                recvs[*b as usize].push(*a);
            }
            let mut w = tiny_world();
            let members: Vec<_> = (0..n)
                .map(|i| {
                    let mut ops = Vec::new();
                    for src in &recvs[i as usize] {
                        ops.push(Op::Irecv { src: Src::Rank(*src), tag: 0 });
                    }
                    for (dst, bytes) in &sends[i as usize] {
                        ops.push(Op::Isend { dst: *dst, bytes: *bytes, tag: 0 });
                    }
                    ops.push(Op::WaitAll);
                    ops.push(Op::Stop);
                    (boxed(Scripted::new(ops)), NodeId(i % 4))
                })
                .collect();
            let job = w.add_job("mesh", members);
            prop_assert!(w.run_until_job_done(job, SimTime::from_secs(60)).completed());
            prop_assert_eq!(
                w.fabric().stats().messages_sent,
                pairs.len() as u64
            );
        }
    }
}
