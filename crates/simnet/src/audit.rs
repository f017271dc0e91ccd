//! Simulator invariant auditor: typed violation reports instead of panics.
//!
//! The simulator maintains several conservation laws that no legal event
//! sequence may break — every admission credit acquired must be released
//! exactly once, every byte accepted by an egress port must eventually leave
//! it, simulated time never runs backwards, and FIFO channels never let a
//! later message overtake an earlier one. Historically these were spot-checked
//! by `debug_assert!`s, which abort the process and take every sibling sweep
//! cell down with them.
//!
//! This module provides the reporting half of the audit layer: a typed
//! [`AuditReport`] carrying each [`AuditViolation`] plus the tail of the event
//! trace leading up to it. The checking half lives inside [`crate::fabric`]
//! and `anp-simmpi`. It is always compiled and switched on at run time
//! (`World::enable_audit`); while it is off, each hook costs one
//! `Option::is_some` test before an out-of-line cold call.
use crate::time::SimTime;
use std::collections::VecDeque;
use std::fmt;

/// How many trace lines the auditor retains (the "flight recorder" depth).
pub const TRACE_TAIL_LEN: usize = 32;

/// Cap on recorded violations; beyond this only the count grows. A single
/// broken conservation law can trip on every subsequent event, and the first
/// few occurrences carry all the diagnostic value.
pub const MAX_VIOLATIONS: usize = 64;

/// Which conservation invariant a violation broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvariantKind {
    /// Admission credits went out of balance: a release without a matching
    /// acquire, more credits in use than the pool's capacity, or credits
    /// still held after the fabric drained to quiescence.
    CreditConservation,
    /// An egress port transmitted bytes it never accepted, or finished a run
    /// still holding accepted-but-untransmitted bytes.
    EgressByteConservation,
    /// The event clock moved backwards between consecutively popped events.
    TimeMonotonicity,
    /// A later eager message on a (source, destination, tag) channel was
    /// delivered before an earlier one (FIFO non-overtaking).
    FifoOrdering,
    /// A per-pair resequencing window regressed: the delivery cursor moved
    /// backwards or a buffered sequence number fell below it.
    SeqWindow,
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            InvariantKind::CreditConservation => "credit-conservation",
            InvariantKind::EgressByteConservation => "egress-byte-conservation",
            InvariantKind::TimeMonotonicity => "time-monotonicity",
            InvariantKind::FifoOrdering => "fifo-ordering",
            InvariantKind::SeqWindow => "seq-window",
        };
        f.write_str(name)
    }
}

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditViolation {
    /// Which invariant broke.
    pub kind: InvariantKind,
    /// Simulated time at which the check tripped.
    pub at: SimTime,
    /// Human-readable specifics (which switch, which pair, the counts).
    pub detail: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] t={:?}: {}", self.kind, self.at, self.detail)
    }
}

/// The auditor's verdict for one run: every violation found, the tail of the
/// event trace leading up to the last one, and how many events were audited.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AuditReport {
    /// Violations in detection order (capped at [`MAX_VIOLATIONS`]).
    pub violations: Vec<AuditViolation>,
    /// Violations detected beyond the cap (not individually recorded).
    pub suppressed: u64,
    /// The last [`TRACE_TAIL_LEN`] event descriptions before the report was
    /// taken, oldest first. Empty unless the auditor recorded a trace.
    pub trace_tail: Vec<String>,
    /// Number of events the auditor inspected.
    pub events_audited: u64,
}

impl AuditReport {
    /// `true` when no invariant tripped.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.suppressed == 0
    }

    /// Total violations detected, including suppressed ones.
    pub fn violation_count(&self) -> u64 {
        self.violations.len() as u64 + self.suppressed
    }

    /// Folds another report into this one (fabric + world layers of the same
    /// run). The longer trace tail wins; event counts take the maximum since
    /// both layers observe the same event stream.
    pub fn merge(&mut self, other: AuditReport) {
        for v in other.violations {
            if self.violations.len() < MAX_VIOLATIONS {
                self.violations.push(v);
            } else {
                self.suppressed += 1;
            }
        }
        self.suppressed += other.suppressed;
        if other.trace_tail.len() > self.trace_tail.len() {
            self.trace_tail = other.trace_tail;
        }
        self.events_audited = self.events_audited.max(other.events_audited);
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(
                f,
                "audit clean: {} events, no invariant violations",
                self.events_audited
            );
        }
        writeln!(
            f,
            "audit FAILED: {} violation(s) over {} events",
            self.violation_count(),
            self.events_audited
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        if self.suppressed > 0 {
            writeln!(f, "  ... and {} more (suppressed)", self.suppressed)?;
        }
        if !self.trace_tail.is_empty() {
            writeln!(f, "  event trace tail (oldest first):")?;
            for line in &self.trace_tail {
                writeln!(f, "    {line}")?;
            }
        }
        Ok(())
    }
}

/// Shared flight recorder used by the fabric- and world-level checkers:
/// a bounded ring of the last events, kept as values, plus the accumulated
/// violations.
///
/// The ring stores `(time, event)` pairs and formats them only in
/// [`AuditLog::take_report`], so an audited run pays a copy per event,
/// not a `format!`.
///
/// Exposed so `anp-simmpi` can reuse it; not intended for direct use by
/// experiment code, which should only consume [`AuditReport`]s.
#[derive(Debug)]
pub struct AuditLog<E> {
    trace: VecDeque<(SimTime, E)>,
    violations: Vec<AuditViolation>,
    suppressed: u64,
    events: u64,
}

impl<E> Default for AuditLog<E> {
    fn default() -> Self {
        AuditLog {
            trace: VecDeque::with_capacity(TRACE_TAIL_LEN),
            violations: Vec::new(),
            suppressed: 0,
            events: 0,
        }
    }
}

impl<E: fmt::Debug> AuditLog<E> {
    /// Fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one event, popped at `at`, in the trace ring and counts it.
    pub fn note_event(&mut self, at: SimTime, ev: E) {
        if self.trace.len() == TRACE_TAIL_LEN {
            self.trace.pop_front();
        }
        self.trace.push_back((at, ev));
        self.events += 1;
    }

    /// Records a violation (capped at [`MAX_VIOLATIONS`]).
    pub fn violate(&mut self, kind: InvariantKind, at: SimTime, detail: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(AuditViolation { kind, at, detail });
        } else {
            self.suppressed += 1;
        }
    }

    /// Drains the recorder into a report, resetting it for further use.
    pub fn take_report(&mut self) -> AuditReport {
        AuditReport {
            violations: std::mem::take(&mut self.violations),
            suppressed: std::mem::take(&mut self.suppressed),
            trace_tail: self
                .trace
                .drain(..)
                .map(|(t, ev)| format!("t={t} {ev:?}"))
                .collect(),
            events_audited: std::mem::take(&mut self.events),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::NetEvent;
    use crate::packet::MessageId;

    /// A recorder fed `n` deliveries, the `i`-th at `i` µs.
    fn log_of(n: u64) -> AuditLog<NetEvent> {
        let mut log = AuditLog::new();
        for i in 0..n {
            log.note_event(
                SimTime::from_nanos(i * 1_000),
                NetEvent::Deliver { msg: MessageId(i) },
            );
        }
        log
    }

    #[test]
    fn clean_report_displays_event_count() {
        let report = log_of(2).take_report();
        assert!(report.is_clean());
        assert_eq!(report.events_audited, 2);
        assert_eq!(
            report.trace_tail,
            vec![
                "t=0.000000s Deliver { msg: MessageId(0) }",
                "t=0.000001s Deliver { msg: MessageId(1) }",
            ]
        );
        assert!(report.to_string().contains("audit clean: 2 events"));
    }

    #[test]
    fn violations_carry_kind_time_and_trace_tail() {
        let mut log = log_of(40);
        log.violate(
            InvariantKind::CreditConservation,
            SimTime::from_nanos(17),
            "release without acquire at switch 0 class 1".into(),
        );
        let report = log.take_report();
        assert!(!report.is_clean());
        assert_eq!(report.violation_count(), 1);
        assert_eq!(report.violations[0].kind, InvariantKind::CreditConservation);
        // The ring keeps only the newest TRACE_TAIL_LEN events, formatted
        // as `t={time} {event:?}`, oldest first.
        let expected: Vec<String> = (8..40u64)
            .map(|i| {
                format!(
                    "t={} Deliver {{ msg: MessageId({i}) }}",
                    SimTime::from_nanos(i * 1_000)
                )
            })
            .collect();
        assert_eq!(report.trace_tail, expected);
        assert_eq!(
            report.trace_tail.first().unwrap(),
            "t=0.000008s Deliver { msg: MessageId(8) }"
        );
        assert_eq!(
            report.trace_tail.last().unwrap(),
            "t=0.000039s Deliver { msg: MessageId(39) }"
        );
        assert_eq!(report.events_audited, 40);
        let shown = report.to_string();
        assert!(shown.contains("audit FAILED"));
        assert!(shown.contains("credit-conservation"));
        assert!(shown.contains("release without acquire"));
        assert!(shown.contains("    t=0.000039s Deliver { msg: MessageId(39) }\n"));
    }

    #[test]
    fn violation_flood_is_capped_not_unbounded() {
        let mut log = log_of(0);
        for i in 0..(MAX_VIOLATIONS + 10) {
            log.violate(
                InvariantKind::SeqWindow,
                SimTime::from_nanos(i as u64),
                format!("violation {i}"),
            );
        }
        let report = log.take_report();
        assert_eq!(report.violations.len(), MAX_VIOLATIONS);
        assert_eq!(report.suppressed, 10);
        assert_eq!(report.violation_count(), (MAX_VIOLATIONS + 10) as u64);
        assert!(report.to_string().contains("10 more (suppressed)"));
    }

    #[test]
    fn merge_folds_violations_and_keeps_longer_trace() {
        // The fabric records violations but no trace; the world owns it.
        let mut fabric_log = log_of(0);
        fabric_log.violate(
            InvariantKind::EgressByteConservation,
            SimTime::from_nanos(5),
            "port 3 held 128 bytes at quiescence".into(),
        );
        let mut world_log = log_of(2);
        world_log.violate(
            InvariantKind::FifoOrdering,
            SimTime::from_nanos(9),
            "pair (0,1) tag 7 overtaken".into(),
        );
        let mut merged = world_log.take_report();
        merged.merge(fabric_log.take_report());
        assert_eq!(merged.violation_count(), 2);
        assert_eq!(merged.trace_tail.len(), 2);
        assert_eq!(merged.events_audited, 2);
    }

    #[test]
    fn take_report_resets_the_recorder() {
        let mut log = log_of(1);
        log.violate(
            InvariantKind::TimeMonotonicity,
            SimTime::from_nanos(1),
            "clock moved backwards".into(),
        );
        let first = log.take_report();
        assert!(!first.is_clean());
        let second = log.take_report();
        assert!(second.is_clean());
        assert_eq!(second.events_audited, 0);
        assert!(second.trace_tail.is_empty());
    }
}
