//! The event queue against a reference `(time, seq)` binary heap.
//!
//! `EventQueue` is a two-tier timing wheel (a nanosecond-slot near tier
//! and a far heap, split at `anp_simnet::event::WINDOW`). Every simulated
//! result depends on it popping exactly what one `(time, seq)` heap
//! would, so this drives both with the same interleaved schedules and
//! pops (plain, and bounded by a horizon) and compares every step. The delays straddle the window edge and
//! reach milliseconds; ties and drains that leave only far events force
//! the migration and jump paths.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use anp_simnet::event::WINDOW;
use anp_simnet::{EventQueue, SimDuration, SimTime};
use proptest::prelude::*;

/// The queue under test and the reference, holding the same events. The
/// payload of an event is its scheduling sequence number.
struct Pair {
    q: EventQueue<u64>,
    reference: BinaryHeap<Reverse<(SimTime, u64)>>,
    seq: u64,
    last_at: SimTime,
}

impl Pair {
    fn new() -> Self {
        Pair {
            q: EventQueue::new(),
            reference: BinaryHeap::new(),
            seq: 0,
            last_at: SimTime::ZERO,
        }
    }

    fn schedule(&mut self, at: SimTime) {
        self.q.schedule_at(at, self.seq);
        self.reference.push(Reverse((at, self.seq)));
        self.seq += 1;
        self.last_at = at;
    }

    /// Pops both and checks they agree; false once both are empty.
    fn pop(&mut self) -> Result<bool, TestCaseError> {
        let expected = self.reference.pop().map(|Reverse(e)| e);
        prop_assert_eq!(self.q.pop(), expected);
        if let Some((at, _)) = expected {
            prop_assert_eq!(self.q.now(), at);
        }
        Ok(expected.is_some())
    }

    /// `pop_until(horizon)` pops what the reference pops when its next
    /// event is due by `horizon`; otherwise it pops nothing and leaves the
    /// clock and the length alone.
    fn pop_until(&mut self, horizon: SimTime) -> Result<(), TestCaseError> {
        let due = self
            .reference
            .peek()
            .is_some_and(|Reverse((at, _))| *at <= horizon);
        if due {
            let expected = self.reference.pop().map(|Reverse(e)| e);
            prop_assert_eq!(self.q.pop_until(horizon), expected);
            if let Some((at, _)) = expected {
                prop_assert_eq!(self.q.now(), at);
            }
        } else {
            let (now, len) = (self.q.now(), self.q.len());
            prop_assert_eq!(self.q.pop_until(horizon), None);
            prop_assert_eq!(self.q.now(), now);
            prop_assert_eq!(self.q.len(), len);
        }
        Ok(())
    }

    /// `peek_time` and `len` agree with the reference.
    fn check(&self) -> Result<(), TestCaseError> {
        let next = self.reference.peek().map(|Reverse((at, _))| *at);
        prop_assert_eq!(self.q.peek_time(), next);
        prop_assert_eq!(self.q.len(), self.reference.len());
        Ok(())
    }
}

/// The delay of a schedule op: the window's edges, short and long random
/// delays, or a tie with the last scheduled instant.
fn delay(class: u8, raw: u64, pair: &Pair) -> SimDuration {
    let window = WINDOW.as_nanos();
    let ns = match class {
        0 => 0,
        1 => 1,
        2 => window - 1,
        3 => window,
        4 => window + 1,
        5 => raw % window,
        6 => raw % (4 * window),
        7 => raw % 3_000_000,
        _ => return pair.last_at.saturating_since(pair.q.now()),
    };
    SimDuration::from_nanos(ns)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn wheel_pops_what_a_time_seq_heap_pops(
        ops in collection::vec((0u8..14, 0u8..9, 0u64..u64::MAX), 1..400)
    ) {
        let mut pair = Pair::new();
        for (op, class, raw) in ops {
            match op {
                // Schedule more often than pop so the queue fills up.
                0..=6 => {
                    let at = pair.q.now() + delay(class, raw, &pair);
                    pair.schedule(at);
                }
                7..=10 => {
                    pair.pop()?;
                }
                // A bounded pop, with the horizon just before the next
                // event, at it, or a schedule delay past the clock.
                12..=13 => {
                    let now = pair.q.now();
                    let next = pair.reference.peek().map_or(now, |Reverse((at, _))| *at);
                    let horizon = match class % 3 {
                        0 => SimTime::from_nanos(next.as_nanos().saturating_sub(1)),
                        1 => next,
                        _ => now + delay(class, raw, &pair),
                    };
                    pair.pop_until(horizon)?;
                }
                // Pop every event within the window of the clock, so the
                // next pop has to jump to the far tier.
                _ => {
                    while pair
                        .reference
                        .peek()
                        .is_some_and(|Reverse((at, _))| at.since(pair.q.now()) < WINDOW)
                    {
                        pair.pop()?;
                    }
                }
            }
            pair.check()?;
        }
        while pair.pop()? {
            pair.check()?;
        }
        prop_assert!(pair.q.is_empty());
    }
}
