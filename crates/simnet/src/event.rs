//! Deterministic discrete-event queue.
//!
//! Events are ordered by `(time, sequence)`. The sequence number is assigned
//! at scheduling time, so two events scheduled for the same instant fire in
//! scheduling order — a total order that makes every run byte-for-byte
//! reproducible.
//!
//! The queue is a two-tier timing wheel. Events due less than [`WINDOW`]
//! after the clock go into a near tier of one FIFO per nanosecond, found
//! through an occupancy bitmap; later events wait in a far `(time, seq)`
//! heap and move into their slot, in heap order, as soon as the clock comes
//! within [`WINDOW`] of them. A direct insert into a slot is only possible
//! after that move, so each slot's FIFO is in sequence order and the wheel
//! pops exactly what one `(time, seq)` heap would. The window is sized to
//! the simulator's delays: on the Cab quick Table I, 86 % of events are
//! scheduled one serialization (205, 250 or 300 ns) ahead and 98.7 % less
//! than 4,096 ns ahead, so nearly every event skips the heap. A 1,024-ns
//! window measured slower, and 16,384 ns no faster.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// Span of the near tier: events due less than this far ahead take a
/// nanosecond slot; the rest wait in the far heap.
pub const WINDOW: SimDuration = SimDuration::from_nanos(4_096);

/// One slot per nanosecond of [`WINDOW`]; a power of two, so the slot of
/// an instant is a mask of its nanoseconds.
const SLOTS: usize = WINDOW.as_nanos() as usize;
/// Occupancy words, one bit per slot.
const WORDS: usize = SLOTS / 64;
/// End of a slot FIFO or of the free list.
const NIL: u32 = u32::MAX;

/// The slot an instant maps to: its nanoseconds modulo [`SLOTS`].
fn slot_of(t: SimTime) -> usize {
    t.as_nanos() as usize & (SLOTS - 1)
}

/// A far-tier entry.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A near-tier event: a link in its slot's FIFO, or in the free list once
/// popped.
struct Node<E> {
    event: Option<E>,
    next: u32,
}

/// Head and tail node of one slot's FIFO (`NIL` when empty).
#[derive(Clone, Copy)]
struct Fifo {
    head: u32,
    tail: u32,
}

/// A time-ordered event queue with a monotonically advancing clock.
///
/// `EventQueue` is the single source of truth for "now" in a simulation:
/// [`EventQueue::pop`] advances the clock to the popped event's timestamp.
/// Scheduling into the past is a logic error and panics.
pub struct EventQueue<E> {
    /// Near tier: every event due in `[now, now + WINDOW)`, by slot.
    slots: Box<[Fifo]>,
    /// Bit `s % 64` of word `s / 64` is set when slot `s` is non-empty.
    occupied: [u64; WORDS],
    /// Storage of near-tier events, threaded by the FIFOs and free list.
    nodes: Vec<Node<E>>,
    /// Head of the free list in `nodes`.
    free: u32,
    /// Events in the near tier.
    near_len: usize,
    /// Far tier: events due `WINDOW` or more after `now`.
    far: BinaryHeap<Entry<E>>,
    now: SimTime,
    seq: u64,
    popped: u64,
    /// Most events ever pending at once.
    high_water: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            slots: vec![
                Fifo {
                    head: NIL,
                    tail: NIL
                };
                SLOTS
            ]
            .into_boxed_slice(),
            occupied: [0; WORDS],
            nodes: Vec::new(),
            free: NIL,
            near_len: 0,
            far: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            popped: 0,
            high_water: 0,
        }
    }

    /// The current simulation time: the timestamp of the most recently
    /// popped event (zero before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting to fire.
    pub fn len(&self) -> usize {
        self.near_len + self.far.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events popped so far (simulation-size telemetry).
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// The most events that have been pending at once (memory telemetry;
    /// nothing reads it back).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Schedules `event` to fire at the absolute instant `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current clock.
    #[inline(always)] // see `pop_until`
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
        if at.since(self.now) < WINDOW {
            self.push_near(at, event);
        } else {
            let seq = self.seq;
            self.seq += 1;
            self.far.push(Entry {
                time: at,
                seq,
                event,
            });
        }
        self.high_water = self.high_water.max(self.len());
    }

    /// Schedules `event` to fire `after` the current clock.
    #[inline(always)] // see `pop_until`
    pub fn schedule_after(&mut self, after: SimDuration, event: E) {
        self.schedule_at(self.now + after, event);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::from_nanos(u64::MAX))
    }

    /// Pops the earliest event if it is due at or before `horizon`,
    /// advancing the clock to its timestamp. Otherwise returns `None` and
    /// leaves the queue and its clock as they were. One call does what
    /// [`EventQueue::peek_time`] followed by [`EventQueue::pop`] does,
    /// with one scan of the near tier instead of two.
    //
    // Forced inline, like the scheduling calls: left out of line, the
    // `Option<(SimTime, E)>` this returns goes back through the stack and
    // the caller reloads it. A sampling profile of `impact-sweep` put 9.6 %
    // of all samples on that reload in `World::step`, and 3.4 % on
    // `push_near` reading its event argument; inlined, the event moves once.
    #[inline(always)]
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if self.near_len == 0 {
            let first = self.far.peek()?.time;
            if first > horizon {
                return None;
            }
            self.advance(first);
        }
        let (slot, at) = self.next_busy();
        if at > horizon {
            return None;
        }
        if at != self.now {
            self.advance(at);
        }
        let fifo = &mut self.slots[slot];
        let idx = fifo.head;
        let node = &mut self.nodes[idx as usize];
        fifo.head = node.next;
        if fifo.head == NIL {
            self.occupied[slot / 64] &= !(1 << (slot % 64));
        }
        node.next = self.free;
        self.free = idx;
        self.near_len -= 1;
        self.popped += 1;
        #[expect(
            clippy::expect_used,
            reason = "internal engine ledger invariant; breakage means corrupted simulator state, which must halt rather than emit plausible-but-wrong results"
        )]
        let event = node.event.take().expect("occupied slot holds an event");
        Some((at, event))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.near_len > 0 {
            Some(self.next_busy().1)
        } else {
            self.far.peek().map(|e| e.time)
        }
    }

    /// Appends `event` to the FIFO of `at`'s slot; `at` must lie within
    /// `WINDOW` of the clock.
    #[inline(always)] // see `pop_until`
    fn push_near(&mut self, at: SimTime, event: E) {
        let node = Node {
            event: Some(event),
            next: NIL,
        };
        let idx = if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let idx = self.free;
            self.free = std::mem::replace(&mut self.nodes[idx as usize], node).next;
            idx
        };
        let slot = slot_of(at);
        let fifo = &mut self.slots[slot];
        if fifo.head == NIL {
            fifo.head = idx;
            self.occupied[slot / 64] |= 1 << (slot % 64);
        } else {
            self.nodes[fifo.tail as usize].next = idx;
        }
        fifo.tail = idx;
        self.near_len += 1;
    }

    /// Moves the clock to `t` and every far event now within `WINDOW` of
    /// it into its slot, in `(time, seq)` order.
    fn advance(&mut self, t: SimTime) {
        debug_assert!(t >= self.now, "event queue went backwards");
        self.now = t;
        while self.far.peek().is_some_and(|e| e.time.since(t) < WINDOW) {
            let Some(Entry { time, event, .. }) = self.far.pop() else {
                break;
            };
            self.push_near(time, event);
        }
    }

    /// The first non-empty slot at or after the clock's, wrapping around,
    /// and the instant it holds. The near tier must be non-empty.
    fn next_busy(&self) -> (usize, SimTime) {
        let cur = slot_of(self.now);
        let word = cur / 64;
        let mut bits = self.occupied[word] & (!0u64 << (cur % 64));
        let mut w = word;
        // The last round revisits `word` whole, for slots before `cur`.
        for step in 1..=WORDS {
            if bits != 0 {
                break;
            }
            w = (word + step) % WORDS;
            bits = self.occupied[w];
        }
        debug_assert!(bits != 0, "next_busy on an empty near tier");
        let slot = w * 64 + bits.trailing_zeros() as usize;
        let ahead = slot.wrapping_sub(cur) & (SLOTS - 1);
        (slot, self.now + SimDuration::from_nanos(ahead as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(30), "c");
        q.schedule_at(SimTime::from_nanos(10), "a");
        q.schedule_at(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_fire_in_scheduling_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime::from_nanos(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_after(SimDuration::from_nanos(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(7));
        assert_eq!(q.now(), t);
        assert_eq!(q.events_processed(), 1);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(50), ());
        q.pop();
        q.schedule_at(SimTime::from_nanos(10), ());
    }

    #[test]
    fn high_water_counts_both_tiers_and_never_falls() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(1), ());
        // Far enough ahead to wait in the far tier.
        q.schedule_at(SimTime::ZERO + WINDOW + WINDOW, ());
        assert_eq!(q.high_water(), 2);
        q.pop();
        q.schedule_at(SimTime::from_nanos(2), ());
        assert_eq!((q.len(), q.high_water()), (2, 2));
        q.schedule_at(SimTime::from_nanos(3), ());
        while q.pop().is_some() {}
        assert_eq!(q.high_water(), 3);
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), 1u32);
        q.schedule_at(SimTime::from_nanos(30), 3u32);
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, 1);
        // Schedule between the popped event and the remaining one.
        q.schedule_at(SimTime::from_nanos(20), 2u32);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    proptest! {
        /// Popping must yield a non-decreasing time sequence, and events
        /// sharing a timestamp must come out in insertion order.
        #[test]
        fn prop_total_order(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule_at(SimTime::from_nanos(*t), i);
            }
            let mut last_time = SimTime::ZERO;
            let mut last_idx_at_time: Option<usize> = None;
            while let Some((t, idx)) = q.pop() {
                prop_assert!(t >= last_time);
                if t == last_time {
                    if let Some(prev) = last_idx_at_time {
                        prop_assert!(idx > prev, "stability violated");
                    }
                }
                last_time = t;
                last_idx_at_time = Some(idx);
            }
        }

        /// The queue drains exactly the number of scheduled events.
        #[test]
        fn prop_conservation(times in proptest::collection::vec(0u64..100, 0..64)) {
            let mut q = EventQueue::new();
            for t in &times {
                q.schedule_at(SimTime::from_nanos(*t), ());
            }
            prop_assert_eq!(q.len(), times.len());
            let mut n = 0usize;
            while q.pop().is_some() { n += 1; }
            prop_assert_eq!(n, times.len());
            prop_assert!(q.is_empty());
        }
    }
}
