//! Per-node network interface: per-flow injection queues drained
//! round-robin at link bandwidth, gated by switch admission credits
//! (back-pressure).
//!
//! Flows model InfiniBand queue pairs: each sending process gets its own
//! send queue and the NIC arbitrates between active queues packet by
//! packet. Without this, one process with a deep backlog (CompressionB
//! queues megabytes) would head-of-line-block every other process on the
//! node — most damagingly the latency probes, whose single packet would
//! measure the *local* backlog instead of the switch.

use std::collections::VecDeque;

use crate::packet::Packet;
use crate::time::SimDuration;
use crate::util::IdHashMap;

/// Identifies a sending context (one rank / queue pair) for NIC
/// arbitration.
pub type FlowId = u64;

/// The transmit side of one node's NIC.
///
/// Receiving needs no state: delivered packets are handed straight to the
/// upper layer by the fabric.
#[derive(Debug, Default)]
pub struct Nic {
    /// Per-flow FIFO queues. A drained flow keeps its queue, so its next
    /// burst does not allocate again.
    flows: IdHashMap<FlowId, VecDeque<Packet>>,
    /// Round-robin order of flows with queued packets.
    rr: VecDeque<FlowId>,
    /// Packets queued across all flows.
    queued: usize,
    /// Packet currently being serialized onto the wire, if any.
    tx: Option<Packet>,
    /// True while this NIC is parked in the switch's back-pressure waiter
    /// list (prevents double-parking).
    pub(crate) waiting_for_credit: bool,
}

impl Nic {
    /// Queues a packet on `flow`'s send queue.
    pub fn enqueue(&mut self, flow: FlowId, pkt: Packet) {
        let q = self.flows.entry(flow).or_default();
        if q.is_empty() {
            self.rr.push_back(flow);
        }
        q.push_back(pkt);
        self.queued += 1;
    }

    /// True if the NIC could start a transmission: idle, not parked, and
    /// has something to send.
    pub fn can_start(&self) -> bool {
        self.tx.is_none() && !self.waiting_for_credit && self.queued > 0
    }

    /// Begins serializing the next packet, taken round-robin across active
    /// flows (credit must already be held). Returns the serialization
    /// duration; the caller schedules TX-done.
    pub fn start_tx(&mut self, bytes_per_sec: u64) -> SimDuration {
        debug_assert!(self.tx.is_none(), "NIC started while busy");
        #[expect(
            clippy::expect_used,
            reason = "internal engine ledger invariant; breakage means corrupted simulator state, which must halt rather than emit plausible-but-wrong results"
        )]
        let flow = self.rr.pop_front().expect("start_tx on empty NIC queue");
        #[expect(
            clippy::expect_used,
            reason = "internal engine ledger invariant; breakage means corrupted simulator state, which must halt rather than emit plausible-but-wrong results"
        )]
        let q = self.flows.get_mut(&flow).expect("flow in rr has a queue");
        #[expect(
            clippy::expect_used,
            reason = "internal engine ledger invariant; breakage means corrupted simulator state, which must halt rather than emit plausible-but-wrong results"
        )]
        let pkt = q.pop_front().expect("flow in rr is non-empty");
        // One packet per turn: re-queue the flow at the back.
        if !q.is_empty() {
            self.rr.push_back(flow);
        }
        self.queued -= 1;
        let d = SimDuration::serialization(pkt.bytes, bytes_per_sec);
        self.tx = Some(pkt);
        d
    }

    /// Completes the in-flight transmission, returning the packet now on
    /// the wire toward the switch.
    #[expect(
        clippy::expect_used,
        reason = "internal engine ledger invariant; breakage means corrupted simulator state, which must halt rather than emit plausible-but-wrong results"
    )]
    pub fn tx_done(&mut self) -> Packet {
        self.tx
            .take()
            .expect("NIC tx_done with no packet in flight")
    }

    /// Packets queued (not counting one in flight).
    pub fn backlog(&self) -> usize {
        self.queued
    }

    /// Number of flows with queued packets.
    pub fn active_flows(&self) -> usize {
        self.rr.len()
    }

    /// True if a packet is currently being serialized.
    pub fn is_transmitting(&self) -> bool {
        self.tx.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{MessageId, NodeId};

    fn pkt(msg: u64, bytes: u64) -> Packet {
        Packet {
            msg: MessageId(msg),
            last: true,
            src: NodeId(0),
            dst: NodeId(1),
            bytes,
        }
    }

    #[test]
    fn nic_lifecycle() {
        let mut nic = Nic::default();
        assert!(!nic.can_start());
        nic.enqueue(1, pkt(1, 1000));
        nic.enqueue(1, pkt(2, 500));
        assert!(nic.can_start());
        assert_eq!(nic.backlog(), 2);
        assert_eq!(nic.active_flows(), 1);

        let d = nic.start_tx(1_000_000_000);
        assert_eq!(d, SimDuration::from_nanos(1000));
        assert!(nic.is_transmitting());
        assert!(!nic.can_start(), "busy NIC cannot start another tx");

        let sent = nic.tx_done();
        assert_eq!(sent.bytes, 1000);
        assert!(nic.can_start());
        assert_eq!(nic.backlog(), 1);
    }

    #[test]
    fn single_flow_is_fifo() {
        let mut nic = Nic::default();
        for i in 0..5 {
            nic.enqueue(7, pkt(i, 100));
        }
        for i in 0..5 {
            nic.start_tx(1_000_000_000);
            assert_eq!(nic.tx_done().msg, MessageId(i));
        }
    }

    #[test]
    fn flows_interleave_round_robin() {
        let mut nic = Nic::default();
        // Flow 1 has a deep backlog; flow 2 has a single probe packet
        // enqueued later. Round-robin must send the probe second, not
        // fifth.
        for i in 0..4 {
            nic.enqueue(1, pkt(i, 100));
        }
        nic.enqueue(2, pkt(99, 100));
        let order: Vec<u64> = (0..5)
            .map(|_| {
                nic.start_tx(1_000_000_000);
                nic.tx_done().msg.0
            })
            .collect();
        assert_eq!(order, vec![0, 99, 1, 2, 3]);
    }

    #[test]
    fn three_flows_share_fairly() {
        let mut nic = Nic::default();
        for f in 0..3u64 {
            for i in 0..2 {
                nic.enqueue(f, pkt(f * 10 + i, 100));
            }
        }
        let order: Vec<u64> = (0..6)
            .map(|_| {
                nic.start_tx(1_000_000_000);
                nic.tx_done().msg.0
            })
            .collect();
        assert_eq!(order, vec![0, 10, 20, 1, 11, 21]);
    }

    #[test]
    fn parked_nic_cannot_start() {
        let mut nic = Nic::default();
        nic.enqueue(0, pkt(1, 100));
        nic.waiting_for_credit = true;
        assert!(!nic.can_start());
        nic.waiting_for_credit = false;
        assert!(nic.can_start());
    }

    #[test]
    #[should_panic(expected = "empty NIC queue")]
    fn start_on_empty_queue_panics() {
        let mut nic = Nic::default();
        nic.start_tx(1_000_000_000);
    }
}
