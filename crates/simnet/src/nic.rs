//! Per-node network interface: per-flow send queues drained round-robin
//! at link bandwidth, gated by switch admission credits (back-pressure).
//!
//! Flows model InfiniBand queue pairs: each sending process gets its own
//! send queue and the NIC arbitrates between active queues packet by
//! packet. Without this, one process with a deep backlog (CompressionB
//! queues megabytes) would head-of-line-block every other process on the
//! node — most damagingly the latency probes, whose single packet would
//! measure the *local* backlog instead of the switch.
//!
//! The queues hold messages, not packets. A queued message keeps a cut
//! cursor, and the NIC cuts its next MTU-sized packet only when the
//! round-robin turn reaches its flow, as an InfiniBand HCA segments a send
//! work request while it transmits. A NIC therefore holds one entry per
//! queued message however many packets the message makes, and sends the
//! packets a per-packet queue filled at enqueue would send, in the same
//! order.

use std::collections::VecDeque;

use crate::packet::{segment, Message, Packet};
use crate::time::SimDuration;

/// Identifies a sending context (one rank / queue pair) for NIC
/// arbitration. Flows are dense indices: a NIC keeps one queue per flow up
/// to the largest it has been handed.
pub type FlowId = u32;

/// A queued message and how far the NIC has cut it.
#[derive(Debug, Clone, Copy)]
struct Queued {
    msg: Message,
    /// Packets already cut.
    cut: u32,
    /// Packets the message is cut into at the NIC's MTU.
    count: u32,
}

/// A NIC's queued traffic counted both ways: message entries held, and
/// the packets they have still to be cut into.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Backlog {
    /// Messages with at least one packet not yet cut.
    pub messages: usize,
    /// Packets not yet cut.
    pub packets: usize,
}

/// The transmit side of one node's NIC.
///
/// Receiving needs no state: delivered packets are handed straight to the
/// upper layer by the fabric.
#[derive(Debug)]
pub struct Nic {
    /// Packet size limit the queued messages are cut at.
    mtu: u64,
    /// Per-flow FIFO queues of messages, indexed by flow. A drained flow
    /// keeps its queue, so its next burst does not allocate again.
    flows: Vec<VecDeque<Queued>>,
    /// Round-robin order of flows with queued messages.
    rr: VecDeque<FlowId>,
    /// What is queued across all flows.
    queued: Backlog,
    /// Largest `queued.messages` and largest `queued.packets` seen, each
    /// on its own.
    peak: Backlog,
    /// Packet currently being serialized onto the wire, if any.
    tx: Option<Packet>,
    /// True while this NIC is parked in the switch's back-pressure waiter
    /// list (prevents double-parking).
    pub(crate) waiting_for_credit: bool,
}

impl Nic {
    /// An idle NIC that cuts messages into packets of at most `mtu` bytes.
    pub fn new(mtu: u64) -> Self {
        Nic {
            mtu,
            flows: Vec::new(),
            rr: VecDeque::new(),
            queued: Backlog::default(),
            peak: Backlog::default(),
            tx: None,
            waiting_for_credit: false,
        }
    }

    /// Queues `msg` on `flow`'s send queue, behind the flow's earlier
    /// messages. `packets` is the message's
    /// [`packet_count`](crate::packet::packet_count) at the NIC's MTU,
    /// which the sender has already computed.
    ///
    /// # Panics
    /// Panics if the message would take more than `u32::MAX` packets.
    pub fn enqueue(&mut self, flow: FlowId, msg: Message, packets: u64) {
        debug_assert_eq!(packets, crate::packet::packet_count(msg.bytes, self.mtu));
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics` precondition on caller input: a message of 2^32 packets is a caller bug"
        )]
        let count = u32::try_from(packets).expect("message exceeds 2^32 packets");
        let i = flow as usize;
        if i >= self.flows.len() {
            self.flows.resize_with(i + 1, VecDeque::new);
        }
        let q = &mut self.flows[i];
        if q.is_empty() {
            self.rr.push_back(flow);
        }
        q.push_back(Queued { msg, cut: 0, count });
        self.queued.messages += 1;
        self.queued.packets += count as usize;
        self.peak.messages = self.peak.messages.max(self.queued.messages);
        self.peak.packets = self.peak.packets.max(self.queued.packets);
    }

    /// True if the NIC could start a transmission: idle, not parked, and
    /// has something to send.
    pub fn can_start(&self) -> bool {
        self.tx.is_none() && !self.waiting_for_credit && self.queued.packets > 0
    }

    /// Cuts the next packet, taken round-robin across active flows from
    /// the head message of the flow whose turn it is, and begins
    /// serializing it (credit must already be held). Returns the
    /// serialization duration; the caller schedules TX-done.
    pub fn start_tx(&mut self, bytes_per_sec: u64) -> SimDuration {
        debug_assert!(self.tx.is_none(), "NIC started while busy");
        #[expect(
            clippy::expect_used,
            reason = "internal engine ledger invariant; breakage means corrupted simulator state, which must halt rather than emit plausible-but-wrong results"
        )]
        let flow = self.rr.pop_front().expect("start_tx on empty NIC queue");
        let q = &mut self.flows[flow as usize];
        #[expect(
            clippy::expect_used,
            reason = "internal engine ledger invariant; breakage means corrupted simulator state, which must halt rather than emit plausible-but-wrong results"
        )]
        let head = q.front_mut().expect("flow in rr is non-empty");
        let i = head.cut;
        head.cut += 1;
        let last = head.cut == head.count;
        let msg = head.msg;
        let pkt = Packet {
            msg: msg.id,
            last,
            src: msg.src,
            dst: msg.dst,
            bytes: segment(msg.bytes, self.mtu, u64::from(i)),
        };
        if last {
            q.pop_front();
            self.queued.messages -= 1;
        }
        // One packet per turn: re-queue the flow at the back.
        if !q.is_empty() {
            self.rr.push_back(flow);
        }
        self.queued.packets -= 1;
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

    /// Packets queued and not yet cut (not counting one in flight).
    pub fn backlog(&self) -> usize {
        self.queued.packets
    }

    /// The largest backlog this NIC has held, in messages and in packets.
    /// The two peaks are tracked separately and need not coincide.
    pub fn peak_backlog(&self) -> Backlog {
        self.peak
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

    const MTU: u64 = 4096;

    fn enqueue(nic: &mut Nic, flow: FlowId, msg: Message) {
        nic.enqueue(flow, msg, crate::packet::packet_count(msg.bytes, MTU));
    }

    fn msg(id: u64, bytes: u64) -> Message {
        Message {
            id: MessageId(id),
            src: NodeId(0),
            dst: NodeId(1),
            bytes,
        }
    }

    #[test]
    fn nic_lifecycle() {
        let mut nic = Nic::new(MTU);
        assert!(!nic.can_start());
        enqueue(&mut nic, 1, msg(1, 1000));
        enqueue(&mut nic, 1, msg(2, 500));
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
        let mut nic = Nic::new(MTU);
        for i in 0..5 {
            enqueue(&mut nic, 7, msg(i, 100));
        }
        for i in 0..5 {
            nic.start_tx(1_000_000_000);
            assert_eq!(nic.tx_done().msg, MessageId(i));
        }
    }

    #[test]
    fn flows_interleave_round_robin() {
        let mut nic = Nic::new(MTU);
        // Flow 1 has a deep backlog; flow 2 has a single probe packet
        // enqueued later. Round-robin must send the probe second, not
        // fifth.
        for i in 0..4 {
            enqueue(&mut nic, 1, msg(i, 100));
        }
        enqueue(&mut nic, 2, msg(99, 100));
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
        let mut nic = Nic::new(MTU);
        for f in 0..3u32 {
            for i in 0..2 {
                enqueue(&mut nic, f, msg(u64::from(f) * 10 + i, 100));
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
    fn a_long_message_is_cut_packet_by_packet_between_turns() {
        let mut nic = Nic::new(MTU);
        // Three packets for flow 1, then a probe on flow 2: the probe
        // goes between the first and second cut, and the message's
        // packets keep their sizes and only the third is last.
        enqueue(&mut nic, 1, msg(1, 2 * MTU + 1));
        enqueue(&mut nic, 2, msg(2, 64));
        assert_eq!(nic.backlog(), 4);
        assert_eq!(
            nic.peak_backlog(),
            Backlog {
                messages: 2,
                packets: 4
            }
        );
        let sent: Vec<(u64, bool, u64)> = (0..4)
            .map(|_| {
                nic.start_tx(1_000_000_000);
                let p = nic.tx_done();
                (p.msg.0, p.last, p.bytes)
            })
            .collect();
        assert_eq!(
            sent,
            vec![
                (1, false, MTU),
                (2, true, 64),
                (1, false, MTU),
                (1, true, 1)
            ]
        );
        assert_eq!(nic.backlog(), 0);
        assert_eq!(nic.active_flows(), 0);
        assert_eq!(nic.peak_backlog().messages, 2, "peaks outlive the backlog");
    }

    #[test]
    fn zero_byte_message_is_one_empty_last_packet() {
        let mut nic = Nic::new(MTU);
        enqueue(&mut nic, 0, msg(5, 0));
        assert_eq!(nic.backlog(), 1);
        nic.start_tx(1_000_000_000);
        let p = nic.tx_done();
        assert_eq!((p.msg, p.last, p.bytes), (MessageId(5), true, 0));
        assert!(!nic.can_start());
    }

    #[test]
    fn parked_nic_cannot_start() {
        let mut nic = Nic::new(MTU);
        enqueue(&mut nic, 0, msg(1, 100));
        nic.waiting_for_credit = true;
        assert!(!nic.can_start());
        nic.waiting_for_credit = false;
        assert!(nic.can_start());
    }

    #[test]
    #[should_panic(expected = "empty NIC queue")]
    fn start_on_empty_queue_panics() {
        let mut nic = Nic::new(MTU);
        nic.start_tx(1_000_000_000);
    }
}
