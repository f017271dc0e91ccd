//! The switch proper: a parallel routing stage plus per-port egress
//! serialization queues, under one credit-based admission window.
//!
//! The routing stage has `k` servers (one per port on the Cab preset):
//! packets admitted by the credit gate wait in a single FIFO until a
//! routing server frees, receive a service time drawn from a general
//! distribution, then queue at their destination port for
//! bandwidth-limited serialization.
//!
//! The paper *models* this device as an M/G/1 queue observed through probe
//! latencies (§IV-B). The simulated switch is deliberately *not* a literal
//! single server: a real crossbar routes packets in parallel, and the
//! methodology's charm is that the single-queue abstraction still predicts
//! well when applied to such a device. Keeping k servers reproduces that
//! honest model-vs-reality gap. (Setting `route_servers = 1` in the config
//! recovers the literal M/G/1 for tests and ablations.)
//!
//! Credits are acquired by source NICs before injection and released only
//! when the packet finishes egress serialization, so the admission window
//! bounds *total* in-switch occupancy — ingress queue, service, and port
//! queues — the way link-level flow control bounds buffering in real
//! InfiniBand switches. A note on ordering: with parallel servers two
//! packets can reorder inside the switch; message completion is counted,
//! not sequenced, so upper layers are unaffected.

use std::collections::VecDeque;

use rand::rngs::StdRng;

use crate::packet::Packet;
use crate::service::ServiceDistribution;
use crate::stats::SwitchStats;
use crate::time::{SimDuration, SimTime};

/// A service start handed back to the event loop: the caller schedules the
/// completion event after `service`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStart {
    /// The packet entering service.
    pub packet: Packet,
    /// When the packet arrived at the routing stage (for completion-time
    /// accounting).
    pub arrived: SimTime,
    /// The drawn service duration.
    pub service: SimDuration,
}

/// A credit pool implementing link-level flow control for one admission
/// class of one switch. Separate pools per traffic direction keep
/// multi-hop credit loops acyclic (see the fabric docs).
#[derive(Debug)]
pub struct CreditPool {
    in_use: usize,
    capacity: usize,
}

impl CreditPool {
    /// Creates a pool of `capacity` credits.
    pub fn new(capacity: usize) -> Self {
        // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
        assert!(capacity > 0, "a credit pool needs capacity");
        CreditPool {
            in_use: 0,
            capacity,
        }
    }

    /// Attempts to reserve one credit; `false` is back-pressure.
    pub fn try_acquire(&mut self) -> bool {
        if self.in_use < self.capacity {
            self.in_use += 1;
            true
        } else {
            false
        }
    }

    /// Releases one credit.
    pub fn release(&mut self) {
        debug_assert!(self.in_use > 0, "credit release without acquire");
        self.in_use -= 1;
    }

    /// Credits currently outstanding (test hook).
    pub fn in_use(&self) -> usize {
        self.in_use
    }
}

/// The parallel routing stage.
#[derive(Debug)]
pub struct CentralStage {
    queue: VecDeque<(Packet, SimTime)>,
    busy: usize,
    servers: usize,
    service: ServiceDistribution,
    pub(crate) stats: SwitchStats,
}

impl CentralStage {
    /// Creates an idle stage with `servers` parallel routing servers.
    pub fn new(service: ServiceDistribution, servers: usize) -> Self {
        // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
        assert!(servers >= 1, "need at least one routing server");
        CentralStage {
            queue: VecDeque::new(),
            busy: 0,
            servers,
            service,
            stats: SwitchStats {
                servers,
                ..SwitchStats::default()
            },
        }
    }

    /// Handles a packet arriving at the routing stage (credit already
    /// held). Returns a [`ServiceStart`] if a server was free; otherwise
    /// the packet queues.
    pub fn arrive(&mut self, pkt: Packet, now: SimTime, rng: &mut StdRng) -> Option<ServiceStart> {
        self.stats.arrivals += 1;
        let depth = self.queue.len() + self.busy;
        self.stats.queue_len_sum += depth as u128;
        self.stats.max_queue_len = self.stats.max_queue_len.max(depth + 1);
        if self.busy < self.servers {
            Some(self.start_service(pkt, now, now, rng))
        } else {
            self.queue.push_back((pkt, now));
            None
        }
    }

    fn start_service(
        &mut self,
        pkt: Packet,
        arrived: SimTime,
        now: SimTime,
        rng: &mut StdRng,
    ) -> ServiceStart {
        let service = self.service.sample(rng);
        self.stats.total_wait_ns += now.since(arrived).as_nanos() as u128;
        self.stats.busy_ns += service.as_nanos() as u128;
        self.busy += 1;
        ServiceStart {
            packet: pkt,
            arrived,
            service,
        }
    }

    /// Records a service completion (the caller got the packet from the
    /// completion event) and starts the next queued packet if any.
    pub fn service_done(
        &mut self,
        arrived: SimTime,
        now: SimTime,
        rng: &mut StdRng,
    ) -> Option<ServiceStart> {
        debug_assert!(self.busy > 0, "service_done with no busy server");
        self.busy -= 1;
        self.stats.served += 1;
        self.stats.total_sojourn_ns += now.since(arrived).as_nanos() as u128;
        let (next, next_arrived) = self.queue.pop_front()?;
        Some(self.start_service(next, next_arrived, now, rng))
    }

    /// Packets waiting or in service at the routing stage.
    pub fn depth(&self) -> usize {
        self.queue.len() + self.busy
    }

    /// Number of busy routing servers.
    pub fn busy_servers(&self) -> usize {
        self.busy
    }

    /// Ground-truth telemetry.
    pub fn stats(&self) -> &SwitchStats {
        &self.stats
    }
}

/// One switch output port: a FIFO drained at link bandwidth, with an
/// explicit start step so the fabric can gate transmission on the next
/// hop's admission credits.
#[derive(Debug, Default)]
pub struct EgressPort {
    queue: VecDeque<Packet>,
    in_flight: Option<Packet>,
    /// True while this port is parked in another switch's credit-waiter
    /// list (prevents double-parking).
    pub(crate) waiting_for_credit: bool,
}

impl EgressPort {
    /// Queues a routed packet; the caller decides when transmission may
    /// start (see [`EgressPort::can_start`]).
    pub fn accept(&mut self, pkt: Packet) {
        self.queue.push_back(pkt);
    }

    /// True if the port could start a transmission: idle, not parked, and
    /// has something to send.
    pub fn can_start(&self) -> bool {
        self.in_flight.is_none() && !self.waiting_for_credit && !self.queue.is_empty()
    }

    /// Begins serializing the head packet (any next-hop credit must
    /// already be held). Returns the serialization duration; the caller
    /// schedules TX-done.
    pub fn start_tx(&mut self, bytes_per_sec: u64) -> SimDuration {
        debug_assert!(self.in_flight.is_none(), "egress started while busy");
        #[expect(
            clippy::expect_used,
            reason = "internal engine ledger invariant; breakage means corrupted simulator state, which must halt rather than emit plausible-but-wrong results"
        )]
        let pkt = self
            .queue
            .pop_front()
            .expect("start_tx on empty egress queue");
        let d = SimDuration::serialization(pkt.bytes, bytes_per_sec);
        self.in_flight = Some(pkt);
        d
    }

    /// Completes the in-flight transmission, returning the packet now on
    /// the wire.
    #[expect(
        clippy::expect_used,
        reason = "internal engine ledger invariant; breakage means corrupted simulator state, which must halt rather than emit plausible-but-wrong results"
    )]
    pub fn tx_done(&mut self) -> Packet {
        self.in_flight
            .take()
            .expect("egress tx_done fired with no packet in flight")
    }

    /// Packets queued or in flight on this port.
    pub fn depth(&self) -> usize {
        self.queue.len() + usize::from(self.in_flight.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{MessageId, NodeId};
    use rand::SeedableRng;

    fn pkt(id: u64) -> Packet {
        Packet {
            msg: MessageId(id),
            last: true,
            src: NodeId(0),
            dst: NodeId(1),
            bytes: 1024,
        }
    }

    fn det(servers: usize) -> CentralStage {
        CentralStage::new(ServiceDistribution::Deterministic { ns: 100 }, servers)
    }

    #[test]
    fn credit_pool_caps_and_releases() {
        let mut pool = CreditPool::new(2);
        assert!(pool.try_acquire());
        assert!(pool.try_acquire());
        assert!(!pool.try_acquire(), "third credit must be refused");
        pool.release();
        assert!(pool.try_acquire(), "released credit is reusable");
        assert_eq!(pool.in_use(), 2);
    }

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn empty_credit_pool_rejected() {
        CreditPool::new(0);
    }

    #[test]
    fn single_server_serves_fifo() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut st = det(1);
        let t0 = SimTime::from_nanos(0);
        let s = st.arrive(pkt(1), t0, &mut rng).expect("server free");
        assert_eq!(s.packet.msg, MessageId(1));
        assert_eq!(s.service, SimDuration::from_nanos(100));
        assert!(st.arrive(pkt(2), t0, &mut rng).is_none(), "server busy");
        assert_eq!(st.depth(), 2);

        let next = st
            .service_done(s.arrived, SimTime::from_nanos(100), &mut rng)
            .expect("queued packet starts");
        assert_eq!(next.packet.msg, MessageId(2));
        assert!(st
            .service_done(next.arrived, SimTime::from_nanos(200), &mut rng)
            .is_none());
        assert_eq!(st.depth(), 0);
    }

    #[test]
    fn parallel_servers_run_concurrently() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut st = det(3);
        for i in 0..3 {
            assert!(
                st.arrive(pkt(i), SimTime::ZERO, &mut rng).is_some(),
                "server {i} must be free"
            );
        }
        assert_eq!(st.busy_servers(), 3);
        assert!(
            st.arrive(pkt(9), SimTime::ZERO, &mut rng).is_none(),
            "fourth packet must queue"
        );
        assert_eq!(st.depth(), 4);
    }

    #[test]
    fn wait_accounting_measures_queueing() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut st = det(1);
        let s1 = st.arrive(pkt(1), SimTime::from_nanos(0), &mut rng).unwrap();
        st.arrive(pkt(2), SimTime::from_nanos(10), &mut rng);
        let s2 = st
            .service_done(s1.arrived, SimTime::from_nanos(100), &mut rng)
            .unwrap();
        st.service_done(s2.arrived, SimTime::from_nanos(200), &mut rng);
        // Packet 2 arrived at 10, started service at 100 → waited 90.
        assert_eq!(st.stats().total_wait_ns, 90);
        // Sojourns: 100 (pkt 1) + 190 (pkt 2).
        assert_eq!(st.stats().total_sojourn_ns, 290);
        assert_eq!(st.stats().busy_ns, 200);
        assert_eq!(st.stats().served, 2);
    }

    #[test]
    fn egress_port_serializes_back_to_back() {
        let mut port = EgressPort::default();
        let bw = 1_000_000_000; // 1 GB/s → 1024 B = 1024 ns
        port.accept(pkt(1));
        port.accept(pkt(2));
        assert_eq!(port.depth(), 2);
        assert!(port.can_start());
        assert_eq!(port.start_tx(bw), SimDuration::from_nanos(1024));
        assert!(!port.can_start(), "busy port cannot start another tx");
        assert_eq!(port.tx_done().msg, MessageId(1));
        assert!(port.can_start());
        assert_eq!(port.start_tx(bw), SimDuration::from_nanos(1024));
        assert_eq!(port.tx_done().msg, MessageId(2));
        assert_eq!(port.depth(), 0);
        assert!(!port.can_start(), "drained port has nothing to send");
    }

    #[test]
    fn parked_egress_port_cannot_start() {
        let mut port = EgressPort::default();
        port.accept(pkt(1));
        port.waiting_for_credit = true;
        assert!(!port.can_start());
        port.waiting_for_credit = false;
        assert!(port.can_start());
    }

    #[test]
    #[should_panic(expected = "at least one routing server")]
    fn zero_servers_rejected() {
        det(0);
    }
}
