//! The fabric: NICs, switches and wires, glued together by network events.
//!
//! The fabric does not own the event loop. A composer (usually
//! `anp-simmpi`'s `World`) owns an [`EventQueue`] whose event type embeds
//! [`NetEvent`]; it forwards popped network events to [`Fabric::handle`] and
//! reacts to the returned [`Notice`]s. This keeps one global clock across
//! the network and the software running on it.
//!
//! Two topologies share the same machinery ([`Topology`]):
//!
//! * **SingleSwitch** — the paper's setting: every node on one switch.
//! * **FatTree** — a two-level tree (Cab's real shape): leaf switches
//!   hosting the nodes, fully meshed to spine switches. Cross-leaf packets
//!   take three switch hops (src leaf → spine → dst leaf) with the spine
//!   chosen statically by destination (`dst % spines`).
//!
//! Packet life cycle (remote traffic):
//!
//! ```text
//! send_message → NIC per-flow message queue → \[credit gate\] → NIC cuts
//!   and serializes the next packet → wire
//!   → routing stage (parallel servers) → egress FIFO → [next-hop credit]
//!   → egress serialize → wire → … → Deliver
//! ```
//!
//! Above the fabric only whole messages are seen, so a message gets a
//! single `Deliver`. Each packet is counted off the message's ledger as it
//! leaves its final egress port, and only the packet that empties the
//! ledger schedules `Deliver`; on the local channel only the last packet
//! does. A message's packets leave that port in FIFO order onto one
//! fixed-delay wire, so the packet that empties the ledger is the last to
//! land, and its `Deliver` fires when the message is whole.
//!
//! The ledger is a slot table, not a map: a message's [`MessageId`] is the
//! index of its slot, handed out from a free list, and the slot holds the
//! packets still to be counted off and the notices still to be handed up.
//! A slot is freed only once both of its message's notices (injection and
//! delivery) have gone up, so an id is unique among messages in flight and
//! is reused afterwards. On the local channel the two fall on the same
//! instant when the channel latency is zero, and `Deliver` pops first: a
//! slot freed at `Deliver` could be reused by a reply sent in response
//! before the injection notice names it. [`Fabric::is_quiescent`] stays
//! false while any slot is live, so also while a last packet is on its
//! wire. Like Cab's credit-flow-controlled InfiniBand, the fabric never
//! drops a packet: every packet admitted is delivered.
//!
//! Flow control is credit-based per switch, with *separate pools per
//! admission class* — packets entering a leaf from its nodes draw from the
//! up-pool, packets entering from a spine draw from the down-pool. Down
//! traffic drains to nodes unconditionally, so the credit-dependency graph
//! is acyclic and multi-hop back-pressure cannot deadlock.
//!
//! Intra-node messages bypass the network entirely over a per-node local
//! channel — they must not load the switches, since the paper's
//! methodology measures switch contention only.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::audit::{AuditLog, AuditReport, InvariantKind};
use crate::config::{ConfigError, SwitchConfig, Topology};
use crate::event::EventQueue;
use crate::nic::{Backlog, FlowId, Nic};
use crate::packet::{packet_count, segments, Message, MessageId, NodeId, Packet};
use crate::stats::{FabricStats, SwitchStats};
use crate::switch::{CentralStage, CreditPool, EgressPort};
use crate::time::{SimDuration, SimTime};

/// Events internal to the network. Compose into a larger event type via
/// `From<NetEvent>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetEvent {
    /// A NIC finished serializing a packet onto the node→switch wire.
    NicTxDone {
        /// The transmitting node.
        node: NodeId,
    },
    /// A packet reached a switch's routing stage.
    SwitchArrive {
        /// The switch index.
        sw: u32,
        /// The arriving packet.
        packet: Packet,
    },
    /// A routing server finished servicing a packet.
    ServiceDone {
        /// The switch index.
        sw: u32,
        /// The routed packet.
        packet: Packet,
        /// When the packet arrived at the routing stage.
        arrived: SimTime,
    },
    /// An egress port finished serializing a packet onto its wire.
    EgressTxDone {
        /// The switch index.
        sw: u32,
        /// The egress port within the switch.
        port: u32,
    },
    /// The last packet of a message arrived at its destination NIC: one
    /// per message (module docs).
    Deliver {
        /// The completed message.
        msg: MessageId,
    },
    /// All packets of an intra-node message finished local serialization
    /// (send-side completion for local traffic).
    LocalInjectDone {
        /// The locally-sent message.
        msg: MessageId,
    },
}

impl NetEvent {
    /// Number of variants; [`Fabric::events_handled`] counts each.
    pub const KINDS: usize = 6;
}

/// Upcalls from the fabric to the layer above. Each names only the
/// message: the sender already knows everything else about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Notice {
    /// The last packet of a message left the source NIC: an eager send
    /// completes locally at this point.
    MessageInjected {
        /// The injected message.
        msg: MessageId,
    },
    /// Every packet of the message has arrived at the destination node.
    MessageDelivered {
        /// The completed message.
        msg: MessageId,
    },
}

/// Where a switch egress port's wire leads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NextHop {
    /// Down to a compute node.
    Node,
    /// To another switch, drawing from the given admission class there.
    Switch {
        /// Destination switch index.
        sw: u32,
        /// Admission class at the destination switch.
        class: usize,
    },
}

/// Who is parked waiting for a credit of some (switch, class).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Waiter {
    Nic(NodeId),
    Egress { sw: u32, port: u32 },
}

/// One switch: routing stage, egress ports, and its admission pools
/// (pool 0 = up/main class, pool 1 = down class on fat-tree leaves).
struct SwitchUnit {
    central: CentralStage,
    egress: Vec<EgressPort>,
    pools: Vec<CreditPool>,
    waiters: Vec<VecDeque<Waiter>>,
}

/// The ledger entry of one message in flight.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Packets that have not yet left their final egress port (0 for a
    /// local message).
    pending: u32,
    /// Notices (injection, delivery) not yet handed up; the slot is free
    /// once both have gone.
    notices: u8,
}

/// The messages in flight, one slot each: a message's id is its slot's
/// index, and freed slots are reused last-freed first.
#[derive(Debug, Default)]
struct Slots {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

impl Slots {
    /// Takes a slot for a message of `pending` packets still to be counted
    /// off, and returns the message's id.
    fn open(&mut self, pending: u32) -> MessageId {
        let slot = Slot {
            pending,
            notices: 2,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        MessageId(u64::from(i))
    }

    /// Counts off a packet of `msg`; true when it was the last one.
    fn depart(&mut self, msg: MessageId) -> bool {
        let slot = &mut self.slots[msg.0 as usize];
        debug_assert!(slot.notices > 0, "departure of a message not in flight");
        slot.pending -= 1;
        slot.pending == 0
    }

    /// Records that one of `msg`'s notices went up, freeing its slot after
    /// the second.
    fn hand_up(&mut self, msg: MessageId) {
        let slot = &mut self.slots[msg.0 as usize];
        debug_assert!(slot.notices > 0, "notice for a message not in flight");
        slot.notices -= 1;
        if slot.notices == 0 {
            self.free.push(msg.0 as u32);
        }
    }

    /// Messages in flight.
    fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// Static description of the switch arrangement.
#[derive(Debug, Clone, Copy)]
struct Routes {
    leaves: u32,
    spines: u32,
    nodes_per_leaf: u32,
}

impl Routes {
    fn from_config(cfg: &SwitchConfig) -> Self {
        match cfg.topology {
            Topology::SingleSwitch => Routes {
                leaves: 1,
                spines: 0,
                nodes_per_leaf: cfg.nodes,
            },
            Topology::FatTree { leaves, spines } => Routes {
                leaves,
                spines,
                nodes_per_leaf: cfg.nodes / leaves,
            },
        }
    }

    fn switch_count(&self) -> u32 {
        self.leaves + self.spines
    }

    fn is_spine(&self, sw: u32) -> bool {
        sw >= self.leaves
    }

    fn leaf_of(&self, node: NodeId) -> u32 {
        node.0 / self.nodes_per_leaf
    }

    /// Ports of switch `sw`: leaves expose `nodes_per_leaf` down ports then
    /// `spines` up ports; spines expose `leaves` down ports.
    fn port_count(&self, sw: u32) -> u32 {
        if self.is_spine(sw) {
            self.leaves
        } else {
            self.nodes_per_leaf + self.spines
        }
    }

    /// The deterministic spine carrying traffic for `dst`.
    fn spine_for(&self, dst: NodeId) -> u32 {
        self.leaves + dst.0 % self.spines
    }

    /// The egress port switch `sw` uses toward `dst`.
    fn route_port(&self, sw: u32, dst: NodeId) -> u32 {
        if self.is_spine(sw) {
            self.leaf_of(dst)
        } else if self.leaf_of(dst) == sw {
            dst.0 % self.nodes_per_leaf
        } else {
            self.nodes_per_leaf + (self.spine_for(dst) - self.leaves)
        }
    }

    /// What lies at the far end of (sw, port).
    fn next_hop(&self, sw: u32, port: u32) -> NextHop {
        if self.is_spine(sw) {
            // Down into a leaf: drawn from the leaf's down class.
            NextHop::Switch { sw: port, class: 1 }
        } else if port < self.nodes_per_leaf {
            NextHop::Node
        } else {
            // Up into a spine.
            NextHop::Switch {
                sw: self.leaves + (port - self.nodes_per_leaf),
                class: 0,
            }
        }
    }

    /// The admission class a packet occupies at switch `sw`: up/main (0)
    /// when it entered from a node, down (1) when it entered from a spine.
    fn class_at(&self, sw: u32, pkt: &Packet) -> usize {
        if self.is_spine(sw) || self.leaf_of(pkt.src) == sw {
            0
        } else {
            1
        }
    }
}

/// The network fabric: one or more switches plus the node NICs.
pub struct Fabric {
    cfg: SwitchConfig,
    routes: Routes,
    nics: Vec<Nic>,
    switches: Vec<SwitchUnit>,
    /// Per-node time at which the local (shared-memory) channel frees up.
    local_busy_until: Vec<SimTime>,
    rng: StdRng,
    /// One slot per message in flight, indexed by its id (module docs).
    slots: Slots,
    /// Events handled per [`NetEvent`] kind, in declaration order.
    handled: [u64; NetEvent::KINDS],
    stats: FabricStats,
    /// Invariant auditor state. `None` until [`Fabric::enable_audit`]; the
    /// hot path then pays one `is_some` test per hook.
    audit: Option<Box<FabricAudit>>,
}

/// Shadow accounting for the fabric-level conservation invariants: per-port
/// egress byte ledgers plus the shared violation recorder. Boxed off the
/// `Fabric` hot path; allocated only when auditing is enabled at runtime.
/// Its hooks are `#[cold]` and never inlined, so the handlers they sit in
/// stay as small as they are with the auditor off.
struct FabricAudit {
    /// Violations only: the event trace and count are the world's.
    log: AuditLog<NetEvent>,
    /// Per (switch, port): `(bytes accepted into the FIFO, bytes transmitted
    /// out)`. Conservation demands `out ≤ in` always and `out == in` at
    /// quiescence.
    egress_bytes: Vec<Vec<(u64, u64)>>,
}

impl FabricAudit {
    fn new(routes: &Routes) -> Self {
        FabricAudit {
            log: AuditLog::new(),
            egress_bytes: (0..routes.switch_count())
                .map(|sw| vec![(0u64, 0u64); routes.port_count(sw) as usize])
                .collect(),
        }
    }

    #[cold]
    #[inline(never)]
    fn egress_accept(&mut self, sw: u32, port: u32, bytes: u64) {
        self.egress_bytes[sw as usize][port as usize].0 += bytes;
    }

    #[cold]
    #[inline(never)]
    fn egress_transmit(&mut self, sw: u32, port: u32, bytes: u64, now: SimTime) {
        let (accepted, transmitted) = &mut self.egress_bytes[sw as usize][port as usize];
        *transmitted += bytes;
        if *transmitted > *accepted {
            let detail = format!(
                "egress (switch {sw}, port {port}) transmitted {transmitted} bytes \
                 but only accepted {accepted}"
            );
            self.log
                .violate(InvariantKind::EgressByteConservation, now, detail);
        }
    }

    /// Reports a release of a (switch, class) credit when `in_use` of them
    /// are out. `true` when there is none to release: the caller must then
    /// skip the release rather than corrupt the pool.
    #[cold]
    #[inline(never)]
    fn unmatched_release(&mut self, in_use: usize, sw: u32, class: usize, now: SimTime) -> bool {
        if in_use != 0 {
            return false;
        }
        let detail =
            format!("credit release without matching acquire (switch {sw}, class {class})");
        self.log
            .violate(InvariantKind::CreditConservation, now, detail);
        true
    }
}

impl Fabric {
    /// Builds a fabric from a validated configuration.
    ///
    /// # Panics
    /// Panics if the configuration fails [`SwitchConfig::validate`]. Use
    /// [`Fabric::try_new`] to handle invalid configurations gracefully.
    pub fn new(cfg: SwitchConfig) -> Self {
        match Fabric::try_new(cfg) {
            Ok(f) => f,
            Err(e) => panic!("invalid SwitchConfig: {e}"),
        }
    }

    /// Builds a fabric, reporting configuration problems as a typed
    /// [`ConfigError`] instead of panicking.
    pub fn try_new(cfg: SwitchConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let routes = Routes::from_config(&cfg);
        let switches: Vec<SwitchUnit> = (0..routes.switch_count())
            .map(|sw| {
                let classes = if routes.is_spine(sw) || routes.spines == 0 {
                    1
                } else {
                    2
                };
                SwitchUnit {
                    central: CentralStage::new(cfg.service.clone(), cfg.route_servers as usize),
                    egress: (0..routes.port_count(sw))
                        .map(|_| EgressPort::default())
                        .collect(),
                    pools: (0..classes)
                        .map(|_| CreditPool::new(cfg.switch_capacity))
                        .collect(),
                    waiters: (0..classes).map(|_| VecDeque::new()).collect(),
                }
            })
            .collect();
        Ok(Fabric {
            routes,
            nics: (0..cfg.nodes as usize).map(|_| Nic::new(cfg.mtu)).collect(),
            switches,
            local_busy_until: vec![SimTime::ZERO; cfg.nodes as usize],
            rng: StdRng::seed_from_u64(cfg.seed),
            slots: Slots::default(),
            handled: [0; NetEvent::KINDS],
            stats: FabricStats::default(),
            cfg,
            audit: None,
        })
    }

    /// Turns on the invariant auditor for this fabric. Call before the
    /// first message is sent; enabling mid-run misses bytes already queued.
    pub fn enable_audit(&mut self) {
        if self.audit.is_none() {
            self.audit = Some(Box::new(FabricAudit::new(&self.routes)));
        }
    }

    /// `true` when the auditor is enabled.
    pub fn audit_enabled(&self) -> bool {
        self.audit.is_some()
    }

    /// Runs the end-of-run conservation sweep, stamping what it finds with
    /// `now` (the caller's clock), and drains the auditor's findings.
    /// Returns `None` when auditing is off.
    pub fn take_audit_report(&mut self, now: SimTime) -> Option<AuditReport> {
        let mut audit = self.audit.take()?;
        self.audit_quiescence_check(&mut audit, now);
        let report = audit.log.take_report();
        self.audit = Some(audit);
        Some(report)
    }

    /// At any quiescent point every admission credit must be back in its
    /// pool and every egress port's byte ledger must balance — a packet
    /// cannot be "gone" while still holding a credit or occupying a FIFO.
    fn audit_quiescence_check(&self, audit: &mut FabricAudit, now: SimTime) {
        if !self.is_quiescent() {
            return;
        }
        for (sw, unit) in self.switches.iter().enumerate() {
            for (class, pool) in unit.pools.iter().enumerate() {
                if pool.in_use() != 0 {
                    let detail = format!(
                        "{} credit(s) still held at quiescence (switch {sw}, class {class})",
                        pool.in_use()
                    );
                    audit
                        .log
                        .violate(InvariantKind::CreditConservation, now, detail);
                }
            }
        }
        for (sw, ports) in audit.egress_bytes.iter().enumerate() {
            for (port, (accepted, transmitted)) in ports.iter().enumerate() {
                if accepted != transmitted {
                    let detail = format!(
                        "egress (switch {sw}, port {port}) accepted {accepted} bytes \
                         but transmitted {transmitted} at quiescence"
                    );
                    audit
                        .log
                        .violate(InvariantKind::EgressByteConservation, now, detail);
                }
            }
        }
    }

    /// The configuration this fabric was built from.
    pub fn config(&self) -> &SwitchConfig {
        &self.cfg
    }

    /// Number of attached nodes.
    pub fn nodes(&self) -> u32 {
        self.cfg.nodes
    }

    /// Number of switches (1 for the single-switch topology).
    pub fn switch_count(&self) -> u32 {
        self.routes.switch_count()
    }

    /// Ground-truth telemetry of switch 0 (the only switch in the paper's
    /// topology; the first leaf of a fat tree). Tests/benches only — the
    /// measurement methodology must rely on probe latencies instead.
    pub fn switch_stats(&self) -> &SwitchStats {
        self.central_stats(0)
    }

    /// Ground-truth telemetry of a specific switch.
    pub fn central_stats(&self, sw: u32) -> &SwitchStats {
        self.switches[sw as usize].central.stats()
    }

    /// Fabric-level counters.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// Submits a message for transmission. Returns its id; completion is
    /// signalled via [`Notice::MessageInjected`] / [`Notice::MessageDelivered`]
    /// from subsequent [`Fabric::handle`] calls.
    ///
    /// The id is unique among messages in flight, not over the run: it
    /// indexes the message's slot, which a later message reuses once both
    /// of this one's notices have been handed up. A layer above may keep
    /// its own per-message state in a table indexed by the id.
    ///
    /// `flow` identifies the sending context (a rank / queue pair) as a
    /// dense index: the source NIC keeps a queue per flow up to the largest
    /// it has seen, and arbitrates round-robin between flows so one
    /// sender's backlog cannot head-of-line-block another's traffic.
    pub fn send_message<E: From<NetEvent>>(
        &mut self,
        q: &mut EventQueue<E>,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> MessageId {
        // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
        assert!(src.index() < self.nics.len(), "source node out of range");
        // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
        assert!(
            dst.index() < self.nics.len(),
            "destination node out of range"
        );
        self.stats.messages_sent += 1;
        let n_pkts = packet_count(bytes, self.cfg.mtu);

        if src == dst {
            // Local path: sequential serialization on the node's local
            // channel, then a fixed hop latency. No switch involvement. The
            // channel has no egress port, so the message's packets are all
            // counted off here and only the last one is delivered.
            self.stats.local_messages += 1;
            let id = self.slots.open(0);
            let now = q.now();
            let mut busy = self.local_busy_until[src.index()].max(now);
            for sz in segments(bytes, self.cfg.mtu, n_pkts) {
                busy += SimDuration::serialization(sz, self.cfg.local_bandwidth);
            }
            q.schedule_at(
                busy + self.cfg.local_latency,
                NetEvent::Deliver { msg: id }.into(),
            );
            self.local_busy_until[src.index()] = busy;
            q.schedule_at(busy, NetEvent::LocalInjectDone { msg: id }.into());
            return id;
        }

        // Remote path: the NIC queues the whole message and cuts its
        // packets as it transmits them.
        let id = self.slots.open(n_pkts as u32);
        self.stats.packets_created += n_pkts;
        self.nics[src.index()].enqueue(
            flow,
            Message {
                id,
                src,
                dst,
                bytes,
            },
            n_pkts,
        );
        self.try_start_nic(q, src);
        id
    }

    /// Processes one network event, appending upcalls to `out`.
    pub fn handle<E: From<NetEvent>>(
        &mut self,
        q: &mut EventQueue<E>,
        ev: NetEvent,
        out: &mut Vec<Notice>,
    ) {
        // Each arm counts its own kind, in `NetEvent` declaration order.
        match ev {
            NetEvent::NicTxDone { node } => {
                self.handled[0] += 1;
                let pkt = self.nics[node.index()].tx_done();
                if pkt.last {
                    self.slots.hand_up(pkt.msg);
                    out.push(Notice::MessageInjected { msg: pkt.msg });
                }
                q.schedule_after(
                    self.cfg.wire_latency,
                    NetEvent::SwitchArrive {
                        sw: self.routes.leaf_of(node),
                        packet: pkt,
                    }
                    .into(),
                );
                self.try_start_nic(q, node);
            }
            NetEvent::SwitchArrive { sw, packet } => {
                self.handled[1] += 1;
                let unit = &mut self.switches[sw as usize];
                if let Some(start) = unit.central.arrive(packet, q.now(), &mut self.rng) {
                    Self::schedule_service(q, sw, start);
                }
            }
            NetEvent::ServiceDone {
                sw,
                packet,
                arrived,
            } => {
                self.handled[2] += 1;
                let unit = &mut self.switches[sw as usize];
                if let Some(start) = unit.central.service_done(arrived, q.now(), &mut self.rng) {
                    Self::schedule_service(q, sw, start);
                }
                let port = self.routes.route_port(sw, packet.dst);
                if let Some(a) = self.audit.as_deref_mut() {
                    a.egress_accept(sw, port, packet.bytes);
                }
                self.switches[sw as usize].egress[port as usize].accept(packet);
                self.try_start_egress(q, sw, port);
            }
            NetEvent::EgressTxDone { sw, port } => {
                self.handled[3] += 1;
                let pkt = self.switches[sw as usize].egress[port as usize].tx_done();
                if let Some(a) = self.audit.as_deref_mut() {
                    a.egress_transmit(sw, port, pkt.bytes, q.now());
                }
                // The packet has left this switch: release its admission
                // credit and wake exactly one waiter of that class.
                let class = self.routes.class_at(sw, &pkt);
                self.release_credit(q, sw, class);
                // Forward onto the wire. A packet bound for another switch
                // already holds that switch's credit (acquired in
                // `try_start_egress`).
                match self.routes.next_hop(sw, port) {
                    NextHop::Node => {
                        self.stats.packets_delivered += 1;
                        if self.slots.depart(pkt.msg) {
                            q.schedule_after(
                                self.cfg.wire_latency,
                                NetEvent::Deliver { msg: pkt.msg }.into(),
                            );
                        }
                    }
                    NextHop::Switch { sw: next, .. } => {
                        q.schedule_after(
                            self.cfg.wire_latency,
                            NetEvent::SwitchArrive {
                                sw: next,
                                packet: pkt,
                            }
                            .into(),
                        );
                    }
                }
                self.try_start_egress(q, sw, port);
            }
            NetEvent::Deliver { msg } => {
                self.handled[4] += 1;
                debug_assert_eq!(
                    self.slots.slots[msg.0 as usize].pending, 0,
                    "message delivered before its last packet"
                );
                self.slots.hand_up(msg);
                self.stats.messages_delivered += 1;
                out.push(Notice::MessageDelivered { msg });
            }
            NetEvent::LocalInjectDone { msg } => {
                self.handled[5] += 1;
                self.slots.hand_up(msg);
                out.push(Notice::MessageInjected { msg });
            }
        }
    }

    fn schedule_service<E: From<NetEvent>>(
        q: &mut EventQueue<E>,
        sw: u32,
        start: crate::switch::ServiceStart,
    ) {
        q.schedule_after(
            start.service,
            NetEvent::ServiceDone {
                sw,
                packet: start.packet,
                arrived: start.arrived,
            }
            .into(),
        );
    }

    /// Starts the NIC's next transmission if it is idle, has traffic, and
    /// its leaf grants an up-class credit; otherwise parks it.
    fn try_start_nic<E: From<NetEvent>>(&mut self, q: &mut EventQueue<E>, node: NodeId) {
        if !self.nics[node.index()].can_start() {
            return;
        }
        let leaf = self.routes.leaf_of(node);
        if self.switches[leaf as usize].pools[0].try_acquire() {
            let d = self.nics[node.index()].start_tx(self.cfg.link_bandwidth);
            q.schedule_after(d, NetEvent::NicTxDone { node }.into());
        } else {
            self.nics[node.index()].waiting_for_credit = true;
            self.switches[leaf as usize].waiters[0].push_back(Waiter::Nic(node));
            self.stats.backpressure_stalls += 1;
        }
    }

    /// Starts an egress port's next transmission if it is idle and — for
    /// ports feeding another switch — that switch grants a credit.
    fn try_start_egress<E: From<NetEvent>>(&mut self, q: &mut EventQueue<E>, sw: u32, port: u32) {
        if !self.switches[sw as usize].egress[port as usize].can_start() {
            return;
        }
        if let NextHop::Switch { sw: next, class } = self.routes.next_hop(sw, port) {
            if !self.switches[next as usize].pools[class].try_acquire() {
                self.switches[sw as usize].egress[port as usize].waiting_for_credit = true;
                self.switches[next as usize].waiters[class].push_back(Waiter::Egress { sw, port });
                self.stats.backpressure_stalls += 1;
                return;
            }
        }
        let d = self.switches[sw as usize].egress[port as usize].start_tx(self.cfg.link_bandwidth);
        q.schedule_after(d, NetEvent::EgressTxDone { sw, port }.into());
    }

    /// Releases one (switch, class) admission credit and wakes a parked
    /// waiter. Under the auditor, a release that would underflow the pool —
    /// a credit handed back twice, or never acquired — is reported as a
    /// [`InvariantKind::CreditConservation`] violation and skipped, instead
    /// of corrupting the pool (or aborting on the pool's debug assertion).
    fn release_credit<E: From<NetEvent>>(&mut self, q: &mut EventQueue<E>, sw: u32, class: usize) {
        if let Some(a) = self.audit.as_deref_mut() {
            let in_use = self.switches[sw as usize].pools[class].in_use();
            if a.unmatched_release(in_use, sw, class, q.now()) {
                return;
            }
        }
        self.switches[sw as usize].pools[class].release();
        self.wake_one(q, sw, class);
    }

    /// Grants a freed (switch, class) credit to the first parked waiter.
    fn wake_one<E: From<NetEvent>>(&mut self, q: &mut EventQueue<E>, sw: u32, class: usize) {
        let Some(w) = self.switches[sw as usize].waiters[class].pop_front() else {
            return;
        };
        match w {
            Waiter::Nic(node) => {
                self.nics[node.index()].waiting_for_credit = false;
                self.try_start_nic(q, node);
            }
            Waiter::Egress { sw: esw, port } => {
                self.switches[esw as usize].egress[port as usize].waiting_for_credit = false;
                self.try_start_egress(q, esw, port);
            }
        }
    }

    /// True when no packet is anywhere in the fabric (testing aid).
    pub fn is_quiescent(&self) -> bool {
        self.slots.live() == 0
            && self
                .switches
                .iter()
                .all(|u| u.central.depth() == 0 && u.egress.iter().all(|e| e.depth() == 0))
            && self
                .nics
                .iter()
                .all(|n| n.backlog() == 0 && !n.is_transmitting())
    }

    /// The largest backlog any one NIC has held, in messages and in
    /// packets (the larger of each over the NICs, so the two may come from
    /// different NICs and instants). Telemetry only: nothing reads it back.
    pub fn nic_peak_backlog(&self) -> Backlog {
        self.nics.iter().fold(Backlog::default(), |acc, nic| {
            let peak = nic.peak_backlog();
            Backlog {
                messages: acc.messages.max(peak.messages),
                packets: acc.packets.max(peak.packets),
            }
        })
    }

    /// Events handled so far per [`NetEvent`] kind, indexed in the enum's
    /// declaration order. Telemetry only: nothing reads it back.
    pub fn events_handled(&self) -> [u64; NetEvent::KINDS] {
        self.handled
    }

    /// Credits outstanding in a switch's pool (test hook).
    pub fn credits_in_use(&self, sw: u32, class: usize) -> usize {
        self.switches[sw as usize].pools[class].in_use()
    }
}

/// Runs a fabric-only simulation until the queue drains or `horizon`
/// passes, collecting all notices. Convenience for tests and benches that
/// exercise the network without a software layer on top.
pub fn drain<E>(fabric: &mut Fabric, q: &mut EventQueue<E>, horizon: SimTime) -> Vec<Notice>
where
    E: From<NetEvent> + Into<NetEvent>,
{
    let mut out = Vec::new();
    while let Some((_, ev)) = q.pop_until(horizon) {
        fabric.handle(q, ev.into(), &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn setup() -> (Fabric, EventQueue<NetEvent>) {
        (
            Fabric::new(SwitchConfig::tiny_deterministic()),
            EventQueue::new(),
        )
    }

    fn delivered(notices: &[Notice]) -> Vec<MessageId> {
        notices
            .iter()
            .filter_map(|n| match n {
                Notice::MessageDelivered { msg, .. } => Some(*msg),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn single_packet_end_to_end_latency_is_exact() {
        let (mut fab, mut q) = setup();
        // tiny_deterministic: 1 GB/s links, 100 ns wire, 200 ns service.
        // 512 B: nic 512 ns + wire 100 + service 200 + egress 512 + wire 100
        // = 1424 ns.
        let id = fab.send_message(&mut q, 0, NodeId(0), NodeId(1), 512);
        let notices = drain(&mut fab, &mut q, SimTime::from_nanos(10_000));
        assert_eq!(delivered(&notices), vec![id]);
        assert_eq!(q.now(), SimTime::from_nanos(1424));
        assert!(fab.is_quiescent());
    }

    #[test]
    fn message_is_segmented_and_reassembled() {
        let (mut fab, mut q) = setup();
        // 2500 B at MTU 1024 → 3 packets.
        let id = fab.send_message(&mut q, 0, NodeId(0), NodeId(2), 2500);
        let notices = drain(&mut fab, &mut q, SimTime::from_nanos(100_000));
        assert_eq!(delivered(&notices), vec![id]);
        assert_eq!(fab.stats().packets_created, 3);
        assert_eq!(fab.stats().packets_delivered, 3);
    }

    #[test]
    fn nic_peak_backlog_counts_messages_and_their_packets() {
        let (mut fab, mut q) = setup();
        // Node 0 starts cutting the first message at once, so its NIC
        // holds both messages and 3 + 3 − 1 packets; node 1 holds one
        // 1-packet message it also starts at once.
        fab.send_message(&mut q, 0, NodeId(0), NodeId(2), 2500);
        fab.send_message(&mut q, 1, NodeId(0), NodeId(3), 2500);
        fab.send_message(&mut q, 2, NodeId(1), NodeId(3), 100);
        assert_eq!(
            fab.nic_peak_backlog(),
            Backlog {
                messages: 2,
                packets: 5
            }
        );
        drain(&mut fab, &mut q, SimTime::from_nanos(100_000));
        assert!(fab.is_quiescent());
        assert_eq!(
            fab.nic_peak_backlog().packets,
            5,
            "a peak outlives its backlog"
        );
    }

    #[test]
    fn injection_notice_precedes_delivery() {
        let (mut fab, mut q) = setup();
        let id = fab.send_message(&mut q, 0, NodeId(0), NodeId(1), 2048);
        let notices = drain(&mut fab, &mut q, SimTime::from_nanos(100_000));
        let inj = notices
            .iter()
            .position(|n| matches!(n, Notice::MessageInjected { msg, .. } if *msg == id))
            .expect("injected notice missing");
        let del = notices
            .iter()
            .position(|n| matches!(n, Notice::MessageDelivered { msg, .. } if *msg == id))
            .expect("delivered notice missing");
        assert!(inj < del);
    }

    #[test]
    fn local_messages_bypass_the_switch() {
        let (mut fab, mut q) = setup();
        let id = fab.send_message(&mut q, 0, NodeId(1), NodeId(1), 4096);
        let notices = drain(&mut fab, &mut q, SimTime::from_nanos(1_000_000));
        assert_eq!(delivered(&notices), vec![id]);
        assert_eq!(fab.switch_stats().arrivals, 0, "switch must stay idle");
        assert_eq!(fab.stats().local_messages, 1);
    }

    #[test]
    fn concurrent_senders_share_the_central_server() {
        let (mut fab, mut q) = setup();
        // Two nodes each send one 512 B packet to distinct destinations at
        // t=0. NIC serializations run in parallel (512 ns each), both
        // arrive at 612 ns, but tiny_deterministic has one routing server,
        // which serializes them: the second departs service 200 ns later.
        fab.send_message(&mut q, 0, NodeId(0), NodeId(2), 512);
        fab.send_message(&mut q, 1, NodeId(1), NodeId(3), 512);
        let notices = drain(&mut fab, &mut q, SimTime::from_nanos(100_000));
        assert_eq!(delivered(&notices).len(), 2);
        // First delivery 1424 ns, second waited 200 ns in the queue.
        assert_eq!(q.now(), SimTime::from_nanos(1624));
        let st = fab.switch_stats();
        assert_eq!(st.served, 2);
        assert_eq!(st.total_wait_ns, 200);
    }

    #[test]
    fn backpressure_stalls_and_recovers() {
        let mut cfg = SwitchConfig::tiny_deterministic();
        cfg.switch_capacity = 1; // one credit: the second packet must stall
        let mut fab = Fabric::new(cfg);
        let mut q: EventQueue<NetEvent> = EventQueue::new();
        fab.send_message(&mut q, 0, NodeId(0), NodeId(2), 512);
        fab.send_message(&mut q, 1, NodeId(1), NodeId(3), 512);
        let notices = drain(&mut fab, &mut q, SimTime::from_nanos(1_000_000));
        assert_eq!(delivered(&notices).len(), 2, "both must eventually deliver");
        assert!(fab.stats().backpressure_stalls >= 1);
        assert!(fab.is_quiescent());
    }

    #[test]
    fn many_messages_all_deliver_exactly_once() {
        let (mut fab, mut q) = setup();
        let mut ids = Vec::new();
        for i in 0..50u64 {
            let src = NodeId((i % 4) as u32);
            let dst = NodeId(((i + 1) % 4) as u32);
            ids.push(fab.send_message(&mut q, i as u32, src, dst, 300 + i * 37));
        }
        let notices = drain(&mut fab, &mut q, SimTime::from_nanos(1_000_000_000));
        let mut got = delivered(&notices);
        got.sort();
        ids.sort();
        assert_eq!(got, ids);
        assert!(fab.is_quiescent());
    }

    #[test]
    fn zero_byte_message_still_delivers() {
        let (mut fab, mut q) = setup();
        let id = fab.send_message(&mut q, 0, NodeId(0), NodeId(1), 0);
        let notices = drain(&mut fab, &mut q, SimTime::from_nanos(100_000));
        assert_eq!(delivered(&notices), vec![id]);
    }

    #[test]
    fn credits_fully_release_after_drain() {
        let (mut fab, mut q) = setup();
        for i in 0..30u32 {
            fab.send_message(&mut q, i, NodeId(i % 4), NodeId((i + 1) % 4), 2048);
        }
        drain(&mut fab, &mut q, SimTime::from_secs(10));
        assert!(fab.is_quiescent());
        assert_eq!(fab.credits_in_use(0, 0), 0);
    }

    #[test]
    fn audit_is_off_by_default_and_reports_none() {
        let (mut fab, mut q) = setup();
        assert!(!fab.audit_enabled());
        fab.send_message(&mut q, 0, NodeId(0), NodeId(1), 512);
        drain(&mut fab, &mut q, SimTime::from_secs(1));
        assert_eq!(fab.take_audit_report(q.now()), None);
    }

    #[test]
    fn audited_clean_run_reports_no_violations() {
        let (mut fab, mut q) = setup();
        fab.enable_audit();
        assert!(fab.audit_enabled());
        for i in 0..30u32 {
            fab.send_message(&mut q, i, NodeId(i % 4), NodeId((i + 1) % 4), 2048);
        }
        drain(&mut fab, &mut q, SimTime::from_secs(10));
        assert!(fab.is_quiescent());
        let report = fab.take_audit_report(q.now()).expect("audit enabled");
        assert!(report.is_clean(), "unexpected violations: {report}");
    }

    #[test]
    fn double_release_is_reported_not_panicked() {
        let (mut fab, mut q) = setup();
        fab.enable_audit();
        // No credit is in use: a release here is the class of accounting bug
        // the auditor exists to catch. It must come back as a typed
        // violation, not a debug-assert abort.
        fab.release_credit(&mut q, 0, 0);
        let report = fab.take_audit_report(q.now()).expect("audit enabled");
        assert_eq!(report.violation_count(), 1);
        assert_eq!(report.violations[0].kind, InvariantKind::CreditConservation);
        assert!(report.violations[0]
            .detail
            .contains("without matching acquire"));
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = || {
            let mut fab = Fabric::new(SwitchConfig::cab().with_seed(11));
            let mut q: EventQueue<NetEvent> = EventQueue::new();
            for i in 0..40u32 {
                fab.send_message(&mut q, 0, NodeId(i % 18), NodeId((i + 5) % 18), 4096 * 3);
            }
            let n = drain(&mut fab, &mut q, SimTime::from_nanos(10_000_000));
            (q.now(), n.len())
        };
        assert_eq!(run(), run());
    }

    // ------------------------------------------------------------------
    // Fat-tree topology.

    fn tiny_fat_tree() -> SwitchConfig {
        let mut cfg = SwitchConfig::tiny_deterministic();
        cfg.topology = Topology::FatTree {
            leaves: 2,
            spines: 2,
        };
        cfg.nodes = 4; // 2 nodes per leaf
        cfg
    }

    #[test]
    fn fat_tree_intra_leaf_matches_single_switch_latency() {
        let mut fab = Fabric::new(tiny_fat_tree());
        let mut q: EventQueue<NetEvent> = EventQueue::new();
        // Nodes 0 and 1 share leaf 0: one switch hop, same as before.
        let id = fab.send_message(&mut q, 0, NodeId(0), NodeId(1), 512);
        let notices = drain(&mut fab, &mut q, SimTime::from_nanos(100_000));
        assert_eq!(delivered(&notices), vec![id]);
        assert_eq!(q.now(), SimTime::from_nanos(1424));
    }

    #[test]
    fn fat_tree_cross_leaf_takes_three_hops() {
        let mut fab = Fabric::new(tiny_fat_tree());
        let mut q: EventQueue<NetEvent> = EventQueue::new();
        // Node 0 (leaf 0) → node 2 (leaf 1): nic 512 + wire 100 +
        // [svc 200 + egress 512 + wire 100] × 3 hops = 3048 ns.
        let id = fab.send_message(&mut q, 0, NodeId(0), NodeId(2), 512);
        let notices = drain(&mut fab, &mut q, SimTime::from_nanos(100_000));
        assert_eq!(delivered(&notices), vec![id]);
        assert_eq!(q.now(), SimTime::from_nanos(3048));
        // The spine chosen for node 2 (2 % 2 = spine 0 → switch index 2)
        // must have routed exactly one packet.
        assert_eq!(fab.central_stats(2).served, 1);
        assert_eq!(fab.central_stats(3).served, 0);
    }

    #[test]
    fn fat_tree_all_pairs_connect() {
        let mut cfg = tiny_fat_tree();
        cfg.topology = Topology::FatTree {
            leaves: 3,
            spines: 2,
        };
        cfg.nodes = 9;
        let mut fab = Fabric::new(cfg);
        let mut q: EventQueue<NetEvent> = EventQueue::new();
        let mut expect = Vec::new();
        for s in 0..9u32 {
            for d in 0..9u32 {
                if s != d {
                    expect.push(fab.send_message(&mut q, s, NodeId(s), NodeId(d), 700));
                }
            }
        }
        let notices = drain(&mut fab, &mut q, SimTime::from_secs(10));
        let mut got = delivered(&notices);
        got.sort();
        expect.sort();
        assert_eq!(got, expect, "every pair must deliver");
        assert!(fab.is_quiescent());
    }

    #[test]
    fn fat_tree_spreads_destinations_over_spines() {
        let mut fab = Fabric::new(tiny_fat_tree());
        let mut q: EventQueue<NetEvent> = EventQueue::new();
        // Traffic to node 2 uses spine 0; to node 3 uses spine 1.
        fab.send_message(&mut q, 0, NodeId(0), NodeId(2), 512);
        fab.send_message(&mut q, 1, NodeId(1), NodeId(3), 512);
        drain(&mut fab, &mut q, SimTime::from_secs(1));
        assert_eq!(fab.central_stats(2).served, 1);
        assert_eq!(fab.central_stats(3).served, 1);
    }

    #[test]
    fn fat_tree_survives_saturation_without_deadlock() {
        // Tight credits + heavy bidirectional cross-leaf traffic: the
        // per-class pools must keep the credit graph acyclic.
        let mut cfg = tiny_fat_tree();
        cfg.switch_capacity = 2;
        let mut fab = Fabric::new(cfg);
        let mut q: EventQueue<NetEvent> = EventQueue::new();
        let mut expect = Vec::new();
        for i in 0..120u64 {
            let src = NodeId((i % 4) as u32);
            let dst = NodeId(((i % 4 + 2) % 4) as u32); // always cross-leaf
            expect.push(fab.send_message(&mut q, (i % 8) as u32, src, dst, 3_000));
        }
        let notices = drain(&mut fab, &mut q, SimTime::from_secs(60));
        assert_eq!(delivered(&notices).len(), expect.len());
        assert!(fab.is_quiescent());
        assert!(fab.stats().backpressure_stalls > 0, "must have stalled");
    }

    proptest! {
        /// Conservation for arbitrary traffic matrices: every message
        /// submitted is delivered exactly once, every created packet is
        /// delivered, and the fabric ends quiescent.
        #[test]
        fn prop_traffic_conservation(
            msgs in proptest::collection::vec((0u32..4, 0u32..4, 0u64..20_000), 1..60)
        ) {
            let mut fab = Fabric::new(SwitchConfig::tiny_deterministic());
            let mut q: EventQueue<NetEvent> = EventQueue::new();
            for (i, (src, dst, bytes)) in msgs.iter().enumerate() {
                fab.send_message(&mut q, i as u32, NodeId(*src), NodeId(*dst), *bytes);
            }
            let notices = drain(&mut fab, &mut q, SimTime::from_secs(100));
            let delivered = notices
                .iter()
                .filter(|n| matches!(n, Notice::MessageDelivered { .. }))
                .count();
            let injected = notices
                .iter()
                .filter(|n| matches!(n, Notice::MessageInjected { .. }))
                .count();
            prop_assert_eq!(delivered, msgs.len());
            prop_assert_eq!(injected, msgs.len());
            prop_assert_eq!(fab.stats().packets_created, fab.stats().packets_delivered);
            prop_assert!(fab.is_quiescent());
        }

        /// The same conservation property over a fat tree.
        #[test]
        fn prop_fat_tree_conservation(
            msgs in proptest::collection::vec((0u32..6, 0u32..6, 0u64..10_000), 1..40)
        ) {
            let mut cfg = SwitchConfig::tiny_deterministic();
            cfg.topology = Topology::FatTree { leaves: 3, spines: 2 };
            cfg.nodes = 6;
            let mut fab = Fabric::new(cfg);
            let mut q: EventQueue<NetEvent> = EventQueue::new();
            for (i, (src, dst, bytes)) in msgs.iter().enumerate() {
                fab.send_message(&mut q, i as u32, NodeId(*src), NodeId(*dst), *bytes);
            }
            let notices = drain(&mut fab, &mut q, SimTime::from_secs(100));
            let delivered = notices
                .iter()
                .filter(|n| matches!(n, Notice::MessageDelivered { .. }))
                .count();
            prop_assert_eq!(delivered, msgs.len());
            prop_assert!(fab.is_quiescent());
        }

        /// The switch's served count equals remote packets created, for
        /// any remote-only traffic pattern.
        #[test]
        fn prop_switch_serves_every_remote_packet(
            msgs in proptest::collection::vec((0u32..4, 0u64..10_000), 1..40)
        ) {
            let mut fab = Fabric::new(SwitchConfig::tiny_deterministic());
            let mut q: EventQueue<NetEvent> = EventQueue::new();
            for (i, (src, bytes)) in msgs.iter().enumerate() {
                // Destination always differs from source: remote traffic.
                let dst = (*src + 1) % 4;
                fab.send_message(&mut q, i as u32, NodeId(*src), NodeId(dst), *bytes);
            }
            drain(&mut fab, &mut q, SimTime::from_secs(100));
            prop_assert_eq!(fab.switch_stats().served, fab.stats().packets_created);
        }
    }

    // ------------------------------------------------------------------
    // Per-message delivery.

    #[test]
    fn one_deliver_per_message_across_reordering_servers() {
        // Four routing servers with widely spread service times reorder a
        // message's packets; the mix adds an intra-node message and a
        // zero-byte one.
        use crate::service::ServiceDistribution;
        let mut cfg = SwitchConfig::tiny_deterministic();
        cfg.route_servers = 4;
        cfg.service = ServiceDistribution::Uniform {
            lo_ns: 100,
            hi_ns: 3_000,
        };
        let mix: Vec<(u32, u32, u64)> = (0..12u32)
            .map(|i| (i % 4, (i + 1 + i / 4) % 4, 3_000 + 1_000 * u64::from(i)))
            .chain([(2, 2, 5_000), (0, 3, 0)])
            .collect();
        let mut fab = Fabric::new(cfg.clone());
        let mut q: EventQueue<NetEvent> = EventQueue::new();
        // All in flight at once: the ids are the slots 0, 1, … in order.
        let packets: Vec<u64> = mix
            .iter()
            .enumerate()
            .map(|(i, &(src, dst, bytes))| {
                let id = fab.send_message(&mut q, i as u32, NodeId(src), NodeId(dst), bytes);
                assert_eq!(id, MessageId(i as u64));
                packet_count(bytes, cfg.mtu)
            })
            .collect();
        let mut routed = vec![0u64; mix.len()];
        let (mut reordered, mut delivers) = (0, 0);
        let mut out = Vec::new();
        let mut delivered = Vec::new();
        while let Some((t, ev)) = q.pop_until(SimTime::from_secs(1)) {
            match &ev {
                NetEvent::ServiceDone { packet, .. } => {
                    let n = &mut routed[packet.msg.0 as usize];
                    *n += 1;
                    if packet.last && *n < packets[packet.msg.0 as usize] {
                        reordered += 1;
                    }
                }
                NetEvent::Deliver { .. } => {
                    // The last packet of the message is still on its wire.
                    assert!(!fab.is_quiescent());
                    delivers += 1;
                }
                _ => {}
            }
            fab.handle(&mut q, ev, &mut out);
            for n in out.drain(..) {
                if let Notice::MessageDelivered { msg } = n {
                    delivered.push((msg.0, t.as_nanos()));
                }
            }
        }
        assert!(fab.is_quiescent());
        assert!(reordered > 0, "the routing stage must reorder some message");
        assert_eq!(delivers, mix.len());
        // Each message once, at the time a `Deliver` per packet gave it.
        assert_eq!(
            delivered,
            [
                (12, 1_300),
                (13, 8_166),
                (0, 9_086),
                (1, 14_404),
                (2, 20_730),
                (3, 23_608),
                (4, 25_750),
                (5, 30_777),
                (8, 34_172),
                (6, 35_021),
                (9, 37_805),
                (7, 40_111),
                (10, 41_847),
                (11, 42_481),
            ]
        );
        assert_eq!(q.events_processed(), 427);
    }

    // ------------------------------------------------------------------
    // The slot table.

    /// Sends `n` one-packet messages over `cfg`'s fabric, each as soon as
    /// the previous one is delivered (every tenth to its own node), and
    /// checks after every event that the fabric is quiescent exactly when
    /// no slot is live. Returns the most messages in flight at once.
    fn chain_messages(cfg: SwitchConfig, n: u32) -> usize {
        let nodes = cfg.nodes;
        let mut fab = Fabric::new(cfg);
        let mut q: EventQueue<NetEvent> = EventQueue::new();
        let send = |fab: &mut Fabric, q: &mut EventQueue<NetEvent>, i: u32| {
            let src = i % nodes;
            let dst = if i % 10 == 9 { src } else { (i + 1) % nodes };
            fab.send_message(q, src, NodeId(src), NodeId(dst), 512);
        };
        send(&mut fab, &mut q, 0);
        let (mut sent, mut delivered, mut most_live) = (1, 0, 0);
        let mut out = Vec::new();
        while let Some((_, ev)) = q.pop_until(SimTime::from_secs(1)) {
            most_live = most_live.max(fab.slots.live());
            fab.handle(&mut q, ev, &mut out);
            assert_eq!(fab.is_quiescent(), fab.slots.live() == 0);
            for notice in out.drain(..) {
                if let Notice::MessageDelivered { .. } = notice {
                    delivered += 1;
                    if sent < n {
                        send(&mut fab, &mut q, sent);
                        sent += 1;
                        assert!(!fab.is_quiescent());
                        most_live = most_live.max(fab.slots.live());
                    }
                }
            }
        }
        assert_eq!(delivered, n);
        assert!(fab.is_quiescent());
        assert!(
            fab.slots.slots.len() <= most_live,
            "{} slots for at most {most_live} messages in flight",
            fab.slots.slots.len()
        );
        most_live
    }

    #[test]
    fn chained_messages_recycle_their_slots() {
        assert_eq!(chain_messages(SwitchConfig::tiny_deterministic(), 1_000), 1);
        assert_eq!(chain_messages(tiny_fat_tree(), 1_000), 1);
        // With no local latency a local message's `Deliver` pops before
        // its `LocalInjectDone` at the same instant: a message sent in
        // between must take a second slot.
        let mut cfg = SwitchConfig::tiny_deterministic();
        cfg.local_latency = SimDuration::ZERO;
        assert_eq!(chain_messages(cfg, 1_000), 2);
    }
}
