//! Symbolic traffic extraction: walk a job's rank programs without a
//! simulator and tabulate the aggregate demand they would place on the
//! fabric.
//!
//! The walk drives each rank's [`anp_simmpi::Program`] to completion at frozen
//! simulated time, lowering collectives through the *same*
//! [`anp_simmpi::coll::Lowering`] the discrete-event world uses, so the
//! extracted byte/packet/round counts are exactly the counts the DES
//! would move — only the timing is left to the analytic model.

use anp_simmpi::coll::Lowering;
use anp_simmpi::{Ctx, Op};
use anp_simnet::packet::packet_count;
use anp_simnet::{NodeId, SimDuration, SimTime, SwitchConfig, Topology};
use anp_workloads::compressionb::CompressionConfig;
use anp_workloads::Members;

/// Cap on primitive operations walked per job: a runaway (or endless)
/// program is a caller bug, not something to spin on forever.
const OP_BUDGET: u64 = 200_000_000;

/// The per-socket CompressionB process count the DES experiments pin
/// (`experiments::impact_profile_of_compression` passes `per_node = 2`).
pub const COMPRESSION_PER_NODE: u32 = 2;

/// Aggregate network demand of one job, independent of time.
///
/// For a finite job the fields are run totals; for CompressionB (which
/// loops forever) they are per-iteration totals. Either way the analytic
/// model only ever divides them by the job's (solved) duration to obtain
/// rates, so the distinction never leaks further.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficDescriptor {
    /// Job label for diagnostics.
    pub label: String,
    /// Rank count.
    pub ranks: u32,
    /// Critical-path proxy for CPU time: the maximum per-rank total of
    /// `Compute` and `Sleep` spans, in nanoseconds.
    pub compute_ns: f64,
    /// Latency-chained synchronization rounds: the maximum per-rank count
    /// of `WaitAll`s that had at least one request outstanding. Each costs
    /// at least one one-way network latency that cannot be pipelined away.
    pub rounds: f64,
    /// Inter-node messages sent by all ranks.
    pub remote_msgs: f64,
    /// Inter-node payload bytes sent by all ranks.
    pub remote_bytes: f64,
    /// MTU-segmented packets those messages become.
    pub remote_packets: f64,
    /// Of [`TrafficDescriptor::remote_packets`], how many cross a fat-tree
    /// leaf boundary (zero on a single switch). Cross-leaf packets
    /// traverse three switches instead of one.
    pub cross_leaf_packets: f64,
    /// Intra-node payload bytes (never touch the switch).
    pub local_bytes: f64,
    /// Largest per-node total of transmitted remote bytes.
    pub max_node_tx_bytes: f64,
    /// Largest per-node total of received remote bytes.
    pub max_node_rx_bytes: f64,
    /// Largest per-node count of *distinct* remote destination nodes.
    /// Governs how many independent source flows interleave at a busy
    /// egress port (more interleaved flows → deeper burst queues).
    pub peers: f64,
}

impl TrafficDescriptor {
    /// True if the job never touches the network.
    pub fn is_network_idle(&self) -> bool {
        self.remote_packets == 0.0
    }

    /// Mean bytes per remote packet (falls back to the probe-sized 1 KB
    /// packet when the job sends nothing).
    pub fn avg_packet_bytes(&self) -> f64 {
        if self.remote_packets > 0.0 {
            self.remote_bytes / self.remote_packets
        } else {
            1024.0
        }
    }

    /// Mean switch traversals per remote packet: 1, plus 2 more for the
    /// cross-leaf fraction.
    pub fn avg_traversals(&self) -> f64 {
        if self.remote_packets > 0.0 {
            1.0 + 2.0 * self.cross_leaf_packets / self.remote_packets
        } else {
            1.0
        }
    }
}

/// Which leaf switch a node hangs off (0 on a single switch).
fn leaf_of(net: &SwitchConfig, node: NodeId) -> u32 {
    match net.topology {
        Topology::SingleSwitch => 0,
        Topology::FatTree { leaves, .. } => node.0 / (net.nodes / leaves),
    }
}

/// Every integer up to 2^53 is an `f64`, so a running `f64` sum of
/// integers is exact while it stays at or below this bound. The walk
/// keeps its totals in `u64` under the bound and converts each once at
/// the end, which yields the very bits a running `f64` sum would.
const F64_EXACT_MAX: u64 = 1 << 53;

/// Adds `x` to the total `acc`, enforcing [`F64_EXACT_MAX`].
fn add_exact(acc: &mut u64, x: u64) {
    *acc = acc.saturating_add(x);
    // anp-lint: allow(D003) — documented "# Panics" contract: past 2^53 the descriptor's f64 fields could no longer hold the total exactly
    assert!(
        *acc <= F64_EXACT_MAX,
        "traffic extraction total exceeds 2^53 and would round in f64"
    );
}

/// Exact integer totals of the messages some span of a walk sent.
#[derive(Debug, Clone, Default)]
struct Sends {
    remote_msgs: u64,
    remote_bytes: u64,
    remote_packets: u64,
    cross_leaf_packets: u64,
    local_bytes: u64,
}

impl Sends {
    fn absorb(&mut self, other: &Sends) {
        add_exact(&mut self.remote_msgs, other.remote_msgs);
        add_exact(&mut self.remote_bytes, other.remote_bytes);
        add_exact(&mut self.remote_packets, other.remote_packets);
        add_exact(&mut self.cross_leaf_packets, other.cross_leaf_packets);
        add_exact(&mut self.local_bytes, other.local_bytes);
    }
}

/// A rank's latency-chained rounds so far, and whether it has a request
/// outstanding.
#[derive(Debug, Clone, Copy, Default)]
struct Sync {
    rounds: u64,
    pending: bool,
}

impl Sync {
    fn post(&mut self) {
        self.pending = true;
    }

    fn wait(&mut self) {
        if self.pending {
            self.rounds += 1;
            self.pending = false;
        }
    }
}

/// Where a job's ranks sit: everything a send consults, plus the flat
/// `nodes × nodes` bitmap of remote destinations seen per source node.
struct Layout {
    mtu: u64,
    node_of_rank: Vec<usize>,
    leaf_of_node: Vec<u32>,
    words_per_row: usize,
    peers: Vec<u64>,
}

impl Layout {
    /// Tallies one `Isend` from node `src` to rank `dst` into `sends`
    /// and, if it leaves the node, its bytes into `rx` (per destination
    /// node). `rx` needs no bound check: its entries sum to
    /// `sends.remote_bytes`, which has one.
    fn send(&mut self, src: usize, dst: u32, bytes: u64, sends: &mut Sends, rx: &mut [u64]) {
        let dst_node = self.node_of_rank[dst as usize];
        if dst_node == src {
            add_exact(&mut sends.local_bytes, bytes);
            return;
        }
        let pkts = packet_count(bytes, self.mtu);
        add_exact(&mut sends.remote_msgs, 1);
        add_exact(&mut sends.remote_bytes, bytes);
        add_exact(&mut sends.remote_packets, pkts);
        if self.leaf_of_node[src] != self.leaf_of_node[dst_node] {
            add_exact(&mut sends.cross_leaf_packets, pkts);
        }
        rx[dst_node] += bytes;
        self.peers[src * self.words_per_row + dst_node / 64] |= 1 << (dst_node % 64);
    }

    /// Largest number of distinct remote destination nodes of any node.
    fn max_peers(&self) -> u32 {
        self.peers
            .chunks(self.words_per_row.max(1))
            .map(|row| row.iter().map(|w| w.count_ones()).sum())
            .max()
            .unwrap_or(0)
    }
}

/// What one collective, as issued by one rank, adds to the walk: folded
/// once from its DES lowering, then applied at every repeat.
struct Tally {
    /// Ops the collective expands to, charged to the budget at every
    /// repeat as if walked.
    expanded_ops: u64,
    sends: Sends,
    /// Remote bytes received, per destination node (non-zero only).
    rx: Vec<(usize, u64)>,
    /// Rounds added and pending state on exit, indexed by `pending` on
    /// entry.
    sync: [Sync; 2],
}

impl Tally {
    /// Lowers `coll` for rank `local` of `n` on node `src` through the
    /// same [`Lowering`] the DES uses and folds the result. The first
    /// fold also marks the collective's peers in `layout`; repeats would
    /// mark the same bits again.
    fn fold(layout: &mut Layout, src: usize, local: u32, n: u32, coll: Op) -> Tally {
        let mut expanded_ops = 0;
        let mut sends = Sends::default();
        let mut rx = vec![0u64; layout.leaf_of_node.len()];
        let mut sync = [
            Sync::default(),
            Sync {
                rounds: 0,
                pending: true,
            },
        ];
        for op in Lowering::new(coll, local, n, Op::RESERVED_TAG_BASE) {
            expanded_ops += 1;
            match op {
                Op::Isend { dst, bytes, .. } => {
                    layout.send(src, dst, bytes, &mut sends, &mut rx);
                    sync.iter_mut().for_each(Sync::post);
                }
                Op::Irecv { .. } => sync.iter_mut().for_each(Sync::post),
                Op::WaitAll => sync.iter_mut().for_each(Sync::wait),
                other => unreachable!("collective lowering emitted {other:?}"),
            }
        }
        Tally {
            expanded_ops,
            sends,
            rx: rx
                .into_iter()
                .enumerate()
                .filter(|&(_, bytes)| bytes > 0)
                .collect(),
            sync,
        }
    }
}

/// Walks every rank of `members` to completion and tabulates its traffic.
///
/// Each collective is lowered through the DES's own expansion the first
/// time a rank issues it and folded into a per-rank memo; repeats apply
/// the memo. Totals accumulate as exact integers.
///
/// # Panics
/// Panics if a rank issues more than an internal budget of operations —
/// endless programs must not be walked directly (CompressionB has the
/// closed-form [`describe_compression`] instead). A memoized collective
/// is charged every op of its expansion, as if walked. Also panics if a
/// total exceeds 2^53, beyond which `f64` fields cannot hold it exactly.
pub fn describe_members(
    label: &str,
    mut members: Members,
    net: &SwitchConfig,
) -> TrafficDescriptor {
    let n = members.len() as u32;
    let nodes = net.nodes as usize;
    let words_per_row = nodes.div_ceil(64);
    let mut layout = Layout {
        mtu: net.mtu,
        node_of_rank: members.iter().map(|(_, node)| node.0 as usize).collect(),
        leaf_of_node: (0..net.nodes).map(|i| leaf_of(net, NodeId(i))).collect(),
        words_per_row,
        peers: vec![0; nodes * words_per_row],
    };
    let mut sends = Sends::default();
    let mut tx = vec![0u64; nodes];
    let mut rx = vec![0u64; nodes];
    let mut max_compute = 0u64;
    let mut max_rounds = 0u64;
    let ctx = Ctx { now: SimTime::ZERO };
    let mut budget = OP_BUDGET;
    let mut charge = |ops: u64| {
        // anp-lint: allow(D003) — documented "# Panics" contract: an endless program is a caller bug the walk must not mask
        assert!(
            budget >= ops,
            "traffic extraction for '{label}' exceeded {OP_BUDGET} ops \
             (is the program endless?)"
        );
        budget -= ops;
    };
    for (local, (prog, src_node)) in members.iter_mut().enumerate() {
        let src = src_node.0 as usize;
        let remote_bytes_before = sends.remote_bytes;
        let mut compute = 0u64;
        let mut sync = Sync::default();
        let mut memo: Vec<(Op, Tally)> = Vec::new();
        loop {
            let op = prog.next_op(&ctx);
            charge(1);
            match op {
                Op::Stop => break,
                Op::Compute(t) | Op::Sleep(t) => add_exact(&mut compute, t.as_nanos()),
                Op::Irecv { .. } => sync.post(),
                Op::WaitAll => sync.wait(),
                Op::Isend { dst, bytes, .. } => {
                    sync.post();
                    layout.send(src, dst, bytes, &mut sends, &mut rx);
                }
                Op::Barrier
                | Op::Allreduce { .. }
                | Op::Alltoall { .. }
                | Op::Bcast { .. }
                | Op::Reduce { .. }
                | Op::Allgather { .. } => {
                    let i = match memo.iter().position(|(seen, _)| *seen == op) {
                        Some(i) => i,
                        None => {
                            let tally = Tally::fold(&mut layout, src, local as u32, n, op);
                            memo.push((op, tally));
                            memo.len() - 1
                        }
                    };
                    let tally = &memo[i].1;
                    charge(tally.expanded_ops);
                    sends.absorb(&tally.sends);
                    for &(node, bytes) in &tally.rx {
                        rx[node] += bytes;
                    }
                    let exit = tally.sync[usize::from(sync.pending)];
                    sync.rounds += exit.rounds;
                    sync.pending = exit.pending;
                }
            }
        }
        add_exact(&mut tx[src], sends.remote_bytes - remote_bytes_before);
        max_compute = max_compute.max(compute);
        max_rounds = max_rounds.max(sync.rounds);
    }
    TrafficDescriptor {
        label: label.to_owned(),
        ranks: n,
        compute_ns: max_compute as f64,
        rounds: max_rounds as f64,
        remote_msgs: sends.remote_msgs as f64,
        remote_bytes: sends.remote_bytes as f64,
        remote_packets: sends.remote_packets as f64,
        cross_leaf_packets: sends.cross_leaf_packets as f64,
        local_bytes: sends.local_bytes as f64,
        max_node_tx_bytes: tx.iter().copied().max().unwrap_or(0) as f64,
        max_node_rx_bytes: rx.iter().copied().max().unwrap_or(0) as f64,
        peers: f64::from(layout.max_peers()),
    }
}

/// Closed-form per-iteration descriptor of the CompressionB interferer
/// (Fig. 5): `COMPRESSION_PER_NODE` ranks per node, each sending
/// `partners × messages` payloads of `msg_bytes` along the node ring
/// (always inter-node), sleeping `partners × bubble_cycles` cycles, and
/// closing the iteration with one `WaitAll`.
pub fn describe_compression(comp: &CompressionConfig, net: &SwitchConfig) -> TrafficDescriptor {
    let nodes = u64::from(net.nodes);
    let per_node = u64::from(COMPRESSION_PER_NODE);
    let ranks = nodes * per_node;
    let p = u64::from(comp.partners);
    let m = u64::from(comp.messages);
    let pkts_per_msg = packet_count(comp.msg_bytes, net.mtu);

    // Ring distances 1..=P from every node; count the fat-tree
    // leaf-crossing fraction exactly.
    let mut remote_pairs = 0u64;
    let mut cross_pairs = 0u64;
    for i in 0..nodes {
        for dist in 1..=p {
            let dst = (i + nodes - dist % nodes) % nodes;
            if dst == i {
                continue;
            }
            remote_pairs += 1;
            let (src_n, dst_n) = (NodeId(i as u32), NodeId(dst as u32));
            if leaf_of(net, src_n) != leaf_of(net, dst_n) {
                cross_pairs += 1;
            }
        }
    }
    let msgs = (remote_pairs * per_node * m) as f64;
    let bubble = SimDuration::from_cycles(comp.bubble_cycles, net.cpu_hz).as_nanos() as f64;
    TrafficDescriptor {
        label: format!("compressionb-{}", comp.label()),
        ranks: ranks as u32,
        compute_ns: p as f64 * bubble,
        rounds: 1.0,
        remote_msgs: msgs,
        remote_bytes: msgs * comp.msg_bytes as f64,
        remote_packets: msgs * pkts_per_msg as f64,
        cross_leaf_packets: (cross_pairs * per_node * m * pkts_per_msg) as f64,
        local_bytes: 0.0,
        max_node_tx_bytes: (per_node * p * m * comp.msg_bytes) as f64,
        max_node_rx_bytes: (per_node * p * m * comp.msg_bytes) as f64,
        peers: p.min(nodes - 1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anp_simmpi::{Program, Scripted, Src};
    use anp_simnet::SwitchConfig;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The direct walk: every collective re-lowered at every call, every
    /// total a running `f64` sum. The oracle the memoized walk must match
    /// bit for bit.
    fn reference_walk(label: &str, mut members: Members, net: &SwitchConfig) -> TrafficDescriptor {
        let n = members.len() as u32;
        let nodes_of: Vec<NodeId> = members.iter().map(|(_, node)| *node).collect();
        let mut tx = vec![0.0f64; net.nodes as usize];
        let mut rx = vec![0.0f64; net.nodes as usize];
        let mut dsts: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); net.nodes as usize];
        let mut d = TrafficDescriptor {
            label: label.to_owned(),
            ranks: n,
            compute_ns: 0.0,
            rounds: 0.0,
            remote_msgs: 0.0,
            remote_bytes: 0.0,
            remote_packets: 0.0,
            cross_leaf_packets: 0.0,
            local_bytes: 0.0,
            max_node_tx_bytes: 0.0,
            max_node_rx_bytes: 0.0,
            peers: 0.0,
        };
        let ctx = Ctx { now: SimTime::ZERO };
        let mut budget = OP_BUDGET;
        for (local, (prog, src_node)) in members.iter_mut().enumerate() {
            let local_u = local as u32;
            let src_node = *src_node;
            let mut compute = 0.0f64;
            let mut rounds = 0u64;
            let mut pending = false;
            let mut lowering = Lowering::default();
            loop {
                let op = match lowering.next() {
                    Some(op) => op,
                    None => prog.next_op(&ctx),
                };
                assert!(
                    budget > 0,
                    "traffic extraction for '{label}' exceeded {OP_BUDGET} ops \
                     (is the program endless?)"
                );
                budget -= 1;
                match op {
                    Op::Stop => break,
                    Op::Compute(t) | Op::Sleep(t) => compute += t.as_nanos() as f64,
                    Op::Irecv { .. } => pending = true,
                    Op::WaitAll => {
                        if pending {
                            rounds += 1;
                            pending = false;
                        }
                    }
                    Op::Isend { dst, bytes, .. } => {
                        pending = true;
                        let dst_node = nodes_of[dst as usize];
                        if dst_node == src_node {
                            d.local_bytes += bytes as f64;
                        } else {
                            let pkts = packet_count(bytes, net.mtu) as f64;
                            d.remote_msgs += 1.0;
                            d.remote_bytes += bytes as f64;
                            d.remote_packets += pkts;
                            tx[src_node.0 as usize] += bytes as f64;
                            rx[dst_node.0 as usize] += bytes as f64;
                            dsts[src_node.0 as usize].insert(dst_node.0);
                            if leaf_of(net, src_node) != leaf_of(net, dst_node) {
                                d.cross_leaf_packets += pkts;
                            }
                        }
                    }
                    coll @ (Op::Barrier
                    | Op::Allreduce { .. }
                    | Op::Alltoall { .. }
                    | Op::Bcast { .. }
                    | Op::Reduce { .. }
                    | Op::Allgather { .. }) => {
                        lowering = Lowering::new(coll, local_u, n, Op::RESERVED_TAG_BASE);
                    }
                }
            }
            d.compute_ns = d.compute_ns.max(compute);
            d.rounds = d.rounds.max(rounds as f64);
        }
        d.max_node_tx_bytes = tx.iter().copied().fold(0.0, f64::max);
        d.max_node_rx_bytes = rx.iter().copied().fold(0.0, f64::max);
        d.peers = dsts.iter().map(BTreeSet::len).max().unwrap_or(0) as f64;
        d
    }

    fn net() -> SwitchConfig {
        SwitchConfig::tiny_deterministic()
    }

    fn member(ops: Vec<Op>, node: u32) -> (Box<dyn Program>, NodeId) {
        (Box::new(Scripted::new(ops)), NodeId(node))
    }

    #[test]
    fn point_to_point_tallies_bytes_packets_rounds() {
        let cfg = net();
        // Rank 0 on node 0 sends 5000 B to rank 1 on node 1 (MTU 1024 →
        // 5 packets) and waits; rank 1 receives.
        let members: Members = vec![
            member(
                vec![
                    Op::Compute(SimDuration::from_nanos(700)),
                    Op::Isend {
                        dst: 1,
                        bytes: 5000,
                        tag: 1,
                    },
                    Op::WaitAll,
                ],
                0,
            ),
            member(
                vec![
                    Op::Irecv {
                        src: anp_simmpi::Src::Rank(0),
                        tag: 1,
                    },
                    Op::WaitAll,
                ],
                1,
            ),
        ];
        let d = describe_members("t", members, &cfg);
        assert_eq!(d.ranks, 2);
        assert_eq!(d.remote_msgs, 1.0);
        assert_eq!(d.remote_bytes, 5000.0);
        assert_eq!(d.remote_packets, 5.0);
        assert_eq!(d.rounds, 1.0, "both ranks sync once");
        assert_eq!(d.compute_ns, 700.0);
        assert_eq!(d.max_node_tx_bytes, 5000.0);
        assert_eq!(d.max_node_rx_bytes, 5000.0);
        assert_eq!(d.cross_leaf_packets, 0.0, "single switch");
        assert_eq!(d.peers, 1.0, "node 0 targets one remote node");
    }

    #[test]
    fn local_messages_bypass_the_network() {
        let cfg = net();
        let members: Members = vec![
            member(
                vec![
                    Op::Isend {
                        dst: 1,
                        bytes: 2048,
                        tag: 1,
                    },
                    Op::WaitAll,
                ],
                0,
            ),
            member(
                vec![
                    Op::Irecv {
                        src: anp_simmpi::Src::Any,
                        tag: 1,
                    },
                    Op::WaitAll,
                ],
                0,
            ),
        ];
        let d = describe_members("t", members, &cfg);
        assert!(d.is_network_idle());
        assert_eq!(d.local_bytes, 2048.0);
        assert_eq!(d.max_node_tx_bytes, 0.0);
    }

    #[test]
    fn collectives_expand_to_des_identical_counts() {
        let cfg = net();
        // A 4-rank barrier on 4 nodes: recursive doubling = 2 rounds of
        // 8-byte exchanges per rank → 8 remote messages total.
        let members: Members = (0..4).map(|r| member(vec![Op::Barrier], r)).collect();
        let d = describe_members("barrier", members, &cfg);
        assert_eq!(d.remote_msgs, 8.0);
        assert_eq!(d.remote_bytes, 64.0);
        assert_eq!(d.rounds, 2.0, "log2(4) latency-chained rounds");
    }

    #[test]
    fn empty_waitall_is_not_a_round() {
        let cfg = net();
        let members: Members = vec![member(vec![Op::WaitAll, Op::WaitAll], 0)];
        let d = describe_members("idle", members, &cfg);
        assert_eq!(d.rounds, 0.0);
    }

    #[test]
    fn compression_descriptor_matches_figure_5_arithmetic() {
        let cfg = net(); // 4 nodes, MTU 1024
        let comp = CompressionConfig::new(2, 1_000_000, 3);
        let d = describe_compression(&comp, &cfg);
        // 8 ranks × (2 partners × 3 messages) × 40960 B, all remote.
        assert_eq!(d.ranks, 8);
        assert_eq!(d.remote_msgs, 48.0);
        assert_eq!(d.remote_bytes, 48.0 * 40_960.0);
        assert_eq!(d.remote_packets, 1920.0, "40960 B = 40 packets at MTU 1024");
        assert_eq!(d.max_node_tx_bytes, 2.0 * 6.0 * 40_960.0);
        assert_eq!(d.max_node_rx_bytes, d.max_node_tx_bytes);
        assert_eq!(d.rounds, 1.0);
        assert_eq!(d.peers, 2.0, "ring distances 1..=2 on 4 nodes");
        // 2 partners × 1 M cycles at the tiny preset's clock.
        let bubble = SimDuration::from_cycles(1_000_000, cfg.cpu_hz).as_nanos() as f64;
        assert!((d.compute_ns - 2.0 * bubble).abs() < 1e-9);
    }

    #[test]
    fn cross_leaf_fraction_counts_fat_tree_hops() {
        let mut cfg = net();
        cfg.topology = Topology::FatTree {
            leaves: 2,
            spines: 1,
        };
        // 4 nodes on 2 leaves: nodes {0,1} and {2,3}. Ring distance 1
        // crosses a leaf for 0→3 and 2→1 (2 of 4 pairs).
        let comp = CompressionConfig::new(1, 1_000, 1);
        let d = describe_compression(&comp, &cfg);
        assert_eq!(d.cross_leaf_packets / d.remote_packets, 0.5);
        assert!(d.avg_traversals() > 1.0);
    }

    /// Every field of `d`, floats as their bit patterns.
    fn bits(d: &TrafficDescriptor) -> (String, u32, [u64; 10]) {
        let f = [
            d.compute_ns,
            d.rounds,
            d.remote_msgs,
            d.remote_bytes,
            d.remote_packets,
            d.cross_leaf_packets,
            d.local_bytes,
            d.max_node_tx_bytes,
            d.max_node_rx_bytes,
            d.peers,
        ];
        (d.label.clone(), d.ranks, f.map(f64::to_bits))
    }

    fn scripted(scripts: &[Vec<Op>], nodes: &[u32]) -> Members {
        scripts
            .iter()
            .zip(nodes)
            .map(|(ops, &node)| member(ops.clone(), node))
            .collect()
    }

    /// Payload sizes around the tiny preset's 1024-byte MTU, including
    /// the zero-byte message that still costs one packet.
    const SIZES: [u64; 7] = [0, 1, 8, 1024, 1025, 5000, 65_536];

    /// Decodes one generated `(kind, rank, size)` triple into an op of a
    /// job of `n` ranks. Sizes and roots come from small sets, so a rank
    /// often repeats a collective exactly and exercises its memo.
    fn decode(n: u32, (kind, rank, size): (u32, u32, usize)) -> Op {
        let peer = rank % n;
        let bytes = SIZES[size];
        match kind {
            0 => Op::Isend {
                dst: peer,
                bytes,
                tag: 1,
            },
            1 => Op::Irecv {
                src: Src::Rank(peer),
                tag: 1,
            },
            2 => Op::WaitAll,
            3 => Op::Compute(SimDuration::from_nanos(bytes * 3 + 7)),
            4 => Op::Sleep(SimDuration::from_nanos(bytes + 1)),
            5 => Op::Barrier,
            6 => Op::Allreduce { bytes },
            7 => Op::Alltoall {
                bytes_per_pair: bytes,
            },
            8 => Op::Bcast { root: peer, bytes },
            9 => Op::Reduce { root: peer, bytes },
            _ => Op::Allgather {
                bytes_per_rank: bytes,
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]
        #[test]
        fn memoized_walk_matches_the_reference_bit_for_bit(
            n in 1u32..=9,
            fat_tree in 0u32..2,
            nodes in proptest::collection::vec(0u32..4, 9),
            raw in proptest::collection::vec(
                proptest::collection::vec((0u32..11, 0u32..9, 0usize..SIZES.len()), 0..24),
                9,
            ),
        ) {
            let mut cfg = net();
            if fat_tree == 1 {
                cfg.topology = Topology::FatTree { leaves: 2, spines: 1 };
            }
            let scripts: Vec<Vec<Op>> = raw[..n as usize]
                .iter()
                .map(|ops| ops.iter().map(|&op| decode(n, op)).collect())
                .collect();
            let nodes = &nodes[..n as usize];
            let fast = describe_members("p", scripted(&scripts, nodes), &cfg);
            let slow = reference_walk("p", scripted(&scripts, nodes), &cfg);
            prop_assert_eq!(bits(&fast), bits(&slow));
        }
    }

    #[test]
    fn collective_entered_with_a_request_outstanding_matches_the_reference() {
        let mut cfg = net();
        cfg.topology = Topology::FatTree {
            leaves: 2,
            spines: 1,
        };
        // Five ranks on four nodes (ranks 3 and 4 share node 3). Rank 0
        // enters the same allreduce twice, once with an Irecv still
        // outstanding and once after a WaitAll cleared it: the memo must
        // apply the right entry state each time.
        let allreduce = Op::Allreduce { bytes: 5000 };
        let rank0 = vec![
            Op::Irecv {
                src: Src::Rank(1),
                tag: 1,
            },
            allreduce,
            Op::WaitAll,
            allreduce,
            Op::Isend {
                dst: 2,
                bytes: 10,
                tag: 1,
            },
            Op::Alltoall {
                bytes_per_pair: 3000,
            },
            allreduce,
        ];
        let others = vec![
            allreduce,
            allreduce,
            Op::Alltoall {
                bytes_per_pair: 3000,
            },
            allreduce,
        ];
        let mut scripts = vec![rank0];
        scripts.extend(std::iter::repeat_n(others, 4));
        let nodes = [0, 1, 2, 3, 3];
        let fast = describe_members("pending", scripted(&scripts, &nodes), &cfg);
        let slow = reference_walk("pending", scripted(&scripts, &nodes), &cfg);
        assert_eq!(bits(&fast), bits(&slow));
        assert!(fast.local_bytes > 0.0, "co-located ranks exchange locally");
        assert!(
            fast.cross_leaf_packets > 0.0,
            "fat tree sees cross-leaf traffic"
        );
    }

    /// A program that issues the same op forever, and fails the test
    /// with its own message once called `limit` times.
    struct Forever {
        op: Op,
        calls: u64,
        limit: u64,
    }

    impl Program for Forever {
        fn next_op(&mut self, _ctx: &Ctx) -> Op {
            self.calls += 1;
            assert!(self.calls <= self.limit, "walk outran its op budget");
            self.op
        }
    }

    #[test]
    #[should_panic(expected = "exceeded")]
    fn memoized_collectives_are_charged_to_the_op_budget() {
        // A 128-rank all-to-all expands to over 254 ops, so charging each
        // repeat its full expansion trips the budget within
        // OP_BUDGET / 255 repeats. Charging only the collective itself
        // would let the walk reach the program's own limit first.
        let endless = Forever {
            op: Op::Alltoall {
                bytes_per_pair: 4096,
            },
            calls: 0,
            limit: OP_BUDGET / 128,
        };
        let mut members: Members = vec![(Box::new(endless), NodeId(0))];
        members.extend((1..128).map(|r| member(Vec::new(), r % 4)));
        describe_members("endless", members, &net());
    }
}
