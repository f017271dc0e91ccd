//! The building blocks every traffic walk runs per op: an application
//! generator serving its op stream, the packet count of each send, the
//! NIC cutting queued messages into packets, and collective lowering.
//!
//! `IterativeProgram` refills one buffer per iteration and serves it
//! through a cursor, so these tests check that the stream it serves is
//! exactly the concatenation of the iterations, with nothing left over
//! from a longer earlier iteration and the generator's RNG draws in
//! order. `packet_count` skips its division for single-packet messages,
//! so it is checked against the plain ceiling division at every edge.
//!
//! The NIC queues whole messages and cuts each packet when it transmits
//! it, and a collective is lowered through a cursor that holds one round
//! at a time. Each is checked against a test-local reference that builds
//! everything up front: a NIC whose queues hold packets, and the
//! collective lowerings written out as whole `Vec<Op>`s.

use std::collections::{BTreeMap, VecDeque};

use active_netprobe::simmpi::coll::{Lowering, ALLTOALL_WINDOW};
use active_netprobe::simmpi::{Ctx, Op, Program, Src};
use active_netprobe::simnet::nic::{Backlog, FlowId, Nic};
use active_netprobe::simnet::packet::packet_count;
use active_netprobe::simnet::{Message, MessageId, NodeId, Packet, SimDuration, SimTime};
use active_netprobe::workloads::apps::IterativeProgram;
use active_netprobe::workloads::RunMode;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0x5EED;

/// Op `j` of iteration `i`, carrying the generator's RNG draw for it.
fn op(i: u32, j: u32, draw: u64) -> Op {
    Op::Compute(SimDuration::from_nanos(
        u64::from(i) << 40 | u64::from(j) << 20 | draw,
    ))
}

/// A program whose iteration `i` emits `len(i)` ops, each drawing once
/// from the program's RNG.
fn program(mode: RunMode, len: impl Fn(u32) -> u32) -> impl Program {
    IterativeProgram::new("walk", SEED, mode, move |i, rng, ops| {
        for j in 0..len(i) {
            ops.push(op(i, j, rng.gen_range(0..1u64 << 20)));
        }
    })
}

/// The concatenation of iterations `0..iters` of [`program`], drawn
/// from a fresh RNG with the program's seed.
fn concatenation(iters: u32, len: impl Fn(u32) -> u32) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut ops = Vec::new();
    for i in 0..iters {
        for j in 0..len(i) {
            ops.push(op(i, j, rng.gen_range(0..1u64 << 20)));
        }
    }
    ops
}

fn take(p: &mut impl Program, n: usize) -> Vec<Op> {
    let ctx = Ctx { now: SimTime::ZERO };
    (0..n).map(|_| p.next_op(&ctx)).collect()
}

#[test]
fn iterations_mode_serves_the_concatenation_then_stops_forever() {
    for n in 0..24 {
        let growing = |i: u32| i + 1;
        let expected = concatenation(n, growing);
        let mut p = program(RunMode::Iterations(n), growing);
        assert_eq!(take(&mut p, expected.len()), expected, "{n} iterations");
        assert_eq!(take(&mut p, 5), vec![Op::Stop; 5], "{n} iterations");
    }
}

#[test]
fn endless_mode_serves_the_concatenation() {
    let growing = |i: u32| i + 1;
    let expected = concatenation(40, growing);
    let mut p = program(RunMode::Endless, growing);
    assert_eq!(take(&mut p, expected.len()), expected);
}

proptest! {
    /// Iterations of any lengths, shrinking ones included, come out
    /// whole and in order in both modes.
    #[test]
    fn any_iteration_lengths_come_out_whole(
        lens in collection::vec(1u32..9, 1..30),
        endless in 0u8..2,
    ) {
        let n = lens.len() as u32;
        let len = |i: u32| lens[i as usize % lens.len()];
        let expected = concatenation(n, len);
        if endless == 1 {
            let mut p = program(RunMode::Endless, len);
            prop_assert_eq!(take(&mut p, expected.len()), expected);
            // The stream wraps into iteration `n`, whose first op has
            // index 0 in it.
            let next = take(&mut p, 1)[0];
            let Op::Compute(d) = next else {
                return Err(TestCaseError::fail(format!("{next:?} after {n} iterations")));
            };
            prop_assert_eq!(d.as_nanos() >> 20, u64::from(n) << 20);
        } else {
            let mut p = program(RunMode::Iterations(n), len);
            prop_assert_eq!(take(&mut p, expected.len()), expected);
            prop_assert_eq!(take(&mut p, 3), vec![Op::Stop; 3]);
        }
    }
}

#[test]
#[should_panic(expected = "produced no ops")]
fn an_empty_iteration_panics() {
    // Two good iterations, then an empty one.
    let mut p = program(RunMode::Endless, |i| if i < 2 { 3 } else { 0 });
    take(&mut p, 7);
}

/// The plain ceiling division `packet_count` must agree with.
fn reference(bytes: u64, mtu: u64) -> u64 {
    bytes.div_ceil(mtu).max(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// `packet_count` is the ceiling division, with one packet for an
    /// empty message, around each MTU boundary and at the extremes.
    #[test]
    fn packet_count_is_the_ceiling_division(
        small_mtu in 1u64..10_000,
        any_mtu in 1u64..=u64::MAX,
        pick in 0u8..2,
        k in 0u64..1_000,
        raw in 0u64..=u64::MAX,
    ) {
        let mtu = if pick == 0 { small_mtu } else { any_mtu };
        let multiple = k.saturating_mul(mtu);
        let sizes = [
            0,
            1,
            mtu - 1,
            mtu,
            mtu.saturating_add(1),
            multiple,
            multiple.saturating_sub(1),
            multiple.saturating_add(1),
            raw % mtu.saturating_mul(16),
            raw,
            u64::MAX,
        ];
        for bytes in sizes {
            prop_assert_eq!(packet_count(bytes, mtu), reference(bytes, mtu));
        }
    }
}

/// A NIC as one whose per-flow queues hold packets: every packet of a
/// message is written out at enqueue, and the flows take turns packet
/// by packet.
#[derive(Default)]
struct PacketNic {
    flows: BTreeMap<FlowId, VecDeque<Packet>>,
    rr: VecDeque<FlowId>,
    queued: Backlog,
    peak: Backlog,
}

impl PacketNic {
    fn enqueue(&mut self, flow: FlowId, msg: Message, mtu: u64) {
        let count = msg.bytes.div_ceil(mtu).max(1);
        let q = self.flows.entry(flow).or_default();
        if q.is_empty() {
            self.rr.push_back(flow);
        }
        for i in 0..count {
            q.push_back(Packet {
                msg: msg.id,
                last: i + 1 == count,
                src: msg.src,
                dst: msg.dst,
                bytes: mtu.min(msg.bytes - i * mtu),
            });
        }
        self.queued.messages += 1;
        self.queued.packets += count as usize;
        self.peak.messages = self.peak.messages.max(self.queued.messages);
        self.peak.packets = self.peak.packets.max(self.queued.packets);
    }

    fn send(&mut self) -> Packet {
        let flow = self.rr.pop_front().unwrap();
        let q = self.flows.get_mut(&flow).unwrap();
        let pkt = q.pop_front().unwrap();
        if !q.is_empty() {
            self.rr.push_back(flow);
        }
        self.queued.packets -= 1;
        if pkt.last {
            self.queued.messages -= 1;
        }
        pkt
    }
}

/// Message sizes around the MTU's edges: 0, 1, mtu ± 1, mtu, k·mtu and
/// k·mtu ± 1, and any size up to 64 KB.
fn message_bytes(pick: u8, mtu: u64, k: u64, raw: u64) -> u64 {
    match pick {
        0 => 0,
        1 => 1,
        2 => mtu - 1,
        3 => mtu,
        4 => mtu + 1,
        5 => k * mtu - 1,
        6 => k * mtu,
        7 => k * mtu + 1,
        _ => raw,
    }
}

const LINE_RATE: u64 = 4_000_000_000;

proptest! {
    /// Enqueues interleaved with transmissions: the NIC that cuts at
    /// transmit sends exactly the packets, in exactly the order, of the
    /// NIC that cut at enqueue, and counts the same backlog throughout.
    #[test]
    fn nic_cuts_the_packets_a_packet_queue_would_send(
        mtu in 16u64..=4096,
        actions in collection::vec((0u8..13, 0u32..5, 2u64..=16, 0u64..=65_536), 1..80),
    ) {
        let mut nic = Nic::new(mtu);
        let mut reference = PacketNic::default();
        let transmit = |nic: &mut Nic, reference: &mut PacketNic| -> Result<(), TestCaseError> {
            let want = reference.send();
            let d = nic.start_tx(LINE_RATE);
            prop_assert_eq!(d, SimDuration::serialization(want.bytes, LINE_RATE));
            prop_assert_eq!(nic.tx_done(), want);
            Ok(())
        };
        for (i, &(what, flow, k, raw)) in actions.iter().enumerate() {
            if what < 4 {
                if nic.can_start() {
                    transmit(&mut nic, &mut reference)?;
                }
            } else {
                let msg = Message {
                    id: MessageId(i as u64),
                    src: NodeId(0),
                    dst: NodeId(1 + flow),
                    bytes: message_bytes(what - 4, mtu, k, raw),
                };
                nic.enqueue(flow, msg, packet_count(msg.bytes, mtu));
                reference.enqueue(flow, msg, mtu);
            }
            prop_assert_eq!(nic.backlog(), reference.queued.packets);
            prop_assert_eq!(nic.active_flows(), reference.rr.len());
        }
        while nic.can_start() {
            transmit(&mut nic, &mut reference)?;
        }
        prop_assert_eq!(reference.queued, Backlog::default());
        prop_assert_eq!(nic.backlog(), 0);
        prop_assert_eq!(nic.peak_backlog(), reference.peak);
    }
}

/// The collective lowerings written out whole, as `Vec<Op>`s: the
/// reference the cursor must serve op for op.
mod expand {
    use super::*;

    fn prev_power_of_two(n: u32) -> u32 {
        1 << (31 - n.leading_zeros())
    }

    pub fn allreduce(local: u32, n: u32, bytes: u64, tag_base: u32) -> Vec<Op> {
        if n == 1 {
            return Vec::new();
        }
        let t_main = tag_base;
        let t_post = tag_base + 1;
        let p2 = prev_power_of_two(n);
        let rem = n - p2;
        let mut ops = Vec::new();
        let new_id: Option<u32> = if local < 2 * rem {
            if local % 2 == 1 {
                ops.push(Op::Isend {
                    dst: local - 1,
                    bytes,
                    tag: t_main,
                });
                ops.push(Op::WaitAll);
                ops.push(Op::Irecv {
                    src: Src::Rank(local - 1),
                    tag: t_post,
                });
                ops.push(Op::WaitAll);
                None
            } else {
                ops.push(Op::Irecv {
                    src: Src::Rank(local + 1),
                    tag: t_main,
                });
                ops.push(Op::WaitAll);
                Some(local / 2)
            }
        } else {
            Some(local - rem)
        };
        if let Some(id) = new_id {
            let mut bit = 1u32;
            while bit < p2 {
                let partner_id = id ^ bit;
                let partner_local = if partner_id < rem {
                    2 * partner_id
                } else {
                    partner_id + rem
                };
                ops.push(Op::Irecv {
                    src: Src::Rank(partner_local),
                    tag: t_main,
                });
                ops.push(Op::Isend {
                    dst: partner_local,
                    bytes,
                    tag: t_main,
                });
                ops.push(Op::WaitAll);
                bit <<= 1;
            }
            if local < 2 * rem {
                ops.push(Op::Isend {
                    dst: local + 1,
                    bytes,
                    tag: t_post,
                });
                ops.push(Op::WaitAll);
            }
        }
        ops
    }

    pub fn barrier(local: u32, n: u32, tag_base: u32) -> Vec<Op> {
        allreduce(local, n, 8, tag_base)
    }

    pub fn alltoall(local: u32, n: u32, bytes_per_pair: u64, tag: u32) -> Vec<Op> {
        if n == 1 {
            return Vec::new();
        }
        let mut ops = Vec::new();
        let rounds: Vec<u32> = (1..n).collect();
        for window in rounds.chunks(ALLTOALL_WINDOW) {
            for &r in window {
                ops.push(Op::Irecv {
                    src: Src::Rank((local + n - r) % n),
                    tag,
                });
                ops.push(Op::Isend {
                    dst: (local + r) % n,
                    bytes: bytes_per_pair,
                    tag,
                });
            }
            ops.push(Op::WaitAll);
        }
        ops
    }

    pub fn bcast(local: u32, root: u32, n: u32, bytes: u64, tag: u32) -> Vec<Op> {
        if n == 1 {
            return Vec::new();
        }
        let vrank = (local + n - root) % n;
        let unvrank = |v: u32| (v + root) % n;
        let mut ops = Vec::new();
        let mut mask = 1u32;
        while mask < n {
            if vrank & mask != 0 {
                ops.push(Op::Irecv {
                    src: Src::Rank(unvrank(vrank - mask)),
                    tag,
                });
                ops.push(Op::WaitAll);
                break;
            }
            mask <<= 1;
        }
        let mut sends = 0;
        mask >>= 1;
        while mask > 0 {
            if vrank + mask < n {
                ops.push(Op::Isend {
                    dst: unvrank(vrank + mask),
                    bytes,
                    tag,
                });
                sends += 1;
            }
            mask >>= 1;
        }
        if sends > 0 {
            ops.push(Op::WaitAll);
        }
        ops
    }

    pub fn reduce(local: u32, root: u32, n: u32, bytes: u64, tag: u32) -> Vec<Op> {
        if n == 1 {
            return Vec::new();
        }
        let vrank = (local + n - root) % n;
        let unvrank = |v: u32| (v + root) % n;
        let mut ops = Vec::new();
        let mut mask = 1u32;
        while mask < n {
            if vrank & mask == 0 {
                let partner = vrank | mask;
                if partner < n {
                    ops.push(Op::Irecv {
                        src: Src::Rank(unvrank(partner)),
                        tag,
                    });
                    ops.push(Op::WaitAll);
                }
            } else {
                ops.push(Op::Isend {
                    dst: unvrank(vrank - mask),
                    bytes,
                    tag,
                });
                ops.push(Op::WaitAll);
                break;
            }
            mask <<= 1;
        }
        ops
    }

    pub fn allgather(local: u32, n: u32, bytes_per_rank: u64, tag: u32) -> Vec<Op> {
        if n == 1 {
            return Vec::new();
        }
        let succ = (local + 1) % n;
        let pred = (local + n - 1) % n;
        let mut ops = Vec::new();
        for _step in 1..n {
            ops.push(Op::Irecv {
                src: Src::Rank(pred),
                tag,
            });
            ops.push(Op::Isend {
                dst: succ,
                bytes: bytes_per_rank,
                tag,
            });
            ops.push(Op::WaitAll);
        }
        ops
    }
}

#[test]
fn the_lowering_cursor_serves_the_written_out_collectives() {
    const TAG: u32 = Op::RESERVED_TAG_BASE + 6;
    const BYTES: u64 = 3000;
    let check = |coll: Op, local: u32, n: u32, want: Vec<Op>| {
        let got: Vec<Op> = Lowering::new(coll, local, n, TAG).collect();
        assert_eq!(got, want, "{coll:?} for rank {local} of {n}");
    };
    for n in (1..=40).chain([144]) {
        for local in 0..n {
            check(Op::Barrier, local, n, expand::barrier(local, n, TAG));
            check(
                Op::Allreduce { bytes: BYTES },
                local,
                n,
                expand::allreduce(local, n, BYTES, TAG),
            );
            check(
                Op::Alltoall {
                    bytes_per_pair: BYTES,
                },
                local,
                n,
                expand::alltoall(local, n, BYTES, TAG),
            );
            check(
                Op::Allgather {
                    bytes_per_rank: BYTES,
                },
                local,
                n,
                expand::allgather(local, n, BYTES, TAG),
            );
            for root in 0..n {
                check(
                    Op::Bcast { root, bytes: BYTES },
                    local,
                    n,
                    expand::bcast(local, root, n, BYTES, TAG),
                );
                check(
                    Op::Reduce { root, bytes: BYTES },
                    local,
                    n,
                    expand::reduce(local, root, n, BYTES, TAG),
                );
            }
        }
    }
}
