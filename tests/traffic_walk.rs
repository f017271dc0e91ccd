//! The two building blocks every traffic walk runs per op: an
//! application generator serving its op stream, and the packet count of
//! each send.
//!
//! `IterativeProgram` refills one buffer per iteration and serves it
//! through a cursor, so these tests check that the stream it serves is
//! exactly the concatenation of the iterations, with nothing left over
//! from a longer earlier iteration and the generator's RNG draws in
//! order. `packet_count` skips its division for single-packet messages,
//! so it is checked against the plain ceiling division at every edge.

use active_netprobe::simmpi::{Ctx, Op, Program};
use active_netprobe::simnet::packet::packet_count;
use active_netprobe::simnet::{SimDuration, SimTime};
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
