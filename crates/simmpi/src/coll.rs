//! Collective lowering: barrier / allreduce / alltoall expanded into
//! point-to-point operation sequences.
//!
//! Collectives are not magic in this simulator — they are rewritten into
//! the same `Isend`/`Irecv`/`WaitAll` alphabet ranks already execute, so
//! their packets load the switch exactly like application point-to-point
//! traffic. Allreduce (and barrier, which is an 8-byte allreduce) uses the
//! classic recursive-doubling algorithm with the MPICH-style fold for
//! non-power-of-two rank counts; alltoall uses windowed pairwise exchange.

use crate::op::{Op, Src};

/// How many pairwise-exchange rounds an alltoall keeps in flight at once.
/// One round in flight makes the exchange latency-chained, like the
/// synchronous pairwise algorithms real MPI stacks pick for small
/// payloads — which is exactly the regime the paper's FFTW/VPFFT
/// sensitivity comes from.
pub const ALLTOALL_WINDOW: usize = 1;

/// Expands an allreduce of `bytes` for job-local rank `local` out of `n`.
///
/// `tag_base` must provide two consecutive free tags (`tag_base`,
/// `tag_base + 1`).
///
/// ```
/// use anp_simmpi::coll::expand_allreduce;
/// use anp_simmpi::Op;
///
/// // Rank 0 of a 4-rank job: pure recursive doubling, log2(4) = 2 rounds.
/// let ops = expand_allreduce(0, 4, 1024, 100);
/// let sends = ops.iter().filter(|o| matches!(o, Op::Isend { .. })).count();
/// assert_eq!(sends, 2);
/// // A single-rank job needs no communication at all.
/// assert!(expand_allreduce(0, 1, 1024, 100).is_empty());
/// ```
pub fn expand_allreduce(local: u32, n: u32, bytes: u64, tag_base: u32) -> Vec<Op> {
    // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
    assert!(local < n, "rank {local} out of job of size {n}");
    if n == 1 {
        return Vec::new();
    }
    let t_main = tag_base;
    let t_post = tag_base + 1;
    let p2 = prev_power_of_two(n);
    let rem = n - p2;
    let mut ops = Vec::new();

    // Fold phase: the first 2*rem ranks collapse pairwise so that a
    // power-of-two set remains active.
    let new_id: Option<u32> = if local < 2 * rem {
        if local % 2 == 1 {
            // Odd ranks hand their contribution to the left neighbour and
            // sit out; they get the result back in the unfold phase.
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

    // Recursive doubling among the p2 active ranks.
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
        // Unfold phase: hand the result back to the folded-out neighbour.
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

/// Expands a barrier: an allreduce of a token-sized payload.
pub fn expand_barrier(local: u32, n: u32, tag_base: u32) -> Vec<Op> {
    expand_allreduce(local, n, 8, tag_base)
}

/// Expands a personalized all-to-all: `n - 1` pairwise-exchange rounds
/// (round `r` sends to `local + r`, receives from `local - r`, mod `n`),
/// windowed [`ALLTOALL_WINDOW`] rounds at a time. The self-"exchange" is a
/// local copy and costs nothing on the network.
pub fn expand_alltoall(local: u32, n: u32, bytes_per_pair: u64, tag_base: u32) -> Vec<Op> {
    // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
    assert!(local < n, "rank {local} out of job of size {n}");
    if n == 1 {
        return Vec::new();
    }
    let tag = tag_base;
    let mut ops = Vec::new();
    let rounds: Vec<u32> = (1..n).collect();
    for window in rounds.chunks(ALLTOALL_WINDOW) {
        for &r in window {
            let dst = (local + r) % n;
            let src = (local + n - r) % n;
            ops.push(Op::Irecv {
                src: Src::Rank(src),
                tag,
            });
            ops.push(Op::Isend {
                dst,
                bytes: bytes_per_pair,
                tag,
            });
        }
        ops.push(Op::WaitAll);
    }
    ops
}

/// Expands a binomial-tree broadcast from `root` for job-local rank
/// `local` out of `n`.
///
/// ```
/// use anp_simmpi::coll::expand_bcast;
/// use anp_simmpi::Op;
///
/// // The root of an 8-rank broadcast only sends: log2(8) = 3 messages.
/// let ops = expand_bcast(0, 0, 8, 4096, 50);
/// let sends = ops.iter().filter(|o| matches!(o, Op::Isend { .. })).count();
/// assert_eq!(sends, 3);
/// ```
pub fn expand_bcast(local: u32, root: u32, n: u32, bytes: u64, tag: u32) -> Vec<Op> {
    // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
    assert!(local < n && root < n, "rank/root out of job of size {n}");
    if n == 1 {
        return Vec::new();
    }
    let vrank = (local + n - root) % n;
    let unvrank = |v: u32| (v + root) % n;
    let mut ops = Vec::new();
    // Receive phase: a non-root rank receives from the parent given by
    // its lowest set bit position in the binomial tree.
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
    // Send phase: forward to children below the received bit (the root
    // exits the loop with mask ≥ n and sends to every power-of-two child).
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

/// Expands a binomial-tree reduction to `root` for job-local rank `local`
/// out of `n`. The mirror image of [`expand_bcast`]: leaves send first,
/// interior ranks combine children before forwarding.
pub fn expand_reduce(local: u32, root: u32, n: u32, bytes: u64, tag: u32) -> Vec<Op> {
    // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
    assert!(local < n && root < n, "rank/root out of job of size {n}");
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
                // Receive a child's partial result; the combine must
                // complete before the next level, hence the round wait.
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

/// Expands a ring allgather for job-local rank `local` out of `n`:
/// `n − 1` steps, each forwarding one rank's block to the successor while
/// receiving another from the predecessor.
pub fn expand_allgather(local: u32, n: u32, bytes_per_rank: u64, tag: u32) -> Vec<Op> {
    // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
    assert!(local < n, "rank {local} out of job of size {n}");
    if n == 1 {
        return Vec::new();
    }
    let succ = (local + 1) % n;
    let pred = (local + n - 1) % n;
    let mut ops = Vec::with_capacity(3 * (n as usize - 1));
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

fn prev_power_of_two(n: u32) -> u32 {
    // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
    assert!(n > 0);
    1 << (31 - n.leading_zeros())
}

#[cfg(test)]
#[expect(clippy::disallowed_types, reason = "order only picks which key fails")]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn prev_power_of_two_values() {
        assert_eq!(prev_power_of_two(1), 1);
        assert_eq!(prev_power_of_two(2), 2);
        assert_eq!(prev_power_of_two(3), 2);
        assert_eq!(prev_power_of_two(64), 64);
        assert_eq!(prev_power_of_two(144), 128);
    }

    /// Counts (sender → receiver, tag) pairs across all ranks' expansions
    /// and checks that every send has exactly one matching receive.
    fn check_send_recv_balance(n: u32, expand: impl Fn(u32) -> Vec<Op>) {
        // sends[(src, dst, tag)] and recvs[(src, dst, tag)] must agree.
        let mut sends: HashMap<(u32, u32, u32), i64> = HashMap::new();
        for local in 0..n {
            for op in expand(local) {
                match op {
                    Op::Isend { dst, tag, .. } => {
                        *sends.entry((local, dst, tag)).or_default() += 1;
                    }
                    Op::Irecv {
                        src: Src::Rank(s),
                        tag,
                    } => {
                        *sends.entry((s, local, tag)).or_default() -= 1;
                    }
                    Op::Irecv { src: Src::Any, .. } => {
                        panic!("collectives must not use wildcard receives");
                    }
                    _ => {}
                }
            }
        }
        for (key, balance) in sends {
            assert_eq!(balance, 0, "unbalanced send/recv for {key:?}");
        }
    }

    #[test]
    fn allreduce_balances_for_powers_of_two() {
        for n in [1u32, 2, 4, 8, 64] {
            check_send_recv_balance(n, |l| expand_allreduce(l, n, 1024, 0));
        }
    }

    #[test]
    fn allreduce_balances_for_odd_sizes() {
        // 144 is the paper's standard job size; 64 is Lulesh's; include
        // awkward small sizes too.
        for n in [3u32, 5, 6, 7, 12, 36, 144] {
            check_send_recv_balance(n, |l| expand_allreduce(l, n, 4096, 0));
        }
    }

    #[test]
    fn alltoall_balances() {
        for n in [2u32, 3, 8, 17, 36] {
            check_send_recv_balance(n, |l| expand_alltoall(l, n, 512, 0));
        }
    }

    #[test]
    fn alltoall_round_count() {
        let n = 9;
        let ops = expand_alltoall(0, n, 100, 0);
        let sends = ops.iter().filter(|o| matches!(o, Op::Isend { .. })).count();
        let recvs = ops.iter().filter(|o| matches!(o, Op::Irecv { .. })).count();
        assert_eq!(sends, (n - 1) as usize);
        assert_eq!(recvs, (n - 1) as usize);
        let waits = ops.iter().filter(|o| matches!(o, Op::WaitAll)).count();
        assert_eq!(waits, (n as usize - 1).div_ceil(ALLTOALL_WINDOW));
    }

    #[test]
    fn alltoall_covers_every_peer_exactly_once() {
        let n = 13u32;
        for local in 0..n {
            let mut dsts: Vec<u32> = expand_alltoall(local, n, 1, 0)
                .iter()
                .filter_map(|o| match o {
                    Op::Isend { dst, .. } => Some(*dst),
                    _ => None,
                })
                .collect();
            dsts.sort_unstable();
            let expect: Vec<u32> = (0..n).filter(|&d| d != local).collect();
            assert_eq!(dsts, expect);
        }
    }

    #[test]
    fn single_rank_collectives_are_empty() {
        assert!(expand_allreduce(0, 1, 8, 0).is_empty());
        assert!(expand_alltoall(0, 1, 8, 0).is_empty());
        assert!(expand_barrier(0, 1, 0).is_empty());
        assert!(expand_bcast(0, 0, 1, 8, 0).is_empty());
        assert!(expand_reduce(0, 0, 1, 8, 0).is_empty());
        assert!(expand_allgather(0, 1, 8, 0).is_empty());
    }

    #[test]
    fn bcast_balances_for_all_roots() {
        for n in [2u32, 3, 7, 8, 13, 64] {
            for root in [0, 1, n - 1] {
                check_send_recv_balance(n, |l| expand_bcast(l, root, n, 512, 0));
            }
        }
    }

    #[test]
    fn bcast_root_never_receives_and_leaves_never_send() {
        let n = 16;
        let root_ops = expand_bcast(0, 0, n, 64, 0);
        assert!(!root_ops.iter().any(|o| matches!(o, Op::Irecv { .. })));
        // Rank 15 (vrank 15 = 0b1111) is a leaf: receives once, sends 0.
        let leaf_ops = expand_bcast(15, 0, n, 64, 0);
        assert!(!leaf_ops.iter().any(|o| matches!(o, Op::Isend { .. })));
        assert_eq!(
            leaf_ops
                .iter()
                .filter(|o| matches!(o, Op::Irecv { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn reduce_balances_for_all_roots() {
        for n in [2u32, 5, 8, 12, 64] {
            for root in [0, 2 % n, n - 1] {
                check_send_recv_balance(n, |l| expand_reduce(l, root, n, 512, 0));
            }
        }
    }

    #[test]
    fn reduce_root_receives_log_n_partials() {
        let ops = expand_reduce(0, 0, 16, 64, 0);
        assert_eq!(
            ops.iter().filter(|o| matches!(o, Op::Irecv { .. })).count(),
            4,
            "root of 16 ranks combines log2(16) children"
        );
        assert!(!ops.iter().any(|o| matches!(o, Op::Isend { .. })));
    }

    #[test]
    fn reduce_non_root_sends_exactly_once() {
        for local in 1..12u32 {
            let sends = expand_reduce(local, 0, 12, 64, 0)
                .iter()
                .filter(|o| matches!(o, Op::Isend { .. }))
                .count();
            assert_eq!(sends, 1, "rank {local}");
        }
    }

    #[test]
    fn allgather_balances_and_counts_steps() {
        for n in [2u32, 3, 9, 18] {
            check_send_recv_balance(n, |l| expand_allgather(l, n, 256, 0));
            let ops = expand_allgather(0, n, 256, 0);
            let sends = ops.iter().filter(|o| matches!(o, Op::Isend { .. })).count();
            assert_eq!(sends, (n - 1) as usize, "ring does n-1 forwards");
        }
    }

    #[test]
    fn expansions_end_quiescent() {
        // Every expansion must end with WaitAll (or be empty) so that the
        // "no outstanding requests at collective entry" precondition holds
        // for the next collective.
        for n in [2u32, 5, 144] {
            for l in 0..n {
                for ops in [expand_allreduce(l, n, 64, 0), expand_alltoall(l, n, 64, 0)] {
                    if let Some(last) = ops.last() {
                        assert_eq!(*last, Op::WaitAll, "n={n} l={l}");
                    }
                }
            }
        }
    }

    proptest! {
        /// Send/recv balance holds for arbitrary job sizes.
        #[test]
        fn prop_allreduce_balance(n in 1u32..40) {
            check_send_recv_balance(n, |l| expand_allreduce(l, n, 256, 4));
        }

        /// Alltoall balance holds for arbitrary job sizes.
        #[test]
        fn prop_alltoall_balance(n in 1u32..30) {
            check_send_recv_balance(n, |l| expand_alltoall(l, n, 256, 4));
        }

        /// Bcast/reduce balance holds for arbitrary sizes and roots.
        #[test]
        fn prop_rooted_collectives_balance(n in 1u32..30, root in 0u32..30) {
            prop_assume!(root < n);
            check_send_recv_balance(n, |l| expand_bcast(l, root, n, 64, 4));
            check_send_recv_balance(n, |l| expand_reduce(l, root, n, 64, 4));
        }

        /// Tags used by expansions stay within the two-tag budget.
        #[test]
        fn prop_tag_budget(n in 2u32..40, l in 0u32..40) {
            prop_assume!(l < n);
            for op in expand_allreduce(l, n, 8, 100) {
                if let Op::Isend { tag, .. } | Op::Irecv { tag, .. } = op {
                    prop_assert!((100..102).contains(&tag));
                }
            }
        }
    }
}
