//! Collective lowering: barrier / allreduce / alltoall / bcast / reduce /
//! allgather rewritten into point-to-point operation sequences.
//!
//! Collectives are not magic in this simulator — they are rewritten into
//! the same `Isend`/`Irecv`/`WaitAll` alphabet ranks already execute, so
//! their packets load the switch exactly like application point-to-point
//! traffic. Allreduce (and barrier, which is an 8-byte allreduce) uses the
//! classic recursive-doubling algorithm with the MPICH-style fold for
//! non-power-of-two rank counts; alltoall uses windowed pairwise exchange;
//! bcast and reduce use binomial trees; allgather uses a ring.
//!
//! A [`Lowering`] serves one rank's share of one collective as a cursor,
//! one round at a time: a round is the ops up to and including its
//! `WaitAll`, and the next round is written only once the last one has
//! been served. The discrete-event world and the flow model's traffic
//! walk both lower through it, so they share one copy of the rules.

use crate::op::{Op, Src};

/// How many pairwise-exchange rounds an alltoall keeps in flight at once.
/// One round in flight makes the exchange latency-chained, like the
/// synchronous pairwise algorithms real MPI stacks pick for small
/// payloads — which is exactly the regime the paper's FFTW/VPFFT
/// sensitivity comes from.
pub const ALLTOALL_WINDOW: usize = 1;

/// Which algorithm a [`Lowering`] runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Kind {
    /// Every op has been served.
    #[default]
    Done,
    Allreduce,
    Alltoall,
    Bcast,
    Reduce,
    Allgather,
}

/// One rank's share of one collective, lowered to point-to-point ops and
/// served in order by [`Iterator::next`].
///
/// It holds at most one round. The default value is a finished cursor
/// that serves nothing.
///
/// ```
/// use anp_simmpi::coll::Lowering;
/// use anp_simmpi::Op;
///
/// // Rank 0 of a 4-rank allreduce: pure recursive doubling, log2(4) = 2
/// // rounds, each a receive, a send and a wait.
/// let ops: Vec<Op> = Lowering::new(Op::Allreduce { bytes: 1024 }, 0, 4, 100).collect();
/// let sends = ops.iter().filter(|o| matches!(o, Op::Isend { .. })).count();
/// assert_eq!((sends, ops.len()), (2, 6));
/// // The root of an 8-rank broadcast only sends: log2(8) = 3 messages.
/// let bcast = Lowering::new(Op::Bcast { root: 0, bytes: 4096 }, 0, 8, 50);
/// assert_eq!(bcast.filter(|o| matches!(o, Op::Isend { .. })).count(), 3);
/// // A single-rank job needs no communication at all.
/// assert_eq!(Lowering::new(Op::Barrier, 0, 1, 100).next(), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Lowering {
    kind: Kind,
    /// Job-local rank this share belongs to.
    local: u32,
    /// Ranks in the job.
    n: u32,
    /// Root of a bcast or reduce, zero otherwise.
    root: u32,
    /// Payload of each send.
    bytes: u64,
    /// First of the collective's tags (allreduce also uses `tag + 1`).
    tag: u32,
    /// Where the next round starts, counted per algorithm (see
    /// [`Lowering::fill`]).
    pos: u64,
    /// The current round's ops.
    round: Vec<Op>,
    /// Index in `round` of the next op to serve.
    next: usize,
}

impl Lowering {
    /// Lowers the collective `coll` (barrier, allreduce, alltoall, bcast,
    /// reduce or allgather) for job-local rank `local` out of `n`.
    ///
    /// `tag_base` must provide two consecutive free tags (`tag_base`,
    /// `tag_base + 1`).
    ///
    /// # Panics
    /// Panics if `coll` is not a collective, or if `local` or a root is
    /// not below `n`.
    pub fn new(coll: Op, local: u32, n: u32, tag_base: u32) -> Lowering {
        let (kind, root, bytes) = match coll {
            // A barrier is an allreduce of a token-sized payload.
            Op::Barrier => (Kind::Allreduce, 0, 8),
            Op::Allreduce { bytes } => (Kind::Allreduce, 0, bytes),
            Op::Alltoall { bytes_per_pair } => (Kind::Alltoall, 0, bytes_per_pair),
            Op::Bcast { root, bytes } => (Kind::Bcast, root, bytes),
            Op::Reduce { root, bytes } => (Kind::Reduce, root, bytes),
            Op::Allgather { bytes_per_rank } => (Kind::Allgather, 0, bytes_per_rank),
            other => panic!("{other:?} is not a collective"),
        };
        // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
        assert!(
            local < n && root < n,
            "rank {local} or root {root} out of job of size {n}"
        );
        Lowering {
            kind,
            local,
            n,
            root,
            bytes,
            tag: tag_base,
            // A reduce walks its tree level by level, starting at mask 1.
            pos: u64::from(kind == Kind::Reduce),
            round: Vec::new(),
            next: 0,
        }
    }

    /// True once [`Iterator::next`] has returned `None`: every op of the
    /// collective has been served.
    pub fn is_done(&self) -> bool {
        self.kind == Kind::Done
    }

    /// Writes the next round into the empty `round`, or nothing when the
    /// collective has no round left.
    fn fill(&mut self) {
        let (local, n, bytes, tag) = (self.local, self.n, self.bytes, self.tag);
        // A tree collective numbers ranks from its root: job-local rank
        // `local` is virtual rank `vrank`, and virtual rank `v` is
        // job-local rank `unvrank(v)`.
        let root = self.root;
        let vrank = || (local + n - root) % n;
        let unvrank = |v: u32| (v + root) % n;
        let out = &mut self.round;
        match self.kind {
            Kind::Done => {}
            Kind::Allreduce => {
                // `pos` counts rounds: the fold, the doubling rounds among
                // the `p2` active ranks, then the unfold.
                let (t_main, t_post) = (tag, tag + 1);
                let p2 = prev_power_of_two(n);
                let rem = n - p2;
                let folded = local < 2 * rem;
                let step = self.pos;
                self.pos += 1;
                if folded && local % 2 == 1 {
                    // Odd ranks of the fold hand their contribution to the
                    // left neighbour and sit out; they get the result back
                    // in the unfold phase.
                    out.push(match step {
                        0 => Op::Isend {
                            dst: local - 1,
                            bytes,
                            tag: t_main,
                        },
                        1 => Op::Irecv {
                            src: Src::Rank(local - 1),
                            tag: t_post,
                        },
                        _ => return,
                    });
                    out.push(Op::WaitAll);
                    return;
                }
                // The even partner of the fold receives first, so that a
                // power-of-two set remains active.
                let step = match (folded, step) {
                    (true, 0) => {
                        out.push(Op::Irecv {
                            src: Src::Rank(local + 1),
                            tag: t_main,
                        });
                        out.push(Op::WaitAll);
                        return;
                    }
                    (true, s) => s - 1,
                    (false, s) => s,
                };
                let id = if folded { local / 2 } else { local - rem };
                let bit = 1u64 << step;
                if bit < u64::from(p2) {
                    // Recursive doubling among the p2 active ranks.
                    let partner_id = id ^ bit as u32;
                    let partner = if partner_id < rem {
                        2 * partner_id
                    } else {
                        partner_id + rem
                    };
                    out.push(Op::Irecv {
                        src: Src::Rank(partner),
                        tag: t_main,
                    });
                    out.push(Op::Isend {
                        dst: partner,
                        bytes,
                        tag: t_main,
                    });
                    out.push(Op::WaitAll);
                } else if bit == u64::from(p2) && folded {
                    // Unfold phase: hand the result back to the folded-out
                    // neighbour.
                    out.push(Op::Isend {
                        dst: local + 1,
                        bytes,
                        tag: t_post,
                    });
                    out.push(Op::WaitAll);
                }
            }
            Kind::Alltoall => {
                // `pos` counts windows. Round `r` sends to `local + r` and
                // receives from `local - r`, mod `n`; the self-"exchange"
                // (`r = 0`) is a local copy and costs nothing.
                let first = 1 + self.pos * ALLTOALL_WINDOW as u64;
                self.pos += 1;
                let end = (first + ALLTOALL_WINDOW as u64).min(u64::from(n));
                if first >= end {
                    return;
                }
                for r in first as u32..end as u32 {
                    out.push(Op::Irecv {
                        src: Src::Rank((local + n - r) % n),
                        tag,
                    });
                    out.push(Op::Isend {
                        dst: (local + r) % n,
                        bytes,
                        tag,
                    });
                }
                out.push(Op::WaitAll);
            }
            Kind::Bcast => {
                // `pos` 0 is the receive round, 1 the send round. A
                // non-root rank receives from the parent given by its
                // lowest set bit in the binomial tree, then forwards to
                // the children below that bit; the root sends to every
                // power-of-two child.
                let vrank = vrank();
                let low = if vrank == 0 {
                    u64::from(n).next_power_of_two()
                } else {
                    u64::from(vrank & vrank.wrapping_neg())
                };
                if self.pos == 0 && vrank != 0 {
                    self.pos = 1;
                    out.push(Op::Irecv {
                        src: Src::Rank(unvrank(vrank - low as u32)),
                        tag,
                    });
                    out.push(Op::WaitAll);
                    return;
                }
                if self.pos > 1 {
                    return;
                }
                self.pos = 2;
                let mut mask = low >> 1;
                while mask > 0 {
                    if u64::from(vrank) + mask < u64::from(n) {
                        out.push(Op::Isend {
                            dst: unvrank(vrank + mask as u32),
                            bytes,
                            tag,
                        });
                    }
                    mask >>= 1;
                }
                if !out.is_empty() {
                    out.push(Op::WaitAll);
                }
            }
            Kind::Reduce => {
                // `pos` is the tree level's mask. Leaves send first;
                // interior ranks combine each child's partial result,
                // one level per round, before forwarding to their parent.
                let vrank = vrank();
                while self.pos < u64::from(n) {
                    let mask = self.pos as u32;
                    self.pos <<= 1;
                    if vrank & mask == 0 {
                        let partner = vrank | mask;
                        if partner < n {
                            out.push(Op::Irecv {
                                src: Src::Rank(unvrank(partner)),
                                tag,
                            });
                            out.push(Op::WaitAll);
                            return;
                        }
                    } else {
                        self.pos = u64::from(n);
                        out.push(Op::Isend {
                            dst: unvrank(vrank - mask),
                            bytes,
                            tag,
                        });
                        out.push(Op::WaitAll);
                        return;
                    }
                }
            }
            Kind::Allgather => {
                // `pos` counts the `n − 1` ring steps, each forwarding one
                // rank's block to the successor while receiving another
                // from the predecessor.
                if self.pos + 1 >= u64::from(n) {
                    return;
                }
                self.pos += 1;
                out.push(Op::Irecv {
                    src: Src::Rank((local + n - 1) % n),
                    tag,
                });
                out.push(Op::Isend {
                    dst: (local + 1) % n,
                    bytes,
                    tag,
                });
                out.push(Op::WaitAll);
            }
        }
    }
}

impl Iterator for Lowering {
    type Item = Op;

    #[inline]
    fn next(&mut self) -> Option<Op> {
        if self.next == self.round.len() {
            if self.kind == Kind::Done {
                return None;
            }
            self.round.clear();
            self.next = 0;
            self.fill();
            if self.round.is_empty() {
                self.kind = Kind::Done;
                return None;
            }
        }
        let op = self.round[self.next];
        self.next += 1;
        Some(op)
    }
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

    fn lower(coll: Op, local: u32, n: u32, tag: u32) -> Vec<Op> {
        Lowering::new(coll, local, n, tag).collect()
    }

    fn allreduce(local: u32, n: u32, bytes: u64, tag: u32) -> Vec<Op> {
        lower(Op::Allreduce { bytes }, local, n, tag)
    }

    fn alltoall(local: u32, n: u32, bytes_per_pair: u64, tag: u32) -> Vec<Op> {
        lower(Op::Alltoall { bytes_per_pair }, local, n, tag)
    }

    fn bcast(local: u32, root: u32, n: u32, bytes: u64, tag: u32) -> Vec<Op> {
        lower(Op::Bcast { root, bytes }, local, n, tag)
    }

    fn reduce(local: u32, root: u32, n: u32, bytes: u64, tag: u32) -> Vec<Op> {
        lower(Op::Reduce { root, bytes }, local, n, tag)
    }

    fn allgather(local: u32, n: u32, bytes_per_rank: u64, tag: u32) -> Vec<Op> {
        lower(Op::Allgather { bytes_per_rank }, local, n, tag)
    }

    #[test]
    fn prev_power_of_two_values() {
        assert_eq!(prev_power_of_two(1), 1);
        assert_eq!(prev_power_of_two(2), 2);
        assert_eq!(prev_power_of_two(3), 2);
        assert_eq!(prev_power_of_two(64), 64);
        assert_eq!(prev_power_of_two(144), 128);
    }

    /// Counts (sender → receiver, tag) pairs across all ranks' lowerings
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
            check_send_recv_balance(n, |l| allreduce(l, n, 1024, 0));
        }
    }

    #[test]
    fn allreduce_balances_for_odd_sizes() {
        // 144 is the paper's standard job size; 64 is Lulesh's; include
        // awkward small sizes too.
        for n in [3u32, 5, 6, 7, 12, 36, 144] {
            check_send_recv_balance(n, |l| allreduce(l, n, 4096, 0));
        }
    }

    #[test]
    fn alltoall_balances() {
        for n in [2u32, 3, 8, 17, 36] {
            check_send_recv_balance(n, |l| alltoall(l, n, 512, 0));
        }
    }

    #[test]
    fn alltoall_round_count() {
        let n = 9;
        let ops = alltoall(0, n, 100, 0);
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
            let mut dsts: Vec<u32> = alltoall(local, n, 1, 0)
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
        assert!(allreduce(0, 1, 8, 0).is_empty());
        assert!(alltoall(0, 1, 8, 0).is_empty());
        assert!(lower(Op::Barrier, 0, 1, 0).is_empty());
        assert!(bcast(0, 0, 1, 8, 0).is_empty());
        assert!(reduce(0, 0, 1, 8, 0).is_empty());
        assert!(allgather(0, 1, 8, 0).is_empty());
    }

    #[test]
    fn bcast_balances_for_all_roots() {
        for n in [2u32, 3, 7, 8, 13, 64] {
            for root in [0, 1, n - 1] {
                check_send_recv_balance(n, |l| bcast(l, root, n, 512, 0));
            }
        }
    }

    #[test]
    fn bcast_root_never_receives_and_leaves_never_send() {
        let n = 16;
        let root_ops = bcast(0, 0, n, 64, 0);
        assert!(!root_ops.iter().any(|o| matches!(o, Op::Irecv { .. })));
        // Rank 15 (vrank 15 = 0b1111) is a leaf: receives once, sends 0.
        let leaf_ops = bcast(15, 0, n, 64, 0);
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
                check_send_recv_balance(n, |l| reduce(l, root, n, 512, 0));
            }
        }
    }

    #[test]
    fn reduce_root_receives_log_n_partials() {
        let ops = reduce(0, 0, 16, 64, 0);
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
            let sends = reduce(local, 0, 12, 64, 0)
                .iter()
                .filter(|o| matches!(o, Op::Isend { .. }))
                .count();
            assert_eq!(sends, 1, "rank {local}");
        }
    }

    #[test]
    fn allgather_balances_and_counts_steps() {
        for n in [2u32, 3, 9, 18] {
            check_send_recv_balance(n, |l| allgather(l, n, 256, 0));
            let ops = allgather(0, n, 256, 0);
            let sends = ops.iter().filter(|o| matches!(o, Op::Isend { .. })).count();
            assert_eq!(sends, (n - 1) as usize, "ring does n-1 forwards");
        }
    }

    #[test]
    fn expansions_end_quiescent() {
        // Every lowering must end with WaitAll (or be empty) so that the
        // "no outstanding requests at collective entry" precondition holds
        // for the next collective.
        for n in [2u32, 5, 144] {
            for l in 0..n {
                for ops in [allreduce(l, n, 64, 0), alltoall(l, n, 64, 0)] {
                    if let Some(last) = ops.last() {
                        assert_eq!(*last, Op::WaitAll, "n={n} l={l}");
                    }
                }
            }
        }
    }

    #[test]
    fn the_cursor_holds_one_round_and_stays_done() {
        // A 144-rank alltoall is 143 rounds of three ops, written one
        // round at a time into the same buffer.
        let mut cursor = Lowering::new(Op::Alltoall { bytes_per_pair: 64 }, 5, 144, 0);
        assert!(!cursor.is_done());
        let mut served = 0;
        while let Some(op) = cursor.next() {
            served += 1;
            assert!(cursor.round.len() <= 3, "more than one round held");
            assert_eq!(op == Op::WaitAll, served % 3 == 0);
        }
        assert_eq!(served, 3 * 143);
        assert!(cursor.is_done());
        assert_eq!(cursor.next(), None);
        assert!(Lowering::default().is_done());
    }

    #[test]
    #[should_panic(expected = "is not a collective")]
    fn lowering_a_point_to_point_op_panics() {
        Lowering::new(Op::WaitAll, 0, 2, 0);
    }

    proptest! {
        /// Send/recv balance holds for arbitrary job sizes.
        #[test]
        fn prop_allreduce_balance(n in 1u32..40) {
            check_send_recv_balance(n, |l| allreduce(l, n, 256, 4));
        }

        /// Alltoall balance holds for arbitrary job sizes.
        #[test]
        fn prop_alltoall_balance(n in 1u32..30) {
            check_send_recv_balance(n, |l| alltoall(l, n, 256, 4));
        }

        /// Bcast/reduce balance holds for arbitrary sizes and roots.
        #[test]
        fn prop_rooted_collectives_balance(n in 1u32..30, root in 0u32..30) {
            prop_assume!(root < n);
            check_send_recv_balance(n, |l| bcast(l, root, n, 64, 4));
            check_send_recv_balance(n, |l| reduce(l, root, n, 64, 4));
        }

        /// Tags used by lowerings stay within the two-tag budget.
        #[test]
        fn prop_tag_budget(n in 2u32..40, l in 0u32..40) {
            prop_assume!(l < n);
            for op in allreduce(l, n, 8, 100) {
                if let Op::Isend { tag, .. } | Op::Irecv { tag, .. } = op {
                    prop_assert!((100..102).contains(&tag));
                }
            }
        }
    }
}
