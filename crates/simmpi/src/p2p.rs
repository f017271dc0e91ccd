//! Point-to-point message matching: posted receives vs. unexpected
//! messages, with MPI ordering semantics.

use std::collections::VecDeque;

use crate::op::Src;

/// An arrived message waiting to be matched at the destination rank:
/// only its match selector, since matching is all the receiver does with
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// Job-local source rank.
    pub src: u32,
    /// Match tag.
    pub tag: u32,
}

#[derive(Debug, Clone, Copy)]
struct PostedRecv {
    src: Src,
    tag: u32,
}

/// Per-rank matching engine.
///
/// Semantics follow MPI: a receive matches the *earliest* unexpected
/// message satisfying its `(src, tag)` selector; an arriving message
/// matches the earliest posted receive that accepts it. Messages between
/// the same (src, dst, tag) triple are non-overtaking because the world
/// hands a pair's messages over in send order (it resequences what the
/// switch reorders) and matching is FIFO.
#[derive(Debug, Default)]
pub struct Mailbox {
    posted: VecDeque<PostedRecv>,
    unexpected: VecDeque<Envelope>,
}

impl Mailbox {
    /// Posts a receive. Returns `true` if an already-arrived message
    /// matched (the receive completes immediately), `false` if the receive
    /// is now pending.
    pub fn post(&mut self, src: Src, tag: u32) -> bool {
        if let Some(pos) = self
            .unexpected
            .iter()
            .position(|e| src.matches(e.src) && e.tag == tag)
        {
            self.unexpected.remove(pos);
            return true;
        }
        self.posted.push_back(PostedRecv { src, tag });
        false
    }

    /// Delivers an arrived message. Returns `true` if it completed a
    /// posted receive, `false` if it was queued as unexpected.
    pub fn deliver(&mut self, env: Envelope) -> bool {
        if let Some(pos) = self
            .posted
            .iter()
            .position(|r| r.src.matches(env.src) && r.tag == env.tag)
        {
            self.posted.remove(pos);
            true
        } else {
            self.unexpected.push_back(env);
            false
        }
    }

    /// Receives posted but not yet matched.
    pub fn pending_recvs(&self) -> usize {
        self.posted.len()
    }

    /// The `(source, tag)` selectors of every unmatched posted receive, in
    /// posting order (stall diagnostics).
    pub fn posted_descriptors(&self) -> Vec<(Src, u32)> {
        self.posted.iter().map(|r| (r.src, r.tag)).collect()
    }

    /// Messages arrived but not yet matched.
    pub fn unexpected_len(&self) -> usize {
        self.unexpected.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn env(src: u32, tag: u32) -> Envelope {
        Envelope { src, tag }
    }

    #[test]
    fn recv_before_message() {
        let mut mb = Mailbox::default();
        assert!(!mb.post(Src::Rank(1), 7));
        assert!(mb.deliver(env(1, 7)), "must match the posted recv");
        assert_eq!(mb.pending_recvs(), 0);
        assert_eq!(mb.unexpected_len(), 0);
    }

    #[test]
    fn message_before_recv() {
        let mut mb = Mailbox::default();
        assert!(!mb.deliver(env(2, 5)), "no recv posted: unexpected");
        assert!(mb.post(Src::Rank(2), 5));
        assert_eq!(mb.unexpected_len(), 0);
    }

    #[test]
    fn tag_mismatch_does_not_match() {
        let mut mb = Mailbox::default();
        mb.post(Src::Rank(1), 7);
        assert!(!mb.deliver(env(1, 8)));
        assert_eq!(mb.pending_recvs(), 1);
        assert_eq!(mb.unexpected_len(), 1);
    }

    #[test]
    fn src_mismatch_does_not_match() {
        let mut mb = Mailbox::default();
        mb.post(Src::Rank(1), 7);
        assert!(!mb.deliver(env(2, 7)));
    }

    #[test]
    fn wildcard_source_matches_anyone() {
        let mut mb = Mailbox::default();
        mb.post(Src::Any, 3);
        assert!(mb.deliver(env(42, 3)));
    }

    #[test]
    fn fifo_matching_of_unexpected() {
        let mut mb = Mailbox::default();
        mb.deliver(env(1, 0));
        mb.deliver(env(2, 0));
        // A wildcard recv must take the earliest arrival.
        assert!(mb.post(Src::Any, 0));
        assert_eq!(mb.unexpected, [env(2, 0)]);
        assert!(mb.post(Src::Any, 0));
        assert_eq!(mb.unexpected_len(), 0);
    }

    #[test]
    fn fifo_matching_of_posted() {
        let mut mb = Mailbox::default();
        mb.post(Src::Any, 0); // recv A
        mb.post(Src::Rank(1), 0); // recv B
                                  // A message from rank 1 matches recv A (posted earlier, wildcard).
        assert!(mb.deliver(env(1, 0)));
        assert_eq!(mb.pending_recvs(), 1);
        // Next message from rank 1 matches recv B.
        assert!(mb.deliver(env(1, 0)));
        assert_eq!(mb.pending_recvs(), 0);
    }

    #[test]
    fn a_specific_recv_skips_earlier_arrivals_it_does_not_select() {
        let mut mb = Mailbox::default();
        mb.deliver(env(1, 0));
        mb.deliver(env(2, 0));
        mb.deliver(env(1, 1));
        // Rank 2's message is taken from the middle; the others keep
        // their arrival order.
        assert!(mb.post(Src::Rank(2), 0));
        assert_eq!(mb.unexpected, [env(1, 0), env(1, 1)]);
        assert!(!mb.post(Src::Rank(2), 0), "nothing left from rank 2");
        assert_eq!(mb.posted_descriptors(), vec![(Src::Rank(2), 0)]);
    }

    proptest! {
        /// Conservation: every delivery either matches a posted recv or
        /// lands in the unexpected queue; queue sizes always reconcile.
        #[test]
        fn prop_conservation(
            actions in proptest::collection::vec((0u8..2, 0u32..4, 0u32..3), 0..100)
        ) {
            let mut mb = Mailbox::default();
            let mut posts = 0u64;
            let mut delivers = 0u64;
            let mut matched = 0u64;
            for (kind, src, tag) in actions {
                if kind == 0 {
                    if mb.post(Src::Rank(src), tag) {
                        matched += 1;
                    }
                    posts += 1;
                } else {
                    if mb.deliver(Envelope { src, tag }) {
                        matched += 1;
                    }
                    delivers += 1;
                }
            }
            prop_assert_eq!(mb.pending_recvs() as u64, posts - matched);
            prop_assert_eq!(mb.unexpected_len() as u64, delivers - matched);
        }
    }
}
