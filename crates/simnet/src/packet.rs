//! Packets and messages.
//!
//! The fabric deals in *messages* (what a rank sends) and *packets* (what
//! the switch routes). A message is segmented into MTU-sized packets at the
//! source NIC — the property the paper's Fig. 1 builds on: "application
//! messages are broken up into multiple small (few KB) packets and sent to
//! the network switch".

/// Identifies a compute node attached to the switch (also its port index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node index as a usize, for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a message among those in flight: the index of the fabric's
/// slot for it. A message's slot, and so its id, is reused by a later
/// message once both of its notices (injection and delivery) have been
/// handed up, so an id is unique only while its message is in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MessageId(pub u64);

/// A message handed to the fabric by the upper layer: what a NIC send
/// queue holds until it has cut the message's last packet.
///
/// The fabric is deliberately payload-free: only sizes and identifiers move
/// through the simulation, never data bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Fabric-assigned identifier, returned by `Fabric::send_message`:
    /// unique among messages in flight, and reused after both of this
    /// message's notices have been handed up.
    pub id: MessageId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Payload size in bytes.
    pub bytes: u64,
}

/// One MTU-or-smaller unit routed by the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// The message this packet belongs to.
    pub msg: MessageId,
    /// True for the final packet of the message.
    pub last: bool,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Bytes carried by this packet (≤ MTU; the last packet may be short).
    pub bytes: u64,
}

/// Number of packets a message of `bytes` is cut into at `mtu`: the
/// rule the packet simulator segments by and the flow model counts by. A
/// zero-byte message still takes one (empty) packet so that zero-payload
/// control messages (barrier tokens, eager headers) transit the switch
/// like any other traffic.
///
/// # Panics
/// Panics if `mtu` is zero.
pub fn packet_count(bytes: u64, mtu: u64) -> u64 {
    // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
    assert!(mtu > 0, "MTU must be positive");
    // Most messages fit one packet, and a traffic walk counts the packets
    // of every send: those skip the 64-bit division.
    if bytes <= mtu {
        1
    } else {
        bytes.div_ceil(mtu)
    }
}

/// The size of packet `i` (0-based) of a message of `bytes` cut at `mtu`:
/// every packet is `mtu` bytes except the last, which carries the
/// remainder. `i` must be below [`packet_count`]`(bytes, mtu)`.
#[inline]
pub(crate) fn segment(bytes: u64, mtu: u64, i: u64) -> u64 {
    // Packet `i` starts at byte `i * mtu`, which is below `bytes` for
    // every packet but the empty one of a zero-byte message.
    (bytes - i * mtu).min(mtu)
}

/// The sizes of the `count` packets a message of `bytes` is cut into at
/// `mtu`, without allocating, each by [`segment`]. `count` must be
/// [`packet_count`]`(bytes, mtu)`, which the caller has already computed.
pub(crate) fn segments(bytes: u64, mtu: u64, count: u64) -> impl Iterator<Item = u64> {
    debug_assert_eq!(count, packet_count(bytes, mtu));
    (0..count).map(move |i| segment(bytes, mtu, i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn segment_sizes(bytes: u64, mtu: u64) -> Vec<u64> {
        segments(bytes, mtu, packet_count(bytes, mtu)).collect()
    }

    #[test]
    fn segmentation_exact_multiple() {
        assert_eq!(segment_sizes(8192, 4096), vec![4096, 4096]);
    }

    #[test]
    fn segmentation_with_remainder() {
        assert_eq!(segment_sizes(5000, 4096), vec![4096, 904]);
    }

    #[test]
    fn segmentation_small_message_is_single_packet() {
        // The paper's ImpactB probes are 1 KB "to ensure that they are
        // communicated via a single network packet".
        assert_eq!(segment_sizes(1024, 4096), vec![1024]);
    }

    #[test]
    fn zero_byte_message_is_one_empty_packet() {
        assert_eq!(segment_sizes(0, 4096), vec![0]);
    }

    proptest! {
        /// Segmentation conserves bytes, respects the MTU and yields
        /// `packet_count` packets.
        #[test]
        fn prop_segmentation_conserves_bytes(bytes in 0u64..1_000_000, mtu in 1u64..10_000) {
            let segs = segment_sizes(bytes, mtu);
            prop_assert_eq!(segs.len() as u64, packet_count(bytes, mtu));
            prop_assert_eq!(segs.iter().sum::<u64>(), bytes);
            prop_assert!(segs.iter().all(|&s| s <= mtu));
            // Only the last packet may be short.
            for s in &segs[..segs.len().saturating_sub(1)] {
                prop_assert_eq!(*s, mtu);
            }
        }
    }
}
