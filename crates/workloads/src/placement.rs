//! Rank-to-node placement and process-grid topology helpers.
//!
//! The paper's experiments use a fixed mapping (§III-A): ranks are laid out
//! node-major (consecutive ranks fill a node before spilling to the next),
//! 18 dual-socket nodes per switch, with micro-benchmark processes pinned
//! one per socket. This module reproduces that layout and provides the
//! torus neighbourhoods the application proxies communicate over.

use anp_simnet::NodeId;

/// A job's node layout: `per_node` consecutive ranks on each of `nodes`
/// nodes starting at `base_node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Number of nodes the job spans.
    pub nodes: u32,
    /// Ranks per node.
    pub per_node: u32,
    /// First node index used.
    pub base_node: u32,
}

impl Layout {
    /// Builds a layout.
    pub fn new(nodes: u32, per_node: u32) -> Self {
        Layout {
            nodes,
            per_node,
            base_node: 0,
        }
    }

    /// The paper's standard application layout: 8 ranks on each of the 18
    /// nodes of one switch (4 per socket), 144 ranks total.
    pub fn cab_standard() -> Self {
        Layout::new(18, 8)
    }

    /// The paper's Lulesh layout: Lulesh needs a cubic rank count, so it
    /// runs 64 ranks on 16 nodes (2 per socket).
    pub fn cab_lulesh() -> Self {
        Layout::new(16, 4)
    }

    /// The paper's micro-benchmark layout: one process per socket, so 2 on
    /// each of the 18 nodes.
    pub fn cab_probes() -> Self {
        Layout::new(18, 2)
    }

    /// Total ranks.
    pub fn ranks(&self) -> u32 {
        self.nodes * self.per_node
    }

    /// Node hosting job-local rank `r` (node-major layout).
    pub fn node_of(&self, r: u32) -> NodeId {
        // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
        assert!(r < self.ranks(), "rank {r} out of layout");
        NodeId(self.base_node + r / self.per_node)
    }

    /// Node index (0-based within the job) of rank `r`.
    pub fn node_index_of(&self, r: u32) -> u32 {
        r / self.per_node
    }

    /// Core index of rank `r` within its node.
    pub fn core_of(&self, r: u32) -> u32 {
        r % self.per_node
    }

    /// The rank living on node-index `node` (within the job) at `core`.
    pub fn rank_at(&self, node: u32, core: u32) -> u32 {
        // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
        assert!(node < self.nodes && core < self.per_node);
        node * self.per_node + core
    }

    /// The node assignment vector for all ranks.
    pub fn node_vector(&self) -> Vec<NodeId> {
        (0..self.ranks()).map(|r| self.node_of(r)).collect()
    }
}

/// Neighbours of `rank` on a periodic 2-D torus of `w × h` ranks
/// (row-major), in order −x, +x, −y, +y.
pub fn torus2d_neighbors(rank: u32, w: u32, h: u32) -> [u32; 4] {
    // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
    assert!(rank < w * h, "rank off the torus");
    let x = rank % w;
    let y = rank / w;
    let xm = (x + w - 1) % w;
    let xp = (x + 1) % w;
    let ym = (y + h - 1) % h;
    let yp = (y + 1) % h;
    [y * w + xm, y * w + xp, ym * w + x, yp * w + x]
}

/// Neighbours of `rank` on a periodic 4-D torus with dimensions `dims`
/// (row-major, x fastest): the ±1 neighbour in each dimension, in order
/// −x, +x, −y, +y, −z, +z, −t, +t. Every dimension must be ≥ 3 so the
/// eight neighbours are distinct.
pub fn torus4d_neighbors(rank: u32, dims: [u32; 4]) -> [u32; 8] {
    let n: u32 = dims.iter().product();
    // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
    assert!(rank < n, "rank off the torus");
    // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
    assert!(dims.iter().all(|&d| d >= 3), "all dims must be >= 3");
    let mut coord = [0u32; 4];
    let mut rest = rank;
    for (c, d) in coord.iter_mut().zip(dims) {
        *c = rest % d;
        rest /= d;
    }
    let index = |coord: [u32; 4]| -> u32 {
        let mut idx = 0;
        let mut stride = 1;
        for (c, d) in coord.iter().zip(dims) {
            idx += c * stride;
            stride *= d;
        }
        idx
    };
    let mut out = [0u32; 8];
    for dim in 0..4 {
        for (slot, delta) in [(2 * dim, dims[dim] - 1), (2 * dim + 1, 1)] {
            let mut c = coord;
            c[dim] = (c[dim] + delta) % dims[dim];
            out[slot] = index(c);
        }
    }
    out
}

/// Full 26-point neighbourhood of `rank` on a periodic 3-D torus of
/// `d × d × d` ranks, split by stencil class:
/// returns (6 face neighbours, 12 edge neighbours, 8 corner neighbours).
pub fn torus3d_neighbors(rank: u32, d: u32) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
    assert!(rank < d * d * d, "rank off the torus");
    let x = (rank % d) as i64;
    let y = ((rank / d) % d) as i64;
    let z = (rank / (d * d)) as i64;
    let dd = d as i64;
    let wrap = |v: i64| ((v % dd + dd) % dd) as u32;
    let idx = |x: i64, y: i64, z: i64| wrap(z) * d * d + wrap(y) * d + wrap(x);

    let mut faces = Vec::with_capacity(6);
    let mut edges = Vec::with_capacity(12);
    let mut corners = Vec::with_capacity(8);
    for dz in -1i64..=1 {
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                let nonzero = [dx, dy, dz].iter().filter(|v| **v != 0).count();
                let n = idx(x + dx, y + dy, z + dz);
                match nonzero {
                    0 => {}
                    1 => faces.push(n),
                    2 => edges.push(n),
                    3 => corners.push(n),
                    _ => unreachable!(),
                }
            }
        }
    }
    (faces, edges, corners)
}

#[cfg(test)]
#[expect(clippy::disallowed_types, reason = "set checks ignore order")]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn cab_layouts_match_paper() {
        assert_eq!(Layout::cab_standard().ranks(), 144);
        assert_eq!(Layout::cab_lulesh().ranks(), 64);
        assert_eq!(Layout::cab_probes().ranks(), 36);
    }

    #[test]
    fn node_major_assignment() {
        let l = Layout::new(3, 4);
        assert_eq!(l.node_of(0), NodeId(0));
        assert_eq!(l.node_of(3), NodeId(0));
        assert_eq!(l.node_of(4), NodeId(1));
        assert_eq!(l.node_of(11), NodeId(2));
        assert_eq!(l.core_of(5), 1);
        assert_eq!(l.rank_at(1, 1), 5);
        assert_eq!(l.node_vector().len(), 12);
    }

    #[test]
    fn base_node_offsets_assignments() {
        let mut l = Layout::new(2, 2);
        l.base_node = 5;
        assert_eq!(l.node_of(0), NodeId(5));
        assert_eq!(l.node_of(3), NodeId(6));
    }

    #[test]
    #[should_panic(expected = "out of layout")]
    fn rank_out_of_layout_panics() {
        Layout::new(2, 2).node_of(4);
    }

    #[test]
    fn torus2d_known_values() {
        // 3x3 torus, center rank 4 has neighbours 3, 5, 1, 7.
        assert_eq!(torus2d_neighbors(4, 3, 3), [3, 5, 1, 7]);
        // Corner rank 0 wraps.
        assert_eq!(torus2d_neighbors(0, 3, 3), [2, 1, 6, 3]);
    }

    #[test]
    fn torus3d_stencil_sizes() {
        let (f, e, c) = torus3d_neighbors(0, 4);
        assert_eq!(f.len(), 6);
        assert_eq!(e.len(), 12);
        assert_eq!(c.len(), 8);
        // All distinct for d ≥ 3.
        let all: HashSet<u32> = f.iter().chain(&e).chain(&c).copied().collect();
        assert_eq!(all.len(), 26);
        assert!(!all.contains(&0), "self is not a neighbour");
    }

    #[test]
    fn torus4d_neighbors_distinct_and_symmetric() {
        let dims = [3, 3, 4, 4];
        let n: u32 = dims.iter().product();
        for r in 0..n {
            let nb = torus4d_neighbors(r, dims);
            let set: HashSet<u32> = nb.iter().copied().collect();
            assert_eq!(set.len(), 8, "rank {r} has duplicate neighbours");
            assert!(!set.contains(&r));
            for m in nb {
                assert!(
                    torus4d_neighbors(m, dims).contains(&r),
                    "asymmetric neighbourhood {r} vs {m}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "dims must be >= 3")]
    fn torus4d_rejects_thin_dims() {
        torus4d_neighbors(0, [2, 3, 3, 3]);
    }

    proptest! {
        /// 2-D torus neighbourhood is symmetric: if b is a neighbour of a,
        /// a is a neighbour of b.
        #[test]
        fn prop_torus2d_symmetric(w in 2u32..8, h in 2u32..8, r in 0u32..64) {
            prop_assume!(r < w * h);
            for n in torus2d_neighbors(r, w, h) {
                let back = torus2d_neighbors(n, w, h);
                prop_assert!(back.contains(&r));
            }
        }

        /// 3-D torus: face neighbourhood is symmetric.
        #[test]
        fn prop_torus3d_symmetric(d in 3u32..5, r in 0u32..125) {
            prop_assume!(r < d * d * d);
            let (faces, edges, corners) = torus3d_neighbors(r, d);
            for n in faces.iter().chain(&edges).chain(&corners) {
                let (f2, e2, c2) = torus3d_neighbors(*n, d);
                let all: Vec<u32> = f2.into_iter().chain(e2).chain(c2).collect();
                prop_assert!(all.contains(&r));
            }
        }

        /// Every rank maps to a node inside the layout's node range.
        #[test]
        fn prop_layout_in_range(nodes in 1u32..20, per_node in 1u32..16) {
            let l = Layout::new(nodes, per_node);
            for r in 0..l.ranks() {
                let n = l.node_of(r);
                prop_assert!(n.0 < nodes);
                prop_assert_eq!(l.rank_at(l.node_index_of(r), l.core_of(r)), r);
            }
        }
    }
}
