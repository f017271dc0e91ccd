//! Lulesh proxy: 3-D Lagrangian shock hydrodynamics.
//!
//! Paper §II: "Lulesh is a typical finite difference method code with
//! local communication phases interleaved by intensive computation
//! phases." The proxy runs a 4×4×4 rank torus (the paper's 64-rank cubic
//! requirement) exchanging the full 26-point halo each step — large face
//! messages, small edge messages, tiny corner messages — followed by a
//! heavy compute span and the per-step `dt` allreduce.

use anp_simmpi::{Op, Program, Src};
use anp_simnet::NodeId;

use crate::apps::common::{jittered_compute, rank_seed, IterativeProgram, RunMode};
use crate::placement::{torus3d_neighbors, Layout};

/// Lulesh proxy parameters.
#[derive(Debug, Clone, Copy)]
pub struct LuleshParams {
    /// Ranks per torus edge (total ranks = side³; the paper uses 4³ = 64).
    pub side: u32,
    /// Bytes of one face halo message.
    pub face_bytes: u64,
    /// Bytes of one edge halo message.
    pub edge_bytes: u64,
    /// Bytes of one corner halo message.
    pub corner_bytes: u64,
    /// Mean CPU time of one element/nodal update step.
    pub compute_ns: u64,
    /// Time steps per run in [`RunMode::Iterations`] mode.
    pub iterations: u32,
}

impl Default for LuleshParams {
    fn default() -> Self {
        LuleshParams {
            side: 4,
            face_bytes: 24 * 1024,
            edge_bytes: 1_024,
            corner_bytes: 128,
            compute_ns: 2_200_000,
            iterations: 30,
        }
    }
}

/// Builds the Lulesh proxy job over `layout` (which must have side³
/// ranks).
pub fn build_lulesh(
    params: &LuleshParams,
    layout: &Layout,
    mode: RunMode,
    seed: u64,
) -> Vec<(Box<dyn Program>, NodeId)> {
    let p = *params;
    assert_eq!(
        layout.ranks(),
        p.side * p.side * p.side,
        "Lulesh needs a cubic rank count ({}³)",
        p.side
    );
    let mode = match mode {
        RunMode::Iterations(0) => RunMode::Iterations(p.iterations),
        m => m,
    };
    (0..layout.ranks())
        .map(|local| {
            let (faces, edges, corners) = torus3d_neighbors(local, p.side);
            let mut halo = Vec::with_capacity(52);
            for (&n, bytes) in faces
                .iter()
                .map(|n| (n, p.face_bytes))
                .chain(edges.iter().map(|n| (n, p.edge_bytes)))
                .chain(corners.iter().map(|n| (n, p.corner_bytes)))
            {
                halo.push(Op::Irecv {
                    src: Src::Rank(n),
                    tag: 1,
                });
                halo.push(Op::Isend {
                    dst: n,
                    bytes,
                    tag: 1,
                });
            }
            halo.push(Op::WaitAll);
            let program = IterativeProgram::new(
                format!("lulesh[{local}]"),
                rank_seed(seed, local),
                mode,
                move |_iter, rng, ops| {
                    ops.extend_from_slice(&halo);
                    ops.push(jittered_compute(rng, p.compute_ns, 0.08));
                    // The per-step stable-timestep reduction.
                    ops.push(Op::Allreduce { bytes: 8 });
                },
            );
            (Box::new(program) as Box<dyn Program>, layout.node_of(local))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anp_simmpi::World;
    use anp_simnet::{SimTime, SwitchConfig};

    #[test]
    fn lulesh_cube_completes() {
        // 2×2×2 = 8 ranks on 4 nodes. Note: on a 2-torus opposite
        // neighbours coincide, so use side 3 for distinctness.
        let mut world = World::new(SwitchConfig::cab().with_seed(9));
        let layout = Layout::new(9, 3); // 27 ranks
        let params = LuleshParams {
            side: 3,
            face_bytes: 2_048,
            edge_bytes: 256,
            corner_bytes: 64,
            compute_ns: 20_000,
            iterations: 2,
        };
        let members = build_lulesh(&params, &layout, RunMode::Iterations(2), 3);
        assert_eq!(members.len(), 27);
        let job = world.add_job("lulesh", members);
        assert!(world
            .run_until_job_done(job, SimTime::from_secs(10))
            .completed());
        // 26 neighbour messages per rank per iteration, 2 iterations,
        // plus the dt-allreduce's lowered traffic on top.
        let halo = 27 * 26 * 2;
        assert!(world.fabric().stats().messages_sent >= halo);
        assert!(world.fabric().stats().messages_sent < halo + 400);
    }

    #[test]
    #[should_panic(expected = "cubic rank count")]
    fn non_cubic_layout_panics() {
        let layout = Layout::new(4, 4); // 16 ranks ≠ 64
        build_lulesh(&LuleshParams::default(), &layout, RunMode::Endless, 0);
    }

    #[test]
    fn default_is_compute_dominated() {
        // Paper Fig. 7: Lulesh degrades only 8–15 %. The halo volume per
        // step (≈ 110 KB) must stay small next to 5 ms of compute.
        let p = LuleshParams::default();
        let halo_bytes = 6 * p.face_bytes + 12 * p.edge_bytes + 8 * p.corner_bytes;
        let halo_time_ns = halo_bytes as f64 / 5.0; // 5 GB/s → ns/byte
        assert!(halo_time_ns * 20.0 < p.compute_ns as f64);
    }
}
