//! MILC proxy: lattice QCD conjugate-gradient iterations.
//!
//! Paper §II: "MILC spends most of its time running the conjugate gradient
//! solver, which means that most of its communications involve point to
//! point communications with the neighbors and global reductions once in a
//! while." The lattice is four-dimensional (the paper runs
//! nx=16, ny=32, nz=32, nt=36), so the proxy exchanges halos with the
//! eight ±1 neighbours of a 4-D process torus, performs a short local
//! matrix application, and runs the CG iteration's two dot-product
//! reductions — many short latency-chained iterations, the intermediate
//! sensitivity regime Fig. 7 shows for MILC.

use anp_simmpi::{Op, Program, Src};
use anp_simnet::NodeId;

use crate::apps::common::{jittered_compute, rank_seed, IterativeProgram, RunMode};
use crate::placement::{torus4d_neighbors, Layout};

/// MILC proxy parameters.
#[derive(Debug, Clone, Copy)]
pub struct MilcParams {
    /// Process-torus dimensions (product must equal the rank count; every
    /// dimension ≥ 3).
    pub dims: [u32; 4],
    /// Bytes of one neighbour halo message (lattice surface data).
    pub neighbor_bytes: u64,
    /// Mean CPU time of one CG iteration's local matrix application.
    pub compute_ns: u64,
    /// Payload of each dot-product reduction.
    pub allreduce_bytes: u64,
    /// Dot-product reductions per CG iteration (CG has two).
    pub allreduces_per_iter: u32,
    /// CG iterations per run in [`RunMode::Iterations`] mode.
    pub iterations: u32,
}

impl Default for MilcParams {
    fn default() -> Self {
        MilcParams {
            dims: [3, 3, 4, 4],
            neighbor_bytes: 6 * 1024,
            compute_ns: 350_000,
            allreduce_bytes: 16,
            allreduces_per_iter: 2,
            iterations: 200,
        }
    }
}

/// Builds the MILC proxy job over `layout` (rank count must equal the
/// product of `dims`).
pub fn build_milc(
    params: &MilcParams,
    layout: &Layout,
    mode: RunMode,
    seed: u64,
) -> Vec<(Box<dyn Program>, NodeId)> {
    let p = *params;
    let n = layout.ranks();
    assert_eq!(
        n,
        p.dims.iter().product::<u32>(),
        "MILC needs dims whose product is the rank count (got {n} ranks for {:?})",
        p.dims
    );
    let mode = match mode {
        RunMode::Iterations(0) => RunMode::Iterations(p.iterations),
        m => m,
    };
    (0..n)
        .map(|local| {
            let neighbors = torus4d_neighbors(local, p.dims);
            let program = IterativeProgram::new(
                format!("milc[{local}]"),
                rank_seed(seed, local),
                mode,
                move |_iter, rng, ops| {
                    for &nb in &neighbors {
                        ops.push(Op::Irecv {
                            src: Src::Rank(nb),
                            tag: 2,
                        });
                        ops.push(Op::Isend {
                            dst: nb,
                            bytes: p.neighbor_bytes,
                            tag: 2,
                        });
                    }
                    ops.push(Op::WaitAll);
                    ops.push(jittered_compute(rng, p.compute_ns, 0.06));
                    for _ in 0..p.allreduces_per_iter {
                        ops.push(Op::Allreduce {
                            bytes: p.allreduce_bytes,
                        });
                    }
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
    fn milc_torus_completes() {
        let mut world = World::new(SwitchConfig::cab().with_seed(4));
        let layout = Layout::new(9, 9); // 81 ranks = 3×3×3×3
        let params = MilcParams {
            dims: [3, 3, 3, 3],
            neighbor_bytes: 512,
            compute_ns: 10_000,
            allreduce_bytes: 16,
            allreduces_per_iter: 2,
            iterations: 3,
        };
        let members = build_milc(&params, &layout, RunMode::Iterations(3), 11);
        let job = world.add_job("milc", members);
        assert!(world
            .run_until_job_done(job, SimTime::from_secs(10))
            .completed());
        // Halo traffic: 81 ranks × 8 neighbours × 3 iterations, plus the
        // lowered allreduce point-to-points on top.
        assert!(world.fabric().stats().messages_sent >= 81 * 8 * 3);
    }

    #[test]
    fn default_dims_tile_the_standard_layout() {
        let p = MilcParams::default();
        assert_eq!(
            p.dims.iter().product::<u32>(),
            Layout::cab_standard().ranks(),
            "144 must tile as 3×3×4×4"
        );
        assert_eq!(p.allreduces_per_iter, 2, "CG does two dot products");
    }

    #[test]
    #[should_panic(expected = "dims whose product")]
    fn mismatched_dims_panic() {
        let layout = Layout::new(5, 2); // 10 ranks
        build_milc(&MilcParams::default(), &layout, RunMode::Endless, 0);
    }
}
