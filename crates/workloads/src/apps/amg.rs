//! AMG proxy: algebraic multigrid V-cycles.
//!
//! Paper §II: "AMG carries out several iterations of an iterative solver
//! over the same linear system at different levels of granularity … like a
//! CPU intensive benchmark when it operates over a dense representation
//! and like a communication and memory bound application when it performs
//! solver iterations over a sparse representation. Thus, AMG runs will
//! display very different phases." The proxy executes V-cycles: a
//! down-sweep through levels of shrinking message size and compute, a
//! coarse-level reduction, and the mirrored up-sweep. The phase structure
//! is exactly what makes the queue model mispredict FFTW+AMG in the paper
//! (§V-B) — reproducing it faithfully matters.

use anp_simmpi::{Op, Program, Src};
use anp_simnet::NodeId;

use crate::apps::common::{jittered_compute, rank_seed, IterativeProgram, RunMode};
use crate::placement::{torus2d_neighbors, Layout};

/// One multigrid level of the AMG proxy.
#[derive(Debug, Clone, Copy)]
pub struct AmgLevel {
    /// CPU time of the smoother at this level.
    pub compute_ns: u64,
    /// Halo message size at this level.
    pub halo_bytes: u64,
}

/// AMG proxy parameters.
#[derive(Debug, Clone)]
pub struct AmgParams {
    /// Process-grid width for halo exchanges.
    pub grid_w: u32,
    /// The level hierarchy, fine to coarse.
    pub levels: Vec<AmgLevel>,
    /// V-cycles per run in [`RunMode::Iterations`] mode.
    pub iterations: u32,
}

impl Default for AmgParams {
    fn default() -> Self {
        AmgParams {
            grid_w: 12,
            levels: vec![
                AmgLevel {
                    compute_ns: 2_500_000,
                    halo_bytes: 16 * 1024,
                },
                AmgLevel {
                    compute_ns: 700_000,
                    halo_bytes: 4 * 1024,
                },
                AmgLevel {
                    compute_ns: 200_000,
                    halo_bytes: 1_024,
                },
                AmgLevel {
                    compute_ns: 60_000,
                    halo_bytes: 256,
                },
            ],
            iterations: 25,
        }
    }
}

/// Builds the AMG proxy job over `layout` (rank count must be divisible by
/// `grid_w`).
pub fn build_amg(
    params: &AmgParams,
    layout: &Layout,
    mode: RunMode,
    seed: u64,
) -> Vec<(Box<dyn Program>, NodeId)> {
    let p = params.clone();
    let n = layout.ranks();
    // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
    assert!(
        n.is_multiple_of(p.grid_w) && n / p.grid_w >= 2 && p.grid_w >= 2,
        "AMG needs a {}×h grid with h ≥ 2 (got {n} ranks)",
        p.grid_w
    );
    // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
    assert!(!p.levels.is_empty(), "AMG needs at least one level");
    let grid_h = n / p.grid_w;
    let mode = match mode {
        RunMode::Iterations(0) => RunMode::Iterations(p.iterations),
        m => m,
    };
    (0..n)
        .map(|local| {
            let neighbors = torus2d_neighbors(local, p.grid_w, grid_h);
            let levels = p.levels.clone();
            let program = IterativeProgram::new(
                format!("amg[{local}]"),
                rank_seed(seed, local),
                mode,
                move |_iter, rng, ops| {
                    let halo = |ops: &mut Vec<Op>, bytes: u64| {
                        for &nb in &neighbors {
                            ops.push(Op::Irecv {
                                src: Src::Rank(nb),
                                tag: 4,
                            });
                            ops.push(Op::Isend {
                                dst: nb,
                                bytes,
                                tag: 4,
                            });
                        }
                        ops.push(Op::WaitAll);
                    };
                    // Down-sweep: smooth + restrict at every level.
                    for lvl in &levels {
                        ops.push(jittered_compute(rng, lvl.compute_ns, 0.07));
                        halo(ops, lvl.halo_bytes);
                    }
                    // Coarse solve: a global reduction.
                    ops.push(Op::Allreduce { bytes: 8 });
                    // Up-sweep: interpolate + smooth, coarse to fine.
                    for lvl in levels.iter().rev() {
                        halo(ops, lvl.halo_bytes);
                        ops.push(jittered_compute(rng, lvl.compute_ns, 0.07));
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
    fn amg_vcycles_complete() {
        let mut world = World::new(SwitchConfig::tiny_deterministic());
        let layout = Layout::new(4, 2);
        let params = AmgParams {
            grid_w: 4,
            levels: vec![
                AmgLevel {
                    compute_ns: 20_000,
                    halo_bytes: 1_024,
                },
                AmgLevel {
                    compute_ns: 5_000,
                    halo_bytes: 128,
                },
            ],
            iterations: 2,
        };
        let members = build_amg(&params, &layout, RunMode::Iterations(2), 13);
        let job = world.add_job("amg", members);
        assert!(world
            .run_until_job_done(job, SimTime::from_secs(10))
            .completed());
        // Two halos per level per cycle (down + up), 4 neighbours each,
        // plus the coarse-level allreduce's lowered point-to-points
        // (8 ranks → 3 recursive-doubling rounds → 24 sends per cycle).
        let halo = 8 * 2 * 2 * 2 * 4;
        let allreduce = 24 * 2;
        assert_eq!(world.fabric().stats().messages_sent, halo + allreduce);
    }

    #[test]
    fn default_levels_shrink() {
        let p = AmgParams::default();
        for w in p.levels.windows(2) {
            assert!(w[1].compute_ns < w[0].compute_ns);
            assert!(w[1].halo_bytes < w[0].halo_bytes);
        }
    }

    #[test]
    fn phases_alternate_heavy_and_light() {
        // The finest level dominates compute; the coarsest is
        // latency-bound. Ratio must be large enough to create visible
        // phase behaviour.
        let p = AmgParams::default();
        let first = &p.levels[0];
        let last = p.levels.last().unwrap();
        assert!(first.compute_ns > 20 * last.compute_ns);
        assert!(first.halo_bytes > 20 * last.halo_bytes);
    }
}
