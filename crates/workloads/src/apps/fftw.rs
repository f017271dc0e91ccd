//! FFTW proxy: 2-D FFT dominated by transpose all-to-alls.
//!
//! Paper §II: "FFTW … contains expensive all-to-all communications …
//! performs \[little\] computation between two communication phases", which
//! is why Fig. 7 shows it as the application most sensitive to reduced
//! switch capability. Each iteration models one 2-D transform: a row
//! transform, a transpose (alltoall), a column transform, and a second
//! transpose.

use anp_simmpi::{Op, Program};
use anp_simnet::NodeId;

use crate::apps::common::{jittered_compute, rank_seed, IterativeProgram, RunMode};
use crate::placement::Layout;

/// FFTW proxy parameters.
#[derive(Debug, Clone, Copy)]
pub struct FftwParams {
    /// Bytes exchanged with each peer per transpose. For the paper's
    /// 2000×2000 double-precision matrix on 144 ranks, each transpose
    /// moves 32 MB total ≈ 1.5 KB per rank pair; the default rounds to one
    /// MTU-friendly value.
    pub bytes_per_pair: u64,
    /// CPU time of one 1-D transform phase per rank (small: FFTW's local
    /// FFTs are cheap relative to the transposes at this scale).
    pub compute_per_phase_ns: u64,
    /// Transforms per run in [`RunMode::Iterations`] mode.
    pub iterations: u32,
}

impl Default for FftwParams {
    fn default() -> Self {
        FftwParams {
            bytes_per_pair: 1_024,
            compute_per_phase_ns: 40_000,
            iterations: 25,
        }
    }
}

/// Builds the FFTW proxy job over `layout`.
pub fn build_fftw(
    params: &FftwParams,
    layout: &Layout,
    mode: RunMode,
    seed: u64,
) -> Vec<(Box<dyn Program>, NodeId)> {
    let p = *params;
    let mode = match mode {
        RunMode::Endless => RunMode::Endless,
        RunMode::Iterations(0) => RunMode::Iterations(p.iterations),
        m => m,
    };
    (0..layout.ranks())
        .map(|local| {
            let program = IterativeProgram::new(
                format!("fftw[{local}]"),
                rank_seed(seed, local),
                mode,
                move |_iter, rng, ops| {
                    // Two phases, each a 1-D transform then a transpose.
                    for _ in 0..2 {
                        ops.push(jittered_compute(rng, p.compute_per_phase_ns, 0.05));
                        ops.push(Op::Alltoall {
                            bytes_per_pair: p.bytes_per_pair,
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
    fn small_fftw_completes() {
        let mut world = World::new(SwitchConfig::tiny_deterministic());
        let layout = Layout::new(4, 2);
        let params = FftwParams {
            bytes_per_pair: 256,
            compute_per_phase_ns: 10_000,
            iterations: 3,
        };
        let members = build_fftw(&params, &layout, RunMode::Iterations(3), 1);
        assert_eq!(members.len(), 8);
        let job = world.add_job("fftw", members);
        assert!(world
            .run_until_job_done(job, SimTime::from_secs(10))
            .completed());
        // 2 alltoalls × 3 iterations × 8 ranks × 7 peers messages.
        assert_eq!(world.fabric().stats().messages_sent, 2 * 3 * 8 * 7);
    }

    #[test]
    fn runtime_is_communication_dominated() {
        // The proxy must preserve FFTW's defining property: network time
        // dwarfs compute time.
        let mut world = World::new(SwitchConfig::cab().with_seed(2));
        let layout = Layout::cab_standard();
        let params = FftwParams {
            iterations: 2,
            ..FftwParams::default()
        };
        let members = build_fftw(&params, &layout, RunMode::Iterations(2), 1);
        let job = world.add_job("fftw", members);
        assert!(world
            .run_until_job_done(job, SimTime::from_secs(100))
            .completed());
        let runtime = world.job_finish_time(job).unwrap().as_secs_f64();
        let compute = 2.0 * 2.0 * params.compute_per_phase_ns as f64 / 1e9;
        assert!(
            runtime > 3.0 * compute,
            "runtime {runtime}s should dwarf compute {compute}s"
        );
    }
}
