//! VPFFT proxy: all-to-alls separated by heavy, variable compute.
//!
//! Paper §II: "VPFFT performs expensive computation between two
//! communication phases … \[so it\] has some flexibility to overlap
//! communication and computation while FFTW has much less." Fig. 7 shows
//! VPFFT almost as network-sensitive as FFTW but with strong run-to-run
//! oscillation (132–263 % at 87 % utilization); the oscillation is modelled
//! with a wide compute jitter.

use anp_simmpi::{Op, Program};
use anp_simnet::NodeId;

use crate::apps::common::{jittered_compute, rank_seed, IterativeProgram, RunMode};
use crate::placement::Layout;

/// VPFFT proxy parameters.
#[derive(Debug, Clone, Copy)]
pub struct VpfftParams {
    /// Bytes exchanged per peer per transpose (crystal-plasticity FFT
    /// fields are larger than FFTW's benchmark matrix).
    pub bytes_per_pair: u64,
    /// Mean CPU time of the constitutive-model update between transforms.
    pub compute_per_phase_ns: u64,
    /// Relative jitter of the compute phase (the source of the
    /// oscillating slowdowns the paper reports for VPFFT).
    pub compute_jitter: f64,
    /// Iterations per run in [`RunMode::Iterations`] mode.
    pub iterations: u32,
}

impl Default for VpfftParams {
    fn default() -> Self {
        VpfftParams {
            bytes_per_pair: 4_096,
            compute_per_phase_ns: 250_000,
            compute_jitter: 0.45,
            iterations: 16,
        }
    }
}

/// Builds the VPFFT proxy job over `layout`.
pub fn build_vpfft(
    params: &VpfftParams,
    layout: &Layout,
    mode: RunMode,
    seed: u64,
) -> Vec<(Box<dyn Program>, NodeId)> {
    let p = *params;
    let mode = match mode {
        RunMode::Iterations(0) => RunMode::Iterations(p.iterations),
        m => m,
    };
    (0..layout.ranks())
        .map(|local| {
            let program = IterativeProgram::new(
                format!("vpfft[{local}]"),
                rank_seed(seed, local),
                mode,
                move |_iter, rng, ops| {
                    // Two phases, each a 1-D transform then a transpose.
                    for _ in 0..2 {
                        ops.push(jittered_compute(
                            rng,
                            p.compute_per_phase_ns,
                            p.compute_jitter,
                        ));
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
    fn small_vpfft_completes() {
        let mut world = World::new(SwitchConfig::tiny_deterministic());
        let layout = Layout::new(4, 2);
        let params = VpfftParams {
            bytes_per_pair: 128,
            compute_per_phase_ns: 50_000,
            compute_jitter: 0.3,
            iterations: 2,
        };
        let members = build_vpfft(&params, &layout, RunMode::Iterations(2), 7);
        let job = world.add_job("vpfft", members);
        assert!(world
            .run_until_job_done(job, SimTime::from_secs(10))
            .completed());
    }

    #[test]
    fn vpfft_computes_more_than_fftw() {
        // The defining difference from FFTW: meaningful compute between
        // transposes. Verify the default parameterization keeps it so.
        let v = VpfftParams::default();
        let f = crate::apps::fftw::FftwParams::default();
        assert!(v.compute_per_phase_ns >= 4 * f.compute_per_phase_ns);
        assert!(v.compute_jitter > 0.2, "oscillation needs wide jitter");
    }
}
