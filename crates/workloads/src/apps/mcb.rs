//! MCB proxy: Monte Carlo burnup transport.
//!
//! Paper §II: "MCB is a monte carlo simulation code, which means that it
//! does not have much communication and, therefore, its usage of the
//! interconnecting network is expected to be low." Fig. 7 confirms MCB is
//! almost insensitive (≤ 3.5 %) to switch capability — yet Fig. 3 shows it
//! produces a strong high-latency *tail* in probe packets. The proxy
//! reproduces both: long, highly variable compute spans (particle
//! histories), a small per-cycle ring exchange, and a periodic large burst
//! (particle rebalancing) that momentarily floods the switch.

use anp_simmpi::{Op, Program, Src};
use anp_simnet::NodeId;

use crate::apps::common::{jittered_compute, rank_seed, IterativeProgram, RunMode};
use crate::placement::Layout;

/// MCB proxy parameters.
#[derive(Debug, Clone, Copy)]
pub struct McbParams {
    /// Mean CPU time of one tracking cycle (dominant cost).
    pub compute_ns: u64,
    /// Relative jitter of the tracking span (Monte Carlo variance).
    pub compute_jitter: f64,
    /// Bytes of the regular per-cycle neighbour exchange.
    pub msg_bytes: u64,
    /// Every `burst_every`-th cycle sends `burst_bytes` instead
    /// (rebalancing burst). Zero disables bursts.
    pub burst_every: u32,
    /// Bytes of the periodic rebalancing burst.
    pub burst_bytes: u64,
    /// An 8-byte tally allreduce runs every `allreduce_every` cycles.
    pub allreduce_every: u32,
    /// Cycles per run in [`RunMode::Iterations`] mode.
    pub iterations: u32,
}

impl Default for McbParams {
    fn default() -> Self {
        McbParams {
            compute_ns: 5_000_000,
            compute_jitter: 0.40,
            msg_bytes: 16 * 1024,
            burst_every: 2,
            burst_bytes: 768 * 1024,
            allreduce_every: 10,
            iterations: 30,
        }
    }
}

/// Builds the MCB proxy job over `layout`: a ring exchange with the
/// neighbouring ranks plus the parameters' bursts and reductions.
pub fn build_mcb(
    params: &McbParams,
    layout: &Layout,
    mode: RunMode,
    seed: u64,
) -> Vec<(Box<dyn Program>, NodeId)> {
    let p = *params;
    let n = layout.ranks();
    // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
    assert!(n >= 2, "MCB needs at least 2 ranks");
    let mode = match mode {
        RunMode::Iterations(0) => RunMode::Iterations(p.iterations),
        m => m,
    };
    (0..n)
        .map(|local| {
            let succ = (local + 1) % n;
            let pred = (local + n - 1) % n;
            let program = IterativeProgram::new(
                format!("mcb[{local}]"),
                rank_seed(seed, local),
                mode,
                move |iter, rng, ops| {
                    ops.push(jittered_compute(rng, p.compute_ns, p.compute_jitter));
                    let bytes = if p.burst_every > 0 && (iter + 1) % p.burst_every == 0 {
                        p.burst_bytes
                    } else {
                        p.msg_bytes
                    };
                    ops.push(Op::Irecv {
                        src: Src::Rank(pred),
                        tag: 3,
                    });
                    ops.push(Op::Isend {
                        dst: succ,
                        bytes,
                        tag: 3,
                    });
                    ops.push(Op::WaitAll);
                    if p.allreduce_every > 0 && (iter + 1) % p.allreduce_every == 0 {
                        ops.push(Op::Allreduce { bytes: 8 });
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
    fn mcb_completes_with_bursts_and_reductions() {
        let mut world = World::new(SwitchConfig::tiny_deterministic());
        let layout = Layout::new(4, 2);
        let params = McbParams {
            compute_ns: 20_000,
            burst_every: 2,
            allreduce_every: 3,
            iterations: 6,
            ..McbParams::default()
        };
        let members = build_mcb(&params, &layout, RunMode::Iterations(6), 5);
        let job = world.add_job("mcb", members);
        assert!(world
            .run_until_job_done(job, SimTime::from_secs(10))
            .completed());
    }

    #[test]
    fn network_volume_is_low_but_bursty() {
        let p = McbParams::default();
        // Average per-cycle traffic must be small next to compute, but the
        // burst must be large enough to visibly perturb probe latencies.
        let avg_bytes =
            (p.msg_bytes * (p.burst_every as u64 - 1) + p.burst_bytes) / p.burst_every as u64;
        let avg_comm_ns = avg_bytes as f64 / 5.0;
        assert!(
            avg_comm_ns * 10.0 < p.compute_ns as f64,
            "MCB must be compute-bound"
        );
        assert!(p.burst_bytes >= 16 * p.msg_bytes, "bursts must stand out");
    }
}
