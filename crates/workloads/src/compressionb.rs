//! CompressionB: the heavy traffic-injection micro-benchmark (paper
//! §III-B, Fig. 5).
//!
//! Processes with the same core id on different nodes form a ring. Each
//! iteration, every process exchanges `M` messages of 40 KB with each of
//! `P` partners (receive from the successor side, send to the predecessor
//! side), sleeps for `B` CPU cycles after each partner's burst, and finally
//! waits for everything. Different `(P, M, B)` settings remove different
//! fractions of switch capability from a co-running application — the
//! paper's software stand-in for "a less capable switch".

use anp_simmpi::{Looping, Op, Program, Src};
use anp_simnet::{NodeId, SimDuration};

use crate::placement::Layout;

/// One CompressionB input configuration.
///
/// ```
/// use anp_workloads::CompressionConfig;
///
/// let sweep = CompressionConfig::paper_sweep();
/// assert_eq!(sweep.len(), 40); // the paper's §IV-C sweep
/// let heavy = CompressionConfig::new(17, 25_000, 10);
/// assert_eq!(heavy.label(), "P17-B2.5e4-M10");
/// assert_eq!(heavy.bytes_per_iteration(), 17 * 10 * 40 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionConfig {
    /// Number of ring partners `P` each process exchanges with.
    pub partners: u32,
    /// Messages per partner per iteration `M`.
    pub messages: u32,
    /// Bubble: cycles slept after each partner's burst `B` (converted at
    /// the fabric's CPU clock).
    pub bubble_cycles: u64,
    /// Message size; the paper uses 40 KB.
    pub msg_bytes: u64,
    /// Match tag for the benchmark's traffic.
    pub tag: u32,
}

impl CompressionConfig {
    /// A configuration with the paper's fixed message size and a chosen
    /// `(P, B, M)` triple.
    pub fn new(partners: u32, bubble_cycles: u64, messages: u32) -> Self {
        CompressionConfig {
            partners,
            messages,
            bubble_cycles,
            msg_bytes: 40 * 1024,
            tag: 9_101,
        }
    }

    /// The paper's full 40-configuration sweep (§IV-C): `P ∈ {1, 4, 7, 14,
    /// 17}`, `B ∈ {2.5e4, 2.5e5, 2.5e6, 2.5e7}` cycles, `M ∈ {1, 10}`,
    /// covering roughly 25–95 % switch utilization on Cab.
    pub fn paper_sweep() -> Vec<CompressionConfig> {
        let mut out = Vec::with_capacity(40);
        for &m in &[1u32, 10] {
            for &b in &[25_000u64, 250_000, 2_500_000, 25_000_000] {
                for &p in &[1u32, 4, 7, 14, 17] {
                    out.push(CompressionConfig::new(p, b, m));
                }
            }
        }
        out
    }

    /// The 8-configuration quick subset of [`paper_sweep`]: one
    /// configuration per (B, M) group with a cycling partner count, so
    /// the quick sweep still spans P, B and M.
    ///
    /// [`paper_sweep`]: CompressionConfig::paper_sweep
    pub fn quick_sweep() -> Vec<CompressionConfig> {
        CompressionConfig::paper_sweep()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % 5 == (i / 5) % 5)
            .map(|(_, c)| c)
            .collect()
    }

    /// The four-rung utilization ladder shared by the CLI's gated paths,
    /// the scheduling study, and the monitor study: one rung per
    /// utilization regime, light to near-saturation.
    pub fn gated_ladder() -> Vec<CompressionConfig> {
        vec![
            CompressionConfig::new(1, 25_000_000, 1),
            CompressionConfig::new(7, 2_500_000, 10),
            CompressionConfig::new(14, 250_000, 1),
            CompressionConfig::new(17, 25_000, 10),
        ]
    }

    /// A short human-readable label, e.g. `P14-B2.5e5-M10`.
    pub fn label(&self) -> String {
        format!(
            "P{}-B{:.1e}-M{}",
            self.partners, self.bubble_cycles as f64, self.messages
        )
    }

    /// Bytes injected per process per iteration.
    pub fn bytes_per_iteration(&self) -> u64 {
        self.partners as u64 * self.messages as u64 * self.msg_bytes
    }
}

/// Builds one CompressionB process's iteration body (job-local ranks).
///
/// `local` is the process's job-local rank under `layout` (node-major);
/// its ring consists of the ranks with the same core id, ordered by node.
fn iteration_body(cfg: &CompressionConfig, layout: &Layout, local: u32, cpu_hz: u64) -> Vec<Op> {
    let nodes = layout.nodes;
    // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
    assert!(
        cfg.partners < nodes,
        "P={} partners need at least {} nodes in the ring",
        cfg.partners,
        cfg.partners + 1
    );
    let node = layout.node_index_of(local);
    let core = layout.core_of(local);
    let bubble = SimDuration::from_cycles(cfg.bubble_cycles, cpu_hz);
    let mut ops = Vec::with_capacity((cfg.partners * cfg.messages * 2 + cfg.partners + 1) as usize);
    for p in 0..cfg.partners {
        let succ = layout.rank_at((node + p + 1) % nodes, core);
        let pred = layout.rank_at((node + nodes - (p + 1)) % nodes, core);
        for _ in 0..cfg.messages {
            // Fig. 5: receive from the same core id on the succeeding
            // node, send to the same core id on the preceding node.
            ops.push(Op::Irecv {
                src: Src::Rank(succ),
                tag: cfg.tag,
            });
            ops.push(Op::Isend {
                dst: pred,
                bytes: cfg.msg_bytes,
                tag: cfg.tag,
            });
        }
        ops.push(Op::Sleep(bubble));
    }
    ops.push(Op::WaitAll);
    ops
}

/// Builds the CompressionB job: `per_node` processes on each of `nodes`
/// nodes (the paper pins one per socket, i.e. 2), looping forever.
///
/// `cpu_hz` converts the bubble parameter from cycles to time; pass the
/// fabric's configured clock.
pub fn build_compressionb(
    cfg: &CompressionConfig,
    nodes: u32,
    per_node: u32,
    cpu_hz: u64,
) -> Vec<(Box<dyn Program>, NodeId)> {
    let layout = Layout::new(nodes, per_node);
    (0..layout.ranks())
        .map(|local| {
            let body = iteration_body(cfg, &layout, local, cpu_hz);
            let program: Box<dyn Program> =
                Box::new(Looping::new(body).named(format!("compressionb-{}", cfg.label())));
            (program, layout.node_of(local))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anp_simmpi::World;
    use anp_simnet::{SimTime, SwitchConfig};

    #[test]
    fn paper_sweep_has_40_configs() {
        let sweep = CompressionConfig::paper_sweep();
        assert_eq!(sweep.len(), 40);
        // All distinct.
        for (i, a) in sweep.iter().enumerate() {
            for b in &sweep[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // Parameter ranges match §IV-C.
        assert!(sweep
            .iter()
            .all(|c| [1, 4, 7, 14, 17].contains(&c.partners)));
        assert!(sweep.iter().all(|c| [1, 10].contains(&c.messages)));
        assert!(sweep.iter().all(|c| c.msg_bytes == 40 * 1024));
    }

    #[test]
    fn quick_sweep_spans_p_b_and_m() {
        let quick = CompressionConfig::quick_sweep();
        assert_eq!(quick.len(), 8);
        assert!(quick
            .iter()
            .all(|c| CompressionConfig::paper_sweep().contains(c)));
        // Distinct values per axis: all 5 partner counts, all 4 bubbles,
        // both message counts.
        let distinct = |axis: fn(&CompressionConfig) -> u64| {
            let mut values: Vec<u64> = quick.iter().map(axis).collect();
            values.sort_unstable();
            values.dedup();
            values.len()
        };
        assert_eq!(
            distinct(|c| u64::from(c.partners)),
            5,
            "quick sweep must vary P"
        );
        assert_eq!(distinct(|c| c.bubble_cycles), 4, "quick sweep must vary B");
        assert_eq!(
            distinct(|c| u64::from(c.messages)),
            2,
            "quick sweep must vary M"
        );
    }

    #[test]
    fn labels_are_unique() {
        let sweep = CompressionConfig::paper_sweep();
        let mut labels: Vec<String> = sweep.iter().map(|c| c.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 40);
    }

    #[test]
    fn body_structure_matches_pseudocode() {
        let cfg = CompressionConfig::new(3, 1_000, 2);
        let layout = Layout::new(6, 2);
        let body = iteration_body(&cfg, &layout, 0, 1_000_000_000);
        let sends = body
            .iter()
            .filter(|o| matches!(o, Op::Isend { .. }))
            .count();
        let recvs = body
            .iter()
            .filter(|o| matches!(o, Op::Irecv { .. }))
            .count();
        let sleeps = body.iter().filter(|o| matches!(o, Op::Sleep(_))).count();
        let waits = body.iter().filter(|o| matches!(o, Op::WaitAll)).count();
        assert_eq!(sends, 6, "P*M sends");
        assert_eq!(recvs, 6, "P*M recvs");
        assert_eq!(sleeps, 3, "one bubble per partner");
        assert_eq!(waits, 1, "single trailing waitall");
        assert_eq!(*body.last().unwrap(), Op::WaitAll);
    }

    #[test]
    fn ring_partners_stay_on_same_core_id() {
        let cfg = CompressionConfig::new(2, 1_000, 1);
        let layout = Layout::new(4, 2);
        // Rank 1 = node 0 core 1; its partners must be core 1 ranks.
        let body = iteration_body(&cfg, &layout, 1, 1_000_000_000);
        for op in &body {
            match op {
                Op::Isend { dst, .. } => assert_eq!(layout.core_of(*dst), 1),
                Op::Irecv {
                    src: Src::Rank(s), ..
                } => assert_eq!(layout.core_of(*s), 1),
                _ => {}
            }
        }
    }

    #[test]
    #[should_panic(expected = "partners need")]
    fn too_many_partners_panics() {
        let cfg = CompressionConfig::new(4, 1_000, 1);
        let layout = Layout::new(4, 2);
        iteration_body(&cfg, &layout, 0, 1_000_000_000);
    }

    #[test]
    fn rings_exchange_traffic_without_deadlock() {
        let mut world = World::new(SwitchConfig::tiny_deterministic());
        let cfg = CompressionConfig {
            msg_bytes: 2_048,
            ..CompressionConfig::new(2, 10_000, 2)
        };
        let members = build_compressionb(&cfg, 4, 2, 1_000_000_000);
        assert_eq!(members.len(), 8);
        world.add_job("compressionb", members);
        world.run_until(SimTime::from_millis(5));
        let sent = world.fabric().stats().messages_sent;
        assert!(sent > 100, "ring must keep moving, sent={sent}");
        // Conservation: everything sent long enough ago was delivered.
        let delivered = world.fabric().stats().messages_delivered;
        assert!(delivered as f64 >= sent as f64 * 0.8);
    }

    #[test]
    fn heavier_configs_inject_more_bytes() {
        let light = CompressionConfig::new(1, 25_000_000, 1);
        let heavy = CompressionConfig::new(17, 25_000, 10);
        assert!(heavy.bytes_per_iteration() > light.bytes_per_iteration() * 100);
    }
}
