//! The staged analytic network model and its fixed point.
//!
//! The fabric is reduced to three queueing stages per packet path —
//! NIC injection, the switch's central routing stage, and the egress
//! port FIFO — mirroring the DES pipeline exactly:
//!
//! * **NIC** (per node): per-flow round-robin at link bandwidth. A probe
//!   packet therefore only waits for the *residual* of the packet in
//!   service, never the whole backlog; a job's own backlog is pure
//!   serialization time and is counted as throughput, not wait.
//! * **Central stage** (per switch): a FIFO with `route_servers` parallel
//!   servers drawing from the configured service distribution — an M/G/k
//!   queue, approximated with Allen–Cunneen over Erlang C.
//! * **Egress port** (per node): a FIFO draining at link bandwidth —
//!   M/G/1 via Pollaczek–Khinchine.
//!
//! The switch's credit gate (`switch_capacity` packets of total
//! occupancy) bounds every queue the probe can encounter, so analytic
//! waits are capped at the credit-implied backlog
//! ([`NetModel::wait_ceiling_ns`]); without the cap the open-queue
//! formulas would diverge at saturation where the closed DES merely
//! stalls senders.
//!
//! Job durations and stage utilizations depend on each other, so
//! [`solve`] iterates a damped fixed point over per-job durations until
//! the implied rates stop moving.

use anp_simnet::{ServiceDistribution, SimDuration, SwitchConfig, Topology};

use crate::extract::TrafficDescriptor;

/// Utilizations are clamped below 1 before entering open-queue formulas;
/// the wait ceiling, not the pole, governs saturation.
const RHO_CLAMP: f64 = 0.995;

/// Fraction of the credit-implied per-port backlog a probe is modeled to
/// wait behind at saturation. Calibrated against the DES: at full load
/// the Cab preset's probes see 10–15 µs sojourns against a 17.5 µs raw
/// credit bound.
const WAIT_CEILING_FRAC: f64 = 0.7;

/// Squared coefficient of variation of packet interarrival times at the
/// central stage. Superposed flows from many ranks are roughly Poisson.
const ARRIVAL_SCV: f64 = 1.0;

/// Mean packets a probe finds queued at an egress port *inside* a
/// traffic burst from a single rate-matched source flow. Calibrated
/// against DES mid-load cells (duty ≈ 0.17 configurations show ≈ 560 ns
/// of burst wait at 819 ns/packet serialization).
const BURST_Q1_PKTS: f64 = 4.0;

/// The same queue depth at full saturation with many interleaved source
/// flows per port, where transient convoys compound. Calibrated against
/// the saturated DES cells (P17 B2.5e4 M10: 8.06 µs probe wait).
const BURST_QSAT_PKTS: f64 = 9.7;

/// Offered-overload ratio (`burst serialization / drain gap`) where
/// burst queues start compounding instead of fully draining between
/// bursts, and the ramp width to fully saturated.
const SAT_ONSET: f64 = 0.6;
const SAT_WIDTH: f64 = 0.6;

/// A synchronization round's cross-traffic stall cannot exceed this
/// multiple of the round's own natural span: rounds denser than the
/// stall pipeline with the interference instead of serially absorbing
/// it. Calibrated against the saturated DES runtime cells.
const ROUND_SPAN_FACTOR: f64 = 1.15;

/// Damping factor of the fixed-point iteration.
const DAMPING: f64 = 0.5;
/// Iteration cap (the fixed point is a contraction in practice; this is
/// a backstop).
const MAX_ITERS: usize = 500;
/// Relative-change convergence threshold.
const REL_TOL: f64 = 1e-10;

/// Precomputed fabric constants in analytic-friendly units.
#[derive(Debug, Clone)]
pub struct NetModel {
    /// Node count.
    pub nodes: f64,
    /// Per-port bandwidth, bytes per nanosecond.
    pub bw: f64,
    /// One-way wire latency, nanoseconds.
    pub wire_ns: f64,
    /// Mean central service time, nanoseconds.
    pub svc_mean: f64,
    /// Squared coefficient of variation of the central service time.
    pub svc_scv: f64,
    /// Parallel routing servers per switch.
    pub servers: usize,
    /// Total switches (1, or leaves + spines for a fat tree).
    pub switches: f64,
    /// Credit capacity of a switch, packets.
    pub capacity: f64,
    /// Link bandwidth in bytes/second, for DES-identical (rounded-up)
    /// per-packet serialization times.
    link_bps: u64,
    service: ServiceDistribution,
}

impl NetModel {
    /// Builds the model from a fabric configuration.
    pub fn new(cfg: &SwitchConfig) -> Self {
        let switches = match cfg.topology {
            Topology::SingleSwitch => 1.0,
            Topology::FatTree { leaves, spines } => f64::from(leaves + spines),
        };
        NetModel {
            nodes: f64::from(cfg.nodes),
            bw: cfg.link_bandwidth as f64 / 1e9,
            wire_ns: cfg.wire_latency.as_nanos() as f64,
            svc_mean: cfg.service.mean_ns(),
            svc_scv: cfg.service.scv(),
            servers: cfg.route_servers as usize,
            switches,
            capacity: cfg.switch_capacity as f64,
            link_bps: cfg.link_bandwidth,
            service: cfg.service.clone(),
        }
    }

    /// Serialization time of one packet, nanoseconds, rounded up exactly
    /// like the DES rounds it.
    pub fn ser_ns(&self, bytes: f64) -> f64 {
        SimDuration::serialization(bytes.round().max(0.0) as u64, self.link_bps).as_nanos() as f64
    }

    /// Deterministic part of a one-way packet latency over `traversals`
    /// switches: NIC serialization, then per switch the (separately
    /// sampled) routing service, egress serialization, and a wire hop.
    pub fn base_one_way_ns(&self, pkt_bytes: f64, traversals: f64) -> f64 {
        let ser = self.ser_ns(pkt_bytes);
        ser + self.wire_ns + traversals * (ser + self.wire_ns)
    }

    /// Mean one-way packet latency on an otherwise idle fabric.
    pub fn idle_one_way_ns(&self, pkt_bytes: f64, traversals: f64) -> f64 {
        self.base_one_way_ns(pkt_bytes, traversals) + traversals * self.svc_mean
    }

    /// The saturation wait bound implied by the credit gate: a probe can
    /// never queue behind more than a per-port share of the admission
    /// window.
    pub fn wait_ceiling_ns(&self, pkt_bytes: f64) -> f64 {
        WAIT_CEILING_FRAC * (self.capacity / self.nodes) * self.ser_ns(pkt_bytes)
    }

    /// Inverse CDF-style service draw: `u_phase` picks the mixture
    /// branch, `u_mag` the magnitude within it. Deterministic quantile
    /// sampling of the same distribution the DES draws from its RNG.
    pub fn service_quantile_ns(&self, u_phase: f64, u_mag: f64) -> f64 {
        let exp_q = |mean: f64, u: f64| -mean * (1.0 - u.min(0.999_999)).ln();
        let ns = match self.service {
            ServiceDistribution::Deterministic { ns } => ns as f64,
            ServiceDistribution::Exponential { mean_ns } => exp_q(mean_ns, u_mag),
            ServiceDistribution::HyperExponential {
                fast_mean_ns,
                slow_mean_ns,
                p_slow,
            } => {
                if u_phase < p_slow {
                    exp_q(slow_mean_ns, u_mag)
                } else {
                    exp_q(fast_mean_ns, u_mag)
                }
            }
            ServiceDistribution::Uniform { lo_ns, hi_ns } => {
                lo_ns as f64 + (hi_ns - lo_ns) as f64 * u_mag
            }
            ServiceDistribution::BaseWithTail {
                base_ns,
                tail_mean_ns,
                p_tail,
            } => {
                base_ns as f64
                    + if u_phase < p_tail {
                        exp_q(tail_mean_ns, u_mag)
                    } else {
                        0.0
                    }
            }
        };
        ns.max(1.0)
    }
}

/// Per-stage utilizations of the fabric at an operating point.
///
/// Besides the long-run average utilizations, the loads carry the
/// *burstiness* of the offered traffic: bulk-synchronous interferers
/// (CompressionB, BSP apps) inject in on/off phases, so a probe that
/// lands inside a burst sees a queue far deeper than the average
/// utilization implies. `duty` is the probability any burst is in
/// flight, `sat` how strongly consecutive bursts compound, and `peers`
/// how many source flows interleave at the hot egress port.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageLoads {
    /// Busiest node's NIC (injection) utilization.
    pub nic: f64,
    /// Aggregate central-stage utilization.
    pub central: f64,
    /// Busiest node's egress-port utilization.
    pub egress: f64,
    /// Traffic-weighted mean packet size on the fabric, bytes.
    pub pkt_bytes: f64,
    /// Probability that at least one job is inside a transmission burst.
    pub duty: f64,
    /// Burst-compounding factor in `[0, 1]`: 0 when bursts fully drain
    /// between injections, 1 when injection outpaces the drain.
    pub sat: f64,
    /// Duty-weighted mean count of distinct source flows interleaving at
    /// the busiest egress port (≥ 1 whenever there is any traffic).
    pub peers: f64,
}

impl StageLoads {
    /// The largest stage utilization (the bottleneck's).
    pub fn max_rho(&self) -> f64 {
        self.nic.max(self.central).max(self.egress)
    }

    /// Probability that a probe packet queues anywhere, assuming stage
    /// independence.
    pub fn any_busy(&self) -> f64 {
        let free = (1.0 - self.nic.min(1.0))
            * (1.0 - self.central.min(1.0))
            * (1.0 - self.egress.min(1.0));
        1.0 - free
    }
}

/// Erlang C: probability an M/M/k arrival with offered load `a = λ/µ`
/// must queue.
fn erlang_c(k: usize, a: f64) -> f64 {
    if a <= 0.0 {
        return 0.0;
    }
    let rho = a / k as f64;
    if rho >= 1.0 {
        return 1.0;
    }
    // Erlang B by the stable recurrence, then convert.
    let mut b = 1.0;
    for j in 1..=k {
        b = a * b / (j as f64 + a * b);
    }
    b / (1.0 - rho + rho * b)
}

/// Mean queueing wait of a packet at the central M/G/k stage
/// (Allen–Cunneen approximation), nanoseconds. `rho` is the per-switch
/// utilization.
fn central_wait_ns(net: &NetModel, rho: f64) -> f64 {
    let rho = rho.clamp(0.0, RHO_CLAMP);
    if rho == 0.0 {
        return 0.0;
    }
    let k = net.servers;
    let a = rho * k as f64;
    let mmk_wait = erlang_c(k, a) * net.svc_mean / (k as f64 * (1.0 - rho));
    mmk_wait * (ARRIVAL_SCV + net.svc_scv) / 2.0
}

/// Mean queueing wait behind an M/G/1 FIFO port at utilization `rho`
/// with near-deterministic packet service of `ser_ns`, nanoseconds
/// (Pollaczek–Khinchine with zero service SCV).
fn port_wait_ns(rho: f64, ser_ns: f64) -> f64 {
    let rho = rho.clamp(0.0, RHO_CLAMP);
    rho * ser_ns / (2.0 * (1.0 - rho))
}

/// Mean egress wait a probe accumulates from landing inside a traffic
/// burst, nanoseconds: with probability `duty` the probe queues behind
/// the burst-interior backlog, whose depth grows from
/// [`BURST_Q1_PKTS`] (isolated, fully-draining bursts) toward
/// [`BURST_QSAT_PKTS`] as saturation compounds convoys from interleaved
/// source flows (a single rate-matched flow never compounds: the
/// `1 − 1/peers` factor).
fn burst_wait_ns(net: &NetModel, loads: &StageLoads) -> f64 {
    if loads.duty <= 0.0 {
        return 0.0;
    }
    let ser = net.ser_ns(loads.pkt_bytes);
    let interleave = 1.0 - 1.0 / loads.peers.max(1.0);
    let q = BURST_Q1_PKTS + (BURST_QSAT_PKTS - BURST_Q1_PKTS) * loads.sat * interleave;
    loads.duty * q * ser
}

/// Mean extra (queueing) latency a single probe packet accumulates on a
/// fabric at `loads`, nanoseconds: residual NIC service (round-robin
/// shields it from backlogs), the full central FIFO, and the egress
/// FIFO, all bounded by the credit ceiling.
///
/// The egress term is the larger of the smooth-traffic P-K wait (fed by
/// the non-bursty share of the utilization) and the burst-interior wait:
/// for on/off interferers the average-rate P-K formula misses convoys at
/// moderate load and diverges at saturation, where the closed DES
/// merely rate-matches — the burst model covers both regimes.
pub fn probe_wait_ns(net: &NetModel, loads: &StageLoads) -> f64 {
    let ser = net.ser_ns(loads.pkt_bytes);
    let smooth = port_wait_ns(loads.egress * (1.0 - loads.duty), ser);
    let w = loads.nic.clamp(0.0, RHO_CLAMP) * ser / 2.0
        + central_wait_ns(net, loads.central)
        + smooth.max(burst_wait_ns(net, loads));
    w.min(net.wait_ceiling_ns(loads.pkt_bytes))
}

/// Mean stall one synchronization round of a job suffers from
/// cross-traffic at `others`, nanoseconds, given the round's natural
/// span `gap_ns` (solo duration / round count).
///
/// A round completes when the *last* of its packets lands, so unlike a
/// probe's mean it drains a maximum statistic: at saturation that is the
/// full per-port credit share, not the mean burst queue. Rounds denser
/// than the stall overlap with the interference instead of serially
/// absorbing it, hence the [`ROUND_SPAN_FACTOR`] amortization bound.
fn round_stall_ns(net: &NetModel, others: &StageLoads, gap_ns: f64) -> f64 {
    if others.duty <= 0.0 {
        return 0.0;
    }
    let ser = net.ser_ns(others.pkt_bytes);
    let q_on = BURST_Q1_PKTS + others.sat * (net.capacity / net.nodes - BURST_Q1_PKTS);
    others.duty * (q_on * ser).min(ROUND_SPAN_FACTOR * gap_ns)
}

/// One job's solved timings.
#[derive(Debug, Clone, Copy)]
pub struct JobTimes {
    /// Duration of the job's run (or of one iteration, for endless
    /// descriptors) on an otherwise idle fabric, nanoseconds.
    pub solo_ns: f64,
    /// The same duration at the solved operating point, nanoseconds.
    pub loaded_ns: f64,
}

impl JobTimes {
    /// `loaded / solo` runtime inflation (1.0 = unimpeded).
    pub fn inflation(&self) -> f64 {
        if self.solo_ns > 0.0 {
            self.loaded_ns / self.solo_ns
        } else {
            1.0
        }
    }
}

/// The solved operating point of a set of co-running jobs.
#[derive(Debug, Clone)]
pub struct Equilibrium {
    /// Per-job timings, in input order.
    pub jobs: Vec<JobTimes>,
    /// Stage utilizations from all jobs together.
    pub loads: StageLoads,
}

/// Per-job cached demand terms.
struct Demand {
    nic_ns: f64,     // serialized bytes at the busiest NIC
    egress_ns: f64,  // serialized bytes at the busiest egress port
    central_ns: f64, // packet traversals × mean service / aggregate servers
    packets: f64,
    pkt_bytes: f64,
    compute_ns: f64,
    rounds: f64,
    round_base_ns: f64,
    duty: f64,  // fraction of the job's life a transmission burst is live
    sat: f64,   // burst-compounding factor (see SAT_ONSET)
    peers: f64, // interleaved source flows at the hot egress port
}

impl Demand {
    fn of(net: &NetModel, d: &TrafficDescriptor) -> Self {
        let traversals = d.remote_packets * d.avg_traversals();
        let nic_ns = d.max_node_tx_bytes / net.bw;
        // Offered-overload ratio of the injection phase: serialized burst
        // time over the compute/sleep gap it overlaps with (sends are
        // nonblocking, so the NIC drains *during* the gap). Below 1 the
        // NIC idles between bursts; above 1 injection is backlogged.
        let v = if d.compute_ns > 0.0 {
            nic_ns / d.compute_ns
        } else if nic_ns > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        Demand {
            nic_ns,
            egress_ns: d.max_node_rx_bytes / net.bw,
            central_ns: traversals * net.svc_mean / (net.switches * net.servers as f64),
            packets: d.remote_packets,
            pkt_bytes: d.avg_packet_bytes(),
            compute_ns: d.compute_ns,
            rounds: d.rounds,
            round_base_ns: net.idle_one_way_ns(d.avg_packet_bytes(), d.avg_traversals()),
            duty: v.min(1.0),
            sat: ((v - SAT_ONSET) / SAT_WIDTH).clamp(0.0, 1.0),
            peers: d.peers,
        }
    }

    /// Serialized network time under per-stage inflation factors.
    fn net_ns(&self, g_nic: f64, g_ctr: f64, g_egr: f64) -> f64 {
        (self.nic_ns * g_nic)
            .max(self.central_ns * g_ctr)
            .max(self.egress_ns * g_egr)
    }

    /// Duration on an idle fabric.
    fn solo_ns(&self) -> f64 {
        self.compute_ns + self.net_ns(1.0, 1.0, 1.0) + self.rounds * self.round_base_ns
    }
}

/// Solves the coupled durations of `jobs` sharing the fabric.
///
/// Starting from idle-fabric durations, each pass converts durations to
/// per-stage utilizations, inflates every job's serialized network time
/// by its bottleneck stage's overload factor, adds cross-traffic
/// queueing latency to its synchronization rounds, and damps the
/// resulting durations until they stop moving. An empty `jobs` slice
/// yields an idle equilibrium (useful for probe calibration).
pub fn solve(net: &NetModel, jobs: &[&TrafficDescriptor]) -> Equilibrium {
    let demands: Vec<Demand> = jobs.iter().map(|d| Demand::of(net, d)).collect();
    let solos: Vec<f64> = demands.iter().map(|d| d.solo_ns().max(1.0)).collect();
    let mut durs = solos.clone();

    for _ in 0..MAX_ITERS {
        let loads = loads_at(&demands, &durs);
        let g_nic = loads.nic.max(1.0);
        let g_ctr = loads.central.max(1.0);
        let g_egr = loads.egress.max(1.0);

        let mut max_change = 0.0f64;
        let mut next = durs.clone();
        for (j, dem) in demands.iter().enumerate() {
            // Cross-traffic latency: the fabric as job j's packets see it,
            // with j's own contribution removed (j's own backlog is
            // serialization, already in net_ns).
            let others = loads_at_excluding(&demands, &durs, j);
            let gap_ns = if dem.rounds > 0.0 {
                solos[j] / dem.rounds
            } else {
                0.0
            };
            let w_other = round_stall_ns(net, &others, gap_ns);
            let t_new = dem.compute_ns
                + dem.net_ns(g_nic, g_ctr, g_egr)
                + dem.rounds * (dem.round_base_ns + w_other);
            let t_new = t_new.max(1.0);
            let damped = durs[j] + DAMPING * (t_new - durs[j]);
            max_change = max_change.max((damped - durs[j]).abs() / durs[j]);
            next[j] = damped;
        }
        durs = next;
        if max_change < REL_TOL {
            break;
        }
    }
    let loads = loads_at(&demands, &durs);
    Equilibrium {
        jobs: solos
            .iter()
            .zip(&durs)
            .map(|(&solo_ns, &loaded_ns)| JobTimes { solo_ns, loaded_ns })
            .collect(),
        loads,
    }
}

fn loads_at(demands: &[Demand], durs: &[f64]) -> StageLoads {
    loads_at_excluding(demands, durs, usize::MAX)
}

fn loads_at_excluding(demands: &[Demand], durs: &[f64], skip: usize) -> StageLoads {
    let mut nic = 0.0;
    let mut central = 0.0;
    let mut egress = 0.0;
    let mut pkt_rate = 0.0;
    let mut byte_rate = 0.0;
    let mut all_off = 1.0;
    let mut duty_sum = 0.0;
    let mut sat_sum = 0.0;
    let mut peer_sum = 0.0;
    for (j, d) in demands.iter().enumerate() {
        if j == skip {
            continue;
        }
        let t = durs[j].max(1.0);
        nic += d.nic_ns / t;
        central += d.central_ns / t;
        egress += d.egress_ns / t;
        pkt_rate += d.packets / t;
        byte_rate += d.packets * d.pkt_bytes / t;
        all_off *= 1.0 - d.duty;
        duty_sum += d.duty;
        sat_sum += d.duty * d.sat;
        peer_sum += d.duty * d.peers;
    }
    StageLoads {
        nic,
        central,
        egress,
        pkt_bytes: if pkt_rate > 0.0 {
            byte_rate / pkt_rate
        } else {
            1024.0
        },
        duty: 1.0 - all_off,
        sat: if duty_sum > 0.0 {
            sat_sum / duty_sum
        } else {
            0.0
        },
        peers: if duty_sum > 0.0 {
            (peer_sum / duty_sum).max(1.0)
        } else {
            1.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anp_simnet::SwitchConfig;

    fn tiny() -> NetModel {
        NetModel::new(&SwitchConfig::tiny_deterministic())
    }

    fn cab() -> NetModel {
        NetModel::new(&SwitchConfig::cab())
    }

    fn desc(tx: f64, packets: f64, compute: f64, rounds: f64) -> TrafficDescriptor {
        TrafficDescriptor {
            label: "test".into(),
            ranks: 4,
            compute_ns: compute,
            rounds,
            remote_msgs: packets,
            remote_bytes: tx * 4.0,
            remote_packets: packets,
            cross_leaf_packets: 0.0,
            local_bytes: 0.0,
            max_node_tx_bytes: tx,
            max_node_rx_bytes: tx,
            peers: 3.0,
        }
    }

    #[test]
    fn idle_one_way_matches_pinned_des_latencies() {
        // The DES integration suite pins these exact idle latencies.
        let t = tiny();
        assert_eq!(t.idle_one_way_ns(1024.0, 1.0), 2448.0);
        let c = cab();
        assert!((c.idle_one_way_ns(1024.0, 1.0) - 1285.0).abs() < 1.0);
    }

    #[test]
    fn erlang_c_limits() {
        assert_eq!(erlang_c(18, 0.0), 0.0);
        // Single server: C = rho.
        assert!((erlang_c(1, 0.5) - 0.5).abs() < 1e-12);
        // Far under-loaded many-server system almost never queues.
        assert!(erlang_c(18, 1.0) < 1e-9);
        // At saturation everyone queues.
        assert_eq!(erlang_c(18, 18.0), 1.0);
    }

    #[test]
    fn probe_wait_grows_with_load_and_saturates_at_ceiling() {
        let net = cab();
        let mut prev = -1.0;
        for rho in [0.0, 0.3, 0.6, 0.9, 0.99, 2.0] {
            let loads = StageLoads {
                nic: rho,
                central: rho,
                egress: rho,
                pkt_bytes: 4096.0,
                ..Default::default()
            };
            let w = probe_wait_ns(&net, &loads);
            assert!(w >= prev, "wait must be monotone in rho");
            assert!(w <= net.wait_ceiling_ns(4096.0));
            prev = w;
        }
        let saturated = StageLoads {
            nic: 2.0,
            central: 2.0,
            egress: 2.0,
            pkt_bytes: 4096.0,
            ..Default::default()
        };
        assert_eq!(
            probe_wait_ns(&net, &saturated),
            net.wait_ceiling_ns(4096.0),
            "overload pins the wait at the credit ceiling"
        );
    }

    #[test]
    fn solo_pure_compute_job_costs_its_compute() {
        let net = tiny();
        let d = desc(0.0, 0.0, 5_000_000.0, 0.0);
        let eq = solve(&net, &[&d]);
        assert_eq!(eq.jobs[0].solo_ns, 5_000_000.0);
        assert_eq!(eq.jobs[0].loaded_ns, 5_000_000.0);
        assert_eq!(eq.loads.max_rho(), 0.0);
    }

    #[test]
    fn network_bound_job_is_bandwidth_limited() {
        let net = tiny(); // 1 GB/s ports
                          // 10 MB from the busiest node: 10 ms of serialization dominates.
        let d = desc(10_000_000.0, 2441.0, 0.0, 1.0);
        let eq = solve(&net, &[&d]);
        let t = eq.jobs[0].solo_ns;
        assert!(t >= 10_000_000.0, "at least the serialization time: {t}");
        assert!(t < 11_500_000.0, "but not wildly more: {t}");
    }

    #[test]
    fn corunning_jobs_slow_each_other_down() {
        let net = cab();
        // Two jobs that each alone fill ~70% of a 5 GB/s NIC.
        let d1 = desc(70_000_000.0, 17_090.0, 6_000_000.0, 10.0);
        let d2 = desc(70_000_000.0, 17_090.0, 6_000_000.0, 10.0);
        let solo = solve(&net, &[&d1]).jobs[0].solo_ns;
        let eq = solve(&net, &[&d1, &d2]);
        assert_eq!(eq.jobs[0].solo_ns, solo, "solo baseline is load-free");
        // Hand-solved fixed point: T = compute + nic·g with g = 2·nic/T
        // gives ≈23.2 ms against a 20.1 ms solo — ≈15% inflation (the
        // compute phase absorbs the rest of the contention).
        assert!(
            eq.jobs[0].loaded_ns > solo * 1.10,
            "two 70% jobs cannot both run unimpeded: {} vs {}",
            eq.jobs[0].loaded_ns,
            solo
        );
        assert!(
            (eq.jobs[0].loaded_ns - eq.jobs[1].loaded_ns).abs() < 1e-6,
            "symmetric jobs slow equally"
        );
    }

    #[test]
    fn light_background_barely_moves_a_job() {
        let net = cab();
        let victim = desc(1_000_000.0, 244.0, 50_000_000.0, 5.0);
        let whisper = desc(10_000.0, 3.0, 50_000_000.0, 1.0);
        let solo = solve(&net, &[&victim]).jobs[0].solo_ns;
        let eq = solve(&net, &[&victim, &whisper]);
        assert!(eq.jobs[0].loaded_ns < solo * 1.01);
    }

    #[test]
    fn burst_wait_scales_with_duty_and_interleave() {
        let net = cab();
        let mid = StageLoads {
            egress: 0.15,
            pkt_bytes: 4096.0,
            duty: 0.17,
            sat: 0.0,
            peers: 7.0,
            ..Default::default()
        };
        // Duty-weighted isolated-burst queue: 0.17 × 4 pkts × 819.2 ns.
        let w_mid = burst_wait_ns(&net, &mid);
        assert!((w_mid - 0.17 * 4.0 * 819.2).abs() < 1.0, "mid wait {w_mid}");

        // At saturation, many interleaved flows compound the queue; a
        // single rate-matched flow cannot.
        let sat_many = StageLoads {
            duty: 1.0,
            sat: 1.0,
            peers: 17.0,
            pkt_bytes: 4096.0,
            ..Default::default()
        };
        let sat_one = StageLoads {
            peers: 1.0,
            ..sat_many
        };
        assert!(burst_wait_ns(&net, &sat_many) > 2.0 * burst_wait_ns(&net, &sat_one));
        assert!(burst_wait_ns(&net, &sat_one) > 0.0);
    }

    #[test]
    fn round_stall_is_amortized_by_dense_rounds() {
        let net = cab();
        let others = StageLoads {
            duty: 1.0,
            sat: 1.0,
            peers: 17.0,
            pkt_bytes: 4096.0,
            ..Default::default()
        };
        // Sparse rounds absorb the full credit-share drain.
        let sparse = round_stall_ns(&net, &others, 1e9);
        let credit_ns = (net.capacity / net.nodes) * net.ser_ns(4096.0);
        assert!((sparse - credit_ns).abs() < 1.0, "sparse stall {sparse}");
        // Rounds denser than the stall pipeline with the interference.
        let gap = 3_000.0;
        let dense = round_stall_ns(&net, &others, gap);
        assert!((dense - ROUND_SPAN_FACTOR * gap).abs() < 1e-9);
        assert!(dense < sparse);
        // No bursts, no stall.
        assert_eq!(round_stall_ns(&net, &StageLoads::default(), gap), 0.0);
    }

    #[test]
    fn service_quantiles_recover_the_mean() {
        let net = cab(); // BaseWithTail{300, 1500, 0.05} → mean 375
        let n = 200_000;
        let mut sum = 0.0;
        for i in 0..n {
            let u1 = (i as f64 + 0.5) / n as f64;
            let u2 = ((i as f64 + 0.5) * 0.754_877_666_246_693).fract();
            sum += net.service_quantile_ns(u1, u2);
        }
        let mean = sum / n as f64;
        assert!(
            (mean - 375.0).abs() < 5.0,
            "quantile-sampled mean {mean} vs analytic 375"
        );
    }
}
