//! Integration tests of the extensions beyond the paper's scope: the
//! fat-tree topology, the extra collectives, and phase tracing —
//! exercised together through the whole stack.

use active_netprobe::core::{Calibration, MuPolicy, TimedSeries};
use active_netprobe::simmpi::{Op, Program, Scripted, Src, World};
use active_netprobe::simnet::{NodeId, SimDuration, SimTime, SwitchConfig, Topology};
use active_netprobe::workloads::apps::milc::{build_milc, MilcParams};
use active_netprobe::workloads::{build_impactb, ImpactConfig, Layout, RunMode};

fn boxed(p: impl Program + 'static) -> Box<dyn Program> {
    Box::new(p)
}

#[test]
fn application_runs_unchanged_on_a_fat_tree() {
    // A 144-rank MILC spanning 4 leaves of a Cab-like fat tree: the same
    // program that runs on the paper's single switch must run across the
    // tree, just slower (cross-leaf halo hops).
    let single = {
        let mut w = World::new(SwitchConfig::cab().with_seed(5));
        let members = build_milc(
            &MilcParams {
                iterations: 5,
                ..MilcParams::default()
            },
            &Layout::cab_standard(),
            RunMode::Iterations(5),
            9,
        );
        let job = w.add_job("milc", members);
        assert!(w
            .run_until_job_done(job, SimTime::from_secs(30))
            .completed());
        w.job_finish_time(job).unwrap()
    };
    let (tree, spine_packets) = {
        // 4 leaves × 18 nodes: spread the 144 ranks over all 72 nodes
        // (2 per node), so most halo partners sit on other leaves.
        let mut w = World::new(SwitchConfig::cab_fat_tree(4, 4).with_seed(5));
        let members = build_milc(
            &MilcParams {
                iterations: 5,
                ..MilcParams::default()
            },
            &Layout::new(72, 2),
            RunMode::Iterations(5),
            9,
        );
        let job = w.add_job("milc", members);
        assert!(w
            .run_until_job_done(job, SimTime::from_secs(30))
            .completed());
        let spine_packets: u64 = (4..8).map(|sw| w.fabric().central_stats(sw).served).sum();
        (w.job_finish_time(job).unwrap(), spine_packets)
    };
    // The same program ran across the tree, and its cross-leaf traffic
    // really climbed through the spines.
    assert!(spine_packets > 1_000, "spines must carry halo traffic");
    // Fat-tree runtime is comparable: the extra hops cost latency but the
    // lower rank density (2/node vs 8/node) and 4x hardware give it back.
    let ratio = tree.as_nanos() as f64 / single.as_nanos() as f64;
    assert!(
        (0.25..4.0).contains(&ratio),
        "tree {tree} vs single {single}: implausible ratio {ratio}"
    );
}

#[test]
fn probes_calibrate_on_a_fat_tree_leaf() {
    // The paper's methodology applied to one leaf of the extension
    // topology: probes on leaf-0 nodes must read an idle-like profile even
    // though the fabric is a tree.
    let mut w = World::new(SwitchConfig::cab_fat_tree(2, 2).with_seed(3));
    let cfg = ImpactConfig {
        period: SimDuration::from_micros(500),
        ..ImpactConfig::default()
    };
    // Probe pairs over the first 18 nodes = leaf 0 only.
    let (members, sink) = build_impactb(&cfg, 18);
    w.add_job("impactb", members);
    w.run_until(SimTime::from_millis(40));
    let series = TimedSeries::with_warmup(sink.borrow().clone(), 0.1);
    let profile = series.profile();
    assert!(
        (1.1..1.6).contains(&profile.mean()),
        "leaf-local probes must look like the single-switch idle ({})",
        profile.mean()
    );
    let calib = Calibration::from_idle_profile(&profile, MuPolicy::MinLatency).unwrap();
    assert!(calib.utilization(&profile) < 0.25);
    // Spines stayed idle: leaf-local probe traffic never climbs the tree.
    assert_eq!(w.fabric().central_stats(2).arrivals, 0);
    assert_eq!(w.fabric().central_stats(3).arrivals, 0);
}

#[test]
fn compressionb_delivers_what_it_sends_on_the_cab_switch() {
    // CompressionB's 40 KB messages sit inside real MPI stacks' eager
    // domain. On the Cab switch the benchmark must keep its traffic
    // moving: nearly everything it sent within 30 ms has arrived by then
    // (the rest is the in-flight tail at the horizon).
    use active_netprobe::workloads::{build_compressionb, CompressionConfig};
    let mut w = World::new(SwitchConfig::cab().with_seed(4));
    let comp = CompressionConfig::new(4, 2_500_000, 1);
    w.add_job("comp", build_compressionb(&comp, 18, 2, 2_600_000_000));
    w.run_until(SimTime::from_millis(30));
    let stats = w.fabric().stats();
    assert!(stats.messages_sent > 0);
    assert!(
        stats.messages_delivered as f64 >= stats.messages_sent as f64 * 0.8,
        "{} of {} messages delivered",
        stats.messages_delivered,
        stats.messages_sent
    );
}

#[test]
fn rooted_collectives_compose_with_stencils_at_scale() {
    // A program mixing the extension collectives with p2p, at 64 ranks on
    // the Cab fabric.
    let mut w = World::new(SwitchConfig::cab().with_seed(6));
    let n = 64u32;
    let members: Vec<_> = (0..n)
        .map(|r| {
            let succ = (r + 1) % n;
            let pred = (r + n - 1) % n;
            (
                boxed(Scripted::new(vec![
                    Op::Bcast {
                        root: 0,
                        bytes: 32 * 1024,
                    },
                    Op::Irecv {
                        src: Src::Rank(pred),
                        tag: 5,
                    },
                    Op::Isend {
                        dst: succ,
                        bytes: 2_048,
                        tag: 5,
                    },
                    Op::WaitAll,
                    Op::Reduce {
                        root: n - 1,
                        bytes: 4 * 1024,
                    },
                    Op::Allgather {
                        bytes_per_rank: 512,
                    },
                    Op::Stop,
                ])),
                NodeId(r % 18),
            )
        })
        .collect();
    let job = w.add_job("mixed", members);
    assert!(w
        .run_until_job_done(job, SimTime::from_secs(30))
        .completed());
}

#[test]
fn tracing_exposes_an_apps_network_wait_at_scale() {
    // MILC at paper scale with tracing: the waiting fraction must be
    // meaningful but not dominant (it is the intermediate app).
    let mut w = World::new(SwitchConfig::cab().with_seed(8));
    let members = build_milc(
        &MilcParams {
            iterations: 10,
            ..MilcParams::default()
        },
        &Layout::cab_standard(),
        RunMode::Iterations(10),
        2,
    );
    let job = w.add_job("milc", members);
    w.enable_tracing();
    assert!(w
        .run_until_job_done(job, SimTime::from_secs(30))
        .completed());
    let t = w.job_phase_totals(job);
    let wait = t.waiting_fraction();
    assert!(
        (0.05..0.6).contains(&wait),
        "MILC's network-wait fraction out of plausible range: {wait}"
    );
    assert!(t.computing_fraction() > 0.3, "{t:?}");
}

#[test]
fn topology_enum_is_exhaustively_usable() {
    // Compile-time-ish guard: both variants construct and validate.
    for topo in [
        Topology::SingleSwitch,
        Topology::FatTree {
            leaves: 3,
            spines: 2,
        },
    ] {
        let mut cfg = SwitchConfig::cab();
        cfg.topology = topo;
        if let Topology::FatTree { leaves, .. } = topo {
            cfg.nodes = leaves * 6;
        }
        cfg.validate().expect("both topologies must validate");
        let w = World::new(cfg);
        assert!(w.fabric().switch_count() >= 1);
    }
}
