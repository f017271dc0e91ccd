//! Golden digests: results pinned *across commits*, not only across
//! worker counts within one.
//!
//! Each digest is FNV-1a ([`fnv1a`]) over the exact bit patterns of a
//! result. A refactor or optimisation that claims to leave results
//! unchanged must leave every pinned value here unchanged; a change that
//! moves one on purpose re-pins it and says why in CHANGES.md.

use anp_core::journal::fnv1a;
use anp_core::ExperimentConfig;
use anp_flowsim::{describe_members, TrafficDescriptor};
use anp_workloads::{AppKind, RunMode};

/// FNV-1a over the label, the rank count and `f64::to_bits` of every
/// numeric field of `d`.
fn descriptor_digest(d: &TrafficDescriptor) -> u64 {
    let bits: Vec<String> = [
        d.compute_ns,
        d.rounds,
        d.remote_msgs,
        d.remote_bytes,
        d.remote_packets,
        d.cross_leaf_packets,
        d.local_bytes,
        d.max_node_tx_bytes,
        d.max_node_rx_bytes,
        d.peers,
    ]
    .iter()
    .map(|x| format!("{:016x}", x.to_bits()))
    .collect();
    let ranks = d.ranks.to_string();
    let mut parts: Vec<&str> = vec![&d.label, &ranks];
    parts.extend(bits.iter().map(String::as_str));
    fnv1a(&parts)
}

/// The twelve application descriptors the flow backend extracts at the
/// paper's Cab configuration: each app as a victim (salt `app + 1`) and
/// as a co-runner (salt `app + 101`), built exactly as
/// `FlowBackend` builds them.
#[test]
fn flow_traffic_descriptors_match_their_pinned_digests() {
    const PINNED: [(AppKind, u64, u64); 12] = [
        (AppKind::Fftw, 1, 0x33ea6106f9831cc2),
        (AppKind::Fftw, 101, 0x8ae6291f407f930c),
        (AppKind::Lulesh, 2, 0x5f2a89f35d4a7925),
        (AppKind::Lulesh, 102, 0x767ebec03d76e4e3),
        (AppKind::Mcb, 3, 0xa02a3666dc8e1338),
        (AppKind::Mcb, 103, 0x7d0ef591f7751ca0),
        (AppKind::Milc, 4, 0xee3233268b46f0f0),
        (AppKind::Milc, 104, 0x49f56b79354d3955),
        (AppKind::Vpfft, 5, 0xca825d5a29049984),
        (AppKind::Vpfft, 105, 0xe5a68348ee6b0b50),
        (AppKind::Amg, 6, 0x14528aaedf33a3f8),
        (AppKind::Amg, 106, 0x109b4d65fb316578),
    ];
    let cfg = ExperimentConfig::cab();
    let mut got = Vec::new();
    for app in AppKind::ALL {
        for salt in [app as u64 + 1, app as u64 + 101] {
            let members = app.build(RunMode::Iterations(0), cfg.workload_seed(salt));
            let d = describe_members(app.name(), members, &cfg.switch);
            got.push((app, salt, descriptor_digest(&d)));
        }
    }
    assert_eq!(got, PINNED);
}
