//! Fabric configuration and the Cab-cluster preset.

use std::fmt;

use crate::service::ServiceDistribution;
use crate::time::SimDuration;

/// Why a [`SwitchConfig`] is unusable.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// Fewer than two nodes: there is nothing to switch between.
    TooFewNodes {
        /// The configured node count.
        nodes: u32,
    },
    /// `mtu == 0`: messages could never be segmented.
    ZeroMtu,
    /// `link_bandwidth == 0`: packets would serialize forever.
    ZeroLinkBandwidth,
    /// `local_bandwidth == 0`: intra-node messages would never move.
    ZeroLocalBandwidth,
    /// `switch_capacity == 0`: no packet could ever be admitted.
    ZeroSwitchCapacity,
    /// `route_servers == 0`: the routing stage could never serve.
    ZeroRouteServers,
    /// `cpu_hz == 0`: cycle-denominated workloads cannot be converted.
    ZeroCpuHz,
    /// The service distribution's mean is not positive.
    NonPositiveServiceMean,
    /// A fat tree needs at least two leaf switches.
    FatTreeTooFewLeaves {
        /// The configured leaf count.
        leaves: u32,
    },
    /// A fat tree needs at least one spine switch.
    FatTreeNoSpines,
    /// Nodes must spread evenly over the leaves.
    UnevenNodesPerLeaf {
        /// The configured node count.
        nodes: u32,
        /// The configured leaf count.
        leaves: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::TooFewNodes { nodes } => {
                write!(f, "a switch needs at least 2 nodes (got {nodes})")
            }
            ConfigError::ZeroMtu => write!(f, "MTU must be positive"),
            ConfigError::ZeroLinkBandwidth => write!(f, "link_bandwidth must be positive"),
            ConfigError::ZeroLocalBandwidth => write!(f, "local_bandwidth must be positive"),
            ConfigError::ZeroSwitchCapacity => write!(f, "switch_capacity must be positive"),
            ConfigError::ZeroRouteServers => write!(f, "route_servers must be positive"),
            ConfigError::ZeroCpuHz => write!(f, "cpu_hz must be positive"),
            ConfigError::NonPositiveServiceMean => {
                write!(f, "service-time mean must be positive")
            }
            ConfigError::FatTreeTooFewLeaves { leaves } => {
                write!(f, "a fat tree needs at least 2 leaves (got {leaves})")
            }
            ConfigError::FatTreeNoSpines => write!(f, "a fat tree needs at least 1 spine"),
            ConfigError::UnevenNodesPerLeaf { nodes, leaves } => {
                write!(
                    f,
                    "nodes must divide evenly over leaves ({nodes} nodes on {leaves} leaves)"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The network's switch arrangement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// All nodes hang off one switch — the paper's experimental setting.
    SingleSwitch,
    /// A two-level fat tree: `leaves` bottom switches each hosting
    /// `nodes / leaves` nodes, fully connected to `spines` top switches.
    /// Cab itself is such a tree (the paper confines its runs to single
    /// leaves); this extension lets the methodology be exercised beyond
    /// one switch.
    FatTree {
        /// Bottom-level (leaf) switches.
        leaves: u32,
        /// Top-level (spine) switches.
        spines: u32,
    },
}

/// Complete description of the network.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchConfig {
    /// Switch arrangement.
    pub topology: Topology,
    /// Number of compute nodes attached to the network (spread evenly
    /// over leaves for a fat tree).
    pub nodes: u32,
    /// Maximum transmission unit: messages are segmented into packets of at
    /// most this many bytes.
    pub mtu: u64,
    /// Per-port link bandwidth, bytes per second (node→switch and
    /// switch→node are symmetric).
    pub link_bandwidth: u64,
    /// One-way propagation latency of a node↔switch cable.
    pub wire_latency: SimDuration,
    /// Service-time distribution of the central routing stage — the "G" of
    /// the M/G/1 abstraction.
    pub service: ServiceDistribution,
    /// Maximum packets admitted into the switch (routing queue, servers,
    /// and egress queues combined). When full, source NICs are
    /// back-pressured and stall until credits free up, like link-level
    /// flow control on InfiniBand.
    pub switch_capacity: usize,
    /// Parallel routing servers at the central stage. The Cab preset uses
    /// one per port; `1` recovers a literal M/G/1 switch for tests and
    /// ablations.
    pub route_servers: u32,
    /// Latency of an intra-node (shared-memory) message, per hop.
    pub local_latency: SimDuration,
    /// Intra-node bandwidth, bytes per second.
    pub local_bandwidth: u64,
    /// CPU clock rate in Hz, used to convert cycle-denominated workload
    /// parameters (e.g. CompressionB's bubble size) into time.
    pub cpu_hz: u64,
    /// Seed for the fabric's random number generator (service-time draws).
    pub seed: u64,
}

impl SwitchConfig {
    /// A model of one bottom-level switch of LLNL's Cab cluster as described
    /// in the paper's §II: 18 compute nodes on a QLogic 12300 switch with
    /// ≈1 µs idle latency and ≈5 GB/s per-port bandwidth; nodes carry two
    /// 2.6 GHz Xeon E5-2670 sockets.
    ///
    /// Calibration notes:
    /// * The base-plus-tail service stage (300 ns base, 5 % exponential
    ///   1.5 µs excursions) yields an idle 1 KB probe latency mode of
    ///   ≈1.25 µs with the occasional multi-µs packet — the shape of the
    ///   paper's Fig. 3 "No App" distribution — while keeping the idle
    ///   mean−min gap small so the P-K inversion reads a *quiet* switch as
    ///   lightly utilized.
    /// * The mean service time of ≈338 ns caps the central stage at roughly
    ///   12 GB/s of 4 KB packets. A real crossbar is faster in aggregate,
    ///   but the paper's entire methodology *models* the switch as a single
    ///   M/G/1 server; making the simulated switch literally that keeps the
    ///   observable (probe latency vs. load) faithful to the model under
    ///   measurement.
    /// * 18 parallel routing servers keep the aggregate forwarding rate
    ///   port-limited rather than server-limited, as on a real crossbar;
    ///   the methodology still *applies* M/G/1 theory to the device, the
    ///   same honest approximation the paper makes on real hardware.
    /// * The 384-credit admission window (≈21 packets per port) bounds
    ///   total in-switch occupancy the way link-level flow control bounds
    ///   buffering in a real switch; at saturation probe packets see
    ///   ≈10–15 µs sojourns, which the P-K inversion maps to the low-90s %
    ///   utilization at the top of the paper's Fig. 6 range.
    pub fn cab() -> Self {
        SwitchConfig {
            topology: Topology::SingleSwitch,
            nodes: 18,
            mtu: 4096,
            link_bandwidth: 5_000_000_000,
            wire_latency: SimDuration::from_nanos(250),
            service: ServiceDistribution::BaseWithTail {
                base_ns: 300,
                tail_mean_ns: 1_500.0,
                p_tail: 0.05,
            },
            switch_capacity: 384,
            route_servers: 18,
            local_latency: SimDuration::from_nanos(400),
            local_bandwidth: 10_000_000_000,
            cpu_hz: 2_600_000_000,
            seed: 0xCAB_5EED,
        }
    }

    /// A small fabric for unit and integration tests: 4 nodes, deterministic
    /// service. Deterministic service makes latency arithmetic exact in
    /// assertions.
    pub fn tiny_deterministic() -> Self {
        SwitchConfig {
            topology: Topology::SingleSwitch,
            nodes: 4,
            mtu: 1024,
            link_bandwidth: 1_000_000_000,
            wire_latency: SimDuration::from_nanos(100),
            service: ServiceDistribution::Deterministic { ns: 200 },
            switch_capacity: 64,
            route_servers: 1,
            local_latency: SimDuration::from_nanos(50),
            local_bandwidth: 4_000_000_000,
            cpu_hz: 1_000_000_000,
            seed: 1,
        }
    }

    /// A two-level fat tree built from Cab-like leaf switches: `leaves`
    /// bottom switches of 18 nodes each, fully meshed to `spines` top
    /// switches. All per-switch parameters match [`SwitchConfig::cab`].
    pub fn cab_fat_tree(leaves: u32, spines: u32) -> Self {
        SwitchConfig {
            topology: Topology::FatTree { leaves, spines },
            nodes: leaves * 18,
            ..SwitchConfig::cab()
        }
    }

    /// Replaces the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the node count (builder style).
    pub fn with_nodes(mut self, nodes: u32) -> Self {
        self.nodes = nodes;
        self
    }

    /// Number of switches the topology implies.
    pub fn switch_count(&self) -> u32 {
        match self.topology {
            Topology::SingleSwitch => 1,
            Topology::FatTree { leaves, spines } => leaves + spines,
        }
    }

    /// Validates internal consistency; called by the fabric constructor and
    /// the CLI before building anything.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes < 2 {
            return Err(ConfigError::TooFewNodes { nodes: self.nodes });
        }
        if self.mtu == 0 {
            return Err(ConfigError::ZeroMtu);
        }
        if self.link_bandwidth == 0 {
            return Err(ConfigError::ZeroLinkBandwidth);
        }
        if self.local_bandwidth == 0 {
            return Err(ConfigError::ZeroLocalBandwidth);
        }
        if self.switch_capacity == 0 {
            return Err(ConfigError::ZeroSwitchCapacity);
        }
        if self.route_servers == 0 {
            return Err(ConfigError::ZeroRouteServers);
        }
        if self.cpu_hz == 0 {
            return Err(ConfigError::ZeroCpuHz);
        }
        if self.service.mean_ns() <= 0.0 {
            return Err(ConfigError::NonPositiveServiceMean);
        }
        if let Topology::FatTree { leaves, spines } = self.topology {
            if leaves < 2 {
                return Err(ConfigError::FatTreeTooFewLeaves { leaves });
            }
            if spines == 0 {
                return Err(ConfigError::FatTreeNoSpines);
            }
            if !self.nodes.is_multiple_of(leaves) || self.nodes / leaves == 0 {
                return Err(ConfigError::UnevenNodesPerLeaf {
                    nodes: self.nodes,
                    leaves,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cab_preset_is_valid_and_matches_paper() {
        let c = SwitchConfig::cab();
        c.validate().unwrap();
        assert_eq!(c.nodes, 18);
        assert_eq!(c.link_bandwidth, 5_000_000_000);
        assert_eq!(c.cpu_hz, 2_600_000_000);
    }

    #[test]
    fn tiny_preset_is_valid() {
        SwitchConfig::tiny_deterministic().validate().unwrap();
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        assert!(SwitchConfig::cab().with_nodes(1).validate().is_err());
        let mut c = SwitchConfig::cab();
        c.mtu = 0;
        assert!(c.validate().is_err());
        let mut c = SwitchConfig::cab();
        c.switch_capacity = 0;
        assert!(c.validate().is_err());
        let mut c = SwitchConfig::cab();
        c.link_bandwidth = 0;
        assert!(c.validate().is_err());
        let mut c = SwitchConfig::cab();
        c.cpu_hz = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn builders_compose() {
        let c = SwitchConfig::cab().with_seed(7).with_nodes(8);
        assert_eq!(c.seed, 7);
        assert_eq!(c.nodes, 8);
    }

    #[test]
    fn validation_errors_are_typed_and_descriptive() {
        assert_eq!(
            SwitchConfig::cab().with_nodes(1).validate(),
            Err(ConfigError::TooFewNodes { nodes: 1 })
        );
        let mut c = SwitchConfig::cab();
        c.link_bandwidth = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroLinkBandwidth));
        let mut c = SwitchConfig::cab();
        c.route_servers = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroRouteServers));
        let mut bad = SwitchConfig::cab_fat_tree(4, 2);
        bad.nodes = 70;
        assert_eq!(
            bad.validate(),
            Err(ConfigError::UnevenNodesPerLeaf {
                nodes: 70,
                leaves: 4
            })
        );
        // Every error renders a human-readable message.
        assert!(ConfigError::ZeroMtu.to_string().contains("MTU"));
        assert!(ConfigError::TooFewNodes { nodes: 1 }
            .to_string()
            .contains("got 1"));
    }

    #[test]
    fn fat_tree_preset_and_validation() {
        let c = SwitchConfig::cab_fat_tree(4, 2);
        c.validate().unwrap();
        assert_eq!(c.nodes, 72);
        assert_eq!(
            c.topology,
            Topology::FatTree {
                leaves: 4,
                spines: 2
            }
        );
        let mut bad = SwitchConfig::cab_fat_tree(4, 2);
        bad.nodes = 70; // not divisible by 4
        assert!(bad.validate().is_err());
        let mut bad = SwitchConfig::cab_fat_tree(1, 2);
        bad.nodes = 18;
        assert!(bad.validate().is_err(), "one leaf is not a tree");
        let bad = SwitchConfig::cab_fat_tree(4, 0);
        assert!(bad.validate().is_err(), "zero spines");
    }
}
