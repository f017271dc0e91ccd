//! # anp-workloads — micro-benchmarks and application proxies
//!
//! The software that runs *on* the simulated cluster:
//!
//! * [`impactb`] — the paper's light latency probe (Fig. 2);
//! * [`compressionb`] — the paper's heavy interference benchmark (Fig. 5)
//!   with its full 40-configuration sweep (§IV-C);
//! * [`apps`] / [`registry`] — proxies for the six HPC applications of the
//!   evaluation (AMG, FFTW, Lulesh, MCB, MILC, VPFFT), reproducing each
//!   code's communication skeleton at the paper's scale (144 ranks on 18
//!   nodes; Lulesh 64 on 16);
//! * [`probetrain`] — seeded, jittered ImpactB probe trains for the
//!   always-on monitor (`anp-monitor`), decorrelated from workload
//!   phases;
//! * [`placement`] — the node-major rank layouts and torus topologies;
//! * [`arrivals`] — seeded job arrival streams feeding the `anp-sched`
//!   co-scheduling study.
//!
//! The production applications themselves are not available in this
//! environment; per DESIGN.md, each proxy preserves the property the
//! methodology actually consumes — the app's probe-latency footprint and
//! its sensitivity to reduced switch capability.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod apps;
pub mod arrivals;
pub mod compressionb;
pub mod impactb;
pub mod placement;
pub mod probetrain;
pub mod registry;

pub use apps::common::RunMode;
pub use arrivals::{JobSpec, StreamConfig};
pub use compressionb::{build_compressionb, CompressionConfig};
pub use impactb::{
    build_impactb, latencies, new_sink, ImpactConfig, Members, ProbeSample, SampleSink,
};
pub use placement::Layout;
pub use probetrain::{build_probe_train, TrainConfig};
pub use registry::AppKind;
