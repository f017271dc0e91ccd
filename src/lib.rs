//! Umbrella crate for the Active Network Probe workspace.
//!
//! Re-exports the public API of every workspace crate so integration tests
//! and examples can use a single `active_netprobe::` namespace.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub use anp_core as core;
pub use anp_metrics as metrics;
pub use anp_simmpi as simmpi;
pub use anp_simnet as simnet;
pub use anp_workloads as workloads;
