//! # anp-simnet — single-switch network simulator
//!
//! A deterministic discrete-event model of the network substrate the paper
//! measures: multiple compute nodes attached to one switch whose routing
//! stage behaves like an M/G/1 queue observed through packet latencies
//! (Casas & Bronevetsky, IPDPS 2014, §III–IV).
//!
//! The simulator replaces the LLNL Cab cluster's QLogic 12300 leaf switch,
//! which is not available in this environment. It reproduces the
//! *observables* the paper's methodology depends on:
//!
//! * packets experience NIC serialization, wire latency, a shared central
//!   routing queue with a general service-time distribution, and per-port
//!   egress serialization;
//! * probe latency distributions shift right (and grow tails) as offered
//!   load rises;
//! * the switch back-pressures sources when its internal queue fills, as
//!   link-level flow control does on InfiniBand.
//!
//! The crate is deliberately single-threaded: determinism (same seed, same
//! run) is a hard requirement for reproducible experiments, and one event
//! loop is faster than any locked alternative at this scale.
//!
//! ## Quick example
//!
//! ```
//! use anp_simnet::{drain, EventQueue, Fabric, NetEvent, NodeId, Notice, SimTime, SwitchConfig};
//!
//! let mut fabric = Fabric::new(SwitchConfig::tiny_deterministic());
//! let mut queue: EventQueue<NetEvent> = EventQueue::new();
//! let msg = fabric.send_message(&mut queue, 0, NodeId(0), NodeId(1), 4096);
//! let notices = drain(&mut fabric, &mut queue, SimTime::from_nanos(1_000_000));
//! // The send completes locally when its last packet leaves the NIC, then
//! // the message arrives whole. Notices name only the message.
//! assert_eq!(
//!     notices,
//!     [Notice::MessageInjected { msg }, Notice::MessageDelivered { msg }]
//! );
//! ```

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod audit;
pub mod config;
pub mod event;
pub mod fabric;
pub mod nic;
pub mod packet;
pub mod service;
pub mod stats;
pub mod switch;
pub mod time;
pub mod util;

pub use audit::{AuditReport, AuditViolation, InvariantKind};
pub use config::{ConfigError, SwitchConfig, Topology};
pub use event::EventQueue;
pub use fabric::{drain, Fabric, NetEvent, Notice};
pub use packet::{Message, MessageId, NodeId, Packet};
pub use service::ServiceDistribution;
pub use stats::{FabricStats, SwitchStats};
pub use time::{SimDuration, SimTime};
