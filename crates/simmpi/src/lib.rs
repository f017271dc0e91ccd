//! # anp-simmpi — message-passing layer over the simulated switch
//!
//! An MPI-like substrate for `anp-simnet`: ranks, jobs, non-blocking
//! point-to-point communication with MPI matching semantics, and the
//! collectives the paper's applications need (barrier, allreduce,
//! alltoall), all lowered to packets through the simulated switch.
//!
//! This crate replaces the "thin MPI bindings plus cluster" the original
//! study relied on. A rank's behaviour is a [`Program`]: a pull-based
//! stream of [`Op`]s (compute spans, `Isend`/`Irecv`/`WaitAll`,
//! collectives) executed cooperatively by the [`World`]. Because ranks are
//! state machines on one deterministic event queue — not OS threads — the
//! same configuration always produces the same run.
//!
//! Protocol notes (documented simplifications):
//!
//! * **Eager everywhere.** Sends complete when the last packet leaves the
//!   source NIC; receivers buffer unexpected messages without flow control.
//!   All messages in the paper's workloads are ≤ 40 KB — inside the eager
//!   domain of real MPI stacks on InfiniBand.
//! * **Collectives may not overlap p2p.** A rank entering a collective must
//!   have no outstanding requests (asserted). The paper's six proxy
//!   applications and both micro-benchmarks respect this by construction.
//! * **No loss, but reordering.** The fabric never drops a packet, so
//!   there is no retransmission. Its parallel routing servers can still
//!   reorder whole messages, so every eager send carries a per-pair
//!   sequence number and the receiver hands messages to matching in send
//!   order (MPI's non-overtaking rule).
//!
//! ## Quick example
//!
//! ```
//! use anp_simmpi::{World, Op, Src, Scripted, Program};
//! use anp_simnet::{NodeId, SimTime, SwitchConfig};
//!
//! let mut world = World::new(SwitchConfig::tiny_deterministic());
//! let tx = Scripted::new(vec![
//!     Op::Isend { dst: 1, bytes: 1024, tag: 0 },
//!     Op::WaitAll,
//!     Op::Stop,
//! ]);
//! let rx = Scripted::new(vec![
//!     Op::Irecv { src: Src::Rank(0), tag: 0 },
//!     Op::WaitAll,
//!     Op::Stop,
//! ]);
//! let job = world.add_job("hello", vec![
//!     (Box::new(tx) as Box<dyn Program>, NodeId(0)),
//!     (Box::new(rx) as Box<dyn Program>, NodeId(1)),
//! ]);
//! assert!(world.run_until_job_done(job, SimTime::from_secs(1)).completed());
//! ```
//!
//! `run_until_job_done` returns a [`RunOutcome`]: completion, deadline
//! expiry, a stall, or a spent run budget — the failure cases carrying a
//! [`StallReport`] naming each blocked rank and what it waits on.

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod coll;
pub mod op;
pub mod p2p;
pub mod program;
pub mod trace;
pub mod world;

pub use op::{Op, Src};
pub use program::{Ctx, Looping, Program, Scripted};
pub use trace::{PhaseTotals, RankPhase, TraceLog};
pub use world::{
    BlockedOn, BlockedRank, EventKind, JobId, RunOutcome, StallReport, World, WorldEvent,
};
