//! # bifrost-simnet
//!
//! A deterministic discrete-event cluster simulator that stands in for the
//! paper's Google Cloud / Docker Swarm testbed. It models:
//!
//! * **virtual time** ([`SimTime`], microsecond resolution),
//! * **CPUs** whose contention produces queueing delay and utilisation
//!   ([`CpuResource`]; a heap of core free times, [`CoreHeap`], makes each
//!   submission O(log c), so proxy VMs of hundreds of cores cost little to
//!   simulate), and
//! * a **cluster** of containers, each on a single-core VM of its own, with
//!   a per-hop network latency between them, exporting cAdvisor-style
//!   resource metrics into a shared metric store ([`Cluster`]).
//!
//! The substitution argument: the paper's evaluation measures *relative*
//! effects — an extra proxy hop per request, the saturation point of a
//! single-core engine, the enactment delay caused by serialising concurrent
//! check executions on one core. A calibrated discrete-event model of
//! exactly those mechanisms reproduces the shape of the results without
//! cloud access.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cluster;
pub mod cpu;
pub mod rng;
pub mod time;

pub use cluster::{Cluster, ContainerId};
pub use cpu::{CoreHeap, CpuResource, WorkReceipt};
pub use rng::SimRng;
pub use time::SimTime;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::cluster::{Cluster, ContainerId};
    pub use crate::cpu::{CoreHeap, CpuResource, WorkReceipt};
    pub use crate::rng::SimRng;
    pub use crate::time::SimTime;
}
