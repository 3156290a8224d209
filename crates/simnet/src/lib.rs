//! # bifrost-simnet
//!
//! A deterministic discrete-event cluster simulator that stands in for the
//! paper's Google Cloud / Docker Swarm testbed. It models:
//!
//! * **virtual time** ([`SimTime`], microsecond resolution),
//! * **VMs and containers** with a single-core (or multi-core) CPU whose
//!   contention produces queueing delay and utilisation
//!   ([`CpuResource`], [`Vm`], [`Container`]),
//! * a **network latency model** between containers ([`NetworkModel`]), and
//! * a **cluster** tying it all together and exporting cAdvisor-style
//!   resource metrics into a shared metric store ([`Cluster`]).
//!
//! The substitution argument (documented in `DESIGN.md`): the paper's
//! evaluation measures *relative* effects — an extra proxy hop per request,
//! the saturation point of a single-core engine, the enactment delay caused
//! by serialising concurrent check executions on one core. A calibrated
//! discrete-event model of exactly those mechanisms reproduces the shape of
//! the results without cloud access.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cluster;
pub mod cpu;
pub mod network;
pub mod rng;
pub mod time;

pub use cluster::{Cluster, Container, ContainerId, InstanceSpec, Vm, VmId};
pub use cpu::{CpuResource, WorkReceipt};
pub use network::{LatencyModel, NetworkModel};
pub use rng::SimRng;
pub use time::SimTime;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::cluster::{Cluster, Container, ContainerId, InstanceSpec, Vm, VmId};
    pub use crate::cpu::{CpuResource, WorkReceipt};
    pub use crate::network::{LatencyModel, NetworkModel};
    pub use crate::rng::SimRng;
    pub use crate::time::SimTime;
}
