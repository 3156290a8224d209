//! # bifrost-workload
//!
//! The load-generation substrate of the evaluation: an open-loop request
//! generator standing in for the Apache JMeter test suite of the paper, plus
//! the response-time recording and summarisation used to produce Figure 6
//! and Table 1.
//!
//! The paper's load profile: after a 30-second ramp-up, a steady 35 requests
//! per second hit the product service, drawn from a mix of four request
//! types (Buy, Details, Products, Search) that touch different parts of the
//! case-study application.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod generator;
pub mod recorder;
pub mod requests;

pub use generator::{
    Arrival, ArrivalBatch, ArrivalCheckpoint, ArrivalCursor, ArrivalPlan, LoadProfile, TickBatches,
    TickCheckpoint, TickCheckpoints,
};
pub use recorder::{PhaseWindow, ResponseRecord, ResponseRecorder};
pub use requests::{RequestKind, RequestMix};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::generator::{
        Arrival, ArrivalBatch, ArrivalCheckpoint, ArrivalCursor, ArrivalPlan, LoadProfile,
        TickBatches, TickCheckpoint, TickCheckpoints,
    };
    pub use crate::recorder::{PhaseWindow, ResponseRecord, ResponseRecorder};
    pub use crate::requests::{RequestKind, RequestMix};
}
