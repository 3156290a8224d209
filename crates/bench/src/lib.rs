//! # bifrost-bench
//!
//! Experiment harnesses that regenerate every table and figure of the
//! paper's evaluation section, driven by the `experiments` binary.
//!
//! | Paper artifact | Harness |
//! |---|---|
//! | Figure 6 (response-time timeline) | [`fig6::run`] |
//! | Table 1 (per-phase response-time statistics) | [`table1::run`] |
//! | Figure 7 (engine CPU vs parallel strategies) | [`fig7_fig8::run`] |
//! | Figure 8 (enactment delay vs parallel strategies) | [`fig7_fig8::run`] |
//! | Figure 9 (engine CPU vs parallel checks) | [`fig9_fig10::run`] |
//! | Figure 10 (enactment delay vs parallel checks) | [`fig9_fig10::run`] |
//! | `traffic` (request-level routing accuracy, latency, and per-request proxy CPU — no paper counterpart) | [`traffic_experiments::run_point_seeded`] |
//! | `sessions` (sticky-routing throughput vs session-store shard count — no paper counterpart) | [`session_experiments::run_sweep_seeded`] |
//! | `backends` (canary overload: p95 and shed rate vs replica count, with/without a dark launch — no paper counterpart) | [`backend_experiments::run_point_seeded`] |
//!
//! Each harness returns plain data structures so the binary can print them
//! as text tables and tests can assert on the qualitative shape (who wins,
//! where saturation starts) without pinning absolute numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend_experiments;
pub mod engine_experiments;
pub mod json;
pub mod overhead_experiments;
pub mod report;
pub mod runner;
pub mod session_experiments;
pub mod suite;
pub mod traffic_experiments;

pub use backend_experiments::BackendsPointResult;
pub use engine_experiments::{fig7_fig8, fig9_fig10, ParallelChecksPoint, ParallelStrategiesPoint};
pub use json::{Json, JsonError};
pub use overhead_experiments::{fig6, table1, Fig6Series, Table1Row};
pub use report::{format_series, format_table, render_bench_report};
pub use runner::{
    gate, run_trials, BenchReport, GateFinding, GateResult, PointStats, RunnerConfig, TrialOutcome,
};
pub use session_experiments::{SessionsConfig, SessionsPointResult};
pub use suite::{point_names, run_figure};
pub use traffic_experiments::TrafficPointResult;
