//! # Bifrost — multi-phase live testing for continuous deployment
//!
//! A Rust reproduction of *"Bifrost: Supporting Continuous Deployment with
//! Automated Enactment of Multi-Phase Live Testing Strategies"*
//! (Schermann, Schöni, Leitner, Gall — ACM/IFIP/USENIX Middleware 2016).
//!
//! This facade crate re-exports the individual workspace crates under a
//! single dependency, so downstream users can write `bifrost::core::…`,
//! `bifrost::engine::…`, and so on:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `bifrost-core` | the formal model: strategies, automata, states, checks, thresholds, routing configuration |
//! | [`metrics`] | `bifrost-metrics` | the monitoring substrate: time-series store, Prometheus-flavoured queries, providers, summary statistics |
//! | [`simnet`] | `bifrost-simnet` | the deterministic cluster simulator: virtual time, CPU contention, single-core containers with one network hop between them |
//! | [`proxy`] | `bifrost-proxy` | the routing proxy: traffic splits, sticky sessions, dark-launch duplication, overhead model |
//! | [`engine`] | `bifrost-engine` | the enactment engine: strategy scheduling, timed checks, transitions, proxy configuration |
//! | [`dsl`] | `bifrost-dsl` | the YAML-based strategy DSL: parser, document model, compiler |
//! | [`workload`] | `bifrost-workload` | the load generator and response-time recorder |
//! | [`casestudy`] | `bifrost-casestudy` | the 7-service e-commerce application and the paper's evaluation scenarios |
//!
//! ## Quick example
//!
//! Define a two-phase strategy in the DSL, compile it, and enact it against
//! an engine running on virtual time:
//!
//! ```
//! use bifrost::dsl;
//! use bifrost::engine::{BifrostEngine, EngineConfig};
//! use bifrost::metrics::SharedMetricStore;
//! use bifrost::simnet::SimTime;
//!
//! let strategy = dsl::parse_strategy(r#"
//! name: quickstart
//! strategy:
//!   phases:
//!     - phase: canary
//!       service: search
//!       stable: v1
//!       candidate: v2
//!       traffic: 5
//!       duration: 60
//!     - phase: rollout
//!       service: search
//!       stable: v1
//!       candidate: v2
//!       from_traffic: 10
//!       to_traffic: 100
//!       step: 10
//!       step_duration: 30
//! "#)?;
//!
//! let mut engine = BifrostEngine::new(EngineConfig::default());
//! engine.register_store_provider("prometheus", SharedMetricStore::new());
//! let handle = engine.schedule(strategy, SimTime::ZERO);
//! engine.run_to_completion(SimTime::from_secs(3_600));
//! assert!(engine.report(handle).unwrap().succeeded());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The case-study application and evaluation scenarios (`bifrost-casestudy`).
pub use bifrost_casestudy as casestudy;
/// The formal model of live testing strategies (`bifrost-core`).
pub use bifrost_core as core;
/// The YAML-based strategy DSL (`bifrost-dsl`).
pub use bifrost_dsl as dsl;
/// The enactment engine (`bifrost-engine`).
pub use bifrost_engine as engine;
/// The monitoring-data substrate (`bifrost-metrics`).
pub use bifrost_metrics as metrics;
/// The routing proxy (`bifrost-proxy`).
pub use bifrost_proxy as proxy;
/// The deterministic cluster simulator (`bifrost-simnet`).
pub use bifrost_simnet as simnet;
/// The load generator and response recorder (`bifrost-workload`).
pub use bifrost_workload as workload;

/// A prelude pulling in the most commonly used types from every layer.
pub mod prelude {
    pub use bifrost_casestudy::prelude::*;
    pub use bifrost_core::prelude::*;
    pub use bifrost_engine::prelude::*;
    pub use bifrost_metrics::prelude::*;
    pub use bifrost_proxy::prelude::*;
    pub use bifrost_simnet::prelude::*;
    pub use bifrost_workload::prelude::*;
}
