//! # bifrost-engine
//!
//! The Bifrost engine: the middleware component that interprets release
//! strategies (the formal model of `bifrost-core`), executes their checks on
//! timers against monitoring data, evaluates state transitions, and pushes
//! routing configurations to the per-service proxies.
//!
//! The engine runs on *virtual time* ([`bifrost_simnet::SimTime`]) driven
//! by its own event queue. Every unit of engine work — executing a check
//! (including its metric queries), evaluating a completed state, pushing a
//! proxy configuration — consumes CPU on the engine's single-core
//! processor. This makes the engine-side evaluation of the paper directly
//! reproducible: CPU utilisation under many parallel strategies (Figure 7),
//! enactment delay under many parallel strategies (Figure 8), and the same
//! two quantities under an increasing number of parallel checks
//! (Figures 9–10).
//!
//! ```
//! use bifrost_core::prelude::*;
//! use bifrost_engine::prelude::*;
//! use bifrost_metrics::SharedMetricStore;
//! use bifrost_simnet::SimTime;
//!
//! // Catalog: a search service with a stable and a canary version.
//! let mut catalog = ServiceCatalog::new();
//! let search = catalog.add_service(Service::new("search"));
//! let stable = catalog.add_version(search, ServiceVersion::new("v1", Endpoint::new("10.0.0.1", 80)))?;
//! let fast = catalog.add_version(search, ServiceVersion::new("v2", Endpoint::new("10.0.0.2", 80)))?;
//!
//! // A single-phase canary strategy without checks (auto-passes).
//! let strategy = StrategyBuilder::new("quick-canary", catalog)
//!     .phase(PhaseSpec::canary("canary", search, stable, fast, Percentage::new(5.0)?).duration_secs(30))
//!     .build()?;
//!
//! // Engine with an in-process metric store as its "prometheus" provider.
//! let store = SharedMetricStore::new();
//! let mut engine = BifrostEngine::new(EngineConfig::default());
//! engine.register_store_provider("prometheus", store);
//! engine.register_proxy(search, stable);
//! let handle = engine.schedule(strategy, SimTime::ZERO);
//! engine.run_until(SimTime::from_secs(120));
//! assert!(engine.report(handle).unwrap().is_finished());
//! # Ok::<(), bifrost_core::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backends;
pub mod cost;
pub mod engine;
pub mod events;
pub mod execution;
pub mod proxies;
pub mod report;
pub mod traffic;

pub use backends::{BackendDispatch, BackendFleet, QueuedBackend, VersionBackend};
pub use cost::EngineCostModel;
pub use engine::{BifrostEngine, EngineConfig, StrategyHandle};
pub use events::{DueAction, EngineEvent, EventLog, EventQueue};
pub use execution::{CheckProgress, ExecutionStatus, StrategyExecution};
pub use proxies::{ProxyFleet, ProxyHandle};
pub use report::StrategyReport;
pub use traffic::{BackendModel, BackendProfile, TrafficHandle, TrafficProfile, TrafficStats};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::backends::{BackendDispatch, BackendFleet, QueuedBackend, VersionBackend};
    pub use crate::cost::EngineCostModel;
    pub use crate::engine::{BifrostEngine, EngineConfig, StrategyHandle};
    pub use crate::events::{DueAction, EngineEvent, EventLog, EventQueue};
    pub use crate::execution::{CheckProgress, ExecutionStatus, StrategyExecution};
    pub use crate::proxies::{ProxyFleet, ProxyHandle};
    pub use crate::report::StrategyReport;
    pub use crate::traffic::{
        BackendModel, BackendProfile, TrafficHandle, TrafficProfile, TrafficStats,
    };
}
