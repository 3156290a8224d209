//! # bifrost-core
//!
//! The formal model of multi-phase live testing strategies described in
//! *"Bifrost: Supporting Continuous Deployment with Automated Enactment of
//! Multi-Phase Live Testing Strategies"* (Schermann et al., Middleware 2016).
//!
//! A release strategy `S = ⟨B, A⟩` combines:
//!
//! * a set of [`Service`]s `B`, each available in one or more
//!   [`ServiceVersion`]s with static endpoint configuration, and
//! * a deterministic finite automaton [`Automaton`] `A = ⟨Ω, S, s₁, δ, F⟩`
//!   whose states execute timed, weighted [`Check`]s against monitoring data
//!   `Ω` and whose transition function `δ` maps the aggregated outcome of a
//!   state onto the next state via ordered [`Thresholds`].
//!
//! The crate is a *pure model*: it owns no clocks, no network, and no metric
//! store. Timed execution is enacted by `bifrost-engine`, traffic routing by
//! `bifrost-proxy`, and monitoring data by `bifrost-metrics`. Everything here
//! is deterministic and trivially testable.
//!
//! ## Quick example
//!
//! ```
//! use bifrost_core::prelude::*;
//!
//! // Two versions of the search service: the stable one and the canary.
//! let mut catalog = ServiceCatalog::new();
//! let search = catalog.add_service(Service::new("search"));
//! let stable = catalog.add_version(search, ServiceVersion::new("v1", Endpoint::new("10.0.0.1", 80)))?;
//! let canary = catalog.add_version(search, ServiceVersion::new("v2-fast", Endpoint::new("10.0.0.2", 80)))?;
//!
//! // A two-state strategy: 5% canary, then full rollout or rollback.
//! let strategy = StrategyBuilder::new("fastsearch-canary", catalog)
//!     .phase(
//!         PhaseSpec::canary("canary-5", search, stable, canary, Percentage::new(5.0)?)
//!             .duration_secs(60),
//!     )
//!     .build()?;
//! assert_eq!(strategy.automaton().states().len(), 3); // canary + success + rollback
//! # Ok::<(), bifrost_core::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod automaton;
pub mod check;
pub mod error;
pub mod hash;
pub mod ids;
pub mod outcome;
pub mod phase;
pub mod routing;
pub mod seed;
pub mod service;
pub mod state;
pub mod strategy;
pub mod thresholds;
pub mod timer;
pub mod user;

pub use automaton::{Automaton, AutomatonBuilder, Transition, TransitionTable};
pub use check::{BasicCheck, Check, CheckKind, CheckSpec, ExceptionCheck, MetricQuery, Validator};
pub use error::ModelError;
pub use ids::{CheckId, ServiceId, StateId, StrategyId, UserId, VersionId};
pub use outcome::{CheckOutcome, OutcomeMapping, OutcomeRange, StateOutcome, Weight};
pub use phase::{PhaseKind, PhaseSpec};
pub use routing::{DarkLaunchRoute, Percentage, RoutingMode, RoutingRule, TrafficSplit};
pub use seed::{Seed, TrialConfig};
pub use service::{Endpoint, Service, ServiceCatalog, ServiceVersion};
pub use state::{State, StateBuilder};
pub use strategy::{Strategy, StrategyBuilder};
pub use thresholds::Thresholds;
pub use timer::Timer;
pub use user::{User, UserAttribute, UserPopulation, UserSelector};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::automaton::{Automaton, AutomatonBuilder, Transition};
    pub use crate::check::{
        BasicCheck, Check, CheckKind, CheckSpec, ExceptionCheck, MetricQuery, Validator,
    };
    pub use crate::error::ModelError;
    pub use crate::ids::{CheckId, ServiceId, StateId, StrategyId, UserId, VersionId};
    pub use crate::outcome::{CheckOutcome, OutcomeMapping, StateOutcome, Weight};
    pub use crate::phase::{PhaseKind, PhaseSpec};
    pub use crate::routing::{DarkLaunchRoute, Percentage, RoutingMode, RoutingRule, TrafficSplit};
    pub use crate::seed::{Seed, TrialConfig};
    pub use crate::service::{Endpoint, Service, ServiceCatalog, ServiceVersion};
    pub use crate::state::{State, StateBuilder};
    pub use crate::strategy::{Strategy, StrategyBuilder};
    pub use crate::thresholds::Thresholds;
    pub use crate::timer::Timer;
    pub use crate::user::{User, UserAttribute, UserPopulation, UserSelector};
}
