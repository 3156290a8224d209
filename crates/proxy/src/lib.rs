//! # bifrost-proxy
//!
//! The Bifrost proxy: one lightweight routing component per live-tested
//! service. Proxies intercept incoming requests and, based on the dynamic
//! routing configuration pushed by the engine, decide which service version a
//! request is forwarded to, whether it is additionally duplicated to a
//! shadow (dark-launched) version, and whether the client is pinned to its
//! bucket via a sticky-session cookie.
//!
//! The paper's prototype implements this with `node-http-proxy`; here the
//! proxy is a deterministic routing library whose decisions are applied by
//! the simulated application (see `bifrost-casestudy`) and whose per-request
//! processing cost is accounted for by an explicit [`OverheadModel`], so the
//! end-to-end overhead experiments (Figure 6, Table 1) can be reproduced.
//!
//! Routing takes `&self`. Each call, one request or a tick's batch, is one
//! pass over its requests in arrival order, so a batch decides exactly as
//! its requests would one by one (see [`proxy`]). The sticky-session table
//! is sharded by token hash behind one lock per shard (see [`session`]).
//!
//! ```
//! use bifrost_proxy::prelude::*;
//! use bifrost_core::prelude::*;
//!
//! let service = ServiceId::new(0);
//! let stable = VersionId::new(0);
//! let canary = VersionId::new(1);
//! let split = TrafficSplit::canary(stable, canary, Percentage::new(5.0)?)?;
//! let config = ProxyConfig::new(service, stable)
//!     .with_rule(ProxyRule::split(split, false, UserSelector::All, RoutingMode::CookieBased));
//! let proxy = BifrostProxy::new("search-proxy", config);
//! let decision = proxy.route(&ProxyRequest::from_user(UserId::new(7)));
//! assert!(decision.primary == stable || decision.primary == canary);
//! # Ok::<(), bifrost_core::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod overhead;
pub mod proxy;
pub mod request;
pub mod session;

pub use config::{ProxyConfig, ProxyRule};
pub use overhead::OverheadModel;
pub use proxy::{BifrostProxy, ProxyStats};
pub use request::{ProxyRequest, RoutingDecision, ShadowCopy};
pub use session::{
    SessionShard, SessionStore, SessionToken, TokenGenerator, DEFAULT_SESSION_SHARDS,
    MAX_SESSION_SHARDS,
};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::config::{ProxyConfig, ProxyRule};
    pub use crate::overhead::OverheadModel;
    pub use crate::proxy::{BifrostProxy, ProxyStats};
    pub use crate::request::{ProxyRequest, RoutingDecision, ShadowCopy};
    pub use crate::session::{
        SessionShard, SessionStore, SessionToken, TokenGenerator, DEFAULT_SESSION_SHARDS,
        MAX_SESSION_SHARDS,
    };
}
