//! The Bifrost proxy itself: per-request routing decisions.
//!
//! The decision process mirrors Section 4.2 of the paper:
//!
//! 1. With **header-based routing**, the proxy never decides itself — it
//!    routes on the value of the group header injected upstream (`A`/`B`
//!    select the first/second version of the split; anything else falls back
//!    to the default version).
//! 2. With **cookie-based routing**, the proxy buckets the client itself. If
//!    the request carries a known session cookie and sticky sessions are on,
//!    the stored binding wins. Otherwise the client (or, for anonymous
//!    requests, a fresh token) is hashed into the traffic split, and with
//!    sticky sessions the binding is remembered and a `Set-Cookie` is
//!    emitted.
//! 3. Every applicable dark-launch rule adds a shadow copy of the request
//!    with the configured probability.
//!
//! Routing takes `&self`: the sticky-session table is sharded behind
//! striped locks (see [`crate::session`]) and the statistics counters are
//! striped the same way, so concurrent callers holding read access to the
//! proxy route in parallel and only contend per shard. Batch routing
//! ([`BifrostProxy::route_many_costed`]) partitions each batch by session
//! shard and takes one lock per *touched shard* instead of one global lock
//! per batch — while producing byte-identical decisions, in the original
//! request order, for every shard count.

use crate::config::{ProxyConfig, ProxyRule};
use crate::overhead::OverheadModel;
use crate::request::{ProxyRequest, RoutingDecision, ShadowCopy};
use crate::session::{SessionShard, SessionStore, SessionToken, TokenGenerator};
use bifrost_core::hash;
use bifrost_core::ids::{UserId, VersionId};
use bifrost_core::routing::{DarkLaunchRoute, RoutingMode, TrafficSplit};
use bifrost_core::user::{User, UserSelector};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

/// Counters describing what a proxy has done so far.
///
/// The live counters are striped per session shard; [`BifrostProxy::stats`]
/// merges the stripes with [`ProxyStats::merge`], whose aggregates are sums
/// and `BTreeMap`-keyed tallies — both independent of shard count and shard
/// iteration order, so a 16-shard proxy reports exactly the statistics of a
/// 1-shard proxy over the same traffic.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProxyStats {
    /// Total requests routed.
    pub requests: u64,
    /// Requests per version (primary routing only, shadows excluded).
    pub per_version: BTreeMap<VersionId, u64>,
    /// Total shadow copies produced.
    pub shadow_copies: u64,
    /// Number of configuration updates received.
    pub config_updates: u64,
    /// Requests answered from the sticky-session table.
    pub sticky_hits: u64,
}

impl ProxyStats {
    /// Folds one routing decision into the counters — the single
    /// bookkeeping path shared by single-request and batch routing.
    fn tally(&mut self, decision: &RoutingDecision) {
        self.requests += 1;
        self.shadow_copies += decision.shadows.len() as u64;
        *self.per_version.entry(decision.primary).or_insert(0) += 1;
        if decision.from_sticky_session {
            self.sticky_hits += 1;
        }
    }

    /// Folds another stats stripe into this one. Per-version counters
    /// aggregate into the same `BTreeMap` (`VersionId`-ordered) regardless
    /// of the order stripes are merged in.
    pub fn merge(&mut self, other: &ProxyStats) {
        self.requests += other.requests;
        self.shadow_copies += other.shadow_copies;
        self.config_updates += other.config_updates;
        self.sticky_hits += other.sticky_hits;
        for (version, count) in &other.per_version {
            *self.per_version.entry(*version).or_insert(0) += count;
        }
    }
}

/// The split rule of a configuration, pre-resolved for the per-request hot
/// path (no rule scanning, no `TrafficSplit` cloning per request).
#[derive(Debug, Clone)]
struct CompiledSplit {
    split: TrafficSplit,
    /// The split's versions in declaration order (header routing indexes
    /// into this).
    versions: Vec<VersionId>,
    sticky: bool,
    selector: UserSelector,
    mode: RoutingMode,
}

/// A [`ProxyConfig`] compiled once per configuration push, so routing a
/// request — and especially routing a *batch* of requests — performs no
/// per-request config lookups.
#[derive(Debug, Clone)]
struct CompiledRules {
    default_version: VersionId,
    split: Option<CompiledSplit>,
    shadows: Vec<DarkLaunchRoute>,
}

impl CompiledRules {
    fn compile(config: &ProxyConfig) -> Self {
        let split = config.split_rule().and_then(|rule| match rule {
            ProxyRule::Split {
                split,
                sticky,
                selector,
                mode,
            } => Some(CompiledSplit {
                versions: split.versions().collect(),
                split: split.clone(),
                sticky: *sticky,
                selector: selector.clone(),
                mode: *mode,
            }),
            ProxyRule::Shadow { .. } => None,
        });
        let shadows = config
            .shadow_rules()
            .filter_map(|rule| match rule {
                ProxyRule::Shadow { route } => Some(*route),
                ProxyRule::Split { .. } => None,
            })
            .collect();
        Self {
            default_version: config.default_version(),
            split,
            shadows,
        }
    }
}

/// A Bifrost proxy instance fronting one service.
#[derive(Debug)]
pub struct BifrostProxy {
    name: String,
    config: ProxyConfig,
    compiled: CompiledRules,
    sessions: SessionStore,
    tokens: Mutex<TokenGenerator>,
    overhead: OverheadModel,
    /// Routing counters, striped one-to-one with the session shards so the
    /// batch path updates the stripe it already partitioned for.
    stats: Vec<Mutex<ProxyStats>>,
    /// Configuration pushes are serialized through `&mut self`
    /// ([`Self::apply_config`]), so this counter needs no stripe.
    config_updates: u64,
}

impl BifrostProxy {
    /// Creates a proxy with the given initial configuration and the default
    /// session-shard count.
    pub fn new(name: impl Into<String>, config: ProxyConfig) -> Self {
        let name = name.into();
        let seed = hash::fnv1a(name.as_bytes());
        let sessions = SessionStore::new();
        let stats = (0..sessions.shard_count())
            .map(|_| Mutex::default())
            .collect();
        Self {
            name,
            compiled: CompiledRules::compile(&config),
            config,
            sessions,
            tokens: Mutex::new(TokenGenerator::seeded(seed)),
            overhead: OverheadModel::default(),
            stats,
            config_updates: 0,
        }
    }

    /// Overrides the session-store shard count (builder style). Only valid
    /// before routing starts: the store is rebuilt empty and the statistics
    /// stripes are re-created alongside it.
    pub fn with_session_shards(mut self, shards: usize) -> Self {
        self.sessions = SessionStore::with_shards(shards);
        self.stats = (0..self.sessions.shard_count())
            .map(|_| Mutex::default())
            .collect();
        self
    }

    /// The proxy name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The active configuration.
    pub fn config(&self) -> &ProxyConfig {
        &self.config
    }

    /// The routing statistics accumulated so far, merged across the
    /// per-shard stripes (order-independent, see [`ProxyStats::merge`]).
    pub fn stats(&self) -> ProxyStats {
        let mut merged = ProxyStats {
            config_updates: self.config_updates,
            ..ProxyStats::default()
        };
        for stripe in &self.stats {
            merged.merge(&stripe.lock());
        }
        merged
    }

    /// The overhead model in use.
    pub fn overhead(&self) -> &OverheadModel {
        &self.overhead
    }

    /// Applies a new configuration pushed by the engine. Sticky-session
    /// bindings are cleared because the new state defines new buckets.
    pub fn apply_config(&mut self, config: ProxyConfig) {
        self.sessions.clear();
        self.compiled = CompiledRules::compile(&config);
        self.config = config;
        self.config_updates += 1;
    }

    /// Whether any strategy-driven rules are currently installed.
    pub fn is_active(&self) -> bool {
        !self.config.rules().is_empty()
    }

    /// Routes one request and returns the decision.
    pub fn route(&self, request: &ProxyRequest) -> RoutingDecision {
        self.route_user(request, None)
    }

    /// Routes one request with the full user object available for selector
    /// evaluation (e.g. country filters). Without it only percentage/All
    /// selectors can match.
    pub fn route_user(&self, request: &ProxyRequest, user: Option<&User>) -> RoutingDecision {
        let minted = self.mint_if_needed(request, user);
        let shard = self.shard_for(request, minted);
        let decision = {
            let mut guard = self.sessions.shard(shard);
            route_one(&self.compiled, &mut guard, request, user, minted)
        };
        self.stats[shard].lock().tally(&decision);
        decision
    }

    /// Routes one request and returns the decision together with its CPU
    /// cost — one call for callers that apply both (the application
    /// simulation and the traffic pipeline).
    pub fn route_costed(&self, request: &ProxyRequest) -> (RoutingDecision, Duration) {
        let decision = self.route(request);
        let cost = self.processing_cost(&decision);
        (decision, cost)
    }

    /// Routes a batch of requests through the compiled configuration and
    /// returns one `(decision, CPU cost)` pair per request, in order.
    ///
    /// This is the hot path of the request-level traffic simulation, in
    /// three stages:
    ///
    /// 1. a serial pre-pass mints the session tokens the batch will consume
    ///    **in arrival order** (one token-generator lock for the whole
    ///    batch), which keeps decisions byte-identical to one-by-one
    ///    routing and independent of the shard count;
    /// 2. the batch is partitioned by session shard (a pure hash of each
    ///    request's effective token);
    /// 3. each touched shard's group is routed under that shard's lock —
    ///    one session lock and one stats lock per touched shard, never a
    ///    store-wide lock.
    pub fn route_many_costed<'a, I>(&self, requests: I) -> Vec<(RoutingDecision, Duration)>
    where
        I: IntoIterator<Item = &'a ProxyRequest>,
    {
        let requests: Vec<&ProxyRequest> = requests.into_iter().collect();
        // Stage 1: serial token pre-pass in arrival order.
        let mut minted: Vec<Option<SessionToken>> = vec![None; requests.len()];
        if requests
            .iter()
            .any(|request| token_need(&self.compiled, request, None))
        {
            let mut tokens = self.tokens.lock();
            for (slot, request) in minted.iter_mut().zip(&requests) {
                if token_need(&self.compiled, request, None) {
                    *slot = Some(tokens.next_token());
                }
            }
        }
        // Stage 2: partition request indices by session shard — a stable
        // counting sort (one pass to count, one to scatter), so a batch
        // costs three flat allocations instead of one growing vector per
        // shard.
        let shard_count = self.sessions.shard_count();
        let shard_of: Vec<usize> = requests
            .iter()
            .enumerate()
            .map(|(index, request)| self.shard_for(request, minted[index]))
            .collect();
        let mut group_start = vec![0usize; shard_count + 1];
        for &shard in &shard_of {
            group_start[shard + 1] += 1;
        }
        for shard in 0..shard_count {
            group_start[shard + 1] += group_start[shard];
        }
        let mut order = vec![0usize; requests.len()];
        let mut cursor = group_start.clone();
        for (index, &shard) in shard_of.iter().enumerate() {
            order[cursor[shard]] = index;
            cursor[shard] += 1;
        }
        // Stage 3: route each shard's group under its lock, writing results
        // back into arrival order.
        let mut out: Vec<Option<(RoutingDecision, Duration)>> = vec![None; requests.len()];
        for shard in 0..shard_count {
            let members = &order[group_start[shard]..group_start[shard + 1]];
            if members.is_empty() {
                continue;
            }
            let mut stripe = ProxyStats::default();
            {
                let mut guard = self.sessions.shard(shard);
                for &index in members {
                    let decision = route_one(
                        &self.compiled,
                        &mut guard,
                        requests[index],
                        None,
                        minted[index],
                    );
                    stripe.tally(&decision);
                    let cost = self.processing_cost(&decision);
                    out[index] = Some((decision, cost));
                }
            }
            self.stats[shard].lock().merge(&stripe);
        }
        out.into_iter()
            .map(|slot| slot.expect("every request was routed in its shard group"))
            .collect()
    }

    /// The CPU demand of processing one request under the current
    /// configuration, given the routing decision produced for it.
    pub fn processing_cost(&self, decision: &RoutingDecision) -> Duration {
        if !self.is_active() {
            return self.overhead.passthrough_cost();
        }
        let (mode, sticky) = match &self.compiled.split {
            Some(rule) => (rule.mode, rule.sticky),
            None => (RoutingMode::CookieBased, false),
        };
        self.overhead
            .request_cost(mode, sticky, decision.shadows.len())
    }

    /// Read access to the sticky-session table (for tests and dashboards).
    pub fn sessions(&self) -> &SessionStore {
        &self.sessions
    }

    /// Mints the one token this request will consume, if the compiled
    /// configuration makes it consume one (see [`token_need`]).
    fn mint_if_needed(&self, request: &ProxyRequest, user: Option<&User>) -> Option<SessionToken> {
        token_need(&self.compiled, request, user).then(|| self.tokens.lock().next_token())
    }

    /// The shard whose lock covers this request: keyed by the effective
    /// session token (carried or freshly minted); identified users without
    /// any token hash to a stable stripe, and fully identity-less requests
    /// (possible only when no rule touches them) fall back to stripe 0.
    fn shard_for(&self, request: &ProxyRequest, minted: Option<SessionToken>) -> usize {
        match (request.session_token().or(minted), request.user) {
            (Some(token), _) => self.sessions.shard_of(token),
            (None, Some(user)) => {
                (hash::mix64(user.raw()) % self.sessions.shard_count() as u64) as usize
            }
            (None, None) => 0,
        }
    }
}

/// Whether routing `request` under `compiled` consumes one token from the
/// proxy's generator. This mirrors the minting sites in [`route_one`] /
/// [`route_by_cookie`] exactly and depends only on the configuration and
/// the request — never on session-table state (a carried token is never
/// re-minted, bound or not) — so batch routing can pre-mint tokens in
/// arrival order before partitioning by shard.
fn token_need(compiled: &CompiledRules, request: &ProxyRequest, user: Option<&User>) -> bool {
    if request.session_token().is_some() {
        return false;
    }
    if let Some(rule) = &compiled.split {
        let selected = match (user, request.user) {
            (Some(user), _) => rule.selector.selects(user),
            (None, Some(user_id)) => rule.selector.selects(&User::new(user_id)),
            (None, None) => true,
        };
        if selected && rule.mode == RoutingMode::CookieBased {
            return match request.user {
                // Anonymous cookieless client: minted to bucket the split
                // (and reused by the shadow path and `Set-Cookie`).
                None => true,
                // Identified user: minted only to pin the sticky binding.
                Some(_) => rule.sticky,
            };
        }
    }
    // No split, header routing, or an unselected user: only the shadow
    // path mints, and only for requests with no identity at all.
    !compiled.shadows.is_empty() && request.user.is_none()
}

/// Routes one request against a compiled configuration inside the session
/// shard its identity hashes to. Tokens are never generated here — the one
/// token the request may consume is pre-minted by the caller (`minted`), so
/// shard groups can be processed in any order without perturbing the
/// deterministic token sequence.
fn route_one(
    compiled: &CompiledRules,
    shard: &mut SessionShard,
    request: &ProxyRequest,
    user: Option<&User>,
    minted: Option<SessionToken>,
) -> RoutingDecision {
    let mut decision = match &compiled.split {
        None => RoutingDecision::to(compiled.default_version),
        Some(rule) => {
            let selected = match (user, request.user) {
                (Some(user), _) => rule.selector.selects(user),
                (None, Some(user_id)) => rule.selector.selects(&User::new(user_id)),
                (None, None) => true,
            };
            if !selected {
                RoutingDecision::to(compiled.default_version)
            } else {
                match rule.mode {
                    RoutingMode::HeaderBased => route_by_header(compiled, rule, request),
                    RoutingMode::CookieBased => route_by_cookie(rule, shard, request, minted),
                }
            }
        }
    };

    if !compiled.shadows.is_empty() {
        // Percentage-based duplication: one draw per request, hashed from
        // the session/user identity so the same *clients* are consistently
        // duplicated. Anonymous requests reuse the cookie the split path
        // just minted, or consume the pre-minted re-identification cookie
        // here — never a constant draw (a constant 0.0 used to shadow
        // *every* anonymous request regardless of the percentage). The hash
        // is salted differently than the split-bucketing draw: with the
        // same draw for both, "p% of the source's traffic" would silently
        // become "the p% of clients with the lowest bucket draw", which a
        // split correlates with the version assignment.
        // The user id outranks the session cookie here (unlike split
        // bucketing): an identified user keeps one shadow decision whether
        // or not their request carries the sticky cookie minted later.
        let identity = request
            .user
            .map(UserId::raw)
            .or_else(|| request.session_token().map(|token| token.raw() as u64))
            .or_else(|| decision.set_cookie.map(|token| token.raw() as u64));
        let draw = match identity {
            Some(bits) => shadow_draw(bits),
            None => {
                // Cookieless anonymous client under a shadow-only config:
                // set the cookie so return visits keep the same draw.
                let token = minted.expect("token_need pre-mints for identity-less requests");
                decision.set_cookie = Some(token);
                shadow_draw(token.raw() as u64)
            }
        };
        for route in &compiled.shadows {
            // Only traffic actually served by the route's source version is
            // duplicated. (Also matching the default version used to inflate
            // the shadow share: requests split onto *other* versions were
            // duplicated whenever the rule's source was the default.)
            if route.source == decision.primary && draw < route.percentage.fraction() {
                decision.shadows.push(ShadowCopy {
                    target: route.target,
                });
            }
        }
    }
    decision
}

fn route_by_header(
    compiled: &CompiledRules,
    rule: &CompiledSplit,
    request: &ProxyRequest,
) -> RoutingDecision {
    let versions = &rule.versions;
    let target = match request.group_header() {
        Some("A") | Some("a") => versions.first().copied(),
        Some("B") | Some("b") => versions.get(1).copied(),
        Some(other) => other
            .parse::<usize>()
            .ok()
            .and_then(|idx| versions.get(idx).copied()),
        None => None,
    };
    RoutingDecision::to(target.unwrap_or(compiled.default_version))
}

fn route_by_cookie(
    rule: &CompiledSplit,
    shard: &mut SessionShard,
    request: &ProxyRequest,
    minted: Option<SessionToken>,
) -> RoutingDecision {
    // A returning client with a bound session keeps its version.
    if rule.sticky {
        if let Some(token) = request.session_token() {
            if let Some(version) = shard.lookup(token) {
                let mut decision = RoutingDecision::to(version);
                decision.from_sticky_session = true;
                return decision;
            }
        }
    }
    // Otherwise bucket the client: prefer the session token (returning
    // anonymous client), then the user id, then the pre-minted token.
    let (token, draw) = match (request.session_token(), request.user) {
        (Some(token), _) => (Some(token), token.bucket_draw()),
        (None, Some(user)) => (None, user_draw(user)),
        (None, None) => {
            let token = minted.expect("token_need pre-mints for anonymous cookie routing");
            (Some(token), token.bucket_draw())
        }
    };
    let version = rule.split.pick(draw);
    let mut decision = RoutingDecision::to(version);
    if rule.sticky {
        let token =
            token.unwrap_or_else(|| minted.expect("token_need pre-mints for sticky user binding"));
        shard.bind(token, version);
        decision.set_cookie = Some(token);
    } else if request.session_token().is_none() && request.user.is_none() {
        // Non-sticky cookie routing still sets the re-identification
        // cookie so that traffic shares stay consistent per client.
        decision.set_cookie = token;
    }
    decision
}

/// Salt XORed into the identity for the dark-launch draw, decorrelating it
/// from the split-bucketing draw over the same identity.
const SHADOW_DRAW_SALT: u64 = 0x6C62_272E_07BB_0142;

/// Deterministically hashes a user id into `[0, 1)` for bucketing.
fn user_draw(user: UserId) -> f64 {
    hash::mix_unit(user.raw())
}

/// Deterministically hashes an identity into `[0, 1)` for the dark-launch
/// draw. Salted so it is decorrelated from [`user_draw`] /
/// [`SessionToken::bucket_draw`]: the same identity keeps a stable shadow
/// decision across requests, but whether a client is shadowed is
/// independent of which version the split bucketed it into.
fn shadow_draw(identity: u64) -> f64 {
    hash::mix_unit(identity ^ SHADOW_DRAW_SALT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bifrost_core::ids::ServiceId;
    use bifrost_core::routing::{DarkLaunchRoute, Percentage, TrafficSplit};
    use bifrost_core::user::UserSelector;

    fn ids() -> (ServiceId, VersionId, VersionId) {
        (ServiceId::new(0), VersionId::new(0), VersionId::new(1))
    }

    fn canary_config(share: f64, sticky: bool, mode: RoutingMode) -> ProxyConfig {
        let (service, stable, canary) = ids();
        let split = TrafficSplit::canary(stable, canary, Percentage::new(share).unwrap()).unwrap();
        ProxyConfig::new(service, stable).with_rule(ProxyRule::split(
            split,
            sticky,
            UserSelector::All,
            mode,
        ))
    }

    #[test]
    fn named_proxy_mints_pinned_tokens() {
        // The token stream is seeded from the proxy name, so these values
        // change only if the name hash or the generator changes.
        let proxy = BifrostProxy::new(
            "product-proxy",
            canary_config(50.0, true, RoutingMode::CookieBased),
        );
        let tokens: Vec<String> = (0..3)
            .map(|_| {
                let decision = proxy.route(&ProxyRequest::new());
                decision.set_cookie.unwrap().to_string()
            })
            .collect();
        assert_eq!(
            tokens,
            [
                "e350ba71-8946-4091-8d1c-11940aa1e4f9",
                "f5757f81-9dbd-431d-a441-476fc9d41068",
                "7564f3b5-4602-4222-be11-363df3527c2f",
            ]
        );
    }

    #[test]
    fn inactive_proxy_forwards_to_default() {
        let (service, stable, _) = ids();
        let proxy = BifrostProxy::new("search-proxy", ProxyConfig::new(service, stable));
        assert!(!proxy.is_active());
        let decision = proxy.route(&ProxyRequest::from_user(UserId::new(1)));
        assert_eq!(decision.primary, stable);
        assert!(decision.shadows.is_empty());
        assert_eq!(
            proxy.processing_cost(&decision),
            proxy.overhead().passthrough_cost()
        );
        assert_eq!(proxy.stats().requests, 1);
        assert_eq!(proxy.name(), "search-proxy");
    }

    #[test]
    fn canary_split_approximates_share_over_users() {
        let proxy = BifrostProxy::new("p", canary_config(10.0, false, RoutingMode::CookieBased));
        let n = 20_000;
        let canary_hits = (0..n)
            .map(|i| proxy.route(&ProxyRequest::from_user(UserId::new(i))))
            .filter(|d| d.primary == VersionId::new(1))
            .count();
        let share = canary_hits as f64 / n as f64;
        assert!((share - 0.10).abs() < 0.01, "share {share}");
        assert_eq!(proxy.stats().requests, n);
        assert_eq!(
            proxy.stats().per_version[&VersionId::new(1)] as usize,
            canary_hits
        );
    }

    #[test]
    fn same_user_is_routed_consistently_without_sticky_sessions() {
        // Cookie-based bucketing hashes the user id, so repeated requests by
        // the same user land on the same version even without stickiness.
        let proxy = BifrostProxy::new("p", canary_config(50.0, false, RoutingMode::CookieBased));
        let first = proxy
            .route(&ProxyRequest::from_user(UserId::new(7)))
            .primary;
        for _ in 0..20 {
            assert_eq!(
                proxy
                    .route(&ProxyRequest::from_user(UserId::new(7)))
                    .primary,
                first
            );
        }
    }

    #[test]
    fn sticky_sessions_pin_anonymous_clients_via_cookie() {
        let proxy = BifrostProxy::new("p", canary_config(50.0, true, RoutingMode::CookieBased));
        // First request: anonymous, gets a Set-Cookie.
        let first = proxy.route(&ProxyRequest::new());
        let token = first.set_cookie.expect("cookie must be set");
        // Subsequent requests with the cookie keep the version and hit the
        // session table.
        for _ in 0..10 {
            let followup = proxy.route(&ProxyRequest::new().with_session(token));
            assert_eq!(followup.primary, first.primary);
            assert!(followup.from_sticky_session);
        }
        assert_eq!(proxy.stats().sticky_hits, 10);
        assert_eq!(proxy.sessions().len(), 1);
    }

    #[test]
    fn config_update_clears_sessions_and_counts() {
        let mut proxy = BifrostProxy::new("p", canary_config(50.0, true, RoutingMode::CookieBased));
        let first = proxy.route(&ProxyRequest::new());
        assert_eq!(proxy.sessions().len(), 1);
        proxy.apply_config(canary_config(80.0, true, RoutingMode::CookieBased));
        assert_eq!(proxy.sessions().len(), 0);
        assert_eq!(proxy.stats().config_updates, 1);
        // The old cookie no longer binds.
        let rerouted = proxy.route(&ProxyRequest::new().with_session(first.set_cookie.unwrap()));
        assert!(!rerouted.from_sticky_session);
    }

    #[test]
    fn header_routing_uses_upstream_group_header() {
        let (_, stable, canary) = ids();
        let proxy = BifrostProxy::new("p", canary_config(50.0, false, RoutingMode::HeaderBased));
        let a = proxy.route(&ProxyRequest::new().with_header("x-bifrost-group", "A"));
        let b = proxy.route(&ProxyRequest::new().with_header("x-bifrost-group", "B"));
        let by_index = proxy.route(&ProxyRequest::new().with_header("x-bifrost-group", "1"));
        let missing = proxy.route(&ProxyRequest::new());
        let garbage = proxy.route(&ProxyRequest::new().with_header("x-bifrost-group", "zzz"));
        assert_eq!(a.primary, stable);
        assert_eq!(b.primary, canary);
        assert_eq!(by_index.primary, canary);
        assert_eq!(missing.primary, stable);
        assert_eq!(garbage.primary, stable);
    }

    #[test]
    fn selector_excludes_users_from_the_experiment() {
        let (service, stable, canary) = ids();
        let split = TrafficSplit::canary(stable, canary, Percentage::new(100.0).unwrap()).unwrap();
        let config = ProxyConfig::new(service, stable).with_rule(ProxyRule::split(
            split,
            false,
            UserSelector::attribute("country", "US"),
            RoutingMode::CookieBased,
        ));
        let proxy = BifrostProxy::new("p", config);
        let us_user = User::new(UserId::new(1)).with_attribute("country", "US");
        let eu_user = User::new(UserId::new(2)).with_attribute("country", "EU");
        let us = proxy.route_user(&ProxyRequest::from_user(UserId::new(1)), Some(&us_user));
        let eu = proxy.route_user(&ProxyRequest::from_user(UserId::new(2)), Some(&eu_user));
        assert_eq!(us.primary, canary);
        assert_eq!(eu.primary, stable);
    }

    #[test]
    fn dark_launch_duplicates_all_traffic_at_100_percent() {
        let (service, stable, canary) = ids();
        let config = ProxyConfig::new(service, stable).with_rule(ProxyRule::shadow(
            DarkLaunchRoute::new(stable, canary, Percentage::full()),
        ));
        let proxy = BifrostProxy::new("p", config);
        for i in 0..100 {
            let decision = proxy.route(&ProxyRequest::from_user(UserId::new(i)));
            assert_eq!(decision.primary, stable);
            assert_eq!(decision.shadows, vec![ShadowCopy { target: canary }]);
        }
        assert_eq!(proxy.stats().shadow_copies, 100);
    }

    #[test]
    fn partial_dark_launch_duplicates_roughly_the_configured_share() {
        let (service, stable, canary) = ids();
        let config = ProxyConfig::new(service, stable).with_rule(ProxyRule::shadow(
            DarkLaunchRoute::new(stable, canary, Percentage::new(25.0).unwrap()),
        ));
        let proxy = BifrostProxy::new("p", config);
        let n = 20_000;
        let shadowed = (0..n)
            .map(|i| proxy.route(&ProxyRequest::from_user(UserId::new(i))))
            .filter(|d| !d.shadows.is_empty())
            .count();
        let share = shadowed as f64 / n as f64;
        assert!((share - 0.25).abs() < 0.02, "share {share}");
    }

    #[test]
    fn processing_cost_reflects_mode_and_shadows() {
        let proxy = BifrostProxy::new("p", canary_config(50.0, true, RoutingMode::CookieBased));
        let decision = proxy.route(&ProxyRequest::from_user(UserId::new(3)));
        let base_cost = proxy.processing_cost(&decision);
        assert!(base_cost > proxy.overhead().passthrough_cost());

        let (service, stable, canary) = ids();
        let dark = ProxyConfig::new(service, stable).with_rule(ProxyRule::shadow(
            DarkLaunchRoute::new(stable, canary, Percentage::full()),
        ));
        let dark_proxy = BifrostProxy::new("p2", dark);
        let decision = dark_proxy.route(&ProxyRequest::from_user(UserId::new(3)));
        assert!(dark_proxy.processing_cost(&decision) > base_cost);
    }

    #[test]
    fn shard_count_is_configurable_and_stats_stay_striped() {
        let proxy = BifrostProxy::new("p", canary_config(50.0, true, RoutingMode::CookieBased))
            .with_session_shards(16);
        assert_eq!(proxy.sessions().shard_count(), 16);
        for _ in 0..200 {
            proxy.route(&ProxyRequest::new());
        }
        assert_eq!(proxy.stats().requests, 200);
        assert_eq!(proxy.sessions().len(), 200);
    }
}
