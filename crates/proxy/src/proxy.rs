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
//! Every routing call, one request ([`BifrostProxy::route`]), a batch of
//! requests ([`BifrostProxy::route_many_costed`]) or a batch of bare user
//! ids ([`BifrostProxy::route_users_costed_into`], the traffic data plane's
//! hot path), is one pass over its clients in arrival order. A pass reads
//! each client once into a small view (user id, session token, group
//! header), so a user id routes without a request being built and a cookie
//! is parsed once; both kinds of call then share one decision path. The
//! pass locks the token generator when it mints its first token and holds
//! it to the end of the call. It buffers the sticky bindings it makes and
//! applies them at the end, grouped by session shard, taking one lock per
//! touched shard; a session lookup applies the buffer first, so every
//! request sees the bindings made by the requests before it. Its counters
//! are tallied locally, per version in a small vector, and merged into the
//! proxy's statistics once. A batch therefore routes exactly as its
//! requests would one by one, at any shard count. Routing takes `&self`, so
//! concurrent callers contend only on the shards they touch, the token
//! generator and one statistics merge per call. A request's CPU cost is
//! read from a table the configuration push computed, one entry per shadow
//! count.

use crate::config::{ProxyConfig, ProxyRule};
use crate::overhead::OverheadModel;
use crate::request::{ProxyRequest, RoutingDecision, ShadowCopy};
use crate::session::{SessionStore, SessionToken, TokenGenerator};
use bifrost_core::hash;
use bifrost_core::ids::{UserId, VersionId};
use bifrost_core::routing::{DarkLaunchRoute, RoutingMode, TrafficSplit};
use bifrost_core::user::{User, UserSelector};
use parking_lot::{Mutex, MutexGuard};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

/// Counters describing what a proxy has done so far.
///
/// Each routing call tallies its own counters and adds them to the proxy's
/// once; every aggregate is a sum or a `BTreeMap`-keyed tally, so the
/// totals do not depend on how requests were split into calls.
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
/// per-request config lookups or cost arithmetic.
#[derive(Debug, Clone)]
struct CompiledRules {
    default_version: VersionId,
    split: Option<CompiledSplit>,
    shadows: Vec<DarkLaunchRoute>,
    /// The CPU cost of a request with `k` shadow copies, at index `k`, for
    /// every `k` the shadow rules can produce.
    costs: Vec<Duration>,
}

impl CompiledRules {
    fn compile(config: &ProxyConfig, overhead: &OverheadModel) -> Self {
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
            .collect::<Vec<_>>();
        let costs = (0..=shadows.len())
            .map(|copies| request_cost(config, split.as_ref(), overhead, copies))
            .collect();
        Self {
            default_version: config.default_version(),
            split,
            shadows,
            costs,
        }
    }
}

/// The CPU cost of a request with `shadow_copies` copies under `config`,
/// whose split rule compiles to `split`: a passthrough when no rule is
/// installed.
fn request_cost(
    config: &ProxyConfig,
    split: Option<&CompiledSplit>,
    overhead: &OverheadModel,
    shadow_copies: usize,
) -> Duration {
    if config.rules().is_empty() {
        return overhead.passthrough_cost();
    }
    let (mode, sticky) = match split {
        Some(rule) => (rule.mode, rule.sticky),
        None => (RoutingMode::CookieBased, false),
    };
    overhead.request_cost(mode, sticky, shadow_copies)
}

/// What routing reads of one client: its user id, its session token
/// (parsed once) and its routing-group header.
#[derive(Debug, Clone, Copy, Default)]
struct Client<'r> {
    user: Option<UserId>,
    token: Option<SessionToken>,
    group: Option<&'r str>,
}

impl<'r> Client<'r> {
    fn of(request: &'r ProxyRequest) -> Self {
        Self {
            user: request.user,
            token: request.session_token(),
            group: request.group_header(),
        }
    }

    /// The client of [`ProxyRequest::from_user`]: no cookie, no header.
    fn user(user: UserId) -> Self {
        Self {
            user: Some(user),
            ..Self::default()
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
    stats: Mutex<ProxyStats>,
}

impl BifrostProxy {
    /// Creates a proxy with the given initial configuration and the default
    /// session-shard count.
    pub fn new(name: impl Into<String>, config: ProxyConfig) -> Self {
        let name = name.into();
        let seed = hash::fnv1a(name.as_bytes());
        let overhead = OverheadModel::default();
        Self {
            name,
            compiled: CompiledRules::compile(&config, &overhead),
            config,
            sessions: SessionStore::new(),
            tokens: Mutex::new(TokenGenerator::seeded(seed)),
            overhead,
            stats: Mutex::default(),
        }
    }

    /// Overrides the session-store shard count (builder style). Only valid
    /// before routing starts: the store is rebuilt empty.
    pub fn with_session_shards(mut self, shards: usize) -> Self {
        self.sessions = SessionStore::with_shards(shards);
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

    /// The routing statistics accumulated so far.
    pub fn stats(&self) -> ProxyStats {
        self.stats.lock().clone()
    }

    /// The overhead model in use.
    pub fn overhead(&self) -> &OverheadModel {
        &self.overhead
    }

    /// Applies a new configuration pushed by the engine. Sticky-session
    /// bindings are cleared because the new state defines new buckets.
    pub fn apply_config(&mut self, config: ProxyConfig) {
        self.sessions.clear();
        self.compiled = CompiledRules::compile(&config, &self.overhead);
        self.config = config;
        self.stats.get_mut().config_updates += 1;
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
        let mut pass = Pass::new(self);
        let decision = pass.route(Client::of(request), user);
        pass.finish();
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
    /// The batch is one routing pass in arrival order, so its decisions,
    /// tokens, bindings and statistics are exactly those of routing its
    /// requests one by one, whatever the shard count.
    pub fn route_many_costed<'a, I>(&self, requests: I) -> Vec<(RoutingDecision, Duration)>
    where
        I: IntoIterator<Item = &'a ProxyRequest>,
    {
        let mut routed = Vec::new();
        self.route_many_costed_into(requests, &mut routed);
        routed
    }

    /// [`BifrostProxy::route_many_costed`], appending the pairs to
    /// `routed`, so a caller that routes batch after batch can reuse one
    /// buffer.
    pub fn route_many_costed_into<'a, I>(
        &self,
        requests: I,
        routed: &mut Vec<(RoutingDecision, Duration)>,
    ) where
        I: IntoIterator<Item = &'a ProxyRequest>,
    {
        self.route_clients_costed_into(requests.into_iter().map(Client::of), routed);
    }

    /// Routes a batch of authenticated users, each as
    /// [`ProxyRequest::from_user`] would, appending one `(decision, CPU
    /// cost)` pair per user to `routed`, in order — the hot path of the
    /// request-level traffic simulation, which builds no request. Decides,
    /// mints, binds and counts exactly as
    /// [`BifrostProxy::route_many_costed_into`] over those requests.
    pub fn route_users_costed_into<I>(
        &self,
        users: I,
        routed: &mut Vec<(RoutingDecision, Duration)>,
    ) where
        I: IntoIterator<Item = UserId>,
    {
        self.route_clients_costed_into(users.into_iter().map(Client::user), routed);
    }

    /// One routing pass over `clients`, in order.
    fn route_clients_costed_into<'r>(
        &self,
        clients: impl Iterator<Item = Client<'r>>,
        routed: &mut Vec<(RoutingDecision, Duration)>,
    ) {
        let mut pass = Pass::new(self);
        routed.extend(clients.map(|client| {
            let decision = pass.route(client, None);
            let cost = self.processing_cost(&decision);
            (decision, cost)
        }));
        pass.finish();
    }

    /// The CPU demand of processing one request under the current
    /// configuration, given the routing decision produced for it: the
    /// configuration's precomputed cost for its shadow count.
    pub fn processing_cost(&self, decision: &RoutingDecision) -> Duration {
        let copies = decision.shadows.len();
        match self.compiled.costs.get(copies) {
            Some(&cost) => cost,
            // A decision with more copies than the rules produce (one made
            // under another configuration).
            None => request_cost(
                &self.config,
                self.compiled.split.as_ref(),
                &self.overhead,
                copies,
            ),
        }
    }

    /// Read access to the sticky-session table (for tests and dashboards).
    pub fn sessions(&self) -> &SessionStore {
        &self.sessions
    }
}

/// One routing call's pass over its requests, in arrival order.
struct Pass<'a> {
    proxy: &'a BifrostProxy,
    /// The token generator, locked at the first mint and held until the
    /// call ends.
    tokens: Option<MutexGuard<'a, TokenGenerator>>,
    /// Sticky bindings not yet in the store, with their shard.
    binds: Vec<(usize, SessionToken, VersionId)>,
    requests: u64,
    shadow_copies: u64,
    sticky_hits: u64,
    /// Primary requests per version, in first-routed order: a
    /// configuration names a handful of versions.
    per_version: Vec<(VersionId, u64)>,
}

impl<'a> Pass<'a> {
    fn new(proxy: &'a BifrostProxy) -> Self {
        Self {
            proxy,
            tokens: None,
            binds: Vec::new(),
            requests: 0,
            shadow_copies: 0,
            sticky_hits: 0,
            per_version: Vec::new(),
        }
    }

    /// Applies the buffered bindings and merges the call's counters into
    /// the proxy's statistics.
    fn finish(mut self) {
        self.flush();
        let mut stats = self.proxy.stats.lock();
        stats.requests += self.requests;
        stats.shadow_copies += self.shadow_copies;
        stats.sticky_hits += self.sticky_hits;
        for &(version, count) in &self.per_version {
            *stats.per_version.entry(version).or_insert(0) += count;
        }
    }

    /// Counts one routing decision.
    fn tally(&mut self, decision: &RoutingDecision) {
        self.requests += 1;
        self.shadow_copies += decision.shadows.len() as u64;
        self.sticky_hits += u64::from(decision.from_sticky_session);
        match (self.per_version.iter_mut()).find(|(version, _)| *version == decision.primary) {
            Some((_, count)) => *count += 1,
            None => self.per_version.push((decision.primary, 1)),
        }
    }

    fn mint(&mut self) -> SessionToken {
        let proxy = self.proxy;
        self.tokens
            .get_or_insert_with(|| proxy.tokens.lock())
            .next_token()
    }

    /// Looks a token up after applying the buffered bindings, so it sees
    /// every binding made earlier in the call.
    fn lookup(&mut self, token: SessionToken) -> Option<VersionId> {
        self.flush();
        self.proxy.sessions.lookup(token)
    }

    fn bind(&mut self, token: SessionToken, version: VersionId) {
        let shard = self.proxy.sessions.shard_of(token);
        self.binds.push((shard, token, version));
    }

    /// Applies the buffered bindings under one lock per touched shard. The
    /// sort is stable, so within a shard the bindings land in the order
    /// they were made.
    fn flush(&mut self) {
        self.binds.sort_by_key(|&(shard, _, _)| shard);
        for group in self.binds.chunk_by(|a, b| a.0 == b.0) {
            let mut shard = self.proxy.sessions.shard(group[0].0);
            for &(_, token, version) in group {
                shard.bind(token, version);
            }
        }
        self.binds.clear();
    }

    fn route(&mut self, client: Client<'_>, user: Option<&User>) -> RoutingDecision {
        let compiled = &self.proxy.compiled;
        let mut decision = match &compiled.split {
            None => RoutingDecision::to(compiled.default_version),
            Some(rule) => {
                let selected = match (user, client.user) {
                    (Some(user), _) => rule.selector.selects(user),
                    (None, Some(user_id)) => rule.selector.selects(&User::new(user_id)),
                    (None, None) => true,
                };
                if !selected {
                    RoutingDecision::to(compiled.default_version)
                } else {
                    match rule.mode {
                        RoutingMode::HeaderBased => route_by_header(compiled, rule, client),
                        RoutingMode::CookieBased => self.route_by_cookie(rule, client),
                    }
                }
            }
        };

        if !compiled.shadows.is_empty() {
            // Percentage-based duplication: one draw per request, hashed
            // from the session/user identity so the same *clients* are
            // consistently duplicated. Anonymous requests reuse the cookie
            // the split path just minted, or mint a re-identification cookie
            // here — never a constant draw (a constant 0.0 used to shadow
            // *every* anonymous request regardless of the percentage). The
            // hash is salted differently than the split-bucketing draw: with
            // the same draw for both, "p% of the source's traffic" would
            // silently become "the p% of clients with the lowest bucket
            // draw", which a split correlates with the version assignment.
            // The user id outranks the session cookie here (unlike split
            // bucketing): an identified user keeps one shadow decision
            // whether or not their request carries the sticky cookie minted
            // later.
            let identity = client
                .user
                .map(UserId::raw)
                .or_else(|| client.token.map(|token| token.raw() as u64))
                .or_else(|| decision.set_cookie.map(|token| token.raw() as u64));
            let draw = match identity {
                Some(bits) => shadow_draw(bits),
                None => {
                    // Cookieless anonymous client under a shadow-only
                    // config: set the cookie so return visits keep the same
                    // draw.
                    let token = self.mint();
                    decision.set_cookie = Some(token);
                    shadow_draw(token.raw() as u64)
                }
            };
            for route in &compiled.shadows {
                // Only traffic actually served by the route's source version
                // is duplicated. (Also matching the default version used to
                // inflate the shadow share: requests split onto *other*
                // versions were duplicated whenever the rule's source was the
                // default.)
                if route.source == decision.primary && draw < route.percentage.fraction() {
                    decision.shadows.push(ShadowCopy {
                        target: route.target,
                    });
                }
            }
        }
        self.tally(&decision);
        decision
    }

    fn route_by_cookie(&mut self, rule: &CompiledSplit, client: Client<'_>) -> RoutingDecision {
        // A returning client with a bound session keeps its version.
        if rule.sticky {
            if let Some(token) = client.token {
                if let Some(version) = self.lookup(token) {
                    let mut decision = RoutingDecision::to(version);
                    decision.from_sticky_session = true;
                    return decision;
                }
            }
        }
        // Otherwise bucket the client: prefer the session token (returning
        // anonymous client), then the user id, then a fresh token.
        let (token, draw) = match (client.token, client.user) {
            (Some(token), _) => (Some(token), token.bucket_draw()),
            (None, Some(user)) => (None, user_draw(user)),
            (None, None) => {
                let token = self.mint();
                (Some(token), token.bucket_draw())
            }
        };
        let version = rule.split.pick(draw);
        let mut decision = RoutingDecision::to(version);
        if rule.sticky {
            let token = token.unwrap_or_else(|| self.mint());
            self.bind(token, version);
            decision.set_cookie = Some(token);
        } else if client.token.is_none() && client.user.is_none() {
            // Non-sticky cookie routing still sets the re-identification
            // cookie so that traffic shares stay consistent per client.
            decision.set_cookie = token;
        }
        decision
    }
}

fn route_by_header(
    compiled: &CompiledRules,
    rule: &CompiledSplit,
    client: Client<'_>,
) -> RoutingDecision {
    let versions = &rule.versions;
    let target = match client.group {
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
    fn shard_count_is_configurable_and_stats_count_every_request() {
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
