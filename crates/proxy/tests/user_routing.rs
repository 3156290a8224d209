//! Routing bare user ids ([`BifrostProxy::route_users_costed_into`]) must
//! equal routing the requests [`ProxyRequest::from_user`] builds for them
//! ([`BifrostProxy::route_many_costed`]): the same decisions, costs, minted
//! tokens, sticky bindings and statistics, under every kind of
//! configuration and across a configuration push. Both are also checked
//! against references computed here from the decisions alone: each cost
//! against the overhead model, and the statistics against a tally of the
//! decisions.

use bifrost_core::ids::{ServiceId, UserId, VersionId};
use bifrost_core::routing::{DarkLaunchRoute, Percentage, RoutingMode, TrafficSplit};
use bifrost_core::user::UserSelector;
use bifrost_proxy::{
    BifrostProxy, ProxyConfig, ProxyRequest, ProxyRule, ProxyStats, RoutingDecision, ShadowCopy,
};
use bifrost_simnet::SimRng;
use std::time::Duration;

const STABLE: VersionId = VersionId::new(0);
const CANARY: VersionId = VersionId::new(1);
const DARK: VersionId = VersionId::new(2);

fn service() -> ServiceId {
    ServiceId::new(0)
}

fn split(share: f64, sticky: bool, selector: UserSelector, mode: RoutingMode) -> ProxyRule {
    let split = TrafficSplit::canary(STABLE, CANARY, Percentage::new(share).unwrap()).unwrap();
    ProxyRule::split(split, sticky, selector, mode)
}

fn shadow(source: VersionId, target: VersionId, percent: f64) -> ProxyRule {
    ProxyRule::shadow(DarkLaunchRoute::new(
        source,
        target,
        Percentage::new(percent).unwrap(),
    ))
}

/// Every kind of configuration, by name.
fn configs() -> Vec<(&'static str, ProxyConfig)> {
    let base = || ProxyConfig::new(service(), STABLE);
    let percent = UserSelector::percentage(Percentage::new(40.0).unwrap());
    let country = UserSelector::attribute("country", "US");
    let to_all = |sticky, mode| split(30.0, sticky, UserSelector::All, mode);
    let cookie = RoutingMode::CookieBased;
    vec![
        ("inactive", base()),
        ("cookie sticky", base().with_rule(to_all(true, cookie))),
        ("cookie non-sticky", base().with_rule(to_all(false, cookie))),
        (
            "header",
            base().with_rule(to_all(false, RoutingMode::HeaderBased)),
        ),
        (
            "percentage selector",
            base().with_rule(split(50.0, true, percent, cookie)),
        ),
        (
            "attribute selector",
            base().with_rule(split(50.0, false, country, cookie)),
        ),
        ("one shadow", base().with_rule(shadow(STABLE, DARK, 35.0))),
        (
            "two shadows",
            base()
                .with_rule(to_all(true, cookie))
                .with_rule(shadow(STABLE, DARK, 60.0))
                .with_rule(shadow(STABLE, CANARY, 45.0)),
        ),
    ]
}

/// Seeded user ids, many of them repeated, in batches of 1 to 300.
fn batches(seed: u64) -> Vec<Vec<UserId>> {
    let mut rng = SimRng::seeded(seed);
    (0..12)
        .map(|_| {
            let len = 1 + (rng.uniform() * 300.0) as usize;
            (0..len)
                .map(|_| UserId::new((rng.uniform() * 500.0) as u64))
                .collect()
        })
        .collect()
}

/// The cost the overhead model gives a decision under `config`.
fn model_cost(proxy: &BifrostProxy, config: &ProxyConfig, decision: &RoutingDecision) -> Duration {
    if config.rules().is_empty() {
        return proxy.overhead().passthrough_cost();
    }
    let (mode, sticky) = match config.split_rule() {
        Some(ProxyRule::Split { mode, sticky, .. }) => (*mode, *sticky),
        _ => (RoutingMode::CookieBased, false),
    };
    (proxy.overhead()).request_cost(mode, sticky, decision.shadows.len())
}

/// Adds the decisions to `stats` the way a proxy counts them.
fn tally(stats: &mut ProxyStats, routed: &[(RoutingDecision, Duration)]) {
    for (decision, _) in routed {
        stats.requests += 1;
        stats.shadow_copies += decision.shadows.len() as u64;
        stats.sticky_hits += u64::from(decision.from_sticky_session);
        *stats.per_version.entry(decision.primary).or_insert(0) += 1;
    }
}

/// Routes `batches` through a request-built and a user-id proxy, checking
/// that they agree with each other and with the references. Returns the
/// most shadow copies one request got.
fn route_both(
    label: &str,
    config: &ProxyConfig,
    batches: &[Vec<UserId>],
    by_request: &BifrostProxy,
    by_user: &BifrostProxy,
    expected_stats: &mut ProxyStats,
) -> usize {
    let mut routed = Vec::new();
    let mut most_copies = 0;
    for (index, users) in batches.iter().enumerate() {
        let requests: Vec<ProxyRequest> =
            users.iter().map(|&u| ProxyRequest::from_user(u)).collect();
        let expected = by_request.route_many_costed(requests.iter());
        routed.clear();
        by_user.route_users_costed_into(users.iter().copied(), &mut routed);
        assert_eq!(routed, expected, "{label}: batch {index}");
        for (decision, cost) in &routed {
            assert_eq!(*cost, model_cost(by_user, config, decision), "{label}");
            most_copies = most_copies.max(decision.shadows.len());
        }
        tally(expected_stats, &routed);
        assert_eq!(
            by_user.stats(),
            by_request.stats(),
            "{label}: batch {index}"
        );
        assert_eq!(by_user.stats(), *expected_stats, "{label}: batch {index}");
        assert_eq!(
            by_user.sessions().len(),
            by_request.sessions().len(),
            "{label}"
        );
    }
    most_copies
}

/// Both proxies' token generators stand at the same place: neither minted
/// a token the other did not.
fn assert_same_next_token(label: &str, by_request: &BifrostProxy, by_user: &BifrostProxy) {
    let next = |proxy: &BifrostProxy| proxy.route(&ProxyRequest::new()).set_cookie;
    assert_eq!(next(by_user), next(by_request), "{label}");
}

#[test]
fn user_ids_route_exactly_as_requests_built_from_them() {
    for (seed, (label, config)) in (1..).zip(configs()) {
        let by_request = BifrostProxy::new("same-seed", config.clone());
        let by_user = BifrostProxy::new("same-seed", config.clone());
        let mut stats = ProxyStats::default();
        let batches = batches(seed);
        let most_copies = route_both(label, &config, &batches, &by_request, &by_user, &mut stats);
        assert!(stats.requests > 100, "{label}");
        // Every entry of the cost table is exercised.
        assert_eq!(most_copies, config.shadow_rules().count(), "{label}");
        if config.requires_sticky_sessions() {
            assert!(by_user.sessions().len() > 100, "{label}");
        }
        assert_same_next_token(label, &by_request, &by_user);
    }
}

#[test]
fn user_ids_route_exactly_as_requests_after_a_configuration_push() {
    let configs = configs();
    for (seed, pair) in (100..).zip(configs.windows(2)) {
        let [(before, first), (after, second)] = pair else {
            unreachable!()
        };
        let label = format!("{before} then {after}");
        let mut by_request = BifrostProxy::new("same-seed", first.clone());
        let mut by_user = BifrostProxy::new("same-seed", first.clone());
        let mut stats = ProxyStats::default();
        let batches = batches(seed);
        let (early, late) = batches.split_at(batches.len() / 2);
        route_both(&label, first, early, &by_request, &by_user, &mut stats);
        by_request.apply_config(second.clone());
        by_user.apply_config(second.clone());
        stats.config_updates += 1;
        route_both(&label, second, late, &by_request, &by_user, &mut stats);
        assert_same_next_token(&label, &by_request, &by_user);
    }
}

#[test]
fn routing_costs_are_the_overhead_model_for_every_shadow_count() {
    for (label, config) in configs() {
        let proxy = BifrostProxy::new("p", config.clone());
        let rules = config.shadow_rules().count();
        // Past the rules' own maximum too: a decision made under another
        // configuration can carry more copies.
        for copies in 0..=rules + 2 {
            let mut decision = RoutingDecision::to(STABLE);
            decision.shadows = vec![ShadowCopy { target: DARK }; copies];
            assert_eq!(
                proxy.processing_cost(&decision),
                model_cost(&proxy, &config, &decision),
                "{label}: {copies} copies"
            );
        }
    }
}
