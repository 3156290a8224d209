//! Statistical routing-correctness tests: configured shares must be hit
//! within tolerance at scale, shadow-copy counts must match the dark-launch
//! percentage (including for anonymous requests), and sticky sessions must
//! pin clients for the lifetime of a configuration.

use bifrost_core::hash::fnv1a;
use bifrost_core::ids::{ServiceId, UserId, VersionId};
use bifrost_core::routing::{DarkLaunchRoute, Percentage, RoutingMode, TrafficSplit};
use bifrost_core::user::UserSelector;
use bifrost_proxy::{BifrostProxy, ProxyConfig, ProxyRequest, ProxyRule, TokenGenerator};
use bifrost_simnet::SimRng;

const N: usize = 20_000;

fn ids() -> (ServiceId, VersionId, VersionId) {
    (ServiceId::new(0), VersionId::new(0), VersionId::new(1))
}

fn split_config(share: f64, sticky: bool, mode: RoutingMode) -> ProxyConfig {
    let (service, stable, canary) = ids();
    let split = TrafficSplit::canary(stable, canary, Percentage::new(share).unwrap()).unwrap();
    ProxyConfig::new(service, stable).with_rule(ProxyRule::split(
        split,
        sticky,
        UserSelector::All,
        mode,
    ))
}

fn shadow_config(percent: f64) -> ProxyConfig {
    let (service, stable, canary) = ids();
    ProxyConfig::new(service, stable).with_rule(ProxyRule::shadow(DarkLaunchRoute::new(
        stable,
        canary,
        Percentage::new(percent).unwrap(),
    )))
}

#[test]
fn pick_hits_configured_shares_across_many_splits() {
    let (_, stable, canary) = ids();
    for share in [5.0, 10.0, 25.0, 50.0, 80.0] {
        let split = TrafficSplit::canary(stable, canary, Percentage::new(share).unwrap()).unwrap();
        let hits = (0..N)
            .map(|i| (i as f64 + 0.5) / N as f64)
            .filter(|&d| split.pick(d) == canary)
            .count();
        let measured = hits as f64 / N as f64;
        assert!(
            (measured - share / 100.0).abs() < 0.001,
            "share {share}%: measured {measured}"
        );
    }
}

#[test]
fn cookie_path_hits_shares_for_identified_users() {
    for share in [10.0, 50.0] {
        let proxy = BifrostProxy::new("p", split_config(share, false, RoutingMode::CookieBased));
        let canary = VersionId::new(1);
        let hits = (0..N)
            .map(|i| proxy.route(&ProxyRequest::from_user(UserId::new(i as u64))))
            .filter(|d| d.primary == canary)
            .count();
        let measured = hits as f64 / N as f64;
        assert!(
            (measured - share / 100.0).abs() < 0.01,
            "share {share}%: measured {measured} over {N} users"
        );
    }
}

#[test]
fn cookie_path_hits_shares_for_anonymous_clients() {
    // Every request is anonymous and cookieless: the proxy buckets each one
    // with a freshly generated token. The fixed bucket_draw (low, unstamped
    // bits) must keep the draw uniform.
    let proxy = BifrostProxy::new("p", split_config(20.0, false, RoutingMode::CookieBased));
    let canary = VersionId::new(1);
    let hits = (0..N)
        .map(|_| proxy.route(&ProxyRequest::new()))
        .filter(|d| d.primary == canary)
        .count();
    let measured = hits as f64 / N as f64;
    assert!(
        (measured - 0.20).abs() < 0.01,
        "anonymous canary share {measured}"
    );
}

#[test]
fn header_path_follows_upstream_group_assignment() {
    // The upstream (e.g. login service) assigns 30% of requests to group B;
    // the proxy must follow the header exactly, so the observed share equals
    // the upstream assignment share.
    let proxy = BifrostProxy::new("p", split_config(50.0, false, RoutingMode::HeaderBased));
    let canary = VersionId::new(1);
    let mut rng = SimRng::seeded(5);
    let mut upstream_b = 0usize;
    let mut routed_b = 0usize;
    for _ in 0..N {
        let group = if rng.chance(0.3) { "B" } else { "A" };
        if group == "B" {
            upstream_b += 1;
        }
        let decision = proxy.route(&ProxyRequest::new().with_header("x-bifrost-group", group));
        if decision.primary == canary {
            routed_b += 1;
        }
    }
    assert_eq!(routed_b, upstream_b, "header routing must be exact");
    let measured = routed_b as f64 / N as f64;
    assert!((measured - 0.3).abs() < 0.01, "upstream share {measured}");
}

#[test]
fn shadow_share_matches_percentage_for_identified_users() {
    for percent in [10.0, 25.0, 75.0] {
        let proxy = BifrostProxy::new("p", shadow_config(percent));
        let shadowed = (0..N)
            .map(|i| proxy.route(&ProxyRequest::from_user(UserId::new(i as u64))))
            .filter(|d| !d.shadows.is_empty())
            .count();
        let measured = shadowed as f64 / N as f64;
        assert!(
            (measured - percent / 100.0).abs() < 0.01,
            "dark launch {percent}%: measured {measured}"
        );
        assert_eq!(proxy.stats().shadow_copies as usize, shadowed);
    }
}

#[test]
fn anonymous_requests_are_not_over_duplicated() {
    // Regression test: anonymous requests used to fall through to a constant
    // draw of 0.0, duplicating *every* request regardless of the configured
    // percentage. The draw now comes from the proxy's seeded token
    // generator, so the share must track the configuration.
    for percent in [5.0, 25.0, 60.0] {
        let proxy = BifrostProxy::new("p", shadow_config(percent));
        let shadowed = (0..N)
            .map(|_| proxy.route(&ProxyRequest::new()))
            .filter(|d| !d.shadows.is_empty())
            .count();
        let measured = shadowed as f64 / N as f64;
        assert!(
            (measured - percent / 100.0).abs() < 0.01,
            "anonymous dark launch {percent}%: measured {measured}"
        );
    }
}

#[test]
fn anonymous_shadow_cohort_is_stable_across_return_visits() {
    // A cookieless anonymous request under a shadow-only config gets a
    // re-identification cookie; presenting it on return visits keeps the
    // client's shadow decision stable (same cohort, not a fresh draw).
    let proxy = BifrostProxy::new("p", shadow_config(30.0));
    for _ in 0..500 {
        let first = proxy.route(&ProxyRequest::new());
        let token = first.set_cookie.expect("shadow-only path sets a cookie");
        let returning = proxy.route(&ProxyRequest::new().with_session(token));
        assert_eq!(first.shadows, returning.shadows);
        assert!(returning.set_cookie.is_none());
    }
}

#[test]
fn identified_users_keep_their_shadow_decision_once_cookied() {
    // With sticky splits a user's later requests carry a session cookie;
    // the shadow draw must still key on the user id so the dark-launch
    // cohort does not churn between the first (cookieless) visit and
    // return visits.
    let (service, stable, canary) = ids();
    let split = TrafficSplit::canary(stable, canary, Percentage::new(0.0).unwrap()).unwrap();
    let config = ProxyConfig::new(service, stable)
        .with_rule(ProxyRule::split(
            split,
            true,
            UserSelector::All,
            RoutingMode::CookieBased,
        ))
        .with_rule(ProxyRule::shadow(DarkLaunchRoute::new(
            stable,
            canary,
            Percentage::new(25.0).unwrap(),
        )));
    let proxy = BifrostProxy::new("p", config);
    for i in 0..2_000 {
        let first = proxy.route(&ProxyRequest::from_user(UserId::new(i)));
        let token = first.set_cookie.expect("sticky split sets a cookie");
        let returning = proxy.route(&ProxyRequest::from_user(UserId::new(i)).with_session(token));
        assert_eq!(first.shadows, returning.shadows, "user {i} changed cohort");
    }
}

#[test]
fn only_source_version_traffic_is_shadowed_under_a_split() {
    // Regression test: a shadow rule whose source is the default version
    // used to also duplicate requests the split routed to *other* versions,
    // inflating the shadow share. With a 60/40 split and a 50% dark launch
    // off the stable (default) version, the expected shadow share is
    // 0.6 × 0.5 = 0.3 — not 0.5.
    let (service, stable, canary) = ids();
    let shadow_target = VersionId::new(7);
    let split = TrafficSplit::canary(stable, canary, Percentage::new(40.0).unwrap()).unwrap();
    let config = ProxyConfig::new(service, stable)
        .with_rule(ProxyRule::split(
            split,
            false,
            UserSelector::All,
            RoutingMode::CookieBased,
        ))
        .with_rule(ProxyRule::shadow(DarkLaunchRoute::new(
            stable,
            shadow_target,
            Percentage::new(50.0).unwrap(),
        )));
    let proxy = BifrostProxy::new("p", config);
    let mut shadowed = 0usize;
    for i in 0..N {
        let decision = proxy.route(&ProxyRequest::from_user(UserId::new(i as u64)));
        if !decision.shadows.is_empty() {
            assert_eq!(
                decision.primary, stable,
                "only source-version traffic may be duplicated"
            );
            shadowed += 1;
        }
    }
    let measured = shadowed as f64 / N as f64;
    assert!(
        (measured - 0.30).abs() < 0.015,
        "shadow share {measured}, expected ≈ 0.30"
    );
}

#[test]
fn sticky_sessions_pin_clients_while_other_traffic_shifts_realized_shares() {
    // Within one state (one configuration), a sticky client must keep its
    // version no matter how much other traffic arrives or how the realized
    // shares drift.
    let proxy = BifrostProxy::new("p", split_config(50.0, true, RoutingMode::CookieBased));
    let clients: Vec<_> = (0..200)
        .map(|_| {
            let first = proxy.route(&ProxyRequest::new());
            (
                first.set_cookie.expect("sticky sets a cookie"),
                first.primary,
            )
        })
        .collect();
    // A burst of unrelated traffic.
    for i in 0..10_000 {
        proxy.route(&ProxyRequest::from_user(UserId::new(1_000 + i)));
    }
    // Every pinned client still lands on its original version, served from
    // the session table.
    for (token, version) in &clients {
        let decision = proxy.route(&ProxyRequest::new().with_session(*token));
        assert_eq!(decision.primary, *version);
        assert!(decision.from_sticky_session);
    }
    assert!(proxy.stats().sticky_hits >= 200);
}

#[test]
fn batch_routing_is_identical_to_serial_routing() {
    // route_many_costed must produce exactly the decisions and costs of the
    // one-by-one path (same proxy name → same token generator sequence).
    //
    // Every fourth request is a returning client carrying a cookie handed
    // out earlier in the same batch: either by the request just before it
    // or by one further back. Under the sticky cookie split every cookieless
    // request mints one token, in arrival order, so those cookies are
    // predictable from the proxy's generator.
    let mut predicted = TokenGenerator::seeded(fnv1a(b"same-seed"));
    let mut handed_out = Vec::new();
    let requests: Vec<ProxyRequest> = (0..2_000usize)
        .map(|i| match i % 8 {
            3 => ProxyRequest::new().with_session(*handed_out.last().unwrap()),
            7 => ProxyRequest::from_user(UserId::new(i as u64)).with_session(handed_out[i / 4]),
            _ => {
                handed_out.push(predicted.next_token());
                match i % 3 {
                    0 => ProxyRequest::from_user(UserId::new(i as u64)),
                    1 => ProxyRequest::new(),
                    _ => ProxyRequest::new().with_header("x-bifrost-group", "B"),
                }
            }
        })
        .collect();
    let returning = |i: usize| i % 8 == 3 || i % 8 == 7;
    let with_shadow = |config: ProxyConfig| {
        let (_, stable, canary) = ids();
        config.with_rule(ProxyRule::shadow(DarkLaunchRoute::new(
            stable,
            canary,
            Percentage::new(25.0).unwrap(),
        )))
    };
    let configs = [
        split_config(30.0, true, RoutingMode::CookieBased),
        with_shadow(split_config(30.0, false, RoutingMode::CookieBased)),
        with_shadow(split_config(30.0, false, RoutingMode::HeaderBased)),
        shadow_config(40.0),
    ];
    for (index, config) in configs.into_iter().enumerate() {
        let sticky = index == 0;
        let serial = BifrostProxy::new("same-seed", config.clone());
        let batched = BifrostProxy::new("same-seed", config);
        let expected: Vec<_> = requests.iter().map(|r| serial.route_costed(r)).collect();
        let actual = batched.route_many_costed(requests.iter());
        assert_eq!(expected, actual, "config {index}");
        assert_eq!(serial.stats(), batched.stats(), "config {index}");
        assert_eq!(serial.sessions().len(), batched.sessions().len());
        assert_eq!(serial.sessions().hits(), batched.sessions().hits());
        assert_eq!(serial.sessions().misses(), batched.sessions().misses());
        if sticky {
            // A returning client sees the binding made earlier in its own
            // batch.
            for (i, (decision, _)) in actual.iter().enumerate() {
                assert_eq!(decision.from_sticky_session, returning(i), "request {i}");
            }
        }
        // Every cookie the proxy hands out (rather than echoes) is the
        // generator's next token, in arrival order: no token is minted and
        // dropped, and none is minted twice.
        let mut generator = TokenGenerator::seeded(fnv1a(b"same-seed"));
        let mut minted = 0;
        for ((decision, _), request) in actual.iter().zip(&requests) {
            if let Some(cookie) = decision.set_cookie {
                if Some(cookie) != request.session_token() {
                    assert_eq!(cookie, generator.next_token(), "config {index}");
                    minted += 1;
                }
            }
        }
        assert!(minted > 0, "config {index} mints tokens");
        if let Some(next) = batched.route(&ProxyRequest::new()).set_cookie {
            assert_eq!(next, generator.next_token(), "config {index}");
        }
    }
}
