//! Sharded-session-store invariants.
//!
//! * Shard assignment is a **pure function of the token**: stable across
//!   calls, independent of store contents, always in range, and a binding
//!   is **shard-local** (it lives in exactly the assigned shard).
//! * The shard count is a pure scalability knob: a 1-shard proxy and a
//!   16-shard proxy produce byte-identical routing decisions **and**
//!   byte-identical [`ProxyStats`] over identical traffic — the grouped
//!   application of a call's bindings must not depend on the shard count.
//! * A seeded sticky scenario with returning cookie carriers and a
//!   configuration push has a **pinned outcome** (stats, session counts and
//!   per-version bindings), so a change to the table cannot move sticky
//!   routing unnoticed across commits.

use bifrost_core::ids::{ServiceId, UserId, VersionId};
use bifrost_core::routing::{DarkLaunchRoute, Percentage, RoutingMode, TrafficSplit};
use bifrost_core::user::UserSelector;
use bifrost_proxy::{
    BifrostProxy, ProxyConfig, ProxyRequest, ProxyRule, SessionStore, TokenGenerator,
};
use proptest::prelude::*;

fn ids() -> (ServiceId, VersionId, VersionId) {
    (ServiceId::new(0), VersionId::new(0), VersionId::new(1))
}

/// A sticky canary split plus a dark-launch rule — exercises the session
/// table, the token generator, and the shadow draw at once.
fn mixed_config(share: f64, sticky: bool) -> ProxyConfig {
    let (service, stable, canary) = ids();
    let split = TrafficSplit::canary(stable, canary, Percentage::new(share).unwrap()).unwrap();
    ProxyConfig::new(service, stable)
        .with_rule(ProxyRule::split(
            split,
            sticky,
            UserSelector::All,
            RoutingMode::CookieBased,
        ))
        .with_rule(ProxyRule::shadow(DarkLaunchRoute::new(
            stable,
            canary,
            Percentage::new(25.0).unwrap(),
        )))
}

/// A deterministic mixed request stream: anonymous first-timers, identified
/// users, returning cookie carriers, and header-routed requests.
fn traffic(n: usize) -> Vec<ProxyRequest> {
    let mut cookie_source = TokenGenerator::seeded(99);
    (0..n)
        .map(|i| match i % 5 {
            0 => ProxyRequest::new(),
            1 => ProxyRequest::from_user(UserId::new(i as u64 / 5)),
            2 => ProxyRequest::new().with_session(cookie_source.next_token()),
            3 => ProxyRequest::from_user(UserId::new(i as u64 / 7))
                .with_session(cookie_source.next_token()),
            _ => ProxyRequest::new().with_header("x-bifrost-group", "B"),
        })
        .collect()
}

proptest! {
    /// Shard assignment is a pure function of the token: two stores with
    /// the same shard count agree, repeated calls agree, the index is in
    /// range, and binding state never changes the assignment.
    #[test]
    fn shard_assignment_is_a_pure_function_of_the_token(
        high in 0u64..=u64::MAX,
        low in 0u64..=u64::MAX,
        shards in 1usize..64,
    ) {
        let raw = ((high as u128) << 64) | low as u128;
        let store_a = SessionStore::with_shards(shards);
        let store_b = SessionStore::with_shards(shards);
        let token = bifrost_proxy::SessionToken::from_raw(raw);
        let assigned = store_a.shard_of(token);
        prop_assert!(assigned < shards);
        prop_assert_eq!(assigned, store_a.shard_of(token));
        prop_assert_eq!(assigned, store_b.shard_of(token));
        // Mutating the store does not move the token.
        store_a.bind(token, VersionId::new(1));
        prop_assert_eq!(assigned, store_a.shard_of(token));
    }

    /// A binding is shard-local: after `bind`, exactly the assigned shard
    /// holds it, and per-shard sizes sum to the store size.
    #[test]
    fn bindings_are_shard_local(seed in 0u64..=u64::MAX, shards in 1usize..32) {
        let store = SessionStore::with_shards(shards);
        let mut generator = TokenGenerator::seeded(seed);
        for i in 0..50u64 {
            let token = generator.next_token();
            store.bind(token, VersionId::new(i % 4));
            let assigned = store.shard_of(token);
            for index in 0..store.shard_count() {
                let mut shard = store.shard(index);
                let held = shard.lookup(token).is_some();
                prop_assert_eq!(held, index == assigned);
            }
        }
        let per_shard: usize = (0..store.shard_count()).map(|i| store.shard(i).len()).sum();
        prop_assert_eq!(per_shard, store.len());
    }
}

#[test]
fn one_shard_and_sixteen_shards_route_identically() {
    // Same proxy name → same token generator seed; only the shard count
    // differs. Decisions, costs, and merged stats must match to the byte.
    let requests = traffic(4_000);
    for sticky in [false, true] {
        let coarse =
            BifrostProxy::new("same-seed", mixed_config(30.0, sticky)).with_session_shards(1);
        let sharded =
            BifrostProxy::new("same-seed", mixed_config(30.0, sticky)).with_session_shards(16);
        for request in &requests {
            assert_eq!(coarse.route_costed(request), sharded.route_costed(request));
        }
        assert_eq!(coarse.stats(), sharded.stats(), "sticky={sticky}");
        assert_eq!(coarse.sessions().len(), sharded.sessions().len());
        assert_eq!(coarse.sessions().hits(), sharded.sessions().hits());
        assert_eq!(coarse.sessions().misses(), sharded.sessions().misses());
    }
}

#[test]
fn batch_routing_is_shard_count_invariant_and_matches_serial() {
    let requests = traffic(6_000);
    let serial = BifrostProxy::new("same-seed", mixed_config(40.0, true)).with_session_shards(1);
    let batched_1 = BifrostProxy::new("same-seed", mixed_config(40.0, true)).with_session_shards(1);
    let batched_16 =
        BifrostProxy::new("same-seed", mixed_config(40.0, true)).with_session_shards(16);

    let expected: Vec<_> = requests.iter().map(|r| serial.route_costed(r)).collect();
    // Route in uneven batch slices so groups span batch boundaries.
    let mut out_1 = Vec::new();
    let mut out_16 = Vec::new();
    for chunk in requests.chunks(777) {
        out_1.extend(batched_1.route_many_costed(chunk.iter()));
        out_16.extend(batched_16.route_many_costed(chunk.iter()));
    }
    assert_eq!(expected, out_1);
    assert_eq!(expected, out_16);
    assert_eq!(serial.stats(), batched_1.stats());
    assert_eq!(serial.stats(), batched_16.stats());
}

#[test]
fn merged_stats_are_independent_of_shard_iteration_order() {
    // The per-version counters must aggregate into the same BTreeMap
    // ordering whatever the shard count: compare the full Debug rendering
    // (field-by-field, map order included) of the stats across shard
    // counts on identical traffic.
    let requests = traffic(5_000);
    let renderings: Vec<String> = [1usize, 3, 16]
        .into_iter()
        .map(|shards| {
            let proxy = BifrostProxy::new("same-seed", mixed_config(25.0, true))
                .with_session_shards(shards);
            proxy.route_many_costed(requests.iter());
            format!("{:?}", proxy.stats())
        })
        .collect();
    assert_eq!(renderings[0], renderings[1]);
    assert_eq!(renderings[0], renderings[2]);
}

#[test]
fn concurrent_routing_over_the_sharded_store_loses_nothing() {
    // Four OS threads hammer one sharded proxy; the counters must account
    // for every request exactly once (the per-call merges must not drop or
    // double-count under contention).
    let proxy = BifrostProxy::new("p", mixed_config(50.0, true)).with_session_shards(8);
    let per_thread = 2_000usize;
    let threads = 4;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let proxy = &proxy;
            scope.spawn(move || {
                let mut cookie_source = TokenGenerator::seeded(1_000 + t as u64);
                for i in 0..per_thread {
                    match i % 3 {
                        0 => proxy.route(&ProxyRequest::new()),
                        1 => proxy.route(&ProxyRequest::from_user(UserId::new(
                            (t * per_thread + i) as u64,
                        ))),
                        _ => proxy
                            .route(&ProxyRequest::new().with_session(cookie_source.next_token())),
                    };
                }
            });
        }
    });
    let stats = proxy.stats();
    assert_eq!(stats.requests, (threads * per_thread) as u64);
    assert_eq!(
        stats.per_version.values().sum::<u64>(),
        (threads * per_thread) as u64
    );
}

/// What [`sticky_outcome`] observes at one point of the scenario.
#[derive(Debug, PartialEq, Eq)]
struct StickySnapshot {
    requests: u64,
    sticky_hits: u64,
    per_version: Vec<(u64, u64)>,
    len: usize,
    hits: u64,
    misses: u64,
    /// `sessions_on` for each of [`STICKY_VERSIONS`], in order.
    sessions_on: Vec<usize>,
}

/// The versions of the pinned sticky scenario; one id is above `u32::MAX`.
const STICKY_VERSIONS: [u64; 4] = [0, 1, 9, (1 << 40) + 3];

fn sticky_split(shares: &[(u64, f64)]) -> ProxyConfig {
    let split = TrafficSplit::new(
        shares
            .iter()
            .map(|&(v, p)| (VersionId::new(v), Percentage::new(p).unwrap()))
            .collect(),
    )
    .unwrap();
    ProxyConfig::new(ServiceId::new(0), VersionId::new(0)).with_rule(ProxyRule::split(
        split,
        true,
        UserSelector::All,
        RoutingMode::CookieBased,
    ))
}

fn snapshot(proxy: &BifrostProxy) -> StickySnapshot {
    let stats = proxy.stats();
    let sessions = proxy.sessions();
    StickySnapshot {
        requests: stats.requests,
        sticky_hits: stats.sticky_hits,
        per_version: stats
            .per_version
            .iter()
            .map(|(v, n)| (v.raw(), *n))
            .collect(),
        len: sessions.len(),
        hits: sessions.hits(),
        misses: sessions.misses(),
        sessions_on: STICKY_VERSIONS
            .iter()
            .map(|&v| sessions.sessions_on(VersionId::new(v)))
            .collect(),
    }
}

/// A seeded sticky scenario in which returning clients carry the cookies
/// the proxy handed out earlier: a first batch of newcomers, a second batch
/// in which two thirds of them return (with newcomers, identified users
/// and cookies the proxy never issued in between), a configuration push,
/// and a third batch in which every earlier client returns twice, so that
/// its first request rebinds it and its second hits. Snapshots are
/// taken before the push, right after it, and after the third batch.
fn sticky_outcome(shards: usize) -> [StickySnapshot; 3] {
    let mut proxy = BifrostProxy::new(
        "pinned-sticky",
        sticky_split(&[(0, 50.0), (1, 30.0), (STICKY_VERSIONS[3], 20.0)]),
    )
    .with_session_shards(shards);
    let mut foreign = TokenGenerator::seeded(4_242);
    let mut jar = Vec::new();
    let route = |proxy: &BifrostProxy, requests: &[ProxyRequest], jar: &mut Vec<_>| {
        for chunk in requests.chunks(500) {
            for (decision, _) in proxy.route_many_costed(chunk) {
                jar.extend(decision.set_cookie);
            }
        }
    };

    let first: Vec<ProxyRequest> = (0..3_000u64)
        .map(|i| match i % 3 {
            0 | 1 => ProxyRequest::new(),
            _ => ProxyRequest::from_user(UserId::new(i)),
        })
        .collect();
    route(&proxy, &first, &mut jar);
    let second: Vec<ProxyRequest> = jar
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 != 0)
        .flat_map(|(i, &token)| {
            let extra = match i % 4 {
                0 => ProxyRequest::new(),
                1 => ProxyRequest::from_user(UserId::new(10_000 + i as u64)),
                2 => ProxyRequest::new().with_session(foreign.next_token()),
                _ => ProxyRequest::from_user(UserId::new(i as u64)).with_session(token),
            };
            [ProxyRequest::new().with_session(token), extra]
        })
        .collect();
    route(&proxy, &second, &mut jar);
    let before = snapshot(&proxy);

    proxy.apply_config(sticky_split(&[
        (1, 40.0),
        (9, 35.0),
        (STICKY_VERSIONS[3], 25.0),
    ]));
    let pushed = snapshot(&proxy);

    let third: Vec<ProxyRequest> = jar
        .iter()
        .flat_map(|&token| {
            let returning = ProxyRequest::new().with_session(token);
            [returning.clone(), ProxyRequest::new(), returning]
        })
        .collect();
    route(&proxy, &third, &mut Vec::new());
    [before, pushed, snapshot(&proxy)]
}

#[test]
fn sticky_routing_outcome_is_pinned() {
    // Computed when the shards were `BTreeMap`s; no shard count or table
    // layout may move them.
    let big = STICKY_VERSIONS[3];
    let before_push = StickySnapshot {
        requests: 7_000,
        sticky_hits: 2_500,
        per_version: vec![(0, 3_551), (1, 2_026), (big, 1_423)],
        len: 4_500,
        hits: 2_500,
        misses: 500,
        sessions_on: vec![2_283, 1_314, 0, 903],
    };
    let after_push = StickySnapshot {
        len: 0,
        sessions_on: vec![0, 0, 0, 0],
        per_version: before_push.per_version.clone(),
        ..before_push
    };
    let after_return = StickySnapshot {
        requests: 20_500,
        sticky_hits: 7_000,
        per_version: vec![(0, 3_551), (1, 7_445), (9, 4_676), (big, 4_828)],
        len: 9_000,
        hits: 7_000,
        misses: 5_000,
        sessions_on: vec![0, 3_598, 3_122, 2_280],
    };
    let expected = [before_push, after_push, after_return];
    for shards in [1, 8, 16] {
        assert_eq!(sticky_outcome(shards), expected, "shards={shards}");
    }
}
