//! Sharded-session-store invariants.
//!
//! * Shard assignment is a **pure function of the token**: stable across
//!   calls, independent of store contents, always in range, and a binding
//!   is **shard-local** (it lives in exactly the assigned shard).
//! * The shard count is a pure scalability knob: a 1-shard proxy and a
//!   16-shard proxy produce byte-identical routing decisions **and**
//!   byte-identical [`ProxyStats`] over identical traffic — the grouped
//!   application of a call's bindings must not depend on the shard count.

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
