//! End-to-end tests of the request-level traffic pipeline: arrivals →
//! engine ticks → proxy fleet → per-version metric series → checks.

use bifrost_core::phase::PhaseCheck;
use bifrost_core::prelude::*;
use bifrost_engine::{BackendProfile, BifrostEngine, EngineConfig, TrafficProfile};
use bifrost_metrics::{Aggregation, RangeQuery, SharedMetricStore};
use bifrost_simnet::SimTime;
use std::time::Duration;

struct Fixture {
    engine: BifrostEngine,
    store: SharedMetricStore,
    catalog: ServiceCatalog,
    search: ServiceId,
    stable: VersionId,
    fast: VersionId,
}

fn fixture(seed: u64) -> Fixture {
    let mut catalog = ServiceCatalog::new();
    let search = catalog.add_service(Service::new("search"));
    let stable = catalog
        .add_version(
            search,
            ServiceVersion::new("v1", Endpoint::new("10.0.0.1", 80)),
        )
        .unwrap();
    let fast = catalog
        .add_version(
            search,
            ServiceVersion::new("v2", Endpoint::new("10.0.0.2", 80)),
        )
        .unwrap();
    let store = SharedMetricStore::new();
    let mut engine = BifrostEngine::new(EngineConfig::default().with_seed(Seed::new(seed)));
    engine.register_store_provider("prometheus", store.clone());
    engine.register_proxy(search, stable);
    Fixture {
        engine,
        store,
        catalog,
        search,
        stable,
        fast,
    }
}

fn traffic_profile(f: &Fixture, duration_secs: u64, rate: f64) -> TrafficProfile {
    let load = bifrost_workload::LoadProfile::paper_profile(Duration::from_secs(duration_secs))
        .with_rate(rate)
        .with_users(1_000_000);
    TrafficProfile::new(f.search, load)
        .with_service_label("search")
        .with_backend(
            f.stable,
            "v1",
            BackendProfile::healthy(Duration::from_millis(10)),
        )
        .with_backend(
            f.fast,
            "v2",
            BackendProfile::healthy(Duration::from_millis(6)),
        )
}

#[test]
fn observed_split_matches_the_active_state_within_one_percent() {
    let mut f = fixture(7);
    // A single 10% canary state that outlives the whole traffic window.
    let strategy = StrategyBuilder::new("canary", f.catalog.clone())
        .phase(
            PhaseSpec::canary(
                "canary-10",
                f.search,
                f.stable,
                f.fast,
                Percentage::new(10.0).unwrap(),
            )
            .duration_secs(200),
        )
        .build()
        .unwrap();
    f.engine.schedule(strategy, SimTime::ZERO);
    let handle = f
        .engine
        .attach_traffic(traffic_profile(&f, 80, 2_000.0), f.store.clone());
    f.engine.run_until(SimTime::from_secs(90));

    let stats = f.engine.traffic_stats(handle).unwrap();
    assert!(
        stats.requests > 100_000,
        "need ≥ 10^5 requests, got {}",
        stats.requests
    );
    let share = stats.share_of(f.fast);
    assert!(
        (share - 0.10).abs() < 0.01,
        "canary share {share} vs configured 0.10 over {} requests",
        stats.requests
    );
    // The proxy's own counters agree with the stream's.
    let proxy = f.engine.proxy(f.search).unwrap();
    let proxy_stats = proxy.read().stats().clone();
    assert_eq!(
        proxy_stats.per_version.get(&f.fast).copied().unwrap_or(0),
        stats.per_version[&f.fast]
    );
    // The observed series landed in the store: requests_total per version.
    let recorded = f
        .store
        .evaluate(
            &RangeQuery::new("requests_total")
                .with_label("version", "v2")
                .aggregate(Aggregation::Last),
            SimTime::from_secs(90).to_timestamp(),
        )
        .unwrap();
    assert_eq!(recorded, stats.per_version[&f.fast] as f64);
}

#[test]
fn shadow_copies_match_the_dark_launch_percentage() {
    let mut f = fixture(11);
    let strategy = StrategyBuilder::new("dark", f.catalog.clone())
        .phase(
            PhaseSpec::dark_launch(
                "dark-25",
                f.search,
                f.stable,
                f.fast,
                Percentage::new(25.0).unwrap(),
            )
            .duration_secs(200),
        )
        .build()
        .unwrap();
    f.engine.schedule(strategy, SimTime::ZERO);
    let handle = f
        .engine
        .attach_traffic(traffic_profile(&f, 80, 2_000.0), f.store.clone());
    f.engine.run_until(SimTime::from_secs(90));

    let stats = f.engine.traffic_stats(handle).unwrap();
    assert!(stats.requests > 100_000);
    // All primary traffic stays on stable; a quarter of it is duplicated.
    assert_eq!(stats.per_version[&f.stable], stats.requests);
    let shadow_share = stats.shadow_share();
    assert!(
        (shadow_share - 0.25).abs() < 0.01,
        "shadow share {shadow_share} vs configured 0.25"
    );
    assert_eq!(
        stats.shadow_per_version.get(&f.fast).copied().unwrap_or(0),
        stats.shadow_copies
    );
    // Shadow series recorded for the dark-launched version.
    let recorded = f
        .store
        .evaluate(
            &RangeQuery::new("shadow_requests_total")
                .with_label("version", "v2")
                .aggregate(Aggregation::Last),
            SimTime::from_secs(90).to_timestamp(),
        )
        .unwrap();
    assert_eq!(recorded, stats.shadow_copies as f64);
}

/// A check watching the observed error counter of the canary version.
fn canary_error_check() -> PhaseCheck {
    PhaseCheck::basic(
        "canary-errors",
        CheckSpec::single(
            MetricQuery::new("prometheus", "errors", "request_errors").with_label("version", "v2"),
            Validator::LessThan(50.0),
        ),
        Timer::from_secs(10, 5).unwrap(),
        OutcomeMapping::binary(5, -1, 1).unwrap(),
    )
}

#[test]
fn checks_evaluate_observed_traffic_not_injected_samples() {
    // Healthy canary backend → the error check passes → rollout succeeds.
    let mut healthy = fixture(13);
    let strategy = |f: &Fixture| {
        StrategyBuilder::new("canary", f.catalog.clone())
            .phase(
                PhaseSpec::canary(
                    "canary-20",
                    f.search,
                    f.stable,
                    f.fast,
                    Percentage::new(20.0).unwrap(),
                )
                .check(canary_error_check())
                .duration_secs(60),
            )
            .build()
            .unwrap()
    };
    let handle = healthy.engine.schedule(strategy(&healthy), SimTime::ZERO);
    healthy
        .engine
        .attach_traffic(traffic_profile(&healthy, 70, 200.0), healthy.store.clone());
    healthy.engine.run_until(SimTime::from_secs(120));
    assert!(healthy.engine.report(handle).unwrap().succeeded());

    // Defective canary backend (30% errors) → the same check fails on the
    // observed counters → the strategy rolls back. Nothing was injected
    // into the store by hand.
    let mut broken = fixture(13);
    let profile = traffic_profile(&broken, 70, 200.0).with_backend(
        broken.fast,
        "v2",
        BackendProfile::defective(Duration::from_millis(40), 0.3),
    );
    let handle = broken.engine.schedule(strategy(&broken), SimTime::ZERO);
    broken.engine.attach_traffic(profile, broken.store.clone());
    broken.engine.run_until(SimTime::from_secs(120));
    let report = broken.engine.report(handle).unwrap();
    assert!(report.is_finished());
    assert!(!report.succeeded());
    // The error counter the check saw came from routed traffic.
    let errors = broken
        .store
        .evaluate(
            &RangeQuery::new("request_errors")
                .with_label("version", "v2")
                .aggregate(Aggregation::Last),
            SimTime::from_secs(120).to_timestamp(),
        )
        .unwrap();
    assert!(errors >= 50.0, "observed canary errors {errors}");
}

#[test]
fn traffic_latency_series_reflect_backend_profiles() {
    let mut f = fixture(17);
    let strategy = StrategyBuilder::new("ab", f.catalog.clone())
        .phase(PhaseSpec::ab_test("ab", f.search, f.stable, f.fast).duration_secs(200))
        .build()
        .unwrap();
    f.engine.schedule(strategy, SimTime::ZERO);
    let handle = f
        .engine
        .attach_traffic(traffic_profile(&f, 60, 300.0), f.store.clone());
    f.engine.run_until(SimTime::from_secs(70));
    let stats = f.engine.traffic_stats(handle).unwrap();
    assert!(stats.mean_latency_ms() > 0.0);
    assert!(stats.latency_quantile_ms(0.95) >= stats.mean_latency_ms() * 0.5);
    assert!(stats.proxy_cpu_ms_per_request() > 0.0);
    let latency = |version: &str| {
        f.store
            .evaluate(
                &RangeQuery::new("request_latency_ms")
                    .with_label("version", version)
                    .over_window_secs(70)
                    .aggregate(Aggregation::Mean),
                SimTime::from_secs(70).to_timestamp(),
            )
            .unwrap()
    };
    // v2's backend is configured faster than v1's (6 ms vs 10 ms).
    assert!(
        latency("v2") < latency("v1"),
        "v2 {} vs v1 {}",
        latency("v2"),
        latency("v1")
    );
}

#[test]
fn traffic_streams_are_deterministic_per_seed() {
    let run = |seed: u64| {
        let mut f = fixture(seed);
        let strategy = StrategyBuilder::new("canary", f.catalog.clone())
            .phase(
                PhaseSpec::canary(
                    "canary-30",
                    f.search,
                    f.stable,
                    f.fast,
                    Percentage::new(30.0).unwrap(),
                )
                .duration_secs(100),
            )
            .build()
            .unwrap();
        f.engine.schedule(strategy, SimTime::ZERO);
        let handle = f
            .engine
            .attach_traffic(traffic_profile(&f, 30, 500.0), f.store.clone());
        f.engine.run_until(SimTime::from_secs(40));
        f.engine.traffic_stats(handle).unwrap().clone()
    };
    let a = run(99);
    let b = run(99);
    assert_eq!(a, b, "same seed must reproduce the exact traffic outcome");
    let c = run(100);
    assert_ne!(a, c, "different seeds must differ");
}

#[test]
fn run_to_completion_drains_traffic_past_the_last_strategy() {
    // The strategy finishes at ~30s but the traffic plan runs to 60s:
    // run_to_completion must keep routing until the plan is exhausted
    // instead of stopping with the last strategy.
    let mut f = fixture(23);
    let strategy = StrategyBuilder::new("short", f.catalog.clone())
        .phase(
            PhaseSpec::canary(
                "canary",
                f.search,
                f.stable,
                f.fast,
                Percentage::new(10.0).unwrap(),
            )
            .duration_secs(30),
        )
        .build()
        .unwrap();
    let handle = f.engine.schedule(strategy, SimTime::ZERO);
    let traffic = f
        .engine
        .attach_traffic(traffic_profile(&f, 60, 100.0), f.store.clone());
    f.engine.run_to_completion(SimTime::from_secs(3_600));
    assert!(f.engine.report(handle).unwrap().is_finished());
    let stats = f.engine.traffic_stats(traffic).unwrap();
    // ~100 rps × 60 s (minus the ramp) — far more than the ~3000 requests
    // a stop at t=30 would leave us with.
    assert!(
        stats.requests > 4_000,
        "traffic truncated at {} requests",
        stats.requests
    );
}

#[test]
fn traffic_without_a_registered_proxy_is_skipped() {
    let mut f = fixture(1);
    let load =
        bifrost_workload::LoadProfile::paper_profile(Duration::from_secs(10)).with_rate(50.0);
    let handle = f.engine.attach_traffic(
        TrafficProfile::new(ServiceId::new(99), load),
        f.store.clone(),
    );
    f.engine.run_until(SimTime::from_secs(20));
    assert_eq!(f.engine.traffic_stats(handle).unwrap().requests, 0);
}

#[test]
fn many_core_proxy_outputs_are_pinned() {
    // A 367-core proxy VM (the size the traffic figure's rule gives 20k
    // req/s) under a Poisson burst at a nominal 80k req/s, more than its
    // cores route at 5.5–8 ms a request, so requests queue on the proxy CPU
    // and every submit's core choice shapes the latencies. The expected
    // values were captured with the linear core scan that preceded the heap
    // of core free times; the heap must reproduce them bit for bit.
    let mut f = fixture(367);
    let strategy = StrategyBuilder::new("canary", f.catalog.clone())
        .phase(
            PhaseSpec::canary(
                "canary-20",
                f.search,
                f.stable,
                f.fast,
                Percentage::new(20.0).unwrap(),
            )
            .duration_secs(60),
        )
        .build()
        .unwrap();
    f.engine.schedule(strategy, SimTime::ZERO);
    let mut load = bifrost_workload::LoadProfile::paper_profile(Duration::from_secs(2))
        .with_rate(80_000.0)
        .with_users(1_000_000);
    load.ramp_up = Duration::from_millis(500);
    load.poisson_arrivals = true;
    let profile = TrafficProfile::new(f.search, load)
        .with_tick(Duration::from_millis(100))
        .with_cores(367)
        .with_service_label("search")
        .with_backend(
            f.stable,
            "v1",
            BackendProfile::healthy(Duration::from_millis(10)),
        )
        .with_backend(
            f.fast,
            "v2",
            BackendProfile::defective(Duration::from_millis(6), 0.01),
        );
    let handle = f.engine.attach_traffic(profile, f.store.clone());
    f.engine.run_until(SimTime::from_secs(5));

    let stats = f.engine.traffic_stats(handle).unwrap();
    // A wrapping sum of the latencies' bit patterns fingerprints them all.
    let latency_bits =
        (stats.latencies_ms.iter()).fold(0u64, |sum, ms| sum.wrapping_add(ms.to_bits()));
    assert!(
        stats.latency_quantile_ms(1.0) > 500.0,
        "the proxy must queue"
    );
    assert_eq!(
        (stats.requests, stats.errors, latency_bits),
        (70_957, 140, 8_497_518_433_454_362_142)
    );
}
