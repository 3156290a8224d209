//! Worker-count equivalence: an enactment with many services produces the
//! same traffic statistics, event log, metric store, backend counts and
//! proxy statistics at 1, 2 and 8 data-plane workers, whether it is
//! stepped with `run_until` or driven by `run_to_completion`. Also the
//! partition and label rules, and the counters of a service with two
//! streams.

use super::{PIPELINE_DEPTH, REQUESTS_PER_WORKER};
use crate::backends::QueuedBackend;
use crate::cost::EngineCostModel;
use crate::engine::{BifrostEngine, EngineConfig};
use crate::events::{EngineEvent, EventLog};
use crate::traffic::{BackendProfile, StreamFront, TrafficHandle, TrafficProfile, TrafficStats};
use bifrost_core::check::QueryAggregation;
use bifrost_core::phase::PhaseCheck;
use bifrost_core::prelude::*;
use bifrost_metrics::traffic::{REQUESTS_TOTAL, REQUEST_LATENCY_P95_MS};
use bifrost_metrics::{MetricStore, SharedMetricStore};
use bifrost_proxy::ProxyStats;
use bifrost_simnet::SimTime;
use bifrost_workload::{LoadProfile, RequestMix};
use std::collections::BTreeSet;
use std::time::Duration;

/// Services in the scenario. Service `i` records under the label `s{i}`.
/// Service 0 carries two streams, service 3 has queued backends and a dark
/// launch that overloads its candidate, service 5's candidate fails often
/// enough to trip an exception check, and service 6 has traffic but no
/// proxy.
const SERVICES: u64 = 7;

/// The batching tick.
const TICK: Duration = Duration::from_millis(100);

/// Virtual seconds of traffic.
const TRAFFIC_SECS: u64 = 30;

/// Everything the equivalence compares.
#[derive(Debug, PartialEq)]
struct Outcome {
    processed: u64,
    now: SimTime,
    stats: Vec<TrafficStats>,
    events: EventLog,
    store: MetricStore,
    backends: Vec<(ServiceId, VersionId, u64, u64)>,
    proxies: Vec<ProxyStats>,
}

/// How the scenario is driven.
#[derive(Debug, Clone, Copy)]
enum Drive {
    /// One `run_until` per virtual second.
    Stepped,
    /// One `run_to_completion` with a far deadline.
    ToCompletion,
}

fn load(rps: f64) -> LoadProfile {
    LoadProfile {
        requests_per_second: rps,
        ramp_up: Duration::ZERO,
        duration: Duration::from_secs(TRAFFIC_SECS),
        mix: RequestMix::paper_mix(),
        user_count: 20_000,
        poisson_arrivals: true,
    }
}

/// A check on `metric{service=label, version="v2"}` over a 5 s window,
/// fired every second of the phase.
fn check(name: &str, label: &str, metric: &str, bound: f64, exception: bool) -> PhaseCheck {
    let spec = CheckSpec::single(
        MetricQuery::new("prometheus", name, metric)
            .with_label("service", label)
            .with_label("version", "v2")
            .with_window_secs(5)
            .with_aggregation(QueryAggregation::Rate),
        Validator::LessThan(bound),
    );
    let timer = Timer::from_secs(1, 8).unwrap();
    if exception {
        PhaseCheck::exception(name, spec, timer)
    } else {
        PhaseCheck::basic(name, spec, timer, OutcomeMapping::binary(8, -1, 1).unwrap())
    }
}

/// A built scenario.
struct Scenario {
    engine: BifrostEngine,
    store: SharedMetricStore,
    services: Vec<(ServiceId, [VersionId; 2])>,
    traffic: Vec<TrafficHandle>,
}

/// Builds the scenario with `workers` data-plane workers.
fn scenario(workers: usize) -> Scenario {
    let mut catalog = ServiceCatalog::new();
    let services: Vec<(ServiceId, [VersionId; 2])> = (0..SERVICES)
        .map(|i| {
            let service = catalog.add_service(Service::new(format!("s{i}")));
            let version = |name: &str, host: u64| {
                ServiceVersion::new(name, Endpoint::new(format!("10.0.{i}.{host}"), 80))
            };
            let stable = catalog.add_version(service, version("v1", 1)).unwrap();
            let canary = catalog.add_version(service, version("v2", 2)).unwrap();
            (service, [stable, canary])
        })
        .collect();
    // No admission cost: every strategy enters its first state on its
    // whole-second start time, so its first-phase checks fire at the same
    // instants as traffic ticks.
    let costs = EngineCostModel {
        strategy_admission_ms: 0.0,
        ..EngineCostModel::optimized()
    };
    let mut engine = BifrostEngine::new(EngineConfig {
        costs,
        ..EngineConfig::default().with_seed(Seed::new(12))
    });
    engine.plane_mut().workers = Some(workers);
    let store = SharedMetricStore::new();
    engine.register_store_provider("prometheus", store.clone());
    for &(service, [stable, _]) in &services[..SERVICES as usize - 1] {
        engine.register_proxy(service, stable);
    }

    let label = |i: usize| format!("s{i}");
    for (i, &(service, [stable, canary])) in services.iter().enumerate().take(6) {
        let errors = check("v2-errors", &label(i), "request_errors", 500.0, false);
        let phases = [
            PhaseSpec::canary(
                "canary",
                service,
                stable,
                canary,
                Percentage::new(20.0).unwrap(),
            )
            .check(errors.clone())
            .duration_secs(8),
            PhaseSpec::dark_launch(
                "dark",
                service,
                stable,
                canary,
                Percentage::new(60.0).unwrap(),
            )
            .check(errors)
            .duration_secs(8),
        ];
        let phases = if i == 5 {
            phases.map(|p| p.check(check("v2-failing", &label(i), "request_errors", 20.0, true)))
        } else {
            phases
        };
        let [canary_phase, dark_phase] = phases;
        let strategy = StrategyBuilder::new(format!("release-s{i}"), catalog.clone())
            .phase(canary_phase)
            .phase(dark_phase)
            .build()
            .unwrap();
        engine.schedule(strategy, SimTime::from_secs(1 + i as u64));
    }

    let profile = |i: usize, rps: f64| {
        let (service, [stable, canary]) = services[i];
        let base = TrafficProfile::new(service, load(rps))
            .with_tick(TICK)
            .with_cores(3)
            .with_service_label(label(i));
        match i {
            3 => base
                .with_queued_backend(
                    stable,
                    "v1",
                    QueuedBackend::new(Duration::from_millis(4)).with_replicas(2),
                )
                .with_queued_backend(
                    canary,
                    "v2",
                    QueuedBackend::new(Duration::from_millis(6))
                        .with_error_rate(0.01)
                        .with_queue_capacity(4)
                        .with_timeout(Duration::from_millis(40)),
                ),
            5 => base
                .with_backend(
                    stable,
                    "v1",
                    BackendProfile::healthy(Duration::from_millis(8)),
                )
                .with_backend(
                    canary,
                    "v2",
                    BackendProfile::defective(Duration::from_millis(9), 0.3),
                ),
            _ => base
                .with_backend(
                    stable,
                    "v1",
                    BackendProfile::healthy(Duration::from_millis(8)),
                )
                .with_backend(
                    canary,
                    "v2",
                    BackendProfile::defective(Duration::from_millis(6), 0.01),
                ),
        }
    };
    let mut traffic = vec![engine.attach_traffic(profile(0, 150.0), store.clone())];
    for i in 1..SERVICES as usize {
        traffic.push(engine.attach_traffic(profile(i, 200.0), store.clone()));
    }
    traffic.push(engine.attach_traffic(profile(0, 120.0), store.clone()));
    Scenario {
        engine,
        store,
        services,
        traffic,
    }
}

fn run(workers: usize, drive: Drive) -> Outcome {
    let Scenario {
        mut engine,
        store,
        services,
        traffic,
    } = scenario(workers);
    let processed = match drive {
        Drive::Stepped => (1..=TRAFFIC_SECS + 1)
            .map(|second| engine.run_until(SimTime::from_secs(second)))
            .sum(),
        Drive::ToCompletion => engine.run_to_completion(SimTime::from_secs(3_600)),
    };
    Outcome {
        processed,
        now: engine.now(),
        stats: traffic
            .iter()
            .map(|&handle| engine.traffic_stats(handle).unwrap().clone())
            .collect(),
        events: engine.events().clone(),
        store: store.snapshot(),
        backends: services
            .iter()
            .flat_map(|&(service, versions)| versions.map(|version| (service, version)))
            .filter_map(|(service, version)| {
                let server = engine.backend(service, version)?;
                Some((service, version, server.admitted(), server.shed()))
            })
            .collect(),
        proxies: services
            .iter()
            .filter_map(|&(service, _)| engine.proxy(service))
            .map(|proxy| proxy.read().stats())
            .collect(),
    }
}

/// The routing halves of the streams of `engine`, in attach order.
fn streams(engine: &mut BifrostEngine) -> Vec<&StreamFront> {
    let plane = engine.plane_mut();
    let services = &plane.services;
    plane
        .streams
        .iter()
        .map(|&(entry, place)| &services[entry].front.streams[place])
        .collect()
}

#[test]
fn one_partition_per_service() {
    let Scenario {
        mut engine,
        services,
        ..
    } = scenario(1);
    let plane = engine.plane_mut();
    // Streams in attach order: s0, s1..s6, then service 0's second stream,
    // which joins service 0's entry.
    assert_eq!(
        plane.streams,
        vec![
            (0, 0),
            (1, 0),
            (2, 0),
            (3, 0),
            (4, 0),
            (5, 0),
            (6, 0),
            (0, 1)
        ]
    );
    let partitions: Vec<_> = plane.services.iter().map(|p| p.service).collect();
    let expected: Vec<_> = services.iter().map(|&(service, _)| service).collect();
    assert_eq!(partitions, expected);
}

#[test]
fn small_runs_stay_on_the_callers_thread() {
    let mut engine = scenario(1).engine;
    let plane = engine.plane_mut();
    plane.workers = None;
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(plane.workers(0), 1);
    assert_eq!(plane.workers(REQUESTS_PER_WORKER), 1);
    assert_eq!(plane.workers(2 * REQUESTS_PER_WORKER), host.min(2));
    assert_eq!(plane.workers(usize::MAX), host);
}

#[test]
fn outcomes_are_identical_at_any_worker_count() {
    for drive in [Drive::Stepped, Drive::ToCompletion] {
        let serial = run(1, drive);
        // The scenario exercises what it claims to.
        let stats = &serial.stats;
        for (stream, stats) in stats.iter().enumerate() {
            // Stream 6 targets service 6, which has no proxy.
            assert_eq!(stats.requests == 0, stream == 6, "stream {stream}");
        }
        assert!(stats[3].shadow_copies > 0 && stats[3].shadow_shed > 0);
        assert!(stats[3].shed + stats[3].timed_out > 0);
        assert!(serial.backends.iter().any(|b| b.3 > 0));
        assert!(serial
            .events
            .events()
            .iter()
            .any(|e| matches!(e, EngineEvent::ExceptionTriggered { .. })));
        // First-phase checks tie with ticks: states entered on the tick grid.
        assert!(serial.events.events().iter().any(|e| matches!(
            e,
            EngineEvent::StateEntered { at, .. } if at.as_micros() % TICK.as_micros() as u64 == 0
        )));
        for workers in [2, 8] {
            assert_eq!(
                run(workers, drive),
                serial,
                "{drive:?} at {workers} workers differs from 1 worker"
            );
        }
    }
}

#[test]
fn run_to_completion_stops_after_the_last_tick() {
    for workers in [1, 2] {
        let mut engine = scenario(workers).engine;
        engine.run_to_completion(SimTime::from_secs(3_600));
        let last_tick = streams(&mut engine)
            .iter()
            .filter_map(|stream| stream.batch_times().last().copied())
            .max()
            .unwrap();
        // Every strategy finished well before the traffic ended, so the
        // loop stopped on popping the last tick.
        assert!(engine.all_finished());
        assert_eq!(engine.now(), last_tick);
    }
}

/// A summary of an outcome that does not depend on any `Debug` or field
/// layout: counts plus wrapping sums of the bits of every latency and
/// every stored sample.
fn digest(outcome: &Outcome) -> [u64; 8] {
    let bits = |values: &mut dyn Iterator<Item = f64>| {
        values.fold(0u64, |sum, v| sum.wrapping_add(v.to_bits()))
    };
    let stats = &outcome.stats;
    [
        outcome.processed,
        outcome.now.as_micros(),
        stats.iter().map(|s| s.requests).sum(),
        stats
            .iter()
            .map(|s| s.errors + s.shed + s.shadow_shed)
            .sum(),
        bits(&mut stats.iter().flat_map(|s| s.latencies_ms.iter().copied())),
        outcome.events.len() as u64,
        outcome.store.sample_count() as u64,
        bits(&mut outcome.store.keys().flat_map(|key| {
            let series = outcome.store.series(key).unwrap();
            series.samples().iter().map(|sample| sample.value)
        })),
    ]
}

#[test]
fn serial_outcomes_are_pinned() {
    // Captured with the event loop that handled each tick as it was
    // popped, before ticks were batched into runs. The processed counts
    // include one utilisation sample per virtual second, also when the
    // engine is stepped by `run_until`. Since service 0's two streams
    // record under the label its checks query, those checks pass and its
    // strategy runs its dark phase instead of rolling back. Since a
    // service closes each tick instant once, service 0's two streams
    // flush one sample per series and instant.
    let traffic = [37_901, 1_011, 6_197_488_157_075_887_905];
    let log_and_store = [148, 21_689, 14_349_227_027_838_897_156];
    let pin = |processed, now| {
        let [requests, failed, latency_bits] = traffic;
        let [events, samples, sample_bits] = log_and_store;
        [
            processed,
            now,
            requests,
            failed,
            latency_bits,
            events,
            samples,
            sample_bits,
        ]
    };
    let pinned = [
        (Drive::Stepped, pin(2_543, 31_000_000)),
        (Drive::ToCompletion, pin(2_542, 30_000_000)),
    ];
    for (drive, pin) in pinned {
        assert_eq!(digest(&run(1, drive)), pin, "{drive:?}");
    }
}

/// The one-service checkout scenario of the two-stage pipeline at
/// `workers` workers, driven to completion, and its engine.
///
/// `checkout` has queued stable and canary versions and two streams. Its
/// strategy starts at 2 s with a 6 s 30% canary, then a 6 s 40% dark
/// launch of the canary, each checking the canary's errors at the first
/// four seconds. The engine costs nothing, so every control event falls
/// on the tick grid. The second stream is attached at 4 s, after the check
/// due at 5 s and the canary's deadline at 8 s were queued, so that check
/// and the proxy push at that deadline each split an instant between the
/// streams' ticks. The second stream's ticks before 4 s all fall on 4 s.
fn pipeline_run(workers: usize) -> (Outcome, BifrostEngine) {
    let mut catalog = ServiceCatalog::new();
    let service = catalog.add_service(Service::new("checkout"));
    let mut version = |name: &str, host: &str| {
        catalog
            .add_version(service, ServiceVersion::new(name, Endpoint::new(host, 80)))
            .unwrap()
    };
    let (stable, canary) = (version("v1", "10.3.0.1"), version("v2", "10.3.0.2"));
    let costs = EngineCostModel {
        check_execution_ms: 0.0,
        metric_query_ms: 0.0,
        state_evaluation_ms: 0.0,
        proxy_update_ms: 0.0,
        strategy_admission_ms: 0.0,
    };
    let mut engine = BifrostEngine::new(EngineConfig {
        costs,
        ..EngineConfig::default().with_seed(Seed::new(41))
    });
    engine.plane_mut().workers = Some(workers);
    let store = SharedMetricStore::new();
    engine.register_store_provider("prometheus", store.clone());
    engine.register_proxy(service, stable);
    let errors = PhaseCheck::basic(
        "v2-errors",
        CheckSpec::single(
            MetricQuery::new("prometheus", "v2-errors", "request_errors")
                .with_label("service", "checkout")
                .with_label("version", "v2")
                .with_window_secs(5)
                .with_aggregation(QueryAggregation::Rate),
            Validator::LessThan(5_000.0),
        ),
        Timer::from_secs(1, 4).unwrap(),
        OutcomeMapping::binary(4, -1, 1).unwrap(),
    );
    let share = |percent| Percentage::new(percent).unwrap();
    let strategy = StrategyBuilder::new("checkout-release", catalog)
        .phase(
            PhaseSpec::canary("canary", service, stable, canary, share(30.0))
                .check(errors.clone())
                .duration_secs(6),
        )
        .phase(
            PhaseSpec::dark_launch("dark", service, stable, canary, share(40.0))
                .check(errors)
                .duration_secs(6),
        )
        .build()
        .unwrap();
    let profile = |rps| {
        TrafficProfile::new(service, load(rps))
            .with_tick(TICK)
            .with_cores(24)
            .with_service_label("checkout")
            .with_queued_backend(
                stable,
                "v1",
                QueuedBackend::new(Duration::from_millis(3)).with_replicas(3),
            )
            .with_queued_backend(
                canary,
                "v2",
                QueuedBackend::new(Duration::from_millis(8))
                    .with_replicas(2)
                    .with_error_rate(0.02)
                    .with_queue_capacity(4)
                    .with_timeout(Duration::from_millis(30)),
            )
    };
    let first = engine.attach_traffic(profile(700.0), store.clone());
    engine.schedule(strategy, SimTime::from_secs(2));
    let mut processed = engine.run_until(SimTime::from_secs(4));
    let second = engine.attach_traffic(profile(500.0), store.clone());
    processed += engine.run_to_completion(SimTime::from_secs(3_600));
    let outcome = Outcome {
        processed,
        now: engine.now(),
        stats: [first, second]
            .map(|handle| engine.traffic_stats(handle).unwrap().clone())
            .to_vec(),
        events: engine.events().clone(),
        store: store.snapshot(),
        backends: [stable, canary]
            .iter()
            .map(|&version| {
                let server = engine.backend(service, version).unwrap();
                (service, version, server.admitted(), server.shed())
            })
            .collect(),
        proxies: vec![engine.proxy(service).unwrap().read().stats()],
    };
    (outcome, engine)
}

#[test]
fn pipelined_outcomes_are_identical_to_serial_ones() {
    let (serial, mut engine) = pipeline_run(1);
    assert_eq!(engine.plane_mut().pipelined, 0);
    // The scenario exercises what it claims to.
    let stats = &serial.stats;
    assert!(stats.iter().all(|s| s.requests > 0 && s.shadow_copies > 0));
    assert!(stats
        .iter()
        .all(|s| s.shed + s.timed_out > 0 && s.shadow_shed > 0));
    let at = |secs| SimTime::from_secs(secs);
    let events = serial.events.events();
    assert!(events.iter().any(|e| matches!(
        e,
        EngineEvent::CheckExecuted { at: t, .. } if *t == at(5)
    )));
    assert!(events.iter().any(|e| matches!(
        e,
        EngineEvent::ProxyConfigured { at: t, .. } if *t == at(8)
    )));
    // Captured with the single-stage replay and the linear replica scan
    // that preceded the pipeline and the room tree.
    let pinned = [
        640,
        30_000_000,
        36_030,
        41_193,
        8_838_959_138_881_358_198,
        19,
        4_068,
        6_667_784_610_715_395_985,
    ];
    assert_eq!(digest(&serial), pinned);
    for workers in [2, 8] {
        let (outcome, mut engine) = pipeline_run(workers);
        assert!(engine.plane_mut().pipelined > 0, "{workers} workers");
        assert_eq!(outcome, serial, "{workers} workers differ from 1 worker");
    }
}

#[test]
fn streams_hold_no_more_arrivals_than_their_largest_tick() {
    // The worker-count scenario replays its services one per thread, and
    // the checkout scenario pipelines its one service.
    let mut engine = scenario(2).engine;
    engine.run_to_completion(SimTime::from_secs(3_600));
    let (_, pipelined) = pipeline_run(2);
    for (mut engine, depth) in [(engine, 1), (pipelined, PIPELINE_DEPTH + 2)] {
        for plane in &engine.plane_mut().services {
            let largest = (plane.front.streams.iter())
                .flat_map(|stream| {
                    let batches = 0..stream.batch_times().len();
                    batches.map(|batch| stream.batch_len(batch))
                })
                .max()
                .unwrap();
            let service = plane.service;
            // Service 6 of the worker-count scenario has no proxy: it never
            // routes.
            assert_eq!(plane.packets.is_empty(), service == ServiceId::new(6));
            assert!(plane.packets.len() <= depth, "{service}");
            for packet in &plane.packets {
                let capacities = packet.capacities();
                assert!(
                    capacities.iter().all(|&capacity| capacity <= largest),
                    "{service}: {capacities:?} > {largest}"
                );
            }
        }
    }
}

#[test]
fn ticks_skipped_before_a_late_proxy_leave_later_ticks_unchanged() {
    let seed = Seed::new(21);
    let registered = SimTime::from_millis(5_050);
    let mut catalog = ServiceCatalog::new();
    let service = catalog.add_service(Service::new("late"));
    let mut version = |name: &str, host: &str| {
        catalog
            .add_version(service, ServiceVersion::new(name, Endpoint::new(host, 80)))
            .unwrap()
    };
    let stable = version("v1", "10.1.0.1");
    let canary = version("v2", "10.1.0.2");
    let mut engine = BifrostEngine::new(EngineConfig::default().with_seed(seed));
    let store = SharedMetricStore::new();
    engine.register_store_provider("prometheus", store.clone());
    let profile = TrafficProfile::new(service, load(300.0))
        .with_tick(TICK)
        .with_cores(2)
        .with_service_label("late")
        .with_backend(
            stable,
            "v1",
            BackendProfile::healthy(Duration::from_millis(8)),
        )
        .with_backend(
            canary,
            "v2",
            BackendProfile::defective(Duration::from_millis(6), 0.05),
        );
    let handle = engine.attach_traffic(profile.clone(), store.clone());
    let mut processed = engine.run_until(registered);
    assert_eq!(engine.traffic_stats(handle).unwrap().requests, 0);

    engine.register_proxy(service, stable);
    let canary_phase = PhaseSpec::canary(
        "canary",
        service,
        stable,
        canary,
        Percentage::new(30.0).unwrap(),
    )
    .duration_secs(10);
    let strategy = StrategyBuilder::new("late-canary", catalog)
        .phase(canary_phase)
        .build()
        .unwrap();
    engine.schedule(strategy, SimTime::from_secs(10));
    processed += engine.run_to_completion(SimTime::from_secs(3_600));

    let stats = engine.traffic_stats(handle).unwrap().clone();
    let plan = profile.load().plan_seeded(seed.stream("traffic-0"));
    let later: Vec<_> = plan.batches(TICK).filter(|b| b.end > registered).collect();
    assert_eq!(stats.ticks, later.len() as u64);
    let later_requests: usize = later.iter().map(|b| b.arrivals.len()).sum();
    assert_eq!(stats.requests, later_requests as u64);
    assert!(stats.per_version.get(&canary).is_some_and(|&n| n > 0));

    let outcome = Outcome {
        processed,
        now: engine.now(),
        stats: vec![stats],
        events: engine.events().clone(),
        store: store.snapshot(),
        backends: Vec::new(),
        proxies: vec![engine.proxy(service).unwrap().read().stats()],
    };
    // Captured with the stream that sliced each tick from its materialised
    // arrival plan; the processed count includes the utilisation samples
    // after the first `run_until`.
    let pinned = [
        332,
        30_000_000,
        7_464,
        191,
        14_645_587_416_460_355_367,
        9,
        3_058,
        17_732_996_005_104_905_326,
    ];
    assert_eq!(digest(&outcome), pinned);
}

/// One service `search` with versions `v1` and `v2`, its proxy registered
/// and a 20 s 30% canary scheduled at `start`.
fn search_engine(
    seed: u64,
    start: SimTime,
) -> (BifrostEngine, SharedMetricStore, ServiceId, [VersionId; 2]) {
    let mut catalog = ServiceCatalog::new();
    let service = catalog.add_service(Service::new("search"));
    let mut version = |name: &str, host: &str| {
        catalog
            .add_version(service, ServiceVersion::new(name, Endpoint::new(host, 80)))
            .unwrap()
    };
    let versions = [version("v1", "10.2.0.1"), version("v2", "10.2.0.2")];
    let mut engine = BifrostEngine::new(EngineConfig::default().with_seed(Seed::new(seed)));
    let store = SharedMetricStore::new();
    engine.register_store_provider("prometheus", store.clone());
    engine.register_proxy(service, versions[0]);
    let canary = PhaseSpec::canary(
        "canary",
        service,
        versions[0],
        versions[1],
        Percentage::new(30.0).unwrap(),
    )
    .duration_secs(20);
    let strategy = StrategyBuilder::new("search-canary", catalog)
        .phase(canary)
        .build()
        .unwrap();
    engine.schedule(strategy, start);
    (engine, store, service, versions)
}

/// A profile on `service` under its default label, naming `versions` as
/// `v1`, `v2`, ….
fn default_label_profile(service: ServiceId, versions: &[VersionId], rps: f64) -> TrafficProfile {
    versions.iter().zip(1..).fold(
        TrafficProfile::new(service, load(rps)).with_tick(TICK),
        |profile, (&version, n)| {
            profile.with_backend(version, format!("v{n}"), BackendProfile::default())
        },
    )
}

/// Every `requests_total` series of `store`: its `version` label and its
/// sample values in time order.
fn request_totals(store: &SharedMetricStore) -> Vec<(String, Vec<f64>)> {
    let store = store.snapshot();
    store
        .keys()
        .filter(|key| key.name() == REQUESTS_TOTAL)
        .map(|key| {
            let version = key.label("version").unwrap().to_string();
            let values = store.series(key).unwrap().samples().iter();
            (version, values.map(|sample| sample.value).collect())
        })
        .collect()
}

/// Asserts that every `requests_total` series of `store` never decreases
/// and ends at the requests the streams routed to its version.
fn assert_one_running_total(
    store: &SharedMetricStore,
    stats: &[TrafficStats],
    versions: &[VersionId],
) {
    let totals = request_totals(store);
    assert_eq!(totals.len(), versions.len());
    for (label, values) in totals {
        let decrease = values.windows(2).position(|pair| pair[0] > pair[1]);
        assert_eq!(decrease, None, "requests_total of {label} decreases");
        let n: usize = label[1..].parse().unwrap();
        let routed: u64 = stats
            .iter()
            .map(|s| s.per_version.get(&versions[n - 1]).copied().unwrap_or(0))
            .sum();
        assert_eq!(values.last().copied(), Some(routed as f64), "{label}");
    }
}

#[test]
fn two_streams_of_one_service_add_to_one_running_total() {
    let (mut engine, store, service, versions) = search_engine(31, SimTime::ZERO);
    let handles = [150.0, 90.0].map(|rps| {
        engine.attach_traffic(
            default_label_profile(service, &versions, rps),
            store.clone(),
        )
    });
    engine.run_to_completion(SimTime::from_secs(3_600));
    let stats = handles.map(|handle| engine.traffic_stats(handle).unwrap().clone());
    assert!(stats.iter().all(|s| s.per_version.len() == 2), "{stats:?}");
    assert_one_running_total(&store, &stats, &versions);
}

#[test]
fn a_later_stream_registers_only_its_new_versions() {
    let (mut engine, store, service, versions) = search_engine(32, SimTime::ZERO);
    let first = engine.attach_traffic(
        default_label_profile(service, &versions, 150.0),
        store.clone(),
    );
    engine.run_until(SimTime::from_secs(5));
    // The later stream names a third version the proxy never routes to.
    let third = VersionId::new(99);
    let all = [versions[0], versions[1], third];
    let later = engine.attach_traffic(default_label_profile(service, &all, 90.0), store.clone());
    engine.run_to_completion(SimTime::from_secs(3_600));
    let stats = [first, later].map(|handle| engine.traffic_stats(handle).unwrap().clone());
    assert!(stats[1].requests > 0);
    assert_one_running_total(&store, &stats, &all);
    let totals = request_totals(&store);
    let (_, v3) = totals.iter().find(|(label, _)| label == "v3").unwrap();
    assert!(v3.iter().all(|&value| value == 0.0));
}

#[test]
#[should_panic(expected = "the label `s2` already names service")]
fn a_label_names_one_service() {
    let Scenario {
        mut engine, store, ..
    } = scenario(1);
    let unlabelled = ServiceId::new(SERVICES);
    engine.attach_traffic(
        TrafficProfile::new(unlabelled, load(10.0)).with_service_label("s2"),
        store,
    );
}

#[test]
#[should_panic(expected = "records under the label `s1`, not `other`")]
fn a_service_records_under_one_label() {
    let Scenario {
        mut engine,
        store,
        services,
        ..
    } = scenario(1);
    let (service, _) = services[1];
    engine.attach_traffic(
        TrafficProfile::new(service, load(10.0)).with_service_label("other"),
        store,
    );
}

#[test]
fn a_service_closes_each_tick_instant_once() {
    // The canary starts at 1 s, scheduled after the first stream's ticks
    // and before the second's, so its start splits the streams' ticks at
    // 1 s into two runs.
    let split = SimTime::from_secs(1);
    let (mut engine, store, service, versions) = search_engine(33, split);
    let handles = [150.0, 90.0].map(|rps| {
        engine.attach_traffic(
            default_label_profile(service, &versions, rps),
            store.clone(),
        )
    });
    let instants: BTreeSet<SimTime> = streams(&mut engine)
        .iter()
        .flat_map(|stream| stream.batch_times())
        .collect();
    assert!(streams(&mut engine)
        .iter()
        .all(|stream| stream.batch_times().contains(&split)));
    engine.run_to_completion(SimTime::from_secs(3_600));
    let stats = handles.map(|handle| engine.traffic_stats(handle).unwrap().clone());
    assert_one_running_total(&store, &stats, &versions);

    let store = store.snapshot();
    for key in store.keys() {
        let samples = store.series(key).unwrap().samples();
        let twice = samples
            .windows(2)
            .find(|w| w[0].timestamp >= w[1].timestamp);
        assert_eq!(twice, None, "{key:?} holds two samples at one timestamp");
    }
    let samples = |name: &str, version: &str| -> Vec<_> {
        let key = store
            .keys()
            .find(|key| key.name() == name && key.label("version") == Some(version))
            .unwrap();
        let samples = store.series(key).unwrap().samples().iter();
        samples
            .map(|sample| (sample.timestamp, sample.value))
            .collect()
    };
    let flushed: Vec<_> = instants.iter().map(|at| at.to_timestamp()).collect();
    for version in ["v1", "v2"] {
        // One flush per instant, after the counters' registration at 0.
        let totals = samples(REQUESTS_TOTAL, version);
        let stamps: Vec<_> = totals[1..].iter().map(|&(at, _)| at).collect();
        assert_eq!(stamps, flushed, "{version}");
        // One p95 sample per instant with requests of the version.
        let with_requests: Vec<_> = totals
            .windows(2)
            .filter(|pair| pair[1].1 > pair[0].1)
            .map(|pair| pair[1].0)
            .collect();
        let p95: Vec<_> = samples(REQUEST_LATENCY_P95_MS, version);
        let p95: Vec<_> = p95.into_iter().map(|(at, _)| at).collect();
        assert_eq!(p95, with_requests, "{version}");
    }
}

#[test]
fn the_first_profile_that_names_a_version_sets_its_label_and_model() {
    let (mut engine, store, service, versions) = search_engine(34, SimTime::ZERO);
    let first = engine.attach_traffic(
        default_label_profile(service, &versions, 150.0),
        store.clone(),
    );
    // A later stream names v2 again, under another label and as a version
    // that always fails.
    let later = TrafficProfile::new(service, load(90.0))
        .with_tick(TICK)
        .with_backend(
            versions[1],
            "canary",
            BackendProfile::defective(Duration::from_millis(10), 1.0),
        );
    let later = engine.attach_traffic(later, store.clone());
    engine.run_to_completion(SimTime::from_secs(3_600));
    let stats = [first, later].map(|handle| engine.traffic_stats(handle).unwrap().clone());
    // v2 serves the later stream with the first profile's healthy model.
    assert!(stats[1]
        .per_version
        .get(&versions[1])
        .is_some_and(|&n| n > 0));
    assert_eq!(stats[1].errors, 0);
    // And records under the first profile's label.
    assert_one_running_total(&store, &stats, &versions);
    let store = store.snapshot();
    assert!(store
        .keys()
        .all(|key| key.label("version") != Some("canary")));
}
