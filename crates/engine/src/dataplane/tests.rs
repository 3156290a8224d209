//! Worker-count equivalence: an enactment with many partitions produces
//! the same traffic statistics, event log, metric store, backend counts
//! and proxy statistics at 1, 2 and 8 data-plane workers, whether it is
//! stepped with `run_until` or driven by `run_to_completion`.

use super::REQUESTS_PER_WORKER;
use crate::backends::QueuedBackend;
use crate::cost::EngineCostModel;
use crate::engine::{BifrostEngine, EngineConfig};
use crate::events::{EngineEvent, EventLog};
use crate::traffic::{BackendProfile, TrafficHandle, TrafficProfile, TrafficStats};
use bifrost_core::check::QueryAggregation;
use bifrost_core::phase::PhaseCheck;
use bifrost_core::prelude::*;
use bifrost_metrics::{MetricStore, SharedMetricStore};
use bifrost_proxy::ProxyStats;
use bifrost_simnet::SimTime;
use bifrost_workload::{LoadProfile, RequestMix};
use std::time::Duration;

/// Services in the scenario. Stream labels: service 0 carries two streams
/// (`s0-a`, `s0-b`), services 1 and 2 share the label `shared`, service 3
/// has queued backends and a dark launch that overloads its candidate,
/// service 5's candidate fails often enough to trip an exception check,
/// and service 6 has traffic but no proxy.
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

    let label = |i: usize| match i {
        1 | 2 => "shared".to_string(),
        _ => format!("s{i}"),
    };
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

    let profile = |i: usize, label: String, rps: f64| {
        let (service, [stable, canary]) = services[i];
        let base = TrafficProfile::new(service, load(rps))
            .with_tick(TICK)
            .with_cores(3)
            .with_service_label(label);
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
    let mut traffic = vec![engine.attach_traffic(profile(0, "s0-a".into(), 150.0), store.clone())];
    for i in 1..SERVICES as usize {
        traffic.push(engine.attach_traffic(profile(i, label(i), 200.0), store.clone()));
    }
    traffic.push(engine.attach_traffic(profile(0, "s0-b".into(), 120.0), store.clone()));
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
                let server = engine.backends().server(service, version)?;
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

#[test]
fn partitions_follow_services_and_shared_labels() {
    let mut engine = scenario(1).engine;
    let plane = engine.plane_mut();
    // Streams in attach order: s0-a, s1..s6, s0-b. Service 0's two streams
    // share partition 0; services 1 and 2 share a label, so partition 1.
    assert_eq!(plane.partition, vec![0, 1, 1, 3, 4, 5, 6, 0]);
    let named = plane.partition.iter().enumerate().filter(|(i, p)| i == *p);
    assert_eq!(named.count(), 6);
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
        let last_tick = engine
            .plane_mut()
            .streams
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
    // popped, before ticks were batched into runs.
    let traffic = [37_901, 967, 4_390_103_490_192_393_101];
    let log_and_store = [137, 25_213, 9_424_365_328_558_066_616];
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
        (Drive::Stepped, pin(2_505, 31_000_000)),
        (Drive::ToCompletion, pin(2_533, 30_000_000)),
    ];
    for (drive, pin) in pinned {
        assert_eq!(digest(&run(1, drive)), pin, "{drive:?}");
    }
}

#[test]
fn streams_hold_no_more_arrivals_than_their_largest_tick() {
    let mut engine = scenario(2).engine;
    engine.run_to_completion(SimTime::from_secs(3_600));
    for (index, stream) in engine.plane_mut().streams.iter().enumerate() {
        let largest = (0..stream.batch_times().len())
            .map(|batch| stream.batch_len(batch))
            .max()
            .unwrap();
        let capacity = stream.arrivals_capacity();
        assert!(
            capacity <= largest,
            "stream {index}: {capacity} > {largest}"
        );
        // Stream 6 targets service 6, which has no proxy: it never routes.
        assert_eq!(capacity == 0, index == 6, "stream {index}");
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
    // arrival plan.
    let pinned = [
        308,
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
