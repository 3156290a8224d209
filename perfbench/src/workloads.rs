//! The three benchmark workloads and how an enactment of one is built.
//!
//! A workload is a [`WorkloadSpec`]: the DSL text of its strategies with
//! their start times, one traffic stream per proxied service, the engine
//! cost model, and how many virtual seconds the run covers. [`build`] turns
//! a spec and a seed into a ready [`Scenario`] through the same public API
//! an application uses: register proxies, parse and schedule strategies,
//! attach traffic. Everything random derives from the seed handed to the
//! engine, which materialises the arrival plans itself.
//!
//! Strategy start times carry an odd millisecond offset. With the engine's
//! even-millisecond action costs this keeps every state transition off the
//! 100 ms traffic-tick grid, so whether a batch was routed before or after
//! a configuration push is never decided by a same-instant tie — the traced
//! replay relies on that when it applies configurations at batch
//! boundaries.

use bifrost_core::ids::{ServiceId, VersionId};
use bifrost_core::seed::Seed;
use bifrost_dsl::parse_strategy;
use bifrost_engine::{
    BackendProfile, BifrostEngine, EngineConfig, EngineCostModel, ProxyHandle, QueuedBackend,
    StrategyHandle, TrafficHandle, TrafficProfile,
};
use bifrost_metrics::SharedMetricStore;
use bifrost_simnet::SimTime;
use bifrost_workload::{LoadProfile, RequestMix};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// The provider name every check queries.
pub const PROVIDER: &str = "prometheus";

/// The workloads the benchmark knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One service, sticky gradual rollout 10→90%, unlimited backends.
    StickyRollout,
    /// One service, non-sticky 20% canary then a 20% dark launch, queued
    /// backends with an undersized canary under a ramping load.
    CanaryOverload,
    /// Sixteen services, each with a two-phase canary and eight checks.
    FleetChecks,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 3] = [
        Workload::StickyRollout,
        Workload::CanaryOverload,
        Workload::FleetChecks,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StickyRollout => "sticky_rollout",
            Workload::CanaryOverload => "canary_overload",
            Workload::FleetChecks => "fleet_checks",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed a run uses when none is given.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::StickyRollout => 1,
            Workload::CanaryOverload => 2,
            Workload::FleetChecks => 3,
        }
    }

    /// A seed kept out of tuning, for confirming a claimed change.
    pub fn held_out_seed(self) -> u64 {
        match self {
            Workload::StickyRollout => 7_001,
            Workload::CanaryOverload => 7_002,
            Workload::FleetChecks => 7_003,
        }
    }

    /// The workload at `scale` times its request rate (1.0 is the measured
    /// size; the self-tests use less). Capacities that the scenario's
    /// behaviour depends on are derived from the rate, so a reduced run
    /// keeps the same utilisation picture.
    pub fn spec(self, scale: f64) -> WorkloadSpec {
        match self {
            Workload::StickyRollout => sticky_rollout(scale),
            Workload::CanaryOverload => canary_overload(scale),
            Workload::FleetChecks => fleet_checks(scale),
        }
    }
}

/// One proxied service carrying traffic.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// The traffic profile attached to the engine.
    pub profile: TrafficProfile,
    /// The version the proxy routes to when no rule applies.
    pub default_version: VersionId,
    /// The `version` label each version's series are recorded under.
    pub labels: BTreeMap<VersionId, String>,
    /// The `service` label of the stream's series.
    pub service_label: String,
    /// Cores of the service's proxy VM.
    pub cores: usize,
}

/// Everything needed to build one enactment of a workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// DSL source of each strategy and when it starts.
    pub strategies: Vec<(String, SimTime)>,
    /// The traffic streams, one per service (stream `i` is attached `i`-th).
    pub streams: Vec<StreamSpec>,
    /// The engine's per-action CPU costs.
    pub costs: EngineCostModel,
    /// Virtual seconds the run steps through: the traffic's duration plus
    /// one second. An arrival drawn just before the end of the traffic can
    /// round onto the end instant and fall into the tick after it; the
    /// extra second routes it. Every strategy has finished by then.
    pub virtual_secs: u64,
}

/// A built enactment, ready for its first step.
#[derive(Debug)]
pub struct Scenario {
    /// The engine with proxies, strategies and traffic attached.
    pub engine: BifrostEngine,
    /// The store the recorders write and the checks read.
    pub store: SharedMetricStore,
    /// Handles of the attached streams, in spec order.
    pub traffic: Vec<TrafficHandle>,
    /// Handles of the scheduled strategies, in spec order.
    pub strategies: Vec<StrategyHandle>,
    /// The service each stream targets, in spec order.
    pub services: Vec<ServiceId>,
}

impl Scenario {
    /// The proxy of stream `stream`'s service.
    pub fn proxy(&self, stream: usize) -> ProxyHandle {
        self.engine
            .proxy(self.services[stream])
            .expect("every stream's service has a registered proxy")
    }
}

/// Builds an enactment: proxies, strategies parsed from DSL, traffic. The
/// caller times this as the workload's set-up.
pub fn build(spec: &WorkloadSpec, seed: Seed) -> Scenario {
    build_with(spec, seed, |source| {
        parse_strategy(source).expect("benchmark DSL is valid")
    })
}

/// [`build`] with the DSL parse step supplied by the caller, so the traced
/// run can time each parse as its own span.
pub fn build_with(
    spec: &WorkloadSpec,
    seed: Seed,
    mut parse: impl FnMut(&str) -> bifrost_core::Strategy,
) -> Scenario {
    let config = EngineConfig {
        costs: spec.costs,
        ..EngineConfig::default()
    }
    .with_seed(seed);
    let store = SharedMetricStore::new();
    let mut engine = BifrostEngine::new(config);
    engine.register_store_provider(PROVIDER, store.clone());
    for stream in &spec.streams {
        engine.register_proxy(stream.profile.service(), stream.default_version);
    }
    let strategies = spec
        .strategies
        .iter()
        .map(|(source, start)| engine.schedule(parse(source), *start))
        .collect();
    let traffic = spec
        .streams
        .iter()
        .map(|stream| engine.attach_traffic(stream.profile.clone(), store.clone()))
        .collect();
    Scenario {
        engine,
        store,
        traffic,
        strategies,
        services: spec.streams.iter().map(|s| s.profile.service()).collect(),
    }
}

/// Proxy-VM cores for a stream: routing demand of ~11 ms per request
/// (the Node-prototype overhead model) at 60% utilisation — the sizing rule
/// of the repository's `traffic` figure.
fn proxy_cores(peak_rps: f64) -> usize {
    ((peak_rps * 0.011 / 0.6).ceil() as usize).max(1)
}

/// An open-loop Poisson load over a population of one million users.
fn poisson_load(peak_rps: f64, ramp_secs: u64, duration_secs: u64) -> LoadProfile {
    LoadProfile {
        requests_per_second: peak_rps,
        ramp_up: Duration::from_secs(ramp_secs),
        duration: Duration::from_secs(duration_secs),
        mix: RequestMix::paper_mix(),
        user_count: 1_000_000,
        poisson_arrivals: true,
    }
}

/// The DSL deployment block for services `names`, each with versions
/// `v1` (stable) and `v2` (candidate).
fn deployment(names: &[String]) -> String {
    let mut out = String::from("deployment:\n  services:\n");
    for (index, name) in names.iter().enumerate() {
        let _ = write!(
            out,
            "    - service: {name}\n      versions:\n        - name: v1\n          host: 10.0.{index}.1\n          port: 8080\n        - name: v2\n          host: 10.0.{index}.2\n          port: 8080\n"
        );
    }
    out
}

/// One DSL check with a single windowed query.
fn dsl_check(
    name: &str,
    query: &str,
    aggregation: &str,
    window: u64,
    every: u64,
    times: u64,
    validator: &str,
) -> String {
    format!(
        "        - metric:\n            name: {name}\n            provider: {PROVIDER}\n            query: '{query}'\n            aggregation: {aggregation}\n            window: {window}\n            intervalTime: {every}\n            intervalLimit: {times}\n            validator: \"{validator}\"\n"
    )
}

/// Rollout step length (virtual seconds) of `sticky_rollout`.
const ROLLOUT_STEP_SECS: u64 = 26;

fn sticky_rollout(scale: f64) -> WorkloadSpec {
    let rate = 20_000.0 * scale;
    let service = ServiceId::new(0);
    let (stable, canary) = (VersionId::new(0), VersionId::new(1));
    let names = vec!["product".to_string()];
    let step = ROLLOUT_STEP_SECS;
    // One error check per step, fired once just before the step ends. The
    // canary fails 0.1% of its requests: at 90% of the traffic that is a
    // tenth of the bound, which allows a 1% error rate.
    let errors_bound = rate * (step - 1) as f64 * 0.01;
    let check = dsl_check(
        "canary-errors",
        "request_errors{service=\"product\",version=\"v2\"}",
        "rate",
        step - 1,
        step - 1,
        1,
        &format!("<{errors_bound}"),
    );
    let source = format!(
        "name: sticky-rollout\n{}strategy:\n  phases:\n    - phase: gradual_rollout\n      name: rollout\n      service: product\n      stable: v1\n      candidate: v2\n      from_traffic: 10\n      to_traffic: 90\n      step: 10\n      step_duration: {step}\n      sticky: true\n      checks:\n{check}",
        deployment(&names)
    );
    let traffic_secs = 240;
    let profile = TrafficProfile::new(service, poisson_load(rate, 0, traffic_secs))
        .with_tick(Duration::from_millis(100))
        .with_service_label("product")
        .with_backend(
            stable,
            "v1",
            BackendProfile::healthy(Duration::from_millis(12)),
        )
        .with_backend(
            canary,
            "v2",
            BackendProfile::defective(Duration::from_millis(9), 0.001),
        );
    WorkloadSpec {
        strategies: vec![(source, SimTime::from_millis(1_001))],
        streams: vec![stream(
            profile,
            proxy_cores(rate),
            stable,
            canary,
            "product",
        )],
        costs: EngineCostModel::node_prototype(),
        virtual_secs: traffic_secs + 1,
    }
}

/// The canary replicas' offered load (cores per replica) at the peak rate.
const CANARY_REPLICA_LOAD: f64 = 1.4;
/// Canary replicas in `canary_overload`.
const CANARY_REPLICAS: usize = 4;

fn canary_overload(scale: f64) -> WorkloadSpec {
    let rate = 30_000.0 * scale;
    let service = ServiceId::new(0);
    let (stable, canary) = (VersionId::new(0), VersionId::new(1));
    let names = vec!["product".to_string()];
    // Demand sized so each canary replica is offered CANARY_REPLICA_LOAD
    // cores at the peak: 20% of the peak rate spread over the replicas.
    let canary_demand =
        Duration::from_secs_f64(CANARY_REPLICA_LOAD * CANARY_REPLICAS as f64 / (0.2 * rate));
    // Sixteen stable replicas at 75% utilisation when they take all traffic.
    let stable_demand = Duration::from_secs_f64(0.75 * 16.0 / rate);
    // Checks every 5 s over 10 s windows. The canary sheds up to ~29% of
    // what it is offered at the peak (1 - 1/1.4), primary traffic in the
    // first phase and shadow copies in the second; the shed bound is 40%
    // of its offered share. The stable version fails 0.05% of requests
    // against a 1% bound.
    let per_window = rate * 10.0;
    let shed_bound = format!("<{}", per_window * 0.2 * 0.4);
    let errors_bound = format!("<{}", per_window * 0.01);
    let checks = |shed_name: &str, times: u64| {
        dsl_check(
            shed_name,
            "requests_shed_total{service=\"product\",version=\"v2\"}",
            "rate",
            10,
            5,
            times,
            &shed_bound,
        ) + &dsl_check(
            "stable-errors",
            "request_errors{service=\"product\",version=\"v1\"}",
            "rate",
            10,
            5,
            times,
            &errors_bound,
        )
    };
    let canary_checks = checks("canary-shed", 24);
    let dark_checks = checks("shadow-shed", 23);
    let source = format!(
        "name: canary-overload\n{}strategy:\n  phases:\n    - phase: canary\n      name: canary-20\n      service: product\n      stable: v1\n      candidate: v2\n      traffic: 20\n      sticky: false\n      duration: 120\n      checks:\n{canary_checks}    - phase: dark_launch\n      name: dark-20\n      service: product\n      from: v1\n      to: v2\n      traffic: 20\n      duration: 115\n      checks:\n{dark_checks}",
        deployment(&names)
    );
    let traffic_secs = 240;
    let profile = TrafficProfile::new(service, poisson_load(rate, traffic_secs / 2, traffic_secs))
        .with_tick(Duration::from_millis(100))
        .with_service_label("product")
        .with_queued_backend(
            stable,
            "v1",
            QueuedBackend::new(stable_demand)
                .with_error_rate(0.0005)
                .with_replicas(16),
        )
        .with_queued_backend(
            canary,
            "v2",
            QueuedBackend::new(canary_demand)
                .with_error_rate(0.001)
                .with_replicas(CANARY_REPLICAS)
                .with_queue_capacity(32)
                .with_timeout(Duration::from_millis(250)),
        );
    WorkloadSpec {
        strategies: vec![(source, SimTime::from_millis(1_001))],
        streams: vec![stream(
            profile,
            proxy_cores(rate),
            stable,
            canary,
            "product",
        )],
        costs: EngineCostModel::node_prototype(),
        virtual_secs: traffic_secs + 1,
    }
}

/// Services in `fleet_checks`.
const FLEET_SERVICES: usize = 16;
/// Virtual seconds of traffic in `fleet_checks`.
const FLEET_TRAFFIC_SECS: u64 = 300;
/// Seconds each of the two canary phases of `fleet_checks` lasts.
const FLEET_PHASE_SECS: u64 = 130;

fn fleet_checks(scale: f64) -> WorkloadSpec {
    let rate = 2_500.0 * scale;
    let names: Vec<String> = (0..FLEET_SERVICES).map(|i| format!("svc-{i:02}")).collect();
    let deployment = deployment(&names);
    let phase_secs = FLEET_PHASE_SECS;
    let window = 30;
    let per_window = rate * window as f64;
    let mut strategies = Vec::new();
    let mut streams = Vec::new();
    for (index, name) in names.iter().enumerate() {
        // Eight checks per phase, each one query over a 30 s window, fired
        // every second of the phase.
        let mut checks = String::new();
        for version in ["v1", "v2"] {
            let series =
                |metric: &str| format!("{metric}{{service=\"{name}\",version=\"{version}\"}}");
            checks += &dsl_check(
                &format!("{version}-errors"),
                &series("request_errors"),
                "rate",
                window,
                1,
                phase_secs,
                &format!("<{}", per_window * 0.01),
            );
            checks += &dsl_check(
                &format!("{version}-traffic"),
                &series("requests_total"),
                "rate",
                window,
                1,
                phase_secs,
                ">0",
            );
            checks += &dsl_check(
                &format!("{version}-latency"),
                &series("request_latency_ms"),
                "mean",
                window,
                1,
                phase_secs,
                "<200",
            );
            checks += &dsl_check(
                &format!("{version}-p95"),
                &series("request_latency_p95_ms"),
                "max",
                window,
                1,
                phase_secs,
                "<400",
            );
        }
        let phase = |label: &str, share: u32| {
            format!(
                "    - phase: canary\n      name: {label}\n      service: {name}\n      stable: v1\n      candidate: v2\n      traffic: {share}\n      duration: {phase_secs}\n      checks:\n{checks}"
            )
        };
        let source = format!(
            "name: fleet-{name}\n{deployment}strategy:\n  phases:\n{}{}",
            phase("canary-10", 10),
            phase("canary-50", 50)
        );
        // Staggered starts, one per second, each on an odd millisecond.
        strategies.push((source, SimTime::from_millis(1_001 + 1_000 * index as u64)));
        // The DSL numbers services and versions in declaration order.
        let service = ServiceId::new(index as u64);
        let (stable, canary) = (
            VersionId::new(2 * index as u64),
            VersionId::new(2 * index as u64 + 1),
        );
        let profile = TrafficProfile::new(service, poisson_load(rate, 0, FLEET_TRAFFIC_SECS))
            .with_tick(Duration::from_millis(100))
            .with_service_label(name.clone())
            .with_backend(
                stable,
                "v1",
                BackendProfile::defective(Duration::from_millis(12), 0.0005),
            )
            .with_backend(
                canary,
                "v2",
                BackendProfile::defective(Duration::from_millis(9), 0.001),
            );
        streams.push(stream(profile, proxy_cores(rate), stable, canary, name));
    }
    WorkloadSpec {
        strategies,
        streams,
        costs: EngineCostModel::optimized(),
        virtual_secs: FLEET_TRAFFIC_SECS + 1,
    }
}

/// A stream whose proxy VM has `cores` cores (set on the profile too).
fn stream(
    profile: TrafficProfile,
    cores: usize,
    stable: VersionId,
    canary: VersionId,
    service_label: &str,
) -> StreamSpec {
    StreamSpec {
        profile: profile.with_cores(cores),
        cores,
        default_version: stable,
        labels: BTreeMap::from([(stable, "v1".to_string()), (canary, "v2".to_string())]),
        service_label: service_label.to_string(),
    }
}
