//! The Bifrost engine: strategy scheduling, timed check execution, state
//! transitions, and proxy configuration over virtual time.

use crate::backends::VersionBackend;
use crate::cost::EngineCostModel;
use crate::dataplane::{DataPlane, Tick};
use crate::events::{EngineEvent, EventLog, EventQueue};
use crate::execution::StrategyExecution;
use crate::proxies::{ProxyFleet, ProxyHandle};
use crate::report::StrategyReport;
use crate::traffic::{TrafficHandle, TrafficProfile, TrafficStats, TrafficStream};
use bifrost_core::ids::{CheckId, ServiceId, StateId, StrategyId, VersionId};
use bifrost_core::seed::Seed;
use bifrost_core::strategy::Strategy;
use bifrost_metrics::{ProviderRegistry, SharedMetricStore};
use bifrost_simnet::{CpuResource, SimTime};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// A handle identifying a scheduled strategy within one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StrategyHandle(StrategyId);

impl StrategyHandle {
    /// The engine-assigned strategy id.
    pub fn id(self) -> StrategyId {
        self.0
    }
}

impl fmt::Display for StrategyHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// How often the engine samples its own CPU utilisation into the
/// utilisation trace.
const UTILIZATION_SAMPLE_INTERVAL: Duration = Duration::from_secs(1);

/// Engine configuration. The engine itself runs on one core, like the
/// paper's single-core `n1-standard-1` instances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// The per-action CPU cost model.
    pub costs: EngineCostModel,
    /// The seed namespacing any stochastic engine behaviour. The enactment
    /// core is deterministic, but the seed is part of the configuration so a
    /// trial's engine, workload, and application all derive from one
    /// [`bifrost_core::TrialConfig`] seed and the whole run is reproducible.
    pub seed: Seed,
    /// How many ways every registered proxy shards its sticky-session
    /// table (see [`bifrost_proxy::SessionStore`]). Routed decisions and
    /// reported statistics are identical for every shard count. Each
    /// service's proxy is driven by one data-plane lane, so the count moves
    /// only the size of each shard's table and how many shard locks a
    /// tick's bindings take, not lock contention.
    pub session_shards: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            costs: EngineCostModel::default(),
            seed: Seed::DEFAULT,
            session_shards: bifrost_proxy::DEFAULT_SESSION_SHARDS,
        }
    }
}

impl EngineConfig {
    /// Overrides the seed (builder style).
    pub fn with_seed(mut self, seed: Seed) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the session-store shard count of registered proxies
    /// (builder style, minimum 1).
    pub fn with_session_shards(mut self, session_shards: usize) -> Self {
        self.session_shards = session_shards.max(1);
        self
    }
}

/// Internal scheduler payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
enum EngineAction {
    /// Admit and start a scheduled strategy.
    StartStrategy { strategy: StrategyId },
    /// Execute one repetition of a check.
    FireCheck {
        strategy: StrategyId,
        state: StateId,
        check: CheckId,
        generation: u64,
    },
    /// The nominal end of a state: evaluate the outcome and transition.
    StateDeadline {
        strategy: StrategyId,
        state: StateId,
        generation: u64,
    },
    /// Sample the engine's CPU utilisation.
    SampleUtilization,
    /// Route one tick's batch of a traffic stream through the proxy fleet.
    /// Consecutive ticks are batched into one data-plane run.
    TrafficTick { stream: usize, batch: usize },
}

/// The Bifrost engine.
pub struct BifrostEngine {
    config: EngineConfig,
    queue: EventQueue<EngineAction>,
    cpu: CpuResource,
    providers: ProviderRegistry,
    proxies: ProxyFleet,
    executions: BTreeMap<StrategyId, StrategyExecution>,
    /// The traffic streams with their services' proxy-VM CPUs, backend
    /// servers and recorders.
    plane: DataPlane,
    events: EventLog,
    next_strategy_id: u64,
    /// Number of scheduled strategies that have not reached a final state.
    /// Kept in sync by `schedule` / `finish_strategy` so the run loops'
    /// completion test is O(1) instead of a scan over every execution.
    unfinished: usize,
    /// Number of scheduled traffic ticks not yet processed, so
    /// `run_to_completion` drains attached traffic instead of abandoning
    /// it the moment the last strategy finishes.
    pending_traffic_ticks: usize,
    utilization_trace: Vec<(SimTime, f64)>,
    sampler: Sampler,
}

/// Where the utilisation sampler stands: not yet queued by a first run,
/// queued, or stopped on an idle engine until work is added.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sampler {
    Unstarted,
    Queued,
    Stopped,
}

impl BifrostEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Self {
            config,
            queue: EventQueue::new(),
            cpu: CpuResource::single_core(),
            providers: ProviderRegistry::new(),
            proxies: ProxyFleet::with_session_shards(config.session_shards),
            executions: BTreeMap::new(),
            plane: DataPlane::default(),
            events: EventLog::new(),
            next_strategy_id: 0,
            unfinished: 0,
            pending_traffic_ticks: 0,
            utilization_trace: Vec::new(),
            sampler: Sampler::Unstarted,
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Registers a metrics provider backed by a shared store under `name`
    /// (e.g. `"prometheus"`).
    pub fn register_store_provider(&mut self, name: impl Into<String>, store: SharedMetricStore) {
        self.providers.register_store(name, store);
    }

    /// Direct access to the provider registry (for custom providers).
    pub fn providers_mut(&mut self) -> &mut ProviderRegistry {
        &mut self.providers
    }

    /// Registers a proxy for a service with its default (stable) version and
    /// returns the shared handle for the application simulation.
    pub fn register_proxy(
        &mut self,
        service: ServiceId,
        default_version: VersionId,
    ) -> ProxyHandle {
        self.proxies.register(service, default_version)
    }

    /// The proxy handle of a service, if registered.
    pub fn proxy(&self, service: ServiceId) -> Option<ProxyHandle> {
        self.proxies.handle(service)
    }

    /// Attaches a request-level traffic stream: the profile's arrivals,
    /// seeded from the engine seed, are grouped per virtual-time tick, and
    /// every tick's batch is routed through the target service's proxy as
    /// the engine advances — recording the observed per-version series into
    /// `store` (register the same store as a provider so checks see them).
    /// The stream keeps a checkpoint per non-empty tick and regenerates a
    /// tick's arrivals when it is routed, so it never holds the whole
    /// arrival plan (see [`crate::traffic`]). Returns a handle for querying
    /// the stream's statistics.
    ///
    /// Streams targeting the same service share that service's proxy-VM
    /// CPU (the first attached profile sizes it) and backend servers, so
    /// concurrent streams contend realistically. They also share one
    /// recorder, so each counter series stays one running total, and the
    /// service flushes it once per tick instant. The first stream of a
    /// service records into `store`; a later stream's `store` is not used.
    /// A service records under one `service` label, and a label names one
    /// service. The first profile that names a version sets its `version`
    /// label and backend model (queued spec included) for every stream; a
    /// version routed to before any profile named it keeps its id rendering
    /// and the default model.
    ///
    /// # Panics
    ///
    /// If the profile's `service` label already names another service, or
    /// if a later stream of a service names a different label than its
    /// first stream.
    pub fn attach_traffic(
        &mut self,
        profile: TrafficProfile,
        store: SharedMetricStore,
    ) -> TrafficHandle {
        let stream = TrafficStream::new(profile, self.plane.len(), self.config.seed);
        let tick_times = stream.front.batch_times();
        let index = self.plane.attach(stream, store);
        self.pending_traffic_ticks += tick_times.len();
        self.queue
            .schedule_batch(tick_times.into_iter().enumerate().map(|(batch, at)| {
                (
                    at,
                    EngineAction::TrafficTick {
                        stream: index,
                        batch,
                    },
                )
            }));
        self.queue_sampler(Sampler::Stopped);
        TrafficHandle(index)
    }

    /// The accumulated statistics of an attached traffic stream.
    pub fn traffic_stats(&self, handle: TrafficHandle) -> Option<&TrafficStats> {
        self.plane.stats(handle.0)
    }

    /// The running queued backend server of `(service, version)`, if any.
    /// Servers boot lazily on the first dispatch of a version with a
    /// queued backend model.
    pub fn backend(&self, service: ServiceId, version: VersionId) -> Option<&VersionBackend> {
        self.plane.backend(service, version)
    }

    /// Schedules a strategy to start at `start_at`. Returns a handle for
    /// later report queries.
    pub fn schedule(&mut self, strategy: Strategy, start_at: SimTime) -> StrategyHandle {
        let id = StrategyId::new(self.next_strategy_id);
        self.next_strategy_id += 1;
        let execution = StrategyExecution::new(id, strategy, start_at);
        self.executions.insert(id, execution);
        self.unfinished += 1;
        self.events.push(EngineEvent::StrategyScheduled {
            strategy: id,
            start_at,
        });
        self.queue
            .schedule_at(start_at, EngineAction::StartStrategy { strategy: id });
        self.queue_sampler(Sampler::Stopped);
        StrategyHandle(id)
    }

    /// The data plane, for tests that set its worker count.
    #[cfg(test)]
    pub(crate) fn plane_mut(&mut self) -> &mut DataPlane {
        &mut self.plane
    }

    /// The current virtual time of the engine.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The engine's event log.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// The engine's CPU (for utilisation queries by experiment harnesses).
    pub fn cpu(&self) -> &CpuResource {
        &self.cpu
    }

    /// The periodic CPU utilisation trace `(time, percent)` sampled once
    /// per virtual second.
    pub fn utilization_trace(&self) -> &[(SimTime, f64)] {
        &self.utilization_trace
    }

    /// The report for a scheduled strategy.
    pub fn report(&self, handle: StrategyHandle) -> Option<StrategyReport> {
        self.executions
            .get(&handle.id())
            .map(StrategyReport::from_execution)
    }

    /// Reports for all scheduled strategies.
    pub fn reports(&self) -> Vec<StrategyReport> {
        self.executions
            .values()
            .map(StrategyReport::from_execution)
            .collect()
    }

    /// Whether every scheduled strategy has reached a final state. O(1):
    /// the engine counts unfinished strategies instead of scanning them.
    pub fn all_finished(&self) -> bool {
        debug_assert_eq!(
            self.unfinished,
            self.executions
                .values()
                .filter(|e| !e.status().is_finished())
                .count()
        );
        self.unfinished == 0
    }

    /// Queues the sampler at the first whole interval after `now` if it
    /// stands at `from`: a run starts it once, and scheduling a strategy
    /// or attaching traffic restarts it after it stopped on an idle engine
    /// (restarting at every run start would add a sample to every idle
    /// `run_until`).
    fn queue_sampler(&mut self, from: Sampler) {
        if self.sampler == from {
            self.sampler = Sampler::Queued;
            let interval = UTILIZATION_SAMPLE_INTERVAL.as_micros() as u64;
            let next = (self.now().as_micros() / interval + 1) * interval;
            self.queue
                .schedule_at(SimTime::from_micros(next), EngineAction::SampleUtilization);
        }
    }

    /// Runs the engine until all pending work up to `deadline` has been
    /// processed, advancing virtual time. Returns the number of events
    /// processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let processed = self.run_events(deadline, false);
        self.queue.advance_to(deadline);
        processed
    }

    /// Runs the engine until every scheduled strategy has finished and
    /// every attached traffic tick has been routed, or `deadline` is
    /// reached, whichever comes first.
    pub fn run_to_completion(&mut self, deadline: SimTime) -> u64 {
        self.run_events(deadline, true)
    }

    /// The event loop of both run methods: pops events due by `deadline`
    /// (while work remains, if `until_done`) and returns how many it
    /// popped. Consecutive traffic ticks are collected into a run, and the
    /// run is replayed before the next control event is handled and when
    /// the loop ends. This matches handling every event in pop order:
    /// ticks schedule no events and touch no engine CPU, event log or
    /// strategy state, and every control event still sees every tick
    /// queued before it. A tick counts as consumed when it is popped.
    fn run_events(&mut self, deadline: SimTime, until_done: bool) -> u64 {
        self.queue_sampler(Sampler::Unstarted);
        let mut processed = 0;
        let mut run: Vec<Tick> = Vec::new();
        while !until_done || self.unfinished > 0 || self.pending_traffic_ticks > 0 {
            let Some(due) = self.queue.pop_until(deadline) else {
                break;
            };
            processed += 1;
            if let EngineAction::TrafficTick { stream, batch } = due.action {
                self.pending_traffic_ticks = self.pending_traffic_ticks.saturating_sub(1);
                run.push((stream, batch, due.at));
                continue;
            }
            self.plane.step(&run, &self.proxies);
            run.clear();
            self.handle_action(due.at, due.action);
        }
        self.plane.step(&run, &self.proxies);
        processed
    }

    fn handle_action(&mut self, at: SimTime, action: EngineAction) {
        match action {
            EngineAction::SampleUtilization => {
                let utilization = self.cpu.sample_utilization(at);
                self.utilization_trace.push((at, utilization));
                // The next sample stays queued past this call's deadline, so
                // a run stepped by many `run_until` calls keeps sampling.
                if self.unfinished == 0 && self.pending_traffic_ticks == 0 && self.queue.is_empty()
                {
                    self.sampler = Sampler::Stopped;
                } else {
                    self.queue.schedule_at(
                        at + UTILIZATION_SAMPLE_INTERVAL,
                        EngineAction::SampleUtilization,
                    );
                }
            }
            EngineAction::StartStrategy { strategy } => self.start_strategy(strategy, at),
            EngineAction::FireCheck {
                strategy,
                state,
                check,
                generation,
            } => self.fire_check(strategy, state, check, generation, at),
            EngineAction::StateDeadline {
                strategy,
                state,
                generation,
            } => self.state_deadline(strategy, state, generation, at),
            EngineAction::TrafficTick { .. } => {
                unreachable!("run_events batches traffic ticks into data-plane runs")
            }
        }
    }

    fn start_strategy(&mut self, strategy: StrategyId, at: SimTime) {
        // Admission work (parsing, instantiating runtime state) contends for
        // the engine CPU; with many strategies submitted at once the later
        // ones begin their first state correspondingly later. The execution
        // counts as *started* at its scheduled time — exactly how the paper
        // measures "end time − start time" against the specified duration.
        let admission = self.config.costs.admission_cost();
        let receipt = self.cpu.submit(at, admission);
        let first_state_at = receipt.completed;
        let start_state = {
            let execution = match self.executions.get_mut(&strategy) {
                Some(e) => e,
                None => return,
            };
            execution.mark_started(at);
            execution.strategy().automaton().start()
        };
        self.events
            .push(EngineEvent::StrategyStarted { strategy, at });
        self.enter_state(strategy, start_state, first_state_at);
    }

    /// Enters a state: pushes proxy configurations, schedules the state's
    /// check timers and deadline.
    fn enter_state(&mut self, strategy: StrategyId, state: StateId, at: SimTime) {
        let (generation, routing, checks, duration, is_final) = {
            let execution = match self.executions.get_mut(&strategy) {
                Some(e) => e,
                None => return,
            };
            let generation = match execution.enter_state(state, at) {
                Ok(g) => g,
                Err(_) => return,
            };
            let state_def = execution
                .current_state_def()
                .expect("state was just entered");
            let routing = state_def.routing().to_vec();
            let checks: Vec<(CheckId, Vec<Duration>)> = state_def
                .checks()
                .iter()
                .map(|c| (c.id(), c.timer().fire_offsets().collect()))
                .collect();
            let duration = state_def.duration();
            let is_final = execution.strategy().automaton().is_final(state);
            (generation, routing, checks, duration, is_final)
        };

        self.events.push(EngineEvent::StateEntered {
            strategy,
            state,
            at,
        });

        // Push proxy configuration updates; the engine pays CPU per proxy.
        let updated = self.proxies.apply_rules(&routing);
        if !updated.is_empty() {
            let cost = self.config.costs.proxy_update_cost(updated.len());
            let receipt = self.cpu.submit(at, cost);
            for (service, revision) in updated {
                self.events.push(EngineEvent::ProxyConfigured {
                    strategy,
                    service,
                    revision,
                    at: receipt.completed,
                });
            }
        }

        if is_final {
            self.finish_strategy(strategy, state, at);
            return;
        }

        // Schedule timed check executions relative to the state entry.
        for (check, offsets) in checks {
            self.queue.schedule_batch(offsets.into_iter().map(|offset| {
                (
                    at + offset,
                    EngineAction::FireCheck {
                        strategy,
                        state,
                        check,
                        generation,
                    },
                )
            }));
        }
        // Schedule the state's nominal deadline.
        self.queue.schedule_at(
            at + duration,
            EngineAction::StateDeadline {
                strategy,
                state,
                generation,
            },
        );
    }

    /// Marks a strategy finished in `final_state`, maintains the unfinished
    /// counter, and emits the completion event.
    fn finish_strategy(&mut self, strategy: StrategyId, final_state: StateId, at: SimTime) {
        let success = {
            let execution = self.executions.get_mut(&strategy).expect("known strategy");
            let was_finished = execution.status().is_finished();
            execution.mark_finished(final_state, at);
            if !was_finished {
                self.unfinished = self.unfinished.saturating_sub(1);
            }
            execution.strategy().is_success(final_state)
        };
        self.events.push(EngineEvent::StrategyCompleted {
            strategy,
            final_state,
            success,
            at,
        });
    }

    fn fire_check(
        &mut self,
        strategy: StrategyId,
        state: StateId,
        check: CheckId,
        generation: u64,
        at: SimTime,
    ) {
        // Gather what we need and validate that the event is not stale.
        let (spec_queries, is_exception, fallback) = {
            let execution = match self.executions.get(&strategy) {
                Some(e) => e,
                None => return,
            };
            if execution.generation() != generation
                || execution.current_state() != Some(state)
                || execution.status().is_finished()
            {
                return;
            }
            let state_def = match execution.current_state_def() {
                Some(s) => s,
                None => return,
            };
            let check_def = match state_def.check(check) {
                Some(c) => c,
                None => return,
            };
            (
                check_def.spec().clone(),
                check_def.is_exception(),
                check_def.fallback(),
            )
        };

        // The engine pays CPU for the check execution and its metric queries.
        let cost = self.config.costs.check_cost(spec_queries.queries().len());
        let receipt = self.cpu.submit(at, cost);
        let executed_at = receipt.completed;

        // Fetch the metric values *at the time the queries actually run*.
        let values = self
            .providers
            .fetch_all(spec_queries.queries(), executed_at.to_timestamp());
        let success = spec_queries.evaluate(&values);

        let execution = match self.executions.get_mut(&strategy) {
            Some(e) => e,
            None => return,
        };
        // Re-validate staleness: the state may have been exited while the
        // check work was queued on the CPU.
        if execution.generation() != generation || execution.current_state() != Some(state) {
            return;
        }
        let _ = execution.record_check_execution(check, success);
        self.events.push(EngineEvent::CheckExecuted {
            strategy,
            state,
            check,
            success,
            at: executed_at,
        });

        // A failing exception check aborts the state immediately.
        if is_exception && !success {
            if let Some(fallback) = fallback {
                execution.record_exception(fallback);
                self.events.push(EngineEvent::ExceptionTriggered {
                    strategy,
                    state,
                    check,
                    fallback,
                    at: executed_at,
                });
                let eval_cost = self.config.costs.state_evaluation_cost();
                let eval_receipt = self.cpu.submit(executed_at, eval_cost);
                self.transition(strategy, state, eval_receipt.completed);
            }
        }
    }

    fn state_deadline(
        &mut self,
        strategy: StrategyId,
        state: StateId,
        generation: u64,
        at: SimTime,
    ) {
        {
            let execution = match self.executions.get(&strategy) {
                Some(e) => e,
                None => return,
            };
            if execution.generation() != generation
                || execution.current_state() != Some(state)
                || execution.status().is_finished()
            {
                return;
            }
        }
        // Evaluating the state consumes CPU; the transition happens when that
        // work completes (possibly delayed by queued check executions).
        let cost = self.config.costs.state_evaluation_cost();
        let receipt = self.cpu.submit(at, cost);
        self.transition(strategy, state, receipt.completed);
    }

    /// Applies the transition function to the completed state and enters the
    /// successor (or finishes the strategy).
    fn transition(&mut self, strategy: StrategyId, state: StateId, at: SimTime) {
        let (outcome_value, next) = {
            let execution = match self.executions.get(&strategy) {
                Some(e) => e,
                None => return,
            };
            if execution.current_state() != Some(state) || execution.status().is_finished() {
                return;
            }
            let outcome = match execution.build_outcome() {
                Ok(o) => o,
                Err(_) => return,
            };
            let next = execution
                .strategy()
                .automaton()
                .next_state(&outcome)
                .unwrap_or_default();
            (outcome.value, next)
        };
        self.events.push(EngineEvent::StateEvaluated {
            strategy,
            state,
            outcome: outcome_value,
            next,
            at,
        });
        match next {
            Some(next_state) => self.enter_state(strategy, next_state, at),
            None => {
                // The state itself was final (should normally be handled on
                // entry, but kept for robustness).
                self.finish_strategy(strategy, state, at);
            }
        }
    }
}

impl fmt::Debug for BifrostEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BifrostEngine")
            .field("now", &self.queue.now())
            .field("strategies", &self.executions.len())
            .field("unfinished", &self.unfinished)
            .field("events", &self.events.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bifrost_core::phase::PhaseCheck;
    use bifrost_core::prelude::*;
    use bifrost_metrics::SeriesKey;

    struct Fixture {
        engine: BifrostEngine,
        store: SharedMetricStore,
        catalog: ServiceCatalog,
        search: ServiceId,
        stable: VersionId,
        fast: VersionId,
    }

    fn fixture() -> Fixture {
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
        let mut engine = BifrostEngine::new(EngineConfig::default());
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

    fn error_check(every_secs: u64, times: u32) -> PhaseCheck {
        PhaseCheck::basic(
            "errors",
            CheckSpec::single(
                MetricQuery::new("prometheus", "errors", "request_errors")
                    .with_label("instance", "search:80"),
                Validator::LessThan(5.0),
            ),
            Timer::from_secs(every_secs, times).unwrap(),
            OutcomeMapping::binary(times as i64, -1, 1).unwrap(),
        )
    }

    fn exception_check(every_secs: u64, times: u32) -> PhaseCheck {
        PhaseCheck::exception(
            "error-spike",
            CheckSpec::single(
                MetricQuery::new("prometheus", "errors", "request_errors")
                    .with_label("instance", "search:80"),
                Validator::LessThan(100.0),
            ),
            Timer::from_secs(every_secs, times).unwrap(),
        )
    }

    fn feed_low_errors(store: &SharedMetricStore, until_secs: u64) {
        for t in 0..until_secs {
            store.record_value(
                SeriesKey::new("request_errors").with_label("instance", "search:80"),
                bifrost_metrics::TimestampMs::from_secs(t),
                1.0,
            );
        }
    }

    #[test]
    fn single_canary_strategy_succeeds_with_healthy_metrics() {
        let mut f = fixture();
        feed_low_errors(&f.store, 200);
        let strategy = StrategyBuilder::new("canary", f.catalog.clone())
            .phase(
                PhaseSpec::canary(
                    "canary-5",
                    f.search,
                    f.stable,
                    f.fast,
                    Percentage::new(5.0).unwrap(),
                )
                .check(error_check(12, 5))
                .duration_secs(60),
            )
            .build()
            .unwrap();
        let handle = f.engine.schedule(strategy, SimTime::ZERO);
        f.engine.run_until(SimTime::from_secs(300));

        let report = f.engine.report(handle).unwrap();
        assert!(report.is_finished());
        assert!(report.succeeded());
        assert!(report.measured_duration().unwrap() >= Duration::from_secs(60));
        // 5 check executions were recorded.
        let check_events = f
            .engine
            .events()
            .for_strategy(handle.id())
            .filter(|e| matches!(e, EngineEvent::CheckExecuted { .. }))
            .count();
        assert_eq!(check_events, 5);
    }

    #[test]
    fn unhealthy_metrics_cause_rollback() {
        let mut f = fixture();
        // High error counts → the "< 5" validator fails on every execution.
        for t in 0..200 {
            f.store.record_value(
                SeriesKey::new("request_errors").with_label("instance", "search:80"),
                bifrost_metrics::TimestampMs::from_secs(t),
                50.0,
            );
        }
        let strategy = StrategyBuilder::new("canary", f.catalog.clone())
            .phase(
                PhaseSpec::canary(
                    "canary-5",
                    f.search,
                    f.stable,
                    f.fast,
                    Percentage::new(5.0).unwrap(),
                )
                .check(error_check(12, 5))
                .duration_secs(60),
            )
            .build()
            .unwrap();
        let handle = f.engine.schedule(strategy, SimTime::ZERO);
        f.engine.run_until(SimTime::from_secs(300));
        let report = f.engine.report(handle).unwrap();
        assert!(report.is_finished());
        assert!(!report.succeeded());
    }

    #[test]
    fn missing_metrics_fail_checks_and_roll_back() {
        let mut f = fixture();
        let strategy = StrategyBuilder::new("canary", f.catalog.clone())
            .phase(
                PhaseSpec::canary(
                    "canary-5",
                    f.search,
                    f.stable,
                    f.fast,
                    Percentage::new(5.0).unwrap(),
                )
                .check(error_check(12, 5))
                .duration_secs(60),
            )
            .build()
            .unwrap();
        let handle = f.engine.schedule(strategy, SimTime::ZERO);
        f.engine.run_until(SimTime::from_secs(300));
        assert!(!f.engine.report(handle).unwrap().succeeded());
    }

    #[test]
    fn exception_check_aborts_state_early() {
        let mut f = fixture();
        // Error counts far above the exception threshold of 100.
        for t in 0..200 {
            f.store.record_value(
                SeriesKey::new("request_errors").with_label("instance", "search:80"),
                bifrost_metrics::TimestampMs::from_secs(t),
                500.0,
            );
        }
        let strategy = StrategyBuilder::new("canary", f.catalog.clone())
            .phase(
                PhaseSpec::canary(
                    "canary-5",
                    f.search,
                    f.stable,
                    f.fast,
                    Percentage::new(5.0).unwrap(),
                )
                .check(exception_check(12, 5))
                .duration_secs(60),
            )
            .build()
            .unwrap();
        let handle = f.engine.schedule(strategy, SimTime::ZERO);
        f.engine.run_until(SimTime::from_secs(300));
        let report = f.engine.report(handle).unwrap();
        assert!(report.is_finished());
        assert!(!report.succeeded());
        // The rollback happened at the first check execution (~12 s), well
        // before the nominal 60 s state end.
        assert!(report.measured_duration().unwrap() < Duration::from_secs(30));
        assert!(f
            .engine
            .events()
            .for_strategy(handle.id())
            .any(|e| matches!(e, EngineEvent::ExceptionTriggered { .. })));
    }

    #[test]
    fn multi_phase_strategy_walks_all_phases() {
        let mut f = fixture();
        feed_low_errors(&f.store, 500);
        let strategy = StrategyBuilder::new("full", f.catalog.clone())
            .phase(
                PhaseSpec::canary(
                    "canary",
                    f.search,
                    f.stable,
                    f.fast,
                    Percentage::new(5.0).unwrap(),
                )
                .check(error_check(12, 5))
                .duration_secs(60),
            )
            .phase(
                PhaseSpec::dark_launch("dark", f.search, f.stable, f.fast, Percentage::full())
                    .duration_secs(60),
            )
            .phase(PhaseSpec::ab_test("ab", f.search, f.stable, f.fast).duration_secs(60))
            .phase(PhaseSpec::gradual_rollout(
                "rollout",
                f.search,
                f.stable,
                f.fast,
                Percentage::new(5.0).unwrap(),
                Percentage::new(100.0).unwrap(),
                Percentage::new(5.0).unwrap(),
                Duration::from_secs(10),
            ))
            .build()
            .unwrap();
        let nominal = strategy.nominal_duration();
        let handle = f.engine.schedule(strategy, SimTime::ZERO);
        f.engine.run_until(SimTime::from_secs(1_000));
        let report = f.engine.report(handle).unwrap();
        assert!(report.succeeded(), "report: {report:?}");
        // canary + dark + ab + 20 rollout steps + success state = 24 entries.
        assert_eq!(report.state_history.len(), 24);
        assert!(report.measured_duration().unwrap() >= nominal);
        // A single strategy on an idle engine has negligible delay.
        assert!(report.enactment_delay().unwrap() < Duration::from_secs(2));
    }

    #[test]
    fn proxy_is_reconfigured_on_state_transitions() {
        let mut f = fixture();
        feed_low_errors(&f.store, 300);
        let proxy = f.engine.proxy(f.search).unwrap();
        let strategy = StrategyBuilder::new("canary", f.catalog.clone())
            .phase(
                PhaseSpec::canary(
                    "canary-5",
                    f.search,
                    f.stable,
                    f.fast,
                    Percentage::new(5.0).unwrap(),
                )
                .duration_secs(30),
            )
            .build()
            .unwrap();
        f.engine.schedule(strategy, SimTime::ZERO);
        f.engine.run_until(SimTime::from_secs(5));
        // During the canary state the proxy must be active.
        assert!(proxy.read().is_active());
        f.engine.run_until(SimTime::from_secs(200));
        // After completion the success state routes 100% to the new version.
        let config_updates = proxy.read().stats().config_updates;
        assert!(config_updates >= 2, "updates: {config_updates}");
    }

    #[test]
    fn parallel_strategies_incur_queueing_delay() {
        let mut base = fixture();
        feed_low_errors(&base.store, 2_000);
        // Build one reference strategy and clone it many times.
        let make = |catalog: &ServiceCatalog, search, stable, fast| {
            StrategyBuilder::new("load", catalog.clone())
                .phase(
                    PhaseSpec::canary(
                        "canary",
                        search,
                        stable,
                        fast,
                        Percentage::new(5.0).unwrap(),
                    )
                    .check(error_check(12, 5))
                    .duration_secs(60),
                )
                .build()
                .unwrap()
        };
        // Engine with a single strategy.
        let solo_handle = base.engine.schedule(
            make(&base.catalog, base.search, base.stable, base.fast),
            SimTime::ZERO,
        );
        base.engine.run_until(SimTime::from_secs(400));
        let solo_delay = base
            .engine
            .report(solo_handle)
            .unwrap()
            .enactment_delay()
            .unwrap();

        // Engine with 150 identical strategies starting at the same time.
        let mut busy = fixture();
        feed_low_errors(&busy.store, 2_000);
        let handles: Vec<_> = (0..150)
            .map(|_| {
                busy.engine.schedule(
                    make(&busy.catalog, busy.search, busy.stable, busy.fast),
                    SimTime::ZERO,
                )
            })
            .collect();
        busy.engine.run_until(SimTime::from_secs(1_000));
        let delays: Vec<Duration> = handles
            .iter()
            .map(|h| busy.engine.report(*h).unwrap().enactment_delay().unwrap())
            .collect();
        let mean_delay = delays.iter().map(|d| d.as_secs_f64()).sum::<f64>() / delays.len() as f64;
        assert!(
            mean_delay > solo_delay.as_secs_f64(),
            "mean {mean_delay} vs solo {}",
            solo_delay.as_secs_f64()
        );
        // Utilisation was sampled and shows load.
        assert!(!busy.engine.utilization_trace().is_empty());
        let peak = busy
            .engine
            .utilization_trace()
            .iter()
            .map(|(_, u)| *u)
            .fold(0.0f64, f64::max);
        assert!(peak > 10.0, "peak {peak}");
    }

    #[test]
    fn stepped_runs_sample_utilisation_like_one_run() {
        let trace = |steps: u64| {
            let mut f = fixture();
            feed_low_errors(&f.store, 300);
            for _ in 0..20 {
                let strategy = StrategyBuilder::new("canary", f.catalog.clone())
                    .phase(
                        PhaseSpec::canary(
                            "canary-5",
                            f.search,
                            f.stable,
                            f.fast,
                            Percentage::new(5.0).unwrap(),
                        )
                        .check(error_check(2, 15))
                        .duration_secs(30),
                    )
                    .build()
                    .unwrap();
                f.engine.schedule(strategy, SimTime::ZERO);
            }
            for step in 1..=steps {
                f.engine.run_until(SimTime::from_secs(30 * step / steps));
            }
            f.engine.utilization_trace().to_vec()
        };
        let single = trace(1);
        assert_eq!(single.len(), 30);
        assert!(single.iter().any(|&(_, u)| u > 0.0));
        assert_eq!(trace(30), single);
    }

    #[test]
    fn sampling_resumes_for_work_scheduled_on_an_idle_engine() {
        let mut f = fixture();
        feed_low_errors(&f.store, 300);
        // Idle to 5 s: the 1 s sample finds nothing queued and stops.
        f.engine.run_until(SimTime::from_secs(5));
        let strategy = StrategyBuilder::new("canary", f.catalog.clone())
            .phase(
                PhaseSpec::canary(
                    "canary-5",
                    f.search,
                    f.stable,
                    f.fast,
                    Percentage::new(5.0).unwrap(),
                )
                .check(error_check(2, 15))
                .duration_secs(30),
            )
            .build()
            .unwrap();
        f.engine.schedule(strategy, SimTime::from_secs(10));
        f.engine.run_until(SimTime::from_secs(60));
        let seconds: Vec<u64> = f
            .engine
            .utilization_trace()
            .iter()
            .map(|(at, _)| at.as_micros() / 1_000_000)
            .collect();
        let expected: Vec<u64> = [1].into_iter().chain(6..=41).collect();
        assert_eq!(seconds, expected);
    }

    #[test]
    fn run_to_completion_stops_when_everything_finished() {
        let mut f = fixture();
        feed_low_errors(&f.store, 300);
        let strategy = StrategyBuilder::new("canary", f.catalog.clone())
            .phase(
                PhaseSpec::canary(
                    "c",
                    f.search,
                    f.stable,
                    f.fast,
                    Percentage::new(5.0).unwrap(),
                )
                .duration_secs(30),
            )
            .build()
            .unwrap();
        let handle = f.engine.schedule(strategy, SimTime::from_secs(10));
        let processed = f.engine.run_to_completion(SimTime::from_secs(3_600));
        assert!(processed > 0);
        assert!(f.engine.all_finished());
        let report = f.engine.report(handle).unwrap();
        assert!(report.started_at.is_none() || report.is_finished());
        assert!(f.engine.now() < SimTime::from_secs(3_600));
        assert!(format!("{:?}", f.engine).contains("BifrostEngine"));
    }
}
