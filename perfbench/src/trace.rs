//! The traced run: an untraced reference pass, then an engine pass stepped
//! one traffic tick at a time with spans, interleaved with a replay of each
//! tick's traffic through each layer's public entry points.
//!
//! Spans are recorded only around calls the benchmark itself makes (no
//! program code is instrumented), kept in memory, and folded into metrics
//! at the end. A layer's per-request entry points (`CpuResource::submit`,
//! `VersionBackend::dispatch`, `TrafficSeriesRecorder::observe_*`) are
//! timed as one span per batch covering all of that batch's calls, with the
//! call count on the span: a timestamp pair per call would cost about as
//! much as the cheaper calls themselves.
//!
//! The replay must route exactly the traffic the engine routed: it rebuilds
//! each proxy the way `ProxyFleet::register` does (same name, so the same
//! token seed), applies the configurations the engine pass snapshotted at
//! the same batch boundaries, and draws backend behaviour from RNGs seeded
//! like the engine's. Its counts must equal the engine pass's, or the
//! traced run fails.

use crate::gate::{check_outcome, stream_seed, Outcome, ShareLedger, StreamTally};
use crate::json::Metric;
use crate::measure::{quantile, run_rep};
use crate::probe::HostProbe;
use crate::workloads::{build_with, StreamSpec, Workload, WorkloadSpec, PROVIDER};
use bifrost_core::check::MetricQuery;
use bifrost_core::ids::VersionId;
use bifrost_core::seed::Seed;
use bifrost_dsl::parse_strategy;
use bifrost_engine::{BackendDispatch, BackendFleet, BackendModel, EngineConfig};
use bifrost_metrics::provider::to_range_query;
use bifrost_metrics::{
    MetricsProvider, Sample, SeriesKey, SharedMetricStore, StoreProvider, TimestampMs,
    TrafficSeriesRecorder,
};
use bifrost_proxy::{BifrostProxy, ProxyConfig, ProxyRequest};
use bifrost_simnet::{CpuResource, SimRng, SimTime};
use bifrost_workload::{Arrival, ArrivalPlan};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The traced run's result.
#[derive(Debug)]
pub struct Traced {
    /// Passes made (reference, engine, replay).
    pub passes: u64,
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Correctness violations, including replay/engine count mismatches.
    pub failures: Vec<String>,
}

/// One timed interval: name, start and end (ns since the log's epoch), the
/// span that caused it, and how many calls it covers.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    calls: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// In-memory span log.
#[derive(Debug)]
struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    /// The open span that new spans are children of (the current tick).
    current: Option<usize>,
}

impl Spans {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            current: None,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the current parent and makes it the current one.
    fn open(&mut self, name: &'static str) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.current,
            calls: 1,
        });
        self.current = Some(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id` and restores its parent as the current span.
    fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
        self.current = self.spans[id].parent;
    }

    /// Times `f` as a child of the current span covering `calls` calls.
    fn time<R>(&mut self, name: &'static str, calls: u64, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let result = f();
        let end = self.now();
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.current,
            calls,
        });
        result
    }

    /// Records an interval measured elsewhere.
    fn push(&mut self, name: &'static str, start: Instant, end: Instant, calls: u64) {
        let to_ns = |at: Instant| at.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start: to_ns(start),
            end: to_ns(end),
            parent: self.current,
            calls,
        });
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total nanoseconds and calls of the spans named `name`.
    fn total(&self, name: &str) -> (f64, u64) {
        self.named(name).fold((0.0, 0), |(ns, calls), s| {
            (ns + s.ns() as f64, calls + s.calls)
        })
    }

    /// Sorted durations (µs) of the spans named `name`.
    fn durations_us(&self, name: &str) -> Vec<f64> {
        let mut out: Vec<f64> = self.named(name).map(|s| s.ns() as f64 / 1e3).collect();
        out.sort_by(f64::total_cmp);
        out
    }

    /// Nanoseconds covered by direct children of spans named `name`.
    fn child_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == name))
            .map(|s| s.ns() as f64)
            .sum()
    }
}

/// Per-query bookkeeping of the timing provider.
#[derive(Debug, Default)]
struct QueryCounts {
    fetches: u64,
    none: u64,
    samples_scanned: u64,
    /// Each fetch's query and instant, kept so the samples it scanned can
    /// be counted after the engine pass instead of inside a tick span.
    log: Vec<(MetricQuery, TimestampMs)>,
}

impl QueryCounts {
    /// Counts the samples each logged query looked at — every sample of
    /// every selected series inside its window — and clears the log. The
    /// engine never prunes the store, and checks run on odd milliseconds
    /// while recorders flush on the 100 ms tick grid, so a window read
    /// after the pass holds the same samples as at fetch time.
    fn count_scanned(&mut self, store: &SharedMetricStore) {
        let log = std::mem::take(&mut self.log);
        self.samples_scanned = store.with_store(|store| {
            log.iter()
                .map(|(query, now)| {
                    let range = to_range_query(query);
                    store
                        .keys()
                        .filter(|key| range.selects(key))
                        .filter_map(|key| store.series(key))
                        .map(|series| series.window(*now, range.window()).len() as u64)
                        .sum::<u64>()
                })
                .sum()
        });
    }
}

/// A [`MetricsProvider`] that answers like [`StoreProvider`] and records a
/// `query.fetch` span per call under the current engine tick.
#[derive(Debug)]
struct TimedProvider {
    inner: StoreProvider,
    spans: Arc<Mutex<Spans>>,
    counts: Arc<Mutex<QueryCounts>>,
}

impl MetricsProvider for TimedProvider {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn fetch(&self, query: &MetricQuery, now: TimestampMs) -> Option<f64> {
        let start = Instant::now();
        let value = self.inner.fetch(query, now);
        let end = Instant::now();
        self.spans
            .lock()
            .expect("span log lock")
            .push("query.fetch", start, end, 1);
        let mut counts = self.counts.lock().expect("query count lock");
        counts.fetches += 1;
        counts.none += u64::from(value.is_none());
        counts.log.push((query.clone(), now));
        value
    }
}

/// What the engine pass leaves for the report.
#[derive(Debug)]
struct EnginePass {
    outcome: Outcome,
    events: u64,
    sticky_hits: u64,
    sticky_lookups: u64,
    store_series: usize,
    store_samples: usize,
    latency_log_len: usize,
    query: QueryCounts,
}

/// Runs the traced mode of `workload` at `scale` under `seed`.
pub fn run(workload: Workload, scale: f64, seed: Seed) -> Traced {
    let spec = workload.spec(scale);
    let mut failures = Vec::new();

    // Reference pass: untraced, stepped per virtual second.
    let reference = run_rep(workload, scale, seed, &mut HostProbe::new());
    failures.extend(reference.failures.iter().cloned());
    let ref_rps = reference.sim_rps();

    let spans = Arc::new(Mutex::new(Spans::new()));
    let (engine, replay) = traced_passes(&spec, seed, &spans, &mut failures);
    if engine.outcome.digest() != reference.outcome.digest() {
        failures.push(format!(
            "engine pass digest {:016x} differs from the reference pass {:016x}",
            engine.outcome.digest(),
            reference.outcome.digest()
        ));
    }
    let spans = Arc::try_unwrap(spans)
        .expect("the passes released the span log")
        .into_inner()
        .expect("span log lock");

    let secs = spec.virtual_secs as f64;
    let requests = engine.outcome.requests() as f64;
    let (tick_ns, _) = spans.total("engine.tick");
    let (fetch_ns, _) = spans.total("query.fetch");
    let layer_ns = spans.child_ns("replay.tick");
    let per = |ns: f64, calls: u64| if calls == 0 { 0.0 } else { ns / calls as f64 };
    let tick_us = spans.durations_us("engine.tick");
    let fetch_us = spans.durations_us("query.fetch");
    let (route_ns, routed) = spans.total("proxy.route");
    let (apply_ns, applies) = spans.total("proxy.apply_config");
    let (submit_ns, submits) = spans.total("simnet.submit");
    let (cpu_sample_ns, cpu_samples) = spans.total("simnet.sample");
    let (dispatch_ns, _) = spans.total("backends.dispatch");
    let (server_sample_ns, server_samples) = spans.total("backends.sample");
    let (observe_ns, observed) = spans.total("recorder.observe");
    let (flush_ns, flushes) = spans.total("recorder.flush");
    let (record_ns, recorded) = spans.total("store.record");
    let (plan_ns, _) = spans.total("workload.plan");
    let (parse_ns, parses) = spans.total("dsl.parse");
    let engine_rps = requests / (tick_ns / 1e9);
    let arrival_mb = replay.arrivals as f64 * std::mem::size_of::<Arrival>() as f64 / 1_048_576.0;
    let query = &engine.query;
    let metrics = vec![
        Metric::new("engine.tick_us_p50", quantile(&tick_us, 0.50), "us"),
        Metric::new("engine.tick_us_p95", quantile(&tick_us, 0.95), "us"),
        Metric::new("engine.tick_us_p99", quantile(&tick_us, 0.99), "us"),
        Metric::new(
            "engine.events_per_step",
            engine.events as f64 / secs,
            "count",
        ),
        Metric::new(
            "engine.self_us_per_step",
            (tick_ns - layer_ns - fetch_ns) / 1e3 / secs,
            "us",
        ),
        Metric::new(
            "engine.checks_executed",
            engine.outcome.checks_executed as f64,
            "count",
        ),
        Metric::new(
            "engine.transitions",
            engine.outcome.transitions as f64,
            "count",
        ),
        Metric::new(
            "engine.proxy_configs",
            engine.outcome.proxy_configs as f64,
            "count",
        ),
        Metric::new("proxy.route_ns_per_req", per(route_ns, routed), "ns"),
        Metric::new(
            "proxy.tokens_minted_per_req",
            replay.tokens_minted as f64 / requests,
            "ratio",
        ),
        Metric::new(
            "proxy.session_hit_ratio",
            engine.sticky_hits as f64 / engine.sticky_lookups.max(1) as f64,
            "ratio",
        ),
        Metric::new("proxy.sessions_peak", replay.sessions_peak as f64, "count"),
        Metric::new("proxy.apply_config_ms", per(apply_ns, applies) / 1e6, "ms"),
        Metric::new("simnet.submit_ns_per_req", per(submit_ns, submits), "ns"),
        Metric::new("simnet.proxy_cores", replay.mean_cores, "cores"),
        Metric::new(
            "simnet.sample_us_per_tick",
            per(cpu_sample_ns, cpu_samples) / 1e3,
            "us",
        ),
        Metric::new(
            "backends.dispatch_ns",
            per(dispatch_ns, replay.dispatches),
            "ns",
        ),
        Metric::new(
            "backends.dispatches_per_req",
            replay.dispatches as f64 / requests,
            "ratio",
        ),
        Metric::new(
            "backends.shed_ratio",
            replay.dropped as f64 / replay.dispatches.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "backends.sample_us_per_tick",
            per(server_sample_ns, server_samples) / 1e3,
            "us",
        ),
        Metric::new(
            "recorder.observe_ns_per_req",
            per(observe_ns, observed),
            "ns",
        ),
        Metric::new(
            "recorder.flush_us_per_tick",
            per(flush_ns, flushes) / 1e3,
            "us",
        ),
        Metric::new("store.record_ns_per_sample", per(record_ns, recorded), "ns"),
        Metric::new(
            "store.samples_per_step",
            engine.store_samples as f64 / secs,
            "count",
        ),
        Metric::new("store.samples_total", engine.store_samples as f64, "count"),
        Metric::new("store.series", engine.store_series as f64, "count"),
        Metric::new("query.count", query.fetches as f64, "count"),
        Metric::new("query.fetch_us_p50", quantile(&fetch_us, 0.50), "us"),
        Metric::new("query.fetch_us_p95", quantile(&fetch_us, 0.95), "us"),
        Metric::new(
            "query.samples_scanned_per_query",
            query.samples_scanned as f64 / query.fetches.max(1) as f64,
            "count",
        ),
        Metric::new(
            "query.none_ratio",
            query.none as f64 / query.fetches.max(1) as f64,
            "ratio",
        ),
        Metric::new("workload.plan_s", plan_ns / 1e9, "s"),
        Metric::new("workload.arrivals", replay.arrivals as f64, "count"),
        Metric::new("workload.plan_mb", arrival_mb, "MiB"),
        Metric::new(
            "dsl.parse_us_per_strategy",
            per(parse_ns, parses) / 1e3,
            "us",
        ),
        Metric::new(
            "traffic.latency_log_mb",
            engine.latency_log_len as f64 * 8.0 / 1_048_576.0,
            "MiB",
        ),
        Metric::new("step.p99_ms", reference.step_ms(0.99), "ms"),
        Metric::new("step.max_ms", reference.step_ms(1.0), "ms"),
        Metric::new("trace.engine_sim_rps", engine_rps, "requests/s"),
        Metric::new("trace.overhead_ratio", ref_rps / engine_rps, "ratio"),
        Metric::new("trace.spans", spans.spans.len() as f64, "count"),
    ];
    Traced {
        passes: 3,
        metrics,
        failures,
    }
}

/// Steps the engine one traffic tick at a time, an `engine.tick` span per
/// `run_until`, and right after each tick replays that tick's batches
/// through the layers — interleaved, so drift in the host's speed hits the
/// engine pass and the replay alike. Checks the engine's outcome and the
/// replay's counts against it.
fn traced_passes(
    spec: &WorkloadSpec,
    seed: Seed,
    spans: &Arc<Mutex<Spans>>,
    failures: &mut Vec<String>,
) -> (EnginePass, ReplayTotals) {
    let lock = || spans.lock().expect("span log lock");
    let mut scenario = build_with(spec, seed, |source| {
        lock()
            .time("dsl.parse", 1, || parse_strategy(source))
            .expect("benchmark DSL is valid")
    });
    let counts = Arc::new(Mutex::new(QueryCounts::default()));
    // Same name as the plain store provider, so it replaces it and every
    // check's fetch goes through the timer.
    scenario
        .engine
        .providers_mut()
        .register(Box::new(TimedProvider {
            inner: StoreProvider::new(PROVIDER, scenario.store.clone()),
            spans: spans.clone(),
            counts: counts.clone(),
        }));
    let mut replay = Replay::new(spec, seed, &mut lock());

    let ticks_per_sec = 1_000_000 / replay.tick_us;
    let mut ledger = ShareLedger::new(&scenario);
    let mut revisions = vec![0u64; spec.streams.len()];
    let mut events = 0;
    for tick in 1..=spec.virtual_secs * ticks_per_sec {
        let id = lock().open("engine.tick");
        events += scenario
            .engine
            .run_until(SimTime::from_micros(tick * replay.tick_us));
        lock().close(id);
        for (stream, revision) in revisions.iter_mut().enumerate() {
            let proxy = scenario.proxy(stream);
            let proxy = proxy.read();
            if proxy.config().revision() != *revision {
                *revision = proxy.config().revision();
                replay.streams[stream]
                    .configs
                    .push((tick, proxy.config().clone()));
            }
        }
        if tick % ticks_per_sec == 0 {
            ledger.observe(&scenario);
        }
        replay.tick(tick, &mut lock());
    }

    let outcome = Outcome::collect(&scenario);
    check_outcome(&scenario, &outcome, failures);
    ledger.check(failures);
    let (mut sticky_hits, mut sticky_lookups) = (0, 0);
    for stream in 0..scenario.services.len() {
        let proxy = scenario.proxy(stream);
        let proxy = proxy.read();
        sticky_hits += proxy.sessions().hits();
        sticky_lookups += proxy.sessions().hits() + proxy.sessions().misses();
    }
    let latency_log_len = scenario
        .traffic
        .iter()
        .map(|h| {
            scenario
                .engine
                .traffic_stats(*h)
                .map_or(0, |s| s.latencies_ms.len())
        })
        .sum();
    let mut query = std::mem::take(&mut *counts.lock().expect("query count lock"));
    query.count_scanned(&scenario.store);
    let engine = EnginePass {
        outcome,
        events,
        sticky_hits,
        sticky_lookups,
        store_series: scenario.store.series_count(),
        store_samples: scenario.store.sample_count(),
        latency_log_len,
        query,
    };
    let totals = replay.finish(&engine, &mut lock(), failures);
    (engine, totals)
}

/// Counts the replay produced.
#[derive(Debug, Default)]
struct ReplayTotals {
    arrivals: u64,
    tokens_minted: u64,
    sessions_peak: usize,
    dispatches: u64,
    dropped: u64,
    mean_cores: f64,
}

/// How a primary request fared at its backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Served {
    Ok,
    Shed,
    TimedOut,
}

/// One stream's replay state: the layers it calls into.
struct ReplayStream<'a> {
    spec: &'a StreamSpec,
    plan: ArrivalPlan,
    /// `(tick, start, end)` per non-empty batch.
    batches: Vec<(u64, usize, usize)>,
    next_batch: usize,
    /// `(tick, config)` whenever the engine's proxy changed revision,
    /// appended by the engine pass as it steps.
    configs: Vec<(u64, ProxyConfig)>,
    next_config: usize,
    proxy: BifrostProxy,
    cpu: CpuResource,
    fleet: BackendFleet,
    rng: SimRng,
    shadow_rng: SimRng,
    recorder: TrafficSeriesRecorder,
    labels: BTreeMap<VersionId, String>,
    tally: StreamTally,
    sessions_peak: usize,
}

/// The layer replay: one [`ReplayStream`] per traffic stream, recording
/// into one store like the engine's streams do.
struct Replay<'a> {
    streams: Vec<ReplayStream<'a>>,
    store: SharedMetricStore,
    tick_us: u64,
    requests: Vec<ProxyRequest>,
    totals: ReplayTotals,
}

impl<'a> Replay<'a> {
    /// Materialises each stream's plan (a `workload.plan` span each) and
    /// builds its layers the way the engine does.
    fn new(spec: &'a WorkloadSpec, seed: Seed, spans: &mut Spans) -> Self {
        let tick = spec.streams[0].profile.tick();
        assert!(
            spec.streams.iter().all(|s| s.profile.tick() == tick),
            "the traced run steps one shared tick"
        );
        let tick_us = tick.as_micros() as u64;
        let store = SharedMetricStore::new();
        let shards = EngineConfig::default().session_shards;
        let streams: Vec<ReplayStream> = spec
            .streams
            .iter()
            .enumerate()
            .map(|(index, stream)| {
                let stream_seed = stream_seed(seed, index);
                let plan = spans.time("workload.plan", 1, || {
                    stream.profile.load().plan_seeded(stream_seed)
                });
                let mut cursor = 0;
                let batches = plan
                    .batches(tick)
                    .map(|batch| {
                        let start = cursor;
                        cursor += batch.arrivals.len();
                        (batch.end.as_micros() / tick_us, start, cursor)
                    })
                    .collect();
                let service = stream.profile.service();
                let mut recorder =
                    TrafficSeriesRecorder::new(store.clone(), stream.service_label.clone());
                recorder.register_versions(
                    stream.labels.values().map(String::as_str),
                    SimTime::ZERO.to_timestamp(),
                );
                ReplayStream {
                    spec: stream,
                    plan,
                    batches,
                    next_batch: 0,
                    configs: Vec::new(),
                    next_config: 0,
                    proxy: BifrostProxy::new(
                        format!("proxy-{service}"),
                        ProxyConfig::new(service, stream.default_version),
                    )
                    .with_session_shards(shards),
                    cpu: CpuResource::new(stream.cores),
                    fleet: BackendFleet::new(),
                    rng: SimRng::seeded(stream_seed.stream("backends").value()),
                    shadow_rng: SimRng::seeded(stream_seed.stream("shadow-backends").value()),
                    recorder,
                    labels: stream.labels.clone(),
                    tally: StreamTally::default(),
                    sessions_peak: 0,
                }
            })
            .collect();
        let totals = ReplayTotals {
            arrivals: streams.iter().map(|s| s.plan.len() as u64).sum(),
            mean_cores: spec.streams.iter().map(|s| s.cores as f64).sum::<f64>()
                / spec.streams.len() as f64,
            ..ReplayTotals::default()
        };
        Self {
            streams,
            store,
            tick_us,
            requests: Vec::new(),
            totals,
        }
    }

    /// Replays every stream's batch that ends at `tick`, under one
    /// `replay.tick` span.
    fn tick(&mut self, tick: u64, spans: &mut Spans) {
        let due = |s: &ReplayStream| s.batches.get(s.next_batch).is_some_and(|b| b.0 == tick);
        if !self.streams.iter().any(due) {
            return;
        }
        let tick_span = spans.open("replay.tick");
        let at = SimTime::from_micros(tick * self.tick_us);
        for stream in self.streams.iter_mut().filter(|s| due(s)) {
            let (_, start, end) = stream.batches[stream.next_batch];
            stream.next_batch += 1;
            stream.replay_batch(
                start,
                end,
                at,
                tick,
                spans,
                &mut self.requests,
                &mut self.totals,
            );
        }
        spans.close(tick_span);
    }

    /// Checks the replay's counts against the engine pass, then replays the
    /// recorded samples into a fresh store.
    fn finish(
        mut self,
        engine: &EnginePass,
        spans: &mut Spans,
        failures: &mut Vec<String>,
    ) -> ReplayTotals {
        for (index, stream) in self.streams.iter_mut().enumerate() {
            stream.sessions_peak = stream.sessions_peak.max(stream.proxy.sessions().len());
            self.totals.sessions_peak += stream.sessions_peak;
            if stream.next_batch != stream.batches.len() {
                failures.push(format!(
                    "stream {index}: {} of {} planned batches fell inside the run",
                    stream.next_batch,
                    stream.batches.len()
                ));
            }
            let expected = &engine.outcome.streams[index];
            if stream.tally != *expected {
                failures.push(format!(
                    "stream {index}: replay counted {:?}, engine pass {:?}",
                    stream.tally, expected
                ));
            }
        }
        drop(self.streams);

        // Store replay: the recorded samples, regrouped per flush instant
        // and written into a fresh store one `record_many` per instant.
        let mut by_instant: BTreeMap<TimestampMs, Vec<(SeriesKey, Sample)>> = BTreeMap::new();
        self.store.with_store(|recorded| {
            for key in recorded.keys() {
                for sample in recorded.series(key).map_or(&[][..], |s| s.samples()) {
                    by_instant
                        .entry(sample.timestamp)
                        .or_default()
                        .push((key.clone(), *sample));
                }
            }
        });
        let fresh = SharedMetricStore::new();
        for (_, samples) in by_instant {
            let count = samples.len() as u64;
            spans.time("store.record", count, || fresh.record_many(samples));
        }
        if fresh.sample_count() != engine.store_samples
            || fresh.series_count() != engine.store_series
        {
            failures.push(format!(
                "replayed store holds {} samples in {} series, engine pass {} in {}",
                fresh.sample_count(),
                fresh.series_count(),
                engine.store_samples,
                engine.store_series
            ));
        }
        self.totals
    }
}

impl ReplayStream<'_> {
    /// Replays one batch the way `TrafficStream::route_batch` processes it,
    /// one layer at a time, each layer's calls under one span.
    #[allow(clippy::too_many_arguments)]
    fn replay_batch(
        &mut self,
        start: usize,
        end: usize,
        at: SimTime,
        tick: u64,
        spans: &mut Spans,
        requests: &mut Vec<ProxyRequest>,
        totals: &mut ReplayTotals,
    ) {
        let service = self.spec.profile.service();
        while let Some((config_tick, config)) = self.configs.get(self.next_config) {
            if *config_tick > tick {
                break;
            }
            self.next_config += 1;
            self.sessions_peak = self.sessions_peak.max(self.proxy.sessions().len());
            let proxy = &mut self.proxy;
            spans.time("proxy.apply_config", 1, || {
                proxy.apply_config(config.clone())
            });
        }
        let arrivals = &self.plan.arrivals()[start..end];
        let n = arrivals.len() as u64;
        requests.clear();
        requests.extend(arrivals.iter().map(|a| ProxyRequest::from_user(a.user)));
        let proxy = &self.proxy;
        let routed = spans.time("proxy.route", n, || {
            proxy.route_many_costed(requests.iter())
        });
        totals.tokens_minted += routed
            .iter()
            .filter(|(d, _)| d.set_cookie.is_some())
            .count() as u64;

        let cpu = &mut self.cpu;
        let receipts: Vec<SimTime> = spans.time("simnet.submit", n, || {
            arrivals
                .iter()
                .zip(&routed)
                .map(|(arrival, (_, cost))| cpu.submit(arrival.at, *cost).completed)
                .collect()
        });

        // Backend outcomes in engine order: primary jitter, dispatch, error
        // draw, then each shadow's demand draw and dispatch.
        let (fleet, rng, shadow_rng, profile) = (
            &mut self.fleet,
            &mut self.rng,
            &mut self.shadow_rng,
            &self.spec.profile,
        );
        let mut dispatches = 0u64;
        // Per request: latency, success, primary outcome, and a bit per
        // shadow copy that was shed (the workloads install at most one
        // dark-launch rule, so one copy per request).
        let outcomes: Vec<(f64, bool, Served, u64)> = spans.time("backends.dispatch", n, || {
            arrivals
                .iter()
                .zip(&routed)
                .zip(&receipts)
                .map(|((arrival, (decision, _)), completed)| {
                    let proxy_ms = (*completed - arrival.at).as_secs_f64() * 1_000.0;
                    let model = profile.backend_of(decision.primary);
                    let jitter = 0.9 + 0.2 * rng.uniform();
                    let (latency_ms, served) = match model {
                        BackendModel::Profile(p) => (
                            proxy_ms + p.service_time.as_secs_f64() * 1_000.0 * jitter,
                            Served::Ok,
                        ),
                        BackendModel::Queued(q) => {
                            dispatches += 1;
                            let server = fleet.ensure(service, decision.primary, &q);
                            match server.dispatch(*completed, q.service_time.mul_f64(jitter)) {
                                BackendDispatch::Shed => (proxy_ms, Served::Shed),
                                BackendDispatch::Admitted(r) if r.latency() > q.timeout => (
                                    proxy_ms + q.timeout.as_secs_f64() * 1_000.0,
                                    Served::TimedOut,
                                ),
                                BackendDispatch::Admitted(r) => {
                                    (proxy_ms + r.latency().as_secs_f64() * 1_000.0, Served::Ok)
                                }
                            }
                        }
                    };
                    let success = served == Served::Ok && !rng.chance(model.error_rate());
                    let mut shadow_shed = 0u64;
                    for (bit, shadow) in decision.shadows.iter().enumerate() {
                        if let BackendModel::Queued(q) = profile.backend_of(shadow.target) {
                            dispatches += 1;
                            let demand = q.service_time.mul_f64(0.9 + 0.2 * shadow_rng.uniform());
                            let server = fleet.ensure(service, shadow.target, &q);
                            if server.dispatch(*completed, demand) == BackendDispatch::Shed {
                                shadow_shed |= 1 << bit;
                            }
                        }
                    }
                    (latency_ms, success, served, shadow_shed)
                })
                .collect()
        });
        totals.dispatches += dispatches;

        let (recorder, labels) = (&mut self.recorder, &mut self.labels);
        spans.time("recorder.observe", n, || {
            for ((decision, _), (latency_ms, success, served, shadow_shed)) in
                routed.iter().zip(&outcomes)
            {
                let label = labels
                    .entry(decision.primary)
                    .or_insert_with(|| decision.primary.to_string());
                recorder.observe_request(label, *latency_ms, *success);
                if *served != Served::Ok {
                    recorder.observe_shed(label);
                }
                for (bit, shadow) in decision.shadows.iter().enumerate() {
                    let label = labels
                        .entry(shadow.target)
                        .or_insert_with(|| shadow.target.to_string());
                    recorder.observe_shadow(label);
                    if shadow_shed >> bit & 1 == 1 {
                        recorder.observe_shed(label);
                    }
                }
            }
        });

        let fleet = &mut self.fleet;
        let utilization: Vec<(VersionId, f64)> = spans.time("backends.sample", 1, || {
            fleet
                .servers_of_mut(service)
                .map(|(version, server)| (version, server.sample_utilization(at)))
                .collect()
        });
        let cpu = &mut self.cpu;
        spans.time("simnet.sample", 1, || cpu.sample_utilization(at));
        let (recorder, labels) = (&mut self.recorder, &mut self.labels);
        spans.time("recorder.flush", 1, || {
            for (version, percent) in &utilization {
                let label = labels
                    .entry(*version)
                    .or_insert_with(|| version.to_string());
                recorder.observe_utilization(label, *percent);
            }
            recorder.flush(at.to_timestamp());
        });

        // Counts for the comparison with the engine pass.
        let tally = &mut self.tally;
        for ((decision, _), (_, success, served, shadow_shed)) in routed.iter().zip(&outcomes) {
            tally.requests += 1;
            tally.errors += u64::from(!success);
            match served {
                Served::Ok => {}
                Served::Shed => tally.shed += 1,
                Served::TimedOut => tally.timed_out += 1,
            }
            *tally.per_version.entry(decision.primary).or_insert(0) += 1;
            for shadow in &decision.shadows {
                tally.shadow_copies += 1;
                *tally.shadow_per_version.entry(shadow.target).or_insert(0) += 1;
            }
            tally.shadow_shed += u64::from(shadow_shed.count_ones());
            totals.dropped +=
                u64::from(*served != Served::Ok) + u64::from(shadow_shed.count_ones());
        }
    }
}
