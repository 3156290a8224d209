//! Request-level traffic simulation: live traffic through the proxy fleet.
//!
//! The paper's core claim is that strategies are enacted *over live
//! traffic*: proxies split, stick, and shadow real requests while
//! metric-based checks decide state transitions. This module is the
//! substrate that makes the simulated engine do the same. A
//! [`TrafficProfile`] attaches a [`bifrost_workload::LoadProfile`] to a
//! service. At attach the engine draws the profile's seeded arrivals once
//! ([`bifrost_workload::ArrivalCursor::ticks`]) and keeps, for each
//! non-empty tick, only its end, its arrival count and the generator state
//! before its first arrival; it schedules one `TrafficTick` engine event
//! per non-empty tick. Each tick regenerates its arrivals from that
//! checkpoint into a buffer reused across ticks, so a stream holds memory
//! in proportion to its ticks and its largest tick, not to its requests.
//! The arrivals equal the tick's batch of
//! [`bifrost_workload::ArrivalPlan::batches`] over the same seed. Any tick
//! regenerates on its own, so generation runs on the data plane's workers
//! and skipped ticks (a service with no proxy yet) leave later ticks
//! unchanged. Each tick routes its arrivals' user ids through the service's
//! proxy in one pass ([`bifrost_proxy::BifrostProxy::route_users_costed_into`],
//! the compiled-config hot path, which builds no request), charges every
//! request's routing cost to the cores of the proxy's own VM, models the
//! serving version's backend latency and error rate, and buffers the
//! observed outcomes in its service's
//! [`bifrost_metrics::TrafficSeriesRecorder`] — so checks evaluate traffic
//! the proxies actually routed instead of hand-injected samples. Nothing
//! samples the proxy VM's utilisation, so it is a bare
//! [`bifrost_simnet::CoreHeap`] that logs no busy intervals.
//!
//! Ticks are the engine's data plane. The engine collects consecutive
//! `TrafficTick` events into a run and replays it before it handles the
//! next control event (a strategy start, check, state deadline or
//! utilisation sample) or returns at its deadline. A tick schedules no
//! events and touches no engine CPU, event log or strategy state, and each
//! control event still sees every tick queued before it, so this equals
//! handling each event as it is popped. A run is split by service. Each
//! service owns its streams, its proxy-VM cores, one recorder and one entry
//! per version, and replays its ticks in queue order in two stages: a
//! routing stage (`ServiceFront`: regenerate, route, charge the proxy
//! cores) and a serving stage (`ServiceBack`: backend draws and dispatch,
//! statistics, recorder). The serving stage resolves a decision's version
//! entry once per run of requests with the same primary version and
//! folds its per-version counts into the stream's statistics once per
//! tick. Each stream is split the same way
//! (`StreamFront`, `StreamBack`), and a routed tick passes between the
//! stages as a `TickPacket`. Routing reads nothing the serving stage
//! writes, so the stages may run on two threads (see the `dataplane`
//! module). A service closes each tick instant once, after its last tick
//! there, so each of its series gets one sample per instant.
//!
//! A service records under one `service` label, and a label names one
//! service, so services write disjoint series of the metric store, and the
//! streams of a service add to one running total per counter series. The
//! store hands out private series ids in first-record order, which can
//! differ between worker counts, but every read is in key order, so every
//! output is byte-identical at any worker count.
//!
//! Everything derives from the engine seed: an N-thread multi-trial run
//! produces byte-identical traffic statistics to a 1-thread run.

use bifrost_core::ids::{ServiceId, VersionId};
use bifrost_core::seed::Seed;
use bifrost_metrics::traffic::VersionSlot;
use bifrost_metrics::{SharedMetricStore, TrafficSeriesRecorder};
use bifrost_proxy::RoutingDecision;
use bifrost_simnet::{CoreHeap, SimRng, SimTime};
use bifrost_workload::{Arrival, LoadProfile, TickCheckpoint};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

use crate::backends::{BackendDispatch, QueuedBackend, VersionBackend};
use crate::proxies::ProxyHandle;

/// The backend behaviour of one service version under traffic: how long the
/// version takes to serve a request and how often it fails. This is the
/// traffic pipeline's stand-in for a full application model — enough for
/// checks to observe latency and error-rate differences between versions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendProfile {
    /// Mean service time of one request.
    pub service_time: Duration,
    /// Probability that a request served by this version fails.
    pub error_rate: f64,
}

impl Default for BackendProfile {
    fn default() -> Self {
        Self {
            service_time: Duration::from_millis(10),
            error_rate: 0.0,
        }
    }
}

impl BackendProfile {
    /// A healthy backend with the given mean service time.
    pub fn healthy(service_time: Duration) -> Self {
        Self {
            service_time,
            error_rate: 0.0,
        }
    }

    /// A defective backend: slow and failing at `error_rate`.
    pub fn defective(service_time: Duration, error_rate: f64) -> Self {
        Self {
            service_time,
            error_rate: error_rate.clamp(0.0, 1.0),
        }
    }
}

/// How one version serves requests under traffic: the degenerate
/// unlimited-capacity [`BackendProfile`] (fixed mean service time, latency
/// independent of load) or a capacity-bounded [`QueuedBackend`] whose
/// replicas queue, saturate, and shed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BackendModel {
    /// Unlimited capacity: every request is served at the profile's mean
    /// service time regardless of offered load.
    Profile(BackendProfile),
    /// Queued replicas: latency grows with backlog, overload sheds.
    Queued(QueuedBackend),
}

impl BackendModel {
    /// The intrinsic error rate of the model.
    pub fn error_rate(&self) -> f64 {
        match self {
            BackendModel::Profile(p) => p.error_rate,
            BackendModel::Queued(q) => q.error_rate,
        }
    }

    /// The mean service time / demand of the model.
    pub fn service_time(&self) -> Duration {
        match self {
            BackendModel::Profile(p) => p.service_time,
            BackendModel::Queued(q) => q.service_time,
        }
    }
}

/// A request-level traffic profile attached to one service's proxy.
#[derive(Debug, Clone)]
pub struct TrafficProfile {
    service: ServiceId,
    load: LoadProfile,
    tick: Duration,
    cores: usize,
    service_label: String,
    /// The versions the profile names: each one's `version` label and
    /// backend model.
    versions: BTreeMap<VersionId, (String, BackendModel)>,
}

impl TrafficProfile {
    /// Creates a profile driving `load` through the proxy of `service`,
    /// batched per 1-second virtual tick on a single-core proxy VM.
    pub fn new(service: ServiceId, load: LoadProfile) -> Self {
        Self {
            service,
            load,
            tick: Duration::from_secs(1),
            cores: 1,
            service_label: format!("{service}"),
            versions: BTreeMap::new(),
        }
    }

    /// Overrides the batching tick (builder style). Smaller ticks observe
    /// configuration changes sooner; larger ticks process fewer, bigger
    /// batches.
    pub fn with_tick(mut self, tick: Duration) -> Self {
        self.tick = tick.max(Duration::from_micros(1));
        self
    }

    /// Overrides the proxy VM's core count (builder style).
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores.max(1);
        self
    }

    /// Overrides the `service` label used in recorded series (builder
    /// style). Defaults to the service id's rendering.
    pub fn with_service_label(mut self, label: impl Into<String>) -> Self {
        self.service_label = label.into();
        self
    }

    /// Sets a version's backend behaviour to the degenerate
    /// unlimited-capacity profile and, for recorded series, its `version`
    /// label (builder style).
    pub fn with_backend(
        mut self,
        version: VersionId,
        label: impl Into<String>,
        backend: BackendProfile,
    ) -> Self {
        self.versions
            .insert(version, (label.into(), BackendModel::Profile(backend)));
        self
    }

    /// Sets a version's backend to a capacity-bounded queued server —
    /// latency becomes load-dependent, overload sheds — and, for recorded
    /// series, its `version` label (builder style).
    pub fn with_queued_backend(
        mut self,
        version: VersionId,
        label: impl Into<String>,
        backend: QueuedBackend,
    ) -> Self {
        self.versions
            .insert(version, (label.into(), BackendModel::Queued(backend)));
        self
    }

    /// The service whose proxy the traffic flows through.
    pub fn service(&self) -> ServiceId {
        self.service
    }

    /// The load profile.
    pub fn load(&self) -> &LoadProfile {
        &self.load
    }

    /// The batching tick.
    pub fn tick(&self) -> Duration {
        self.tick
    }

    /// The `service` label the recorded series carry.
    pub(crate) fn service_label(&self) -> &str {
        &self.service_label
    }

    /// The backend model of `version`: the default unlimited-capacity
    /// [`BackendProfile`] when the profile did not name it explicitly.
    pub fn backend_of(&self, version: VersionId) -> BackendModel {
        self.versions
            .get(&version)
            .map_or(BackendModel::Profile(BackendProfile::default()), |v| v.1)
    }
}

/// Aggregate statistics of one traffic stream, maintained as batches are
/// routed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrafficStats {
    /// Total requests routed.
    pub requests: u64,
    /// Requests that failed: intrinsic backend errors plus shed and
    /// timed-out requests.
    pub errors: u64,
    /// Primary requests rejected by a saturated backend queue.
    pub shed: u64,
    /// Primary requests whose backend latency exceeded the version's
    /// timeout.
    pub timed_out: u64,
    /// Shadow copies dropped by a saturated backend queue (server-side
    /// only — never visible to the caller).
    pub shadow_shed: u64,
    /// Dark-launch shadow copies produced.
    pub shadow_copies: u64,
    /// Primary requests per version.
    pub per_version: BTreeMap<VersionId, u64>,
    /// Shadow copies per target version.
    pub shadow_per_version: BTreeMap<VersionId, u64>,
    /// Primary shed + timed-out requests per version.
    pub shed_per_version: BTreeMap<VersionId, u64>,
    /// Peak per-tick backend replica utilisation (percent) per version,
    /// for versions with a queued backend.
    pub peak_utilization: BTreeMap<VersionId, f64>,
    /// Number of ticks processed.
    pub ticks: u64,
    /// Sum of end-to-end latencies in milliseconds (for the mean).
    pub total_latency_ms: f64,
    /// Every request's end-to-end latency in milliseconds, in arrival order
    /// (for percentiles).
    pub latencies_ms: Vec<f64>,
    /// Total proxy CPU demand this stream's requests contributed
    /// (queueing excluded; shared-proxy contention shows up in latency).
    pub proxy_busy: Duration,
}

impl TrafficStats {
    /// Mean end-to-end latency in milliseconds.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.total_latency_ms / self.requests as f64
    }

    /// The `q`-quantile (0.0..=1.0) of end-to-end latency in milliseconds.
    /// O(n) selection on a scratch copy rather than a full sort.
    pub fn latency_quantile_ms(&self, q: f64) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        let mut scratch = self.latencies_ms.clone();
        let rank = (q.clamp(0.0, 1.0) * (scratch.len() - 1) as f64).round() as usize;
        let (_, value, _) = scratch.select_nth_unstable_by(rank, f64::total_cmp);
        *value
    }

    /// The fraction of primary traffic served by `version`.
    pub fn share_of(&self, version: VersionId) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        *self.per_version.get(&version).unwrap_or(&0) as f64 / self.requests as f64
    }

    /// The fraction of requests that produced at least one shadow copy
    /// (assuming at most one shadow rule, copies == shadowed requests).
    pub fn shadow_share(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.shadow_copies as f64 / self.requests as f64
    }

    /// Average proxy CPU milliseconds spent per routed request.
    pub fn proxy_cpu_ms_per_request(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.proxy_busy.as_secs_f64() * 1_000.0 / self.requests as f64
    }

    /// The fraction of primary requests shed or timed out by their backend.
    pub fn shed_rate(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        (self.shed + self.timed_out) as f64 / self.requests as f64
    }
}

/// A handle identifying one attached traffic stream within an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrafficHandle(pub(crate) usize);

impl fmt::Display for TrafficHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "traffic-{}", self.0)
    }
}

/// One attached traffic stream, as its two stages hold it: the part that
/// routes its ticks and the part that serves them.
pub(crate) struct TrafficStream {
    pub(crate) front: StreamFront,
    pub(crate) back: StreamBack,
}

impl TrafficStream {
    /// Builds a stream from its profile and the engine seed. Its arrivals
    /// derive from the seed's `"traffic"` stream (namespaced by stream
    /// index so two streams never replay the same sequence); one pass over
    /// them records each non-empty tick's checkpoint and keeps no arrival.
    pub(crate) fn new(profile: TrafficProfile, index: usize, seed: Seed) -> Self {
        let stream_seed = seed.stream(&format!("traffic-{index}"));
        let ticks = profile
            .load
            .cursor_seeded(stream_seed)
            .ticks(profile.tick)
            .collect();
        Self {
            front: StreamFront { profile, ticks },
            back: StreamBack {
                rng: SimRng::seeded(stream_seed.stream("backends").value()),
                shadow_rng: SimRng::seeded(stream_seed.stream("shadow-backends").value()),
                stats: TrafficStats::default(),
            },
        }
    }
}

/// The routing half of a stream: its profile and its per-tick arrival
/// schedule.
pub(crate) struct StreamFront {
    profile: TrafficProfile,
    /// One entry per non-empty tick: its end, its arrival count and the
    /// generator state before its first arrival.
    ticks: Vec<TickCheckpoint>,
}

impl StreamFront {
    /// The profile this stream was attached with.
    pub(crate) fn profile(&self) -> &TrafficProfile {
        &self.profile
    }

    /// The tick end times of every non-empty batch, for scheduling.
    pub(crate) fn batch_times(&self) -> Vec<SimTime> {
        self.ticks.iter().map(|tick| tick.end).collect()
    }

    /// The number of arrivals in the `batch`-th tick.
    pub(crate) fn batch_len(&self, batch: usize) -> usize {
        self.ticks.get(batch).map_or(0, |tick| tick.count)
    }
}

/// The serving half of a stream: the seeded RNGs for backend behaviour
/// and the stream's statistics.
pub(crate) struct StreamBack {
    rng: SimRng,
    /// A separate seeded RNG for shadow service-demand draws, so the
    /// presence or share of a dark launch never perturbs the primary
    /// stream's jitter/error sequence — when the shadow version serves no
    /// primary traffic, primary-visible outcomes are byte-identical with
    /// and without shadow traffic. (If the shadow target also serves a
    /// primary split, the shadow load still occupies the shared replicas,
    /// so primary queueing there degrades — deliberately.)
    shadow_rng: SimRng,
    stats: TrafficStats,
}

impl StreamBack {
    /// The aggregate statistics so far.
    pub(crate) fn stats(&self) -> &TrafficStats {
        &self.stats
    }
}

/// One tick on its way from a service's routing stage to its serving
/// stage: the tick's arrivals, the proxy's decision and cost for each, and
/// when the proxy finished each. Packets go back to the routing stage to
/// be refilled, so the thread that grows a buffer also frees it.
#[derive(Debug, Default)]
pub(crate) struct TickPacket {
    arrivals: Vec<Arrival>,
    routed: Vec<(RoutingDecision, Duration)>,
    routed_at: Vec<SimTime>,
}

impl TickPacket {
    /// The capacities of the per-arrival buffers.
    #[cfg(test)]
    pub(crate) fn capacities(&self) -> [usize; 3] {
        [
            self.arrivals.capacity(),
            self.routed.capacity(),
            self.routed_at.capacity(),
        ]
    }
}

/// The routing stage of a service: its streams' routing halves and the
/// proxy VM's cores, which concurrent streams through the same proxy
/// contend for.
#[derive(Debug)]
pub(crate) struct ServiceFront {
    pub(crate) streams: Vec<StreamFront>,
    cores: CoreHeap,
}

impl ServiceFront {
    /// The routing stage of a service whose first stream has `profile`,
    /// which sizes the proxy VM.
    pub(crate) fn new(profile: &TrafficProfile) -> Self {
        Self {
            streams: Vec::new(),
            cores: CoreHeap::new(profile.cores),
        }
    }

    /// Regenerates the `batch`-th tick of stream `place` from its
    /// checkpoint into `packet`, routes its user ids through `proxy` in one
    /// pass and charges each request's routing cost to the proxy's cores.
    pub(crate) fn route(
        &mut self,
        place: usize,
        batch: usize,
        proxy: &ProxyHandle,
        packet: &mut TickPacket,
    ) {
        let stream = &mut self.streams[place];
        let tick = &stream.ticks[batch];
        packet.arrivals.clear();
        packet.arrivals.reserve_exact(tick.count);
        packet
            .arrivals
            .extend(stream.profile.load.resume(&tick.start).take(tick.count));
        packet.routed.clear();
        packet.routed.reserve_exact(tick.count);
        let users = packet.arrivals.iter().map(|arrival| arrival.user);
        // A service's routing stage runs on one thread, so no other stream
        // routes through this proxy meanwhile and the read lock is
        // uncontended.
        (proxy.read()).route_users_costed_into(users, &mut packet.routed);
        packet.routed_at.clear();
        packet.routed_at.reserve_exact(tick.count);
        let charged = packet.arrivals.iter().zip(&packet.routed);
        packet.routed_at.extend(
            charged.map(|(arrival, (_, cost))| self.cores.submit(arrival.at, *cost).completed),
        );
    }
}

/// The serving stage of a service: its streams' serving halves; one entry
/// per version, so the streams charge the same replicas; and the recorder,
/// so each counter series is one running total.
#[derive(Debug)]
pub(crate) struct ServiceBack {
    pub(crate) streams: Vec<StreamBack>,
    recorder: TrafficSeriesRecorder,
    versions: VersionTable,
    /// The last instant closed: an instant closes at most once.
    closed: Option<SimTime>,
}

/// One version of a service: its recorder slot, how it serves, and its
/// queued server, booted on the version's first queued dispatch.
#[derive(Debug)]
struct VersionState {
    slot: VersionSlot,
    model: BackendModel,
    server: Option<VersionBackend>,
}

/// What one version saw in the tick being served, folded into the
/// stream's statistics when the tick ends.
#[derive(Debug, Clone, Copy, Default)]
struct TickCounts {
    primaries: u64,
    /// Primary requests shed or timed out.
    shed: u64,
    shadows: u64,
}

/// A service's versions: one entry each, in first-sight order, found by id
/// or, on the serving path, kept by index.
#[derive(Debug, Default)]
struct VersionTable {
    /// Each version's index into `entries` and `counts`.
    by_id: BTreeMap<VersionId, usize>,
    entries: Vec<VersionState>,
    counts: Vec<TickCounts>,
}

impl VersionTable {
    fn insert(&mut self, version: VersionId, state: VersionState) -> usize {
        let index = self.entries.len();
        self.by_id.insert(version, index);
        self.entries.push(state);
        self.counts.push(TickCounts::default());
        index
    }

    /// The index of `version`, adding a version no profile named under its
    /// id rendering and the default model.
    fn index(&mut self, recorder: &mut TrafficSeriesRecorder, version: VersionId) -> usize {
        match self.by_id.get(&version) {
            Some(&index) => index,
            None => {
                let state = VersionState {
                    slot: recorder.slot(&version.to_string()),
                    model: BackendModel::Profile(BackendProfile::default()),
                    server: None,
                };
                self.insert(version, state)
            }
        }
    }

    /// [`Self::index`] through `last`, the version and index of the
    /// previous call: a run of requests for one version looks it up once.
    fn index_after(
        &mut self,
        last: &mut Option<(VersionId, usize)>,
        recorder: &mut TrafficSeriesRecorder,
        version: VersionId,
    ) -> usize {
        match *last {
            Some((seen, index)) if seen == version => index,
            _ => {
                let index = self.index(recorder, version);
                *last = Some((version, index));
                index
            }
        }
    }

    /// Adds the tick's counts to `stats` and clears them.
    fn fold(&mut self, stats: &mut TrafficStats) {
        for (&version, &index) in &self.by_id {
            let counts = std::mem::take(&mut self.counts[index]);
            let tallies = [
                (&mut stats.per_version, counts.primaries),
                (&mut stats.shed_per_version, counts.shed),
                (&mut stats.shadow_per_version, counts.shadows),
            ];
            for (tally, count) in tallies {
                if count > 0 {
                    *tally.entry(version).or_insert(0) += count;
                }
            }
        }
    }
}

impl ServiceBack {
    /// The serving stage of a service whose first stream has `profile`,
    /// which names the `service` label.
    pub(crate) fn new(profile: &TrafficProfile, store: SharedMetricStore) -> Self {
        let mut back = Self {
            streams: Vec::new(),
            recorder: TrafficSeriesRecorder::new(store, profile.service_label.clone()),
            versions: VersionTable::default(),
            closed: None,
        };
        back.register(profile);
        back
    }

    /// Registers the versions `profile` names that the service has no
    /// entry for yet, with their counters at zero: the first profile that
    /// names a version sets its label and backend model. Versions the
    /// service already has keep their entry, and no total is republished.
    pub(crate) fn register(&mut self, profile: &TrafficProfile) {
        let new: Vec<_> = profile
            .versions
            .iter()
            .filter(|(version, _)| !self.versions.by_id.contains_key(version))
            .collect();
        let labels = new.iter().map(|(_, (label, _))| label.as_str());
        self.recorder
            .register_versions(labels, SimTime::ZERO.to_timestamp());
        for (&version, (label, model)) in new {
            let state = VersionState {
                slot: self.recorder.slot(label),
                model: *model,
                server: None,
            };
            self.versions.insert(version, state);
        }
    }

    /// The `service` label the service records under.
    pub(crate) fn label(&self) -> &str {
        self.recorder.service_label()
    }

    /// The running backend server of `version`, if any.
    pub(crate) fn server(&self, version: VersionId) -> Option<&VersionBackend> {
        let &index = self.versions.by_id.get(&version)?;
        self.versions.entries[index].server.as_ref()
    }

    /// Serves a routed tick of stream `place`: dispatches primary *and*
    /// shadow decisions into the service's backend servers, draws jitter
    /// and errors, and buffers the outcomes in the stream's statistics and
    /// the service's recorder.
    pub(crate) fn serve(&mut self, place: usize, packet: &TickPacket) {
        let Self {
            streams,
            recorder,
            versions,
            ..
        } = self;
        let stream = &mut streams[place];
        let stats = &mut stream.stats;
        let (mut last_primary, mut last_shadow) = (None, None);
        let requests = packet.arrivals.iter().zip(&packet.routed);
        for ((arrival, (decision, cost)), &routed_at) in requests.zip(&packet.routed_at) {
            stats.proxy_busy += *cost;
            let proxy_ms = (routed_at - arrival.at).as_secs_f64() * 1_000.0;
            let index = versions.index_after(&mut last_primary, recorder, decision.primary);
            let primary = &mut versions.entries[index];
            let (slot, model) = (primary.slot, primary.model);
            // Service demand: the version's mean service time with a ±10%
            // deterministic jitter so latency series are not flat lines
            // (and queued servers see a demand distribution).
            let jitter = 0.9 + 0.2 * stream.rng.uniform();
            let (latency_ms, outcome) = match model {
                BackendModel::Profile(profile) => (
                    proxy_ms + profile.service_time.as_secs_f64() * 1_000.0 * jitter,
                    ServeOutcome::Served,
                ),
                BackendModel::Queued(queued) => {
                    let server = primary
                        .server
                        .get_or_insert_with(|| VersionBackend::new(queued));
                    match server.dispatch(routed_at, queued.service_time.mul_f64(jitter)) {
                        // Shed is an immediate rejection: the caller only
                        // pays the routing latency.
                        BackendDispatch::Shed => (proxy_ms, ServeOutcome::Shed),
                        BackendDispatch::Admitted(backend)
                            if backend.latency() > queued.timeout =>
                        {
                            // The caller gives up at the deadline; the
                            // server still burns the admitted work.
                            (
                                proxy_ms + queued.timeout.as_secs_f64() * 1_000.0,
                                ServeOutcome::TimedOut,
                            )
                        }
                        BackendDispatch::Admitted(backend) => (
                            proxy_ms + backend.latency().as_secs_f64() * 1_000.0,
                            ServeOutcome::Served,
                        ),
                    }
                }
            };
            let success = match outcome {
                ServeOutcome::Served => !draw_error(&mut stream.rng, model.error_rate()),
                ServeOutcome::Shed | ServeOutcome::TimedOut => false,
            };

            stats.requests += 1;
            if !success {
                stats.errors += 1;
            }
            match outcome {
                ServeOutcome::Served => {}
                ServeOutcome::Shed => stats.shed += 1,
                ServeOutcome::TimedOut => stats.timed_out += 1,
            }
            let counts = &mut versions.counts[index];
            counts.primaries += 1;
            if outcome != ServeOutcome::Served {
                counts.shed += 1;
            }
            stats.total_latency_ms += latency_ms;
            stats.latencies_ms.push(latency_ms);
            recorder.observe_request_in(slot, latency_ms, success);
            if outcome != ServeOutcome::Served {
                recorder.observe_shed_in(slot);
            }
            for shadow in &decision.shadows {
                stats.shadow_copies += 1;
                // Shadow work charges the shadow version's replicas — a
                // dark launch visibly heats them — but its outcome never
                // surfaces to the caller: no latency, no error. The demand
                // draw comes from the dedicated shadow RNG so the primary
                // sequence is independent of the dark-launch share.
                let index = versions.index_after(&mut last_shadow, recorder, shadow.target);
                versions.counts[index].shadows += 1;
                let target = &mut versions.entries[index];
                let slot = target.slot;
                let shed = match target.model {
                    BackendModel::Queued(queued) => {
                        let demand = queued
                            .service_time
                            .mul_f64(0.9 + 0.2 * stream.shadow_rng.uniform());
                        let server = target
                            .server
                            .get_or_insert_with(|| VersionBackend::new(queued));
                        server.dispatch(routed_at, demand) == BackendDispatch::Shed
                    }
                    BackendModel::Profile(_) => false,
                };
                recorder.observe_shadow_in(slot);
                if shed {
                    stats.shadow_shed += 1;
                    recorder.observe_shed_in(slot);
                }
            }
        }
        versions.fold(stats);
        stats.ticks += 1;
    }

    /// Closes instant `at` after its last tick, whose streams are at
    /// `places`: samples each server, raising those streams' peak
    /// utilisation of its version, and flushes the recorder. An instant
    /// split by a control event closes once; its later part is flushed
    /// with the next instant.
    pub(crate) fn close_tick(&mut self, at: SimTime, places: impl Iterator<Item = usize> + Clone) {
        if self.closed >= Some(at) {
            return;
        }
        self.closed = Some(at);
        for (&version, &index) in &self.versions.by_id {
            let state = &mut self.versions.entries[index];
            if let Some(server) = &mut state.server {
                let percent = server.sample_utilization(at);
                self.recorder.observe_utilization_in(state.slot, percent);
                for place in places.clone() {
                    let peak = (self.streams[place].stats.peak_utilization)
                        .entry(version)
                        .or_insert(0.0);
                    *peak = peak.max(percent);
                }
            }
        }
        self.recorder.flush(at.to_timestamp());
    }
}

/// How a primary request fared at its backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServeOutcome {
    /// Served (possibly slowly); the intrinsic error rate still applies.
    Served,
    /// Rejected immediately by a full backend queue.
    Shed,
    /// Admitted but finished past the backend's deadline.
    TimedOut,
}

/// Normalises a configured error rate at the draw point: `NaN` counts as
/// zero, anything else is clamped to `[0, 1]` (the public profile fields
/// allow direct construction with out-of-range values).
fn normalized_error_rate(error_rate: f64) -> f64 {
    if error_rate.is_nan() {
        0.0
    } else {
        error_rate.clamp(0.0, 1.0)
    }
}

/// Draws whether a served request fails its version's intrinsic error
/// rate. Out-of-range rates are a construction bug — loud in debug builds,
/// normalised in release.
fn draw_error(rng: &mut SimRng, error_rate: f64) -> bool {
    debug_assert!(
        (0.0..=1.0).contains(&error_rate),
        "backend error_rate {error_rate} outside [0, 1] — clamp it at construction"
    );
    rng.chance(normalized_error_rate(error_rate))
}

impl fmt::Debug for StreamFront {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamFront")
            .field("service", &self.profile.service)
            .field("batches", &self.ticks.len())
            .finish()
    }
}

impl fmt::Debug for StreamBack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamBack")
            .field("requests", &self.stats.requests)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bifrost_workload::LoadProfile;

    #[test]
    fn backend_profiles_clamp_and_default() {
        let healthy = BackendProfile::healthy(Duration::from_millis(5));
        assert_eq!(healthy.error_rate, 0.0);
        let bad = BackendProfile::defective(Duration::from_millis(50), 7.0);
        assert_eq!(bad.error_rate, 1.0);
        assert_eq!(
            BackendProfile::default().service_time,
            Duration::from_millis(10)
        );
    }

    #[test]
    fn profile_builders() {
        let service = ServiceId::new(3);
        let v = VersionId::new(1);
        let q = VersionId::new(2);
        let profile =
            TrafficProfile::new(service, LoadProfile::paper_profile(Duration::from_secs(10)))
                .with_tick(Duration::from_millis(500))
                .with_cores(2)
                .with_service_label("search")
                .with_backend(v, "v1", BackendProfile::healthy(Duration::from_millis(4)))
                .with_queued_backend(
                    q,
                    "v2",
                    QueuedBackend::new(Duration::from_millis(7)).with_replicas(3),
                );
        assert_eq!(profile.service(), service);
        assert_eq!(profile.tick(), Duration::from_millis(500));
        assert_eq!(
            profile.backend_of(v).service_time(),
            Duration::from_millis(4)
        );
        assert!(matches!(
            profile.backend_of(q),
            BackendModel::Queued(queued) if queued.replicas == 3
        ));
        assert_eq!(
            profile.backend_of(VersionId::new(9)),
            BackendModel::Profile(BackendProfile::default())
        );
    }

    #[test]
    fn error_rates_normalise_at_the_draw_point() {
        assert_eq!(normalized_error_rate(0.25), 0.25);
        assert_eq!(normalized_error_rate(-1.0), 0.0);
        assert_eq!(normalized_error_rate(7.0), 1.0);
        assert_eq!(normalized_error_rate(f64::NAN), 0.0);
        let mut rng = SimRng::seeded(1);
        assert!(draw_error(&mut rng, 1.0));
        assert!(!draw_error(&mut rng, 0.0));
    }

    #[test]
    fn empty_stats_are_zero() {
        let stats = TrafficStats::default();
        assert_eq!(stats.mean_latency_ms(), 0.0);
        assert_eq!(stats.latency_quantile_ms(0.95), 0.0);
        assert_eq!(stats.share_of(VersionId::new(0)), 0.0);
        assert_eq!(stats.shadow_share(), 0.0);
        assert_eq!(stats.proxy_cpu_ms_per_request(), 0.0);
        assert_eq!(stats.shed_rate(), 0.0);
    }
}
