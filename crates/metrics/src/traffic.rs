//! Recording per-request routing outcomes as metric series.
//!
//! The engine's traffic simulation routes batches of requests through the
//! proxy fleet and needs the outcomes to land in the same
//! [`SharedMetricStore`] that strategy checks query — that is what closes
//! the paper's loop of "proxies split live traffic, checks watch the
//! observed metrics". [`TrafficSeriesRecorder`] buffers one tick's worth of
//! outcomes and flushes them as Prometheus-shaped series under a single
//! store lock:
//!
//! * `requests_total{service, version}` — cumulative request counter,
//! * `request_errors{service, version}` — cumulative error counter,
//! * `shadow_requests_total{service, version}` — cumulative dark-launch
//!   duplicate counter,
//! * `requests_shed_total{service, version}` — cumulative counter of
//!   requests (primary or shadow) dropped by a saturated backend queue or
//!   timed out past the backend deadline,
//! * `request_latency_ms{service, version}` — per-tick mean latency gauge,
//! * `request_latency_p50_ms` / `request_latency_p95_ms` — per-tick
//!   latency-quantile gauges, and
//! * `backend_utilization{service, version}` — per-tick gauge of the
//!   version's replica utilisation in percent.
//!
//! The series names and the `version` label match what the case-study
//! application publishes, so the same check specifications work against
//! simulated application traffic and engine-driven request-level traffic.
//!
//! The recorder keeps one slot per version label: the version's window,
//! its counter totals and the store ids of its series. A caller maps each
//! version to its [`VersionSlot`] once and then observes by slot, which
//! indexes a `Vec`. A series' key is built once, when the series gets its
//! first sample; every later flush appends by cached id, so a flush builds,
//! compares and clones no strings.

use crate::sample::{Sample, SeriesKey, TimestampMs};
use crate::stats::nearest_rank;
use crate::store::{MetricStore, SeriesId, SharedMetricStore};

/// Cumulative counter for requests routed to one version.
pub const REQUESTS_TOTAL: &str = "requests_total";
/// Cumulative counter for failed requests per version.
pub const REQUEST_ERRORS: &str = "request_errors";
/// Cumulative counter for dark-launch shadow copies per target version.
pub const SHADOW_REQUESTS_TOTAL: &str = "shadow_requests_total";
/// Per-tick mean end-to-end latency gauge per version (milliseconds).
pub const REQUEST_LATENCY_MS: &str = "request_latency_ms";
/// Per-tick median end-to-end latency gauge per version (milliseconds).
pub const REQUEST_LATENCY_P50_MS: &str = "request_latency_p50_ms";
/// Per-tick 95th-percentile end-to-end latency gauge per version
/// (milliseconds).
pub const REQUEST_LATENCY_P95_MS: &str = "request_latency_p95_ms";
/// Cumulative counter of requests shed or timed out by a version's backend.
pub const REQUESTS_SHED_TOTAL: &str = "requests_shed_total";
/// Per-tick backend replica utilisation gauge per version (percent).
pub const BACKEND_UTILIZATION: &str = "backend_utilization";

/// The series a version publishes: the four counters first, in the order
/// of [`VersionSeries::totals`], then the gauges.
const SERIES: [&str; 8] = [
    REQUESTS_TOTAL,
    REQUEST_ERRORS,
    SHADOW_REQUESTS_TOTAL,
    REQUESTS_SHED_TOTAL,
    REQUEST_LATENCY_MS,
    REQUEST_LATENCY_P50_MS,
    REQUEST_LATENCY_P95_MS,
    BACKEND_UTILIZATION,
];

/// Per-version accumulation of one flush window.
#[derive(Debug, Clone, Default, PartialEq)]
struct WindowAccumulator {
    requests: u64,
    errors: u64,
    shadows: u64,
    shed: u64,
    latency_ms_sum: f64,
    /// Every latency of the window as its [`order_key`], for the per-tick
    /// quantile gauges.
    latency_keys: Vec<u64>,
    /// The latest backend utilisation (percent) of the window.
    utilization: Option<f64>,
}

/// One version's slot in a recorder.
#[derive(Debug)]
struct VersionSeries {
    label: String,
    /// The current (unflushed) window.
    window: WindowAccumulator,
    /// Running totals of the four counters, published as cumulative
    /// samples (windowed `Increase` queries recover per-window rates).
    /// `None` until the counter is registered or first counts, so a
    /// counter the version never had stays unpublished.
    totals: [Option<f64>; 4],
    /// The store id of each of [`SERIES`], once it has its first sample.
    ids: [Option<SeriesId>; 8],
}

impl VersionSeries {
    /// Publishes the window and every running total at `at`, then clears
    /// the window (keeping its latency buffer).
    fn flush(&mut self, store: &mut MetricStore, service: &str, at: TimestampMs) {
        let window = &mut self.window;
        // A counter starts with its version's first event of its kind; the
        // error counter starts with the first request.
        let deltas = [
            (window.requests > 0).then_some(window.requests),
            (window.requests > 0).then_some(window.errors),
            (window.shadows > 0).then_some(window.shadows),
            (window.shed > 0).then_some(window.shed),
        ];
        let (p50, p95) = window_quantiles(&mut window.latency_keys).unzip();
        let mean = (window.requests > 0).then(|| window.latency_ms_sum / window.requests as f64);
        let gauges = [mean, p50, p95, window.utilization];
        let mut latency_keys = std::mem::take(&mut window.latency_keys);
        latency_keys.clear();
        *window = WindowAccumulator {
            latency_keys,
            ..WindowAccumulator::default()
        };

        for (total, delta) in self.totals.iter_mut().zip(deltas) {
            if let Some(delta) = delta {
                *total = Some(total.unwrap_or(0.0) + delta as f64);
            }
        }
        // Every known total is published, so quiet versions re-publish
        // theirs and windowed queries always see a sample (the shape of a
        // Prometheus scrape loop).
        for (series, value) in self.totals.into_iter().chain(gauges).enumerate() {
            if let Some(value) = value {
                self.publish(store, service, series, Sample::new(at, value));
            }
        }
    }

    /// Appends `sample` to the `series`-th of [`SERIES`], resolving the
    /// series' id on its first sample.
    fn publish(&mut self, store: &mut MetricStore, service: &str, series: usize, sample: Sample) {
        let id = *self.ids[series].get_or_insert_with(|| {
            store.resolve(
                SeriesKey::new(SERIES[series])
                    .with_label("service", service)
                    .with_label("version", &self.label),
            )
        });
        store.record_id(id, sample);
    }
}

/// A version's place in one [`TrafficSeriesRecorder`], from
/// [`TrafficSeriesRecorder::slot`]. Only meaningful to the recorder that
/// handed it out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VersionSlot(usize);

/// Buffers routing outcomes per version and publishes them as metric
/// series, one store lock per flush instead of per request.
#[derive(Debug)]
pub struct TrafficSeriesRecorder {
    store: SharedMetricStore,
    service_label: String,
    /// One slot per version label, in first-seen order.
    versions: Vec<VersionSeries>,
}

impl TrafficSeriesRecorder {
    /// Creates a recorder publishing into `store` with the given `service`
    /// label value.
    pub fn new(store: SharedMetricStore, service_label: impl Into<String>) -> Self {
        Self {
            store,
            service_label: service_label.into(),
            versions: Vec::new(),
        }
    }

    /// The slot of the version labelled `version_label`, created empty on
    /// the label's first sight. A linear scan: a service runs a handful of
    /// versions, and hot loops keep the slot instead of asking again.
    pub fn slot(&mut self, version_label: &str) -> VersionSlot {
        if let Some(index) = self.versions.iter().position(|v| v.label == version_label) {
            return VersionSlot(index);
        }
        self.versions.push(VersionSeries {
            label: version_label.to_string(),
            window: WindowAccumulator::default(),
            totals: [None; 4],
            ids: [None; 8],
        });
        VersionSlot(self.versions.len() - 1)
    }

    /// Pre-registers versions' counter series at zero (the behaviour of a
    /// Prometheus client library on service start-up), so checks see `0`
    /// rather than "no data" before the first request arrives. Only
    /// counters with no total yet are published, all under one store lock:
    /// registering a version again, or after it has counted, republishes
    /// nothing, so no counter series gets a sample older than its last.
    pub fn register_versions<'a>(
        &mut self,
        version_labels: impl IntoIterator<Item = &'a str>,
        at: TimestampMs,
    ) {
        let slots: Vec<VersionSlot> = version_labels
            .into_iter()
            .map(|label| self.slot(label))
            .collect();
        let Self {
            store,
            service_label,
            versions,
        } = self;
        store.with_store_mut(|store| {
            for slot in slots {
                let version = &mut versions[slot.0];
                for series in 0..version.totals.len() {
                    if version.totals[series].is_none() {
                        version.totals[series] = Some(0.0);
                        version.publish(store, service_label, series, Sample::new(at, 0.0));
                    }
                }
            }
        });
    }

    /// Buffers the outcome of one request routed to `slot`'s version.
    /// Allocation-free once the window's latency buffer has grown.
    pub fn observe_request_in(&mut self, slot: VersionSlot, latency_ms: f64, success: bool) {
        let window = &mut self.versions[slot.0].window;
        window.requests += 1;
        window.latency_ms_sum += latency_ms;
        window.latency_keys.push(order_key(latency_ms));
        if !success {
            window.errors += 1;
        }
    }

    /// Buffers one request (primary or shadow) that `slot`'s version's
    /// backend shed from a full queue or timed out past its deadline.
    pub fn observe_shed_in(&mut self, slot: VersionSlot) {
        self.versions[slot.0].window.shed += 1;
    }

    /// Buffers one dark-launch shadow copy sent to `slot`'s version.
    pub fn observe_shadow_in(&mut self, slot: VersionSlot) {
        self.versions[slot.0].window.shadows += 1;
    }

    /// Buffers `slot`'s version's backend replica utilisation (percent)
    /// sampled over the current tick; the latest value wins.
    pub fn observe_utilization_in(&mut self, slot: VersionSlot, percent: f64) {
        self.versions[slot.0].window.utilization = Some(percent);
    }

    /// [`Self::observe_request_in`] by version label.
    pub fn observe_request(&mut self, version_label: &str, latency_ms: f64, success: bool) {
        let slot = self.slot(version_label);
        self.observe_request_in(slot, latency_ms, success);
    }

    /// [`Self::observe_shed_in`] by version label.
    pub fn observe_shed(&mut self, version_label: &str) {
        let slot = self.slot(version_label);
        self.observe_shed_in(slot);
    }

    /// [`Self::observe_utilization_in`] by version label.
    pub fn observe_utilization(&mut self, version_label: &str, percent: f64) {
        let slot = self.slot(version_label);
        self.observe_utilization_in(slot, percent);
    }

    /// [`Self::observe_shadow_in`] by version label.
    pub fn observe_shadow(&mut self, version_label: &str) {
        let slot = self.slot(version_label);
        self.observe_shadow_in(slot);
    }

    /// Publishes the buffered window (and the running counter totals) at
    /// virtual time `at` under one store write lock, then clears the
    /// window.
    pub fn flush(&mut self, at: TimestampMs) {
        let Self {
            store,
            service_label,
            versions,
        } = self;
        store.with_store_mut(|store| {
            for version in versions {
                version.flush(store, service_label, at);
            }
        });
    }

    /// The underlying store handle.
    pub fn store(&self) -> &SharedMetricStore {
        &self.store
    }

    /// The `service` label value every series is published under.
    pub fn service_label(&self) -> &str {
        &self.service_label
    }
}

/// The sign bit of an `f64`.
const SIGN: u64 = 1 << 63;

/// A key whose integer order is the numeric order of `value`: a value with
/// the sign bit clear maps to its bits with the sign bit set, and one with
/// the sign bit set to its bits inverted. Unlike the float comparison it
/// orders `-0.0` before `0.0`. Panics on `NaN`, like the order every
/// percentile here sorts by.
fn order_key(value: f64) -> u64 {
    assert!(!value.is_nan(), "finite values");
    let bits = value.to_bits();
    if bits & SIGN == 0 {
        bits | SIGN
    } else {
        !bits
    }
}

/// The value whose [`order_key`] is `key`.
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key & SIGN != 0 { key & !SIGN } else { !key })
}

/// The p50 and p95 of a window's latencies, given as order keys, equal to
/// those of [`crate::DistributionSummary::compute`]: p95 is selected in
/// place, then p50 among the keys at or below it, instead of sorting the
/// window. `None` for an empty window.
fn window_quantiles(latency_keys: &mut [u64]) -> Option<(f64, f64)> {
    if latency_keys.is_empty() {
        return None;
    }
    let len = latency_keys.len();
    let (p50_rank, p95_rank) = (nearest_rank(len, 50.0), nearest_rank(len, 95.0));
    let (below, &mut p95, _) = latency_keys.select_nth_unstable(p95_rank);
    let p50 = if p50_rank == p95_rank {
        p95
    } else {
        *below.select_nth_unstable(p50_rank).1
    };
    Some((from_order_key(p50), from_order_key(p95)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Aggregation, RangeQuery};
    use crate::stats::DistributionSummary;

    fn last(store: &SharedMetricStore, metric: &str, version: &str, at_secs: u64) -> Option<f64> {
        store.evaluate(
            &RangeQuery::new(metric)
                .with_label("version", version)
                .aggregate(Aggregation::Last),
            TimestampMs::from_secs(at_secs),
        )
    }

    #[test]
    fn counters_accumulate_across_flushes() {
        let store = SharedMetricStore::new();
        let mut recorder = TrafficSeriesRecorder::new(store.clone(), "search");
        recorder.observe_request("v1", 10.0, true);
        recorder.observe_request("v1", 20.0, false);
        recorder.observe_request("v2", 30.0, true);
        recorder.observe_shadow("v2");
        recorder.flush(TimestampMs::from_secs(1));
        recorder.observe_request("v1", 40.0, true);
        recorder.flush(TimestampMs::from_secs(2));

        assert_eq!(last(&store, REQUESTS_TOTAL, "v1", 5), Some(3.0));
        assert_eq!(last(&store, REQUEST_ERRORS, "v1", 5), Some(1.0));
        assert_eq!(last(&store, REQUESTS_TOTAL, "v2", 5), Some(1.0));
        assert_eq!(last(&store, SHADOW_REQUESTS_TOTAL, "v2", 5), Some(1.0));
        // Mean latency per flush window: (10+20)/2 then 40.
        assert_eq!(last(&store, REQUEST_LATENCY_MS, "v1", 1), Some(15.0));
        assert_eq!(last(&store, REQUEST_LATENCY_MS, "v1", 5), Some(40.0));
    }

    #[test]
    fn shed_utilization_and_quantile_series_are_published() {
        let store = SharedMetricStore::new();
        let mut recorder = TrafficSeriesRecorder::new(store.clone(), "search");
        recorder.register_versions(["v1"], TimestampMs::from_secs(0));
        assert_eq!(last(&store, REQUESTS_SHED_TOTAL, "v1", 0), Some(0.0));
        for latency in [10.0, 20.0, 30.0, 40.0, 100.0] {
            recorder.observe_request("v1", latency, true);
        }
        recorder.observe_shed("v1");
        recorder.observe_shed("v1");
        recorder.observe_utilization("v1", 35.0);
        recorder.observe_utilization("v1", 80.0);
        recorder.flush(TimestampMs::from_secs(1));

        assert_eq!(last(&store, REQUESTS_SHED_TOTAL, "v1", 5), Some(2.0));
        assert_eq!(last(&store, REQUEST_LATENCY_P50_MS, "v1", 5), Some(30.0));
        assert_eq!(last(&store, REQUEST_LATENCY_P95_MS, "v1", 5), Some(100.0));
        // Latest utilisation of the tick wins.
        assert_eq!(last(&store, BACKEND_UTILIZATION, "v1", 5), Some(80.0));

        // The shed counter accumulates and is republished when quiet.
        recorder.observe_shed("v1");
        recorder.flush(TimestampMs::from_secs(2));
        recorder.flush(TimestampMs::from_secs(3));
        assert_eq!(last(&store, REQUESTS_SHED_TOTAL, "v1", 5), Some(3.0));
    }

    #[test]
    fn window_quantiles_equal_the_distribution_summary() {
        // SplitMix64, so the windows need no RNG dependency.
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut lengths = vec![1, 2, 3, 4, 5, 20, 21, 100, 101, 4_999, 5_000];
        lengths.extend((0..40).map(|_| 1 + (next() % 5_000) as usize));
        assert!(lengths.iter().any(|n| n % 2 == 0) && lengths.iter().any(|n| n % 2 == 1));
        let store = SharedMetricStore::new();
        let mut recorder = TrafficSeriesRecorder::new(store.clone(), "search");
        for (second, &len) in (1..).zip(&lengths) {
            // Every other window draws from 16 values, so it is full of
            // duplicates; every third also holds zeros, subnormals and
            // values above 1e300.
            let window: Vec<f64> = (0..len)
                .map(|i| match (second % 3, i % 4) {
                    (0, 0) => 0.0,
                    (0, 1) => f64::from_bits(1 + next() % ((1 << 52) - 1)),
                    (0, 2) => 1e300 * (1.0 + (next() % 1_000) as f64),
                    _ if second % 2 == 0 => (next() % 16) as f64 * 2.5,
                    _ => (next() >> 11) as f64 / (1u64 << 53) as f64 * 400.0,
                })
                .collect();
            for &latency in &window {
                recorder.observe_request("v1", latency, true);
            }
            recorder.flush(TimestampMs::from_secs(second));
            let summary = DistributionSummary::compute(&window).unwrap();
            let published = |metric| last(&store, metric, "v1", second).unwrap().to_bits();
            assert_eq!(
                published(REQUEST_LATENCY_P50_MS),
                summary.p50.to_bits(),
                "{len}"
            );
            assert_eq!(
                published(REQUEST_LATENCY_P95_MS),
                summary.p95.to_bits(),
                "{len}"
            );
        }
    }

    #[test]
    fn registering_again_publishes_only_new_counters() {
        let store = SharedMetricStore::new();
        let mut recorder = TrafficSeriesRecorder::new(store.clone(), "search");
        recorder.register_versions(["v1"], TimestampMs::from_secs(0));
        recorder.observe_request("v1", 5.0, true);
        recorder.flush(TimestampMs::from_secs(4));
        recorder.register_versions(["v1", "v2"], TimestampMs::from_secs(0));
        let samples = |metric: &str, version: &str| {
            let key = SeriesKey::new(metric)
                .with_label("service", "search")
                .with_label("version", version);
            store.snapshot().series(&key).map(|s| s.samples().to_vec())
        };
        let v1 = samples(REQUESTS_TOTAL, "v1").unwrap();
        let timestamps: Vec<u64> = v1.iter().map(|s| s.timestamp.as_millis()).collect();
        assert_eq!(timestamps, [0, 4_000]);
        assert_eq!(v1[1].value, 1.0);
        for metric in &SERIES[..4] {
            let v2 = samples(metric, "v2").unwrap();
            assert_eq!(v2.len(), 1, "{metric}");
            assert_eq!((v2[0].timestamp.as_millis(), v2[0].value), (0, 0.0));
        }
        assert_eq!(samples(REQUEST_LATENCY_MS, "v2"), None);
        assert_eq!(recorder.service_label(), "search");
    }

    #[test]
    fn quiet_versions_republish_their_totals() {
        let store = SharedMetricStore::new();
        let mut recorder = TrafficSeriesRecorder::new(store.clone(), "search");
        recorder.register_versions(["v1"], TimestampMs::from_secs(0));
        assert_eq!(last(&store, REQUESTS_TOTAL, "v1", 0), Some(0.0));
        assert_eq!(last(&store, REQUEST_ERRORS, "v1", 0), Some(0.0));
        recorder.observe_request("v1", 5.0, true);
        recorder.flush(TimestampMs::from_secs(1));
        // A flush with no v1 activity still re-publishes the totals.
        recorder.flush(TimestampMs::from_secs(9));
        let increase = store.evaluate(
            &RangeQuery::new(REQUESTS_TOTAL)
                .with_label("version", "v1")
                .over_window_secs(5)
                .aggregate(Aggregation::Increase),
            TimestampMs::from_secs(9),
        );
        assert_eq!(increase, Some(0.0));
    }
}
