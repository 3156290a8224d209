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

use crate::sample::{Sample, SeriesKey, TimestampMs};
use crate::stats::{nearest_rank, sample_order};
use crate::store::SharedMetricStore;
use std::collections::BTreeMap;

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

/// Per-version accumulation of one flush window.
#[derive(Debug, Clone, Default, PartialEq)]
struct WindowAccumulator {
    requests: u64,
    errors: u64,
    latency_ms_sum: f64,
    /// Every latency of the window, for the per-tick quantile gauges.
    latencies_ms: Vec<f64>,
}

/// Buffers routing outcomes per version and publishes them as metric
/// series, one store lock per flush instead of per request.
#[derive(Debug)]
pub struct TrafficSeriesRecorder {
    store: SharedMetricStore,
    service_label: String,
    /// Running totals published as counter samples (Prometheus counters are
    /// cumulative; windowed `Increase` queries recover per-window rates).
    request_totals: BTreeMap<String, f64>,
    error_totals: BTreeMap<String, f64>,
    shadow_totals: BTreeMap<String, f64>,
    shed_totals: BTreeMap<String, f64>,
    /// The current (unflushed) window.
    window: BTreeMap<String, WindowAccumulator>,
    shadow_window: BTreeMap<String, u64>,
    shed_window: BTreeMap<String, u64>,
    /// Latest per-version backend utilisation (percent) of the window.
    utilization_window: BTreeMap<String, f64>,
}

impl TrafficSeriesRecorder {
    /// Creates a recorder publishing into `store` with the given `service`
    /// label value.
    pub fn new(store: SharedMetricStore, service_label: impl Into<String>) -> Self {
        Self {
            store,
            service_label: service_label.into(),
            request_totals: BTreeMap::new(),
            error_totals: BTreeMap::new(),
            shadow_totals: BTreeMap::new(),
            shed_totals: BTreeMap::new(),
            window: BTreeMap::new(),
            shadow_window: BTreeMap::new(),
            shed_window: BTreeMap::new(),
            utilization_window: BTreeMap::new(),
        }
    }

    /// Pre-registers versions' counter series at zero (the behaviour of a
    /// Prometheus client library on service start-up), so checks see `0`
    /// rather than "no data" before the first request arrives. All labels
    /// are registered in one pass and published with a single flush.
    pub fn register_versions<'a>(
        &mut self,
        version_labels: impl IntoIterator<Item = &'a str>,
        at: TimestampMs,
    ) {
        for label in version_labels {
            self.request_totals.entry(label.to_string()).or_insert(0.0);
            self.error_totals.entry(label.to_string()).or_insert(0.0);
            self.shadow_totals.entry(label.to_string()).or_insert(0.0);
            self.shed_totals.entry(label.to_string()).or_insert(0.0);
        }
        self.flush(at);
    }

    /// Buffers the outcome of one routed request. Allocation-free except
    /// for a version's first appearance in the current window.
    pub fn observe_request(&mut self, version_label: &str, latency_ms: f64, success: bool) {
        if !self.window.contains_key(version_label) {
            self.window
                .insert(version_label.to_string(), WindowAccumulator::default());
        }
        let acc = self.window.get_mut(version_label).expect("just ensured");
        acc.requests += 1;
        acc.latency_ms_sum += latency_ms;
        acc.latencies_ms.push(latency_ms);
        if !success {
            acc.errors += 1;
        }
    }

    /// Buffers one request (primary or shadow) the version's backend shed
    /// from a full queue or timed out past its deadline. Allocation-free
    /// except for a version's first appearance in the current window.
    pub fn observe_shed(&mut self, version_label: &str) {
        if !self.shed_window.contains_key(version_label) {
            self.shed_window.insert(version_label.to_string(), 0);
        }
        *self
            .shed_window
            .get_mut(version_label)
            .expect("just ensured") += 1;
    }

    /// Buffers the version's backend replica utilisation (percent) sampled
    /// over the current tick; the latest value per version wins.
    pub fn observe_utilization(&mut self, version_label: &str, percent: f64) {
        if let Some(slot) = self.utilization_window.get_mut(version_label) {
            *slot = percent;
        } else {
            self.utilization_window
                .insert(version_label.to_string(), percent);
        }
    }

    /// Buffers one dark-launch shadow copy sent to `version_label`.
    /// Allocation-free except for a version's first appearance in the
    /// current window.
    pub fn observe_shadow(&mut self, version_label: &str) {
        if !self.shadow_window.contains_key(version_label) {
            self.shadow_window.insert(version_label.to_string(), 0);
        }
        *self
            .shadow_window
            .get_mut(version_label)
            .expect("just ensured") += 1;
    }

    /// Publishes the buffered window (and the running counter totals) at
    /// virtual time `at`, then clears the window.
    pub fn flush(&mut self, at: TimestampMs) {
        let mut samples: Vec<(SeriesKey, Sample)> = Vec::new();
        for (version, mut acc) in std::mem::take(&mut self.window) {
            let requests = {
                let total = self.request_totals.entry(version.clone()).or_insert(0.0);
                *total += acc.requests as f64;
                *total
            };
            samples.push((
                self.key(REQUESTS_TOTAL, &version),
                Sample::new(at, requests),
            ));
            let errors = {
                let total = self.error_totals.entry(version.clone()).or_insert(0.0);
                *total += acc.errors as f64;
                *total
            };
            samples.push((self.key(REQUEST_ERRORS, &version), Sample::new(at, errors)));
            if acc.requests > 0 {
                samples.push((
                    self.key(REQUEST_LATENCY_MS, &version),
                    Sample::new(at, acc.latency_ms_sum / acc.requests as f64),
                ));
            }
            if let Some((p50, p95)) = window_quantiles(&mut acc.latencies_ms) {
                samples.push((
                    self.key(REQUEST_LATENCY_P50_MS, &version),
                    Sample::new(at, p50),
                ));
                samples.push((
                    self.key(REQUEST_LATENCY_P95_MS, &version),
                    Sample::new(at, p95),
                ));
            }
        }
        for (version, count) in std::mem::take(&mut self.shed_window) {
            let shed = {
                let total = self.shed_totals.entry(version.clone()).or_insert(0.0);
                *total += count as f64;
                *total
            };
            samples.push((
                self.key(REQUESTS_SHED_TOTAL, &version),
                Sample::new(at, shed),
            ));
        }
        for (version, percent) in std::mem::take(&mut self.utilization_window) {
            samples.push((
                self.key(BACKEND_UTILIZATION, &version),
                Sample::new(at, percent),
            ));
        }
        for (version, count) in std::mem::take(&mut self.shadow_window) {
            let shadows = {
                let total = self.shadow_totals.entry(version.clone()).or_insert(0.0);
                *total += count as f64;
                *total
            };
            samples.push((
                self.key(SHADOW_REQUESTS_TOTAL, &version),
                Sample::new(at, shadows),
            ));
        }
        // Quiet versions re-publish their current totals so windowed queries
        // always see a sample (the shape of a Prometheus scrape loop).
        for (metric, totals) in [
            (REQUESTS_TOTAL, &self.request_totals),
            (REQUEST_ERRORS, &self.error_totals),
            (SHADOW_REQUESTS_TOTAL, &self.shadow_totals),
            (REQUESTS_SHED_TOTAL, &self.shed_totals),
        ] {
            for (version, total) in totals {
                let key = SeriesKey::new(metric)
                    .with_label("service", &self.service_label)
                    .with_label("version", version);
                if !samples.iter().any(|(k, _)| *k == key) {
                    samples.push((key, Sample::new(at, *total)));
                }
            }
        }
        self.store.record_many(samples);
    }

    /// The underlying store handle.
    pub fn store(&self) -> &SharedMetricStore {
        &self.store
    }

    fn key(&self, metric: &str, version: &str) -> SeriesKey {
        SeriesKey::new(metric)
            .with_label("service", &self.service_label)
            .with_label("version", version)
    }
}

/// The p50 and p95 of a window's latencies, equal to those of
/// [`crate::DistributionSummary::compute`]: p95 is selected in place, then
/// p50 among the values at or below it, instead of sorting the window.
/// `None` for an empty window.
fn window_quantiles(latencies_ms: &mut [f64]) -> Option<(f64, f64)> {
    if latencies_ms.is_empty() {
        return None;
    }
    let len = latencies_ms.len();
    let (p50_rank, p95_rank) = (nearest_rank(len, 50.0), nearest_rank(len, 95.0));
    let (below, &mut p95, _) = latencies_ms.select_nth_unstable_by(p95_rank, sample_order);
    let p50 = if p50_rank == p95_rank {
        p95
    } else {
        *below.select_nth_unstable_by(p50_rank, sample_order).1
    };
    Some((p50, p95))
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
            // duplicates.
            let window: Vec<f64> = (0..len)
                .map(|_| match second % 2 {
                    0 => (next() % 16) as f64 * 2.5,
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
