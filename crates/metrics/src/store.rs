//! The metric store: time series indexed by series key, with query
//! evaluation, plus a cheap shared handle for concurrent producers.
//!
//! A key is resolved to a private series id the first time it receives a
//! sample, and never earlier: the store holds no series that never had a
//! sample. Ids are handed out in first-record order, which depends on
//! which writer takes the lock first and so can differ between runs with
//! different data-plane worker counts. They never show: every read
//! (`keys`, `series`, `evaluate`, equality and `Debug`) goes through the
//! key-ordered index. Writers inside this crate (the traffic recorder)
//! cache the ids of their series and append by id, so after a series'
//! first sample they neither build nor compare a key.

use crate::query::{Aggregation, RangeQuery};
use crate::sample::{Sample, SeriesKey, TimestampMs};
use crate::series::TimeSeries;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// The private address of one series in a [`MetricStore`]: an index into
/// its series vector, valid for the store that handed it out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct SeriesId(usize);

/// An in-memory, label-indexed collection of time series.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct MetricStore {
    /// Every key that has received a sample, in key order.
    index: BTreeMap<SeriesKey, SeriesId>,
    /// The series, in id (first-record) order.
    data: Vec<TimeSeries>,
}

impl MetricStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a sample for the given series (creating the series on first
    /// use).
    pub fn record(&mut self, key: SeriesKey, sample: Sample) {
        let id = self.resolve(key);
        self.record_id(id, sample);
    }

    /// Convenience: records `value` for `key` at time `at`.
    pub fn record_value(&mut self, key: SeriesKey, at: TimestampMs, value: f64) {
        self.record(key, Sample::new(at, value));
    }

    /// Increments a counter series by `delta` at time `at` (the new sample
    /// holds the running total).
    pub fn increment(&mut self, key: SeriesKey, at: TimestampMs, delta: f64) {
        let id = self.resolve(key);
        let series = &mut self.data[id.0];
        let current = series.last().map(|s| s.value).unwrap_or(0.0);
        series.push(Sample::new(at, current + delta));
    }

    /// The id of `key`, creating its (empty) series if the key is new.
    /// Callers record a sample under the id right away, so no empty series
    /// is ever left behind.
    pub(crate) fn resolve(&mut self, key: SeriesKey) -> SeriesId {
        let next = SeriesId(self.data.len());
        let id = *self.index.entry(key).or_insert(next);
        if id == next {
            self.data.push(TimeSeries::new());
        }
        id
    }

    /// Appends a sample to the series `id` (from [`Self::resolve`]).
    pub(crate) fn record_id(&mut self, id: SeriesId, sample: Sample) {
        self.data[id.0].push(sample);
    }

    /// Returns the series stored under `key`, if any.
    pub fn series(&self, key: &SeriesKey) -> Option<&TimeSeries> {
        self.index.get(key).map(|id| &self.data[id.0])
    }

    /// All series keys currently known, in key order.
    pub fn keys(&self) -> impl Iterator<Item = &SeriesKey> {
        self.index.keys()
    }

    /// Every series with its key, in key order.
    fn iter(&self) -> impl Iterator<Item = (&SeriesKey, &TimeSeries)> {
        self.index.iter().map(|(key, id)| (key, &self.data[id.0]))
    }

    /// Number of series.
    pub fn series_count(&self) -> usize {
        self.data.len()
    }

    /// Total number of samples across all series.
    pub fn sample_count(&self) -> usize {
        self.data.iter().map(TimeSeries::len).sum()
    }

    /// Evaluates a query at time `now` over the windows of the selected
    /// series. `Increase` and `Rate` apply to each series on its own and
    /// sum the results, like Prometheus' `sum(increase(…))`: a counter is
    /// only comparable with itself. Every other aggregation applies to the
    /// union of the windows, concatenated in key order and stably sorted by
    /// timestamp. A single selected series is aggregated in place.
    pub fn evaluate(&self, query: &RangeQuery, now: TimestampMs) -> Option<f64> {
        let (aggregation, window) = (query.aggregation(), query.window());
        let mut selected = self
            .index
            .range(SeriesKey::new(query.metric())..)
            .take_while(|(key, _)| key.name() == query.metric())
            .filter(|(key, _)| query.selects(key))
            .map(|(_, id)| self.data[id.0].window(now, window));
        let Some(first) = selected.next() else {
            return aggregation.apply(&[], window);
        };
        let Some(second) = selected.next() else {
            return aggregation.apply(first, window);
        };
        let windows = [first, second].into_iter().chain(selected);
        if matches!(aggregation, Aggregation::Increase | Aggregation::Rate) {
            return windows
                .filter_map(|samples| aggregation.apply(samples, window))
                .reduce(|sum, value| sum + value);
        }
        let mut union: Vec<Sample> = windows.flatten().copied().collect();
        union.sort_by_key(|s| s.timestamp);
        aggregation.apply(&union, window)
    }

    /// Prunes samples older than `retention` from every series.
    pub fn prune(&mut self, now: TimestampMs, retention: Duration) -> usize {
        self.data.iter_mut().map(|s| s.prune(now, retention)).sum()
    }
}

/// Equal when the same keys hold the same samples, whatever order the
/// series were first recorded in.
impl PartialEq for MetricStore {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// Prints the series in key order, as `MetricStore { series: {…} }`.
impl fmt::Debug for MetricStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct InKeyOrder<'a>(&'a MetricStore);
        impl fmt::Debug for InKeyOrder<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("MetricStore")
            .field("series", &InKeyOrder(self))
            .finish()
    }
}

/// A cheaply clonable, thread-safe handle to a [`MetricStore`].
///
/// The simulator, the case-study services, and the engine all hold clones of
/// the same handle. The single-sample writers take the write lock per call;
/// the traffic recorder takes it once per flush and appends every sample of
/// the flush by series id; `record_many` takes it once per batch.
#[derive(Debug, Clone, Default)]
pub struct SharedMetricStore {
    inner: Arc<RwLock<MetricStore>>,
}

impl SharedMetricStore {
    /// Creates an empty shared store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a sample.
    pub fn record(&self, key: SeriesKey, sample: Sample) {
        self.inner.write().record(key, sample);
    }

    /// Records `value` at `at`.
    pub fn record_value(&self, key: SeriesKey, at: TimestampMs, value: f64) {
        self.inner.write().record_value(key, at, value);
    }

    /// Increments a counter series.
    pub fn increment(&self, key: SeriesKey, at: TimestampMs, delta: f64) {
        self.inner.write().increment(key, at, delta);
    }

    /// Records a batch of samples under a single write lock.
    pub fn record_many(&self, samples: impl IntoIterator<Item = (SeriesKey, Sample)>) {
        let mut store = self.inner.write();
        for (key, sample) in samples {
            store.record(key, sample);
        }
    }

    /// Runs a closure with write access to the underlying store, under one
    /// write lock.
    pub(crate) fn with_store_mut<R>(&self, f: impl FnOnce(&mut MetricStore) -> R) -> R {
        f(&mut self.inner.write())
    }

    /// Evaluates a query at `now`.
    pub fn evaluate(&self, query: &RangeQuery, now: TimestampMs) -> Option<f64> {
        self.inner.read().evaluate(query, now)
    }

    /// Number of series.
    pub fn series_count(&self) -> usize {
        self.inner.read().series_count()
    }

    /// Total number of samples.
    pub fn sample_count(&self) -> usize {
        self.inner.read().sample_count()
    }

    /// Prunes samples older than `retention`.
    pub fn prune(&self, now: TimestampMs, retention: Duration) -> usize {
        self.inner.write().prune(now, retention)
    }

    /// Runs a closure with read access to the underlying store.
    pub fn with_store<R>(&self, f: impl FnOnce(&MetricStore) -> R) -> R {
        f(&self.inner.read())
    }

    /// Produces an owned snapshot of the store (for reports and debugging).
    pub fn snapshot(&self) -> MetricStore {
        self.inner.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Aggregation;

    fn key(instance: &str) -> SeriesKey {
        SeriesKey::new("request_errors").with_label("instance", instance)
    }

    #[test]
    fn record_and_query_single_series() {
        let mut store = MetricStore::new();
        store.record_value(key("search:80"), TimestampMs::from_secs(10), 2.0);
        store.record_value(key("search:80"), TimestampMs::from_secs(20), 3.0);
        store.record_value(key("product:80"), TimestampMs::from_secs(20), 50.0);

        let q = RangeQuery::new("request_errors")
            .with_label("instance", "search:80")
            .over_window_secs(60)
            .aggregate(Aggregation::Sum);
        assert_eq!(store.evaluate(&q, TimestampMs::from_secs(30)), Some(5.0));
        assert_eq!(store.series_count(), 2);
        assert_eq!(store.sample_count(), 3);
        assert!(store.series(&key("search:80")).is_some());
        assert_eq!(store.keys().count(), 2);
    }

    #[test]
    fn evaluate_unions_matching_series() {
        let mut store = MetricStore::new();
        store.record_value(key("search:80"), TimestampMs::from_secs(10), 2.0);
        store.record_value(key("product:80"), TimestampMs::from_secs(12), 4.0);
        // No matcher → both series contribute.
        let q = RangeQuery::new("request_errors")
            .over_window_secs(60)
            .aggregate(Aggregation::Sum);
        assert_eq!(store.evaluate(&q, TimestampMs::from_secs(30)), Some(6.0));
        // Unknown metric → None.
        let q = RangeQuery::new("nope").over_window_secs(60);
        assert_eq!(store.evaluate(&q, TimestampMs::from_secs(30)), None);
    }

    #[test]
    fn windowed_increase_and_rate_sum_each_counter() {
        // One service's error counters: v1 gains 2900 errors inside the
        // window and v2 145. Taking last − first across the union of both
        // windows would compare two different counters (v2's last sample
        // is below v1's first) and read 0.
        let mut store = MetricStore::new();
        let errors = |version: &str| {
            SeriesKey::new("request_errors")
                .with_label("service", "search")
                .with_label("version", version)
        };
        for t in 1..=11 {
            let at = TimestampMs::from_secs(t);
            store.record_value(errors("v1"), at, 10_000.0 + 290.0 * t as f64);
            store.record_value(errors("v2"), at, 500.0 + 14.5 * t as f64);
        }
        let now = TimestampMs::from_secs(11);
        let q = RangeQuery::new("request_errors")
            .with_label("service", "search")
            .over_window_secs(11);
        let increase = q.clone().aggregate(Aggregation::Increase);
        assert_eq!(store.evaluate(&increase, now), Some(3045.0));
        let rate = q.clone().aggregate(Aggregation::Rate);
        assert_eq!(
            store.evaluate(&rate, now),
            Some(2900.0 / 11.0 + 145.0 / 11.0)
        );
        // One selected series reads its own increase.
        let v2 = increase.with_label("version", "v2");
        assert_eq!(store.evaluate(&v2, now), Some(145.0));
        // Other aggregations still apply to the union of the windows.
        let count = q.aggregate(Aggregation::Count);
        assert_eq!(store.evaluate(&count, now), Some(22.0));
    }

    #[test]
    fn increment_accumulates_counter() {
        let mut store = MetricStore::new();
        store.increment(key("search:80"), TimestampMs::from_secs(1), 1.0);
        store.increment(key("search:80"), TimestampMs::from_secs(2), 1.0);
        store.increment(key("search:80"), TimestampMs::from_secs(3), 2.0);
        let q = RangeQuery::new("request_errors")
            .with_label("instance", "search:80")
            .aggregate(Aggregation::Last);
        assert_eq!(store.evaluate(&q, TimestampMs::from_secs(5)), Some(4.0));
        // Increase over the window (1,3] — the sample at t=1 is excluded, so
        // the counter grows from 2 (t=2) to 4 (t=3).
        let q = q.over_window_secs(2).aggregate(Aggregation::Increase);
        assert_eq!(store.evaluate(&q, TimestampMs::from_secs(3)), Some(2.0));
    }

    #[test]
    fn evaluation_is_time_scoped() {
        let mut store = MetricStore::new();
        store.record_value(key("search:80"), TimestampMs::from_secs(100), 7.0);
        let q = RangeQuery::new("request_errors").with_label("instance", "search:80");
        // Querying before the sample exists sees nothing.
        assert_eq!(store.evaluate(&q, TimestampMs::from_secs(50)), None);
        assert_eq!(store.evaluate(&q, TimestampMs::from_secs(100)), Some(7.0));
    }

    #[test]
    fn prune_removes_old_samples_across_series() {
        let mut store = MetricStore::new();
        for t in 0..10 {
            store.record_value(key("search:80"), TimestampMs::from_secs(t), t as f64);
            store.record_value(key("product:80"), TimestampMs::from_secs(t), t as f64);
        }
        let removed = store.prune(TimestampMs::from_secs(10), Duration::from_secs(3));
        assert_eq!(removed, 14);
        assert_eq!(store.sample_count(), 6);
    }

    #[test]
    fn record_many_matches_individual_records() {
        let bulk = SharedMetricStore::new();
        let single = SharedMetricStore::new();
        let samples: Vec<(SeriesKey, Sample)> = (0..10)
            .map(|t| {
                (
                    key(if t % 2 == 0 {
                        "search:80"
                    } else {
                        "product:80"
                    }),
                    Sample::new(TimestampMs::from_secs(t), t as f64),
                )
            })
            .collect();
        for (k, s) in &samples {
            single.record(k.clone(), *s);
        }
        bulk.record_many(samples);
        assert_eq!(bulk.snapshot(), single.snapshot());
    }

    #[test]
    fn shared_store_roundtrip() {
        let store = SharedMetricStore::new();
        let writer = store.clone();
        writer.record_value(key("search:80"), TimestampMs::from_secs(1), 1.0);
        writer.increment(key("search:80"), TimestampMs::from_secs(2), 2.0);
        assert_eq!(store.series_count(), 1);
        assert_eq!(store.sample_count(), 2);
        let q = RangeQuery::new("request_errors")
            .with_label("instance", "search:80")
            .aggregate(Aggregation::Last);
        assert_eq!(store.evaluate(&q, TimestampMs::from_secs(3)), Some(3.0));
        assert_eq!(store.snapshot().sample_count(), 2);
        assert_eq!(store.with_store(|s| s.series_count()), 1);
        assert_eq!(
            store.prune(TimestampMs::from_secs(10), Duration::from_secs(1)),
            2
        );
    }
}
