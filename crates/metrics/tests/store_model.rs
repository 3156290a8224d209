//! The id-indexed `MetricStore` against a reference model: a plain
//! `BTreeMap<SeriesKey, TimeSeries>` written by a reference traffic
//! recorder that keys every sample by name and labels.
//!
//! Seeded random interleavings of `record`, `record_value`, `increment`,
//! `record_many`, `prune` and recorder observations and flushes (versions
//! first seen mid-run, versions seen only through shadows, sheds or
//! utilisation, two recorders sharing one `service` label) must leave the
//! store answering every read exactly like the model: keys in key order,
//! each series, the counts, and `evaluate` for queries selecting zero, one
//! or several series under every aggregation and window. Stores filled in
//! different orders must compare equal and print the same `Debug`.

use bifrost_metrics::traffic::{
    BACKEND_UTILIZATION, REQUESTS_SHED_TOTAL, REQUESTS_TOTAL, REQUEST_ERRORS, REQUEST_LATENCY_MS,
    REQUEST_LATENCY_P50_MS, REQUEST_LATENCY_P95_MS, SHADOW_REQUESTS_TOTAL,
};
use bifrost_metrics::{
    Aggregation, DistributionSummary, MetricStore, RangeQuery, Sample, SeriesKey,
    SharedMetricStore, TimeSeries, TimestampMs, TrafficSeriesRecorder,
};
use std::collections::BTreeMap;
use std::time::Duration;

/// SplitMix64: a seeded generator without an RNG dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// The reference store.
#[derive(Debug, Default)]
struct Model {
    series: BTreeMap<SeriesKey, TimeSeries>,
}

impl Model {
    fn record(&mut self, key: SeriesKey, sample: Sample) {
        self.series.entry(key).or_default().push(sample);
    }

    fn increment(&mut self, key: SeriesKey, at: TimestampMs, delta: f64) {
        let series = self.series.entry(key).or_default();
        let current = series.last().map_or(0.0, |s| s.value);
        series.push(Sample::new(at, current + delta));
    }

    fn prune(&mut self, now: TimestampMs, retention: Duration) -> usize {
        self.series
            .values_mut()
            .map(|s| s.prune(now, retention))
            .sum()
    }

    fn sample_count(&self) -> usize {
        self.series.values().map(TimeSeries::len).sum()
    }

    /// Counters (`Increase`, `Rate`) are aggregated per series and summed;
    /// every other aggregation applies to the union of the windows, in key
    /// order, stably sorted by timestamp. Also returns how many series the
    /// query selected.
    fn evaluate(&self, query: &RangeQuery, now: TimestampMs) -> (Option<f64>, usize) {
        let windows: Vec<&[Sample]> = self
            .series
            .iter()
            .filter(|(key, _)| query.selects(key))
            .map(|(_, series)| series.window(now, query.window()))
            .collect();
        let (aggregation, window) = (query.aggregation(), query.window());
        let value = match aggregation {
            Aggregation::Increase | Aggregation::Rate if !windows.is_empty() => windows
                .iter()
                .filter_map(|samples| aggregation.apply(samples, window))
                .reduce(|sum, value| sum + value),
            _ => {
                let mut union = windows.concat();
                union.sort_by_key(|s| s.timestamp);
                aggregation.apply(&union, window)
            }
        };
        (value, windows.len())
    }
}

/// The reference recorder: string-keyed windows and totals, every sample
/// keyed by name and labels.
#[derive(Debug, Default)]
struct ModelRecorder {
    service: String,
    /// requests, errors, latency sum and latencies per version.
    window: BTreeMap<String, (u64, u64, f64, Vec<f64>)>,
    shadows: BTreeMap<String, u64>,
    shed: BTreeMap<String, u64>,
    utilization: BTreeMap<String, f64>,
    /// Totals of requests, errors, shadows and shed per version; a version
    /// is absent from a map until that counter is registered or counts.
    totals: [BTreeMap<String, f64>; 4],
}

const COUNTERS: [&str; 4] = [
    REQUESTS_TOTAL,
    REQUEST_ERRORS,
    SHADOW_REQUESTS_TOTAL,
    REQUESTS_SHED_TOTAL,
];

impl ModelRecorder {
    fn new(service: &str) -> Self {
        Self {
            service: service.to_string(),
            ..Self::default()
        }
    }

    fn key(&self, metric: &str, version: &str) -> SeriesKey {
        SeriesKey::new(metric)
            .with_label("service", &self.service)
            .with_label("version", version)
    }

    fn register(&mut self, version: &str, model: &mut Model, at: TimestampMs) {
        for totals in &mut self.totals {
            totals.entry(version.to_string()).or_insert(0.0);
        }
        self.flush(model, at);
    }

    fn request(&mut self, version: &str, latency_ms: f64, success: bool) {
        let window = self.window.entry(version.to_string()).or_default();
        window.0 += 1;
        window.1 += u64::from(!success);
        window.2 += latency_ms;
        window.3.push(latency_ms);
    }

    fn flush(&mut self, model: &mut Model, at: TimestampMs) {
        let mut bump = |counter: usize, version: &str, count: u64| {
            *self.totals[counter]
                .entry(version.to_string())
                .or_insert(0.0) += count as f64;
        };
        for (version, (requests, errors, _, _)) in &self.window {
            bump(0, version, *requests);
            bump(1, version, *errors);
        }
        for (version, count) in &self.shadows {
            bump(2, version, *count);
        }
        for (version, count) in &self.shed {
            bump(3, version, *count);
        }
        for (counter, totals) in self.totals.iter().enumerate() {
            for (version, total) in totals {
                let key = self.key(COUNTERS[counter], version);
                model.record(key, Sample::new(at, *total));
            }
        }
        for (version, (requests, _, sum, latencies)) in std::mem::take(&mut self.window) {
            let summary = DistributionSummary::compute(&latencies).expect("a request");
            for (metric, value) in [
                (REQUEST_LATENCY_MS, sum / requests as f64),
                (REQUEST_LATENCY_P50_MS, summary.p50),
                (REQUEST_LATENCY_P95_MS, summary.p95),
            ] {
                model.record(self.key(metric, &version), Sample::new(at, value));
            }
        }
        for (version, percent) in std::mem::take(&mut self.utilization) {
            let key = self.key(BACKEND_UTILIZATION, &version);
            model.record(key, Sample::new(at, percent));
        }
        self.shadows.clear();
        self.shed.clear();
    }
}

/// Hand-written keys, some sharing a name with recorder series.
fn manual_key(rng: &mut Rng) -> SeriesKey {
    let name = *rng.pick(&["cpu", "up", "queue_depth", REQUESTS_TOTAL, REQUEST_ERRORS]);
    let mut key = SeriesKey::new(name);
    if rng.chance(70) {
        key = key.with_label("instance", *rng.pick(&["a:80", "b:80", "c:80"]));
    }
    if rng.chance(40) {
        key = key.with_label("service", *rng.pick(&["search", "cart"]));
    }
    key
}

const METRICS: [&str; 13] = [
    "cpu",
    "up",
    "queue_depth",
    "never_recorded",
    REQUESTS_TOTAL,
    REQUEST_ERRORS,
    SHADOW_REQUESTS_TOTAL,
    REQUESTS_SHED_TOTAL,
    REQUEST_LATENCY_MS,
    REQUEST_LATENCY_P50_MS,
    REQUEST_LATENCY_P95_MS,
    BACKEND_UTILIZATION,
    "backend_utilization_extra",
];

const AGGREGATIONS: [Aggregation; 8] = [
    Aggregation::Last,
    Aggregation::Mean,
    Aggregation::Sum,
    Aggregation::Max,
    Aggregation::Min,
    Aggregation::Count,
    Aggregation::Increase,
    Aggregation::Rate,
];

fn random_query(rng: &mut Rng) -> RangeQuery {
    let mut query = RangeQuery::new(*rng.pick(&METRICS));
    if rng.chance(50) {
        query = query.with_label("service", *rng.pick(&["search", "cart", "shared", "none"]));
    }
    if rng.chance(40) {
        query = query.with_label("version", *rng.pick(&["v1", "v2", "v3", "ver-9"]));
    }
    if rng.chance(20) {
        query = query.with_label("instance", *rng.pick(&["a:80", "b:80"]));
    }
    let window = match rng.below(3) {
        0 => Duration::ZERO,
        1 => Duration::from_millis(1 + rng.below(3_000) as u64),
        _ => Duration::from_secs(1 + rng.below(60) as u64),
    };
    query
        .over_window(window)
        .aggregate(*rng.pick(&AGGREGATIONS))
}

/// Asserts that every read of `store` equals the model's; returns how many
/// series each query selected.
fn assert_reads_match(
    store: &MetricStore,
    model: &Model,
    rng: &mut Rng,
    now: TimestampMs,
    context: &str,
) -> Vec<usize> {
    let keys: Vec<&SeriesKey> = store.keys().collect();
    let expected: Vec<&SeriesKey> = model.series.keys().collect();
    assert_eq!(keys, expected, "{context}: keys");
    for (key, series) in &model.series {
        assert_eq!(store.series(key), Some(series), "{context}: {key}");
    }
    assert_eq!(store.series(&SeriesKey::new("never_recorded")), None);
    assert_eq!(store.series_count(), model.series.len(), "{context}");
    assert_eq!(store.sample_count(), model.sample_count(), "{context}");
    (0..40)
        .map(|_| {
            let query = random_query(rng);
            let at = TimestampMs::from_millis(rng.below(now.as_millis() as usize + 2_000) as u64);
            let (value, selected) = model.evaluate(&query, at);
            assert_eq!(
                store.evaluate(&query, at).map(f64::to_bits),
                value.map(f64::to_bits),
                "{context}: {query:?} at {at}"
            );
            selected
        })
        .collect()
}

/// A store holding `model`'s series, recorded series by series in the
/// given order of keys.
fn filled_in_order<'a>(model: &'a Model, keys: impl Iterator<Item = &'a SeriesKey>) -> MetricStore {
    let mut store = MetricStore::new();
    for key in keys {
        for sample in model.series[key].samples() {
            store.record(key.clone(), *sample);
        }
    }
    store
}

fn run(seed: u64) -> ([usize; 3], bool) {
    let mut rng = Rng(seed);
    let store = SharedMetricStore::new();
    let mut model = Model::default();
    // Two recorders share the `shared` label, like two streams of services
    // recording under one label.
    let services = ["search", "cart", "shared", "shared"];
    let mut recorders: Vec<TrafficSeriesRecorder> = services
        .iter()
        .map(|service| TrafficSeriesRecorder::new(store.clone(), *service))
        .collect();
    let mut models: Vec<ModelRecorder> = services.iter().map(|s| ModelRecorder::new(s)).collect();
    // v1 is registered up front on some recorders; the others appear
    // mid-run, some only through shadows, sheds or utilisation.
    let versions = ["v1", "v2", "v3", "ver-9"];
    for (recorder, model_recorder) in recorders.iter_mut().zip(&mut models).step_by(2) {
        recorder.register_versions(["v1"], TimestampMs::ZERO);
        model_recorder.register("v1", &mut model, TimestampMs::ZERO);
    }

    // Half the runs never prune, so they keep no emptied series and can
    // compare their own store with a refilled one.
    let prunes = seed.is_multiple_of(2);
    let mut now = TimestampMs::ZERO;
    let mut selected = [0; 3];
    for step in 0..400 {
        now = now.saturating_add(Duration::from_millis(rng.below(400) as u64));
        // Backfilled samples land before `now`.
        let at = if rng.chance(10) {
            now.saturating_sub(Duration::from_millis(rng.below(5_000) as u64))
        } else {
            now
        };
        let value = rng.below(1_000) as f64 / 8.0;
        match rng.below(12) {
            0 => {
                let key = manual_key(&mut rng);
                store.record(key.clone(), Sample::new(at, value));
                model.record(key, Sample::new(at, value));
            }
            1 => {
                let key = manual_key(&mut rng);
                store.record_value(key.clone(), at, value);
                model.record(key, Sample::new(at, value));
            }
            2 => {
                let key = manual_key(&mut rng);
                store.increment(key.clone(), at, value);
                model.increment(key, at, value);
            }
            3 => {
                let batch: Vec<(SeriesKey, Sample)> = (0..rng.below(6))
                    .map(|i| {
                        let at = at.saturating_add(Duration::from_millis(i as u64));
                        (manual_key(&mut rng), Sample::new(at, i as f64))
                    })
                    .collect();
                for (key, sample) in &batch {
                    model.record(key.clone(), *sample);
                }
                store.record_many(batch);
            }
            4 if prunes && rng.chance(20) => {
                let retention = Duration::from_secs(1 + rng.below(30) as u64);
                assert_eq!(
                    store.prune(now, retention),
                    model.prune(now, retention),
                    "seed {seed} step {step}: prune"
                );
            }
            5 => {
                let r = rng.below(recorders.len());
                recorders[r].flush(now);
                models[r].flush(&mut model, now);
            }
            _ => {
                let r = rng.below(recorders.len());
                let version = *rng.pick(&versions);
                let (recorder, model_recorder) = (&mut recorders[r], &mut models[r]);
                // Half the observations go through a slot.
                let by_slot = rng.chance(50);
                let slot = recorder.slot(version);
                match rng.below(4) {
                    0 | 1 => {
                        let latency = rng.below(10_000) as f64 / 16.0;
                        let success = rng.chance(90);
                        if by_slot {
                            recorder.observe_request_in(slot, latency, success);
                        } else {
                            recorder.observe_request(version, latency, success);
                        }
                        model_recorder.request(version, latency, success);
                    }
                    2 => {
                        if by_slot {
                            recorder.observe_shadow_in(slot);
                        } else {
                            recorder.observe_shadow(version);
                        }
                        *model_recorder
                            .shadows
                            .entry(version.to_string())
                            .or_insert(0) += 1;
                    }
                    _ if rng.chance(50) => {
                        if by_slot {
                            recorder.observe_shed_in(slot);
                        } else {
                            recorder.observe_shed(version);
                        }
                        *model_recorder.shed.entry(version.to_string()).or_insert(0) += 1;
                    }
                    _ => {
                        if by_slot {
                            recorder.observe_utilization_in(slot, value);
                        } else {
                            recorder.observe_utilization(version, value);
                        }
                        model_recorder
                            .utilization
                            .insert(version.to_string(), value);
                    }
                }
            }
        }
        if step % 25 == 24 {
            let context = format!("seed {seed} step {step}");
            let counts =
                store.with_store(|s| assert_reads_match(s, &model, &mut rng, now, &context));
            for n in counts {
                selected[n.min(2)] += 1;
            }
        }
    }

    // Equality and `Debug` ignore the order series were first recorded in.
    // Pruning can empty a series, which only pruning recreates, so the
    // refilled stores hold the non-empty series.
    let print =
        |series: &BTreeMap<SeriesKey, TimeSeries>| format!("MetricStore {{ series: {series:?} }}");
    let snapshot = store.snapshot();
    assert_eq!(format!("{snapshot:?}"), print(&model.series), "seed {seed}");
    let non_empty = Model {
        series: model
            .series
            .into_iter()
            .filter(|(_, series)| !series.is_empty())
            .collect(),
    };
    let forward = filled_in_order(&non_empty, non_empty.series.keys());
    let backward = filled_in_order(&non_empty, non_empty.series.keys().rev());
    assert_eq!(forward, backward, "seed {seed}");
    for store in [&forward, &backward] {
        assert_eq!(
            format!("{store:?}"),
            print(&non_empty.series),
            "seed {seed}"
        );
    }
    let compared_snapshot = snapshot.series_count() == forward.series_count();
    if compared_snapshot {
        assert_eq!(snapshot, forward, "seed {seed}");
    }
    // One more sample makes them differ.
    let mut longer = backward.clone();
    let first = non_empty.series.keys().next().expect("a series").clone();
    longer.record_value(first, now, 1.0);
    assert_ne!(longer, forward, "seed {seed}");
    (selected, compared_snapshot)
}

#[test]
fn id_store_answers_every_read_like_a_key_ordered_map() {
    let (mut selected, mut snapshots) = ([0; 3], 0);
    for seed in 0..24 {
        let (counts, compared_snapshot) = run(0xB1F0_5700 + seed);
        for (total, n) in selected.iter_mut().zip(counts) {
            *total += n;
        }
        snapshots += usize::from(compared_snapshot);
    }
    // Queries selected no series, exactly one and several, and several
    // runs compared their own store with a refilled one.
    assert!(selected.iter().all(|&n| n >= 100), "{selected:?}");
    assert!(snapshots >= 4, "{snapshots}");
}
