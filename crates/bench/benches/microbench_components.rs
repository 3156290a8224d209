//! Component micro-benchmarks: the hot paths of the middleware itself
//! (threshold classification, traffic-split picking, proxy routing, metric
//! store queries, DSL parsing, automaton transitions).

use bifrost_core::prelude::*;
use bifrost_metrics::{Aggregation, RangeQuery, Sample, SeriesKey, SharedMetricStore, TimestampMs};
use criterion::{criterion_group, criterion_main, Criterion};

const DSL_SOURCE: &str = r#"
name: micro
strategy:
  phases:
    - phase: canary
      service: search
      stable: v1
      candidate: v2
      traffic: 5
      duration: 60
      checks:
        - name: errors
          query: request_errors{instance="search:80"}
          interval: 5
          executions: 12
          validator: "<5"
    - phase: rollout
      service: search
      stable: v1
      candidate: v2
      from_traffic: 5
      to_traffic: 100
      step: 5
      step_duration: 10
"#;

fn bench_model_primitives(c: &mut Criterion) {
    let thresholds = Thresholds::new(vec![-5, 0, 3, 4, 10]).unwrap();
    c.bench_function("thresholds_classify", |b| {
        let mut value = -50i64;
        b.iter(|| {
            value = (value + 1) % 50;
            criterion::black_box(thresholds.classify(value))
        });
    });

    let split = TrafficSplit::canary(
        VersionId::new(0),
        VersionId::new(1),
        Percentage::new(5.0).unwrap(),
    )
    .unwrap();
    c.bench_function("traffic_split_pick", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            criterion::black_box(split.pick((i % 1_000) as f64 / 1_000.0))
        });
    });
}

fn bench_metric_store(c: &mut Criterion) {
    let store = SharedMetricStore::new();
    let key = SeriesKey::new("request_errors").with_label("instance", "search:80");
    for t in 0..10_000u64 {
        store.record(
            key.clone(),
            Sample::new(TimestampMs::from_millis(t * 100), (t % 7) as f64),
        );
    }
    let query = RangeQuery::new("request_errors")
        .with_label("instance", "search:80")
        .over_window_secs(60)
        .aggregate(Aggregation::Mean);
    c.bench_function("metric_store_windowed_query", |b| {
        b.iter(|| criterion::black_box(store.evaluate(&query, TimestampMs::from_secs(900))));
    });
}

fn bench_dsl_parse(c: &mut Criterion) {
    c.bench_function("dsl_parse_and_compile", |b| {
        b.iter(|| criterion::black_box(bifrost_dsl::parse_strategy(DSL_SOURCE).unwrap()));
    });
}

criterion_group!(
    benches,
    bench_model_primitives,
    bench_metric_store,
    bench_dsl_parse
);
criterion_main!(benches);
