//! Figure-level entry points for the multi-trial runner.
//!
//! Maps a figure name (`fig6`, `fig7`/`fig8`, `fig9`/`fig10`) to a trial
//! function producing labelled measurements, runs it under
//! [`runner::run_trials`], and aggregates the outcomes into a
//! [`BenchReport`]. The `experiments` binary runs every figure through this
//! module.
//!
//! All reported metrics are **lower-is-better** (milliseconds or seconds of
//! latency/delay/overhead), which is what the perf-regression gate assumes.

use crate::backend_experiments::{self, REPLICA_SWEEP};
use crate::engine_experiments::{fig7_fig8, fig9_fig10};
use crate::overhead_experiments::fig6;
use crate::runner::{self, BenchReport, KeyedMeasurements, RunnerConfig};
use crate::session_experiments::{self, SessionsConfig, SHARD_SWEEP};
use crate::traffic_experiments;
use bifrost_casestudy::Variant;
use bifrost_core::seed::Seed;
use std::time::Instant;

/// The figure names the suite understands (aliases included).
pub const FIGURES: &[&str] = &[
    "fig6",
    "fig7",
    "fig8",
    "fig7_fig8",
    "fig9",
    "fig10",
    "fig9_fig10",
    "traffic",
    "sessions",
    "backends",
];

/// Runs one figure as a multi-trial experiment. Returns `None` for an
/// unknown figure name. `max` bounds the sweep of the engine-scalability
/// figures (strategy or check count) and the live-binding count of the
/// `sessions` figure; `requests` sets the request volume of the `traffic`
/// and `sessions` figures; `quick` selects the compressed timeline for the
/// overhead experiment and the smaller defaults everywhere else.
pub fn run_figure(
    figure: &str,
    quick: bool,
    max: Option<usize>,
    requests: Option<usize>,
    config: &RunnerConfig,
) -> Option<BenchReport> {
    let trial: Box<dyn Fn(Seed) -> KeyedMeasurements + Sync> = match figure {
        "fig6" => Box::new(move |seed| fig6_trial(quick, seed)),
        "fig7" | "fig8" | "fig7_fig8" => {
            let max = max.unwrap_or(if quick { 60 } else { 130 });
            Box::new(move |seed| fig7_trial(max, seed))
        }
        "fig9" | "fig10" | "fig9_fig10" => {
            let max = max.unwrap_or(if quick { 400 } else { 1_600 });
            Box::new(move |seed| fig9_trial(max, seed))
        }
        "traffic" => {
            let requests = requests.unwrap_or(if quick { 20_000 } else { 100_000 });
            Box::new(move |seed| traffic_trial(requests, seed))
        }
        "backends" => {
            let requests = requests.unwrap_or(if quick { 60_000 } else { 150_000 });
            Box::new(move |seed| backends_trial(requests, seed))
        }
        "sessions" => {
            let mut sessions_config = if quick {
                SessionsConfig::quick()
            } else {
                SessionsConfig::full()
            };
            if let Some(requests) = requests {
                sessions_config = sessions_config.with_requests(requests);
            }
            // `--max` bounds this figure's table size: live bindings.
            if let Some(bindings) = max {
                sessions_config = sessions_config.with_bindings(bindings);
            }
            Box::new(move |seed| sessions_trial(&sessions_config, seed))
        }
        _ => return None,
    };
    let started = Instant::now();
    let outcomes = runner::run_trials(config, |trial_config| trial(trial_config.seed()));
    Some(BenchReport::from_keyed_trials(
        figure,
        quick,
        config,
        &outcomes,
        started.elapsed(),
    ))
}

/// One trial of the end-user overhead experiment (Figure 6): per-phase mean
/// response times of the active variant, the whole-run mean, and the proxy
/// overhead (inactive − baseline).
fn fig6_trial(quick: bool, seed: Seed) -> KeyedMeasurements {
    let series = fig6::run_seeded(quick, seed);
    let overall = |variant: Variant| -> Option<f64> {
        let s = series.iter().find(|s| s.variant == variant)?;
        if s.series.is_empty() {
            return None;
        }
        Some(s.series.iter().map(|(_, v)| *v).sum::<f64>() / s.series.len() as f64)
    };
    let mut measurements = Vec::new();
    if let (Some(base), Some(inactive)) = (overall(Variant::Baseline), overall(Variant::Inactive)) {
        measurements.push(("overhead/proxy_ms".to_string(), inactive - base));
    }
    if let Some(active_mean) = overall(Variant::Active) {
        measurements.push(("active/overall_ms".to_string(), active_mean));
    }
    if let Some(active) = series.iter().find(|s| s.variant == Variant::Active) {
        for (phase, mean) in &active.phase_means {
            measurements.push((format!("active/{phase}_ms"), *mean));
        }
    }
    measurements
}

/// One trial of the parallel-strategies experiment (Figures 7–8): the mean
/// enactment delay at every strategy-count step of the paper's sweep.
fn fig7_trial(max: usize, seed: Seed) -> KeyedMeasurements {
    fig7_fig8::paper_steps(max)
        .into_iter()
        .map(|strategies| {
            let point = fig7_fig8::run_point_seeded(strategies, seed);
            (format!("strategies={strategies}"), point.delay_secs.mean)
        })
        .collect()
}

/// One trial of the parallel-checks experiment (Figures 9–10): the
/// enactment delay at every check-count step.
fn fig9_trial(max: usize, seed: Seed) -> KeyedMeasurements {
    fig9_fig10::paper_steps(max)
        .into_iter()
        .map(|checks| {
            let point = fig9_fig10::run_point_seeded(checks, seed);
            (format!("checks={checks}"), point.delay_secs)
        })
        .collect()
}

/// One trial of the request-level traffic experiment: routing accuracy,
/// virtual latency, and per-request proxy CPU cost. All lower-is-better
/// and deterministic per seed.
fn traffic_trial(requests: usize, seed: Seed) -> KeyedMeasurements {
    let point = traffic_experiments::run_point_seeded(requests, seed);
    vec![
        ("latency/mean_ms".to_string(), point.mean_latency_ms),
        ("latency/p95_ms".to_string(), point.p95_latency_ms),
        ("split/abs_error_pct".to_string(), point.split_error_pct),
        ("shadow/abs_error_pct".to_string(), point.shadow_error_pct),
        (
            "proxy/cpu_ms_per_request".to_string(),
            point.proxy_cpu_ms_per_request,
        ),
    ]
}

/// One trial of the queued-backend overload experiment: the canary's worst
/// per-tick p95 latency and shed percentage at every replica count of the
/// sweep, with and without a 20% dark launch feeding the same version. All
/// lower-is-better and deterministic per seed.
fn backends_trial(requests: usize, seed: Seed) -> KeyedMeasurements {
    let mut measurements = Vec::new();
    for &replicas in REPLICA_SWEEP {
        for dark in [false, true] {
            let point = backend_experiments::run_point_seeded(replicas, dark, requests, seed);
            measurements.push((
                backend_experiments::point_label(replicas, dark, "p95_ms"),
                point.p95_ms,
            ));
            measurements.push((
                backend_experiments::point_label(replicas, dark, "shed_pct"),
                point.shed_pct,
            ));
        }
    }
    measurements
}

/// One trial of the sticky-session sharding experiment: wall-clock
/// nanoseconds per routed request at every shard count of the sweep, each
/// multi-shard count's time relative to the 1-shard run (the median of
/// paired ratios within the trial), and the number of threads that drove
/// the requests. The ratios are the machine-portable points the CI gate
/// pins; the raw `ns_per_request` values and the thread count are
/// informational. The timings are lower-is-better.
fn sessions_trial(config: &SessionsConfig, seed: Seed) -> KeyedMeasurements {
    let points = session_experiments::run_sweep_seeded(config, seed);
    let mut measurements = Vec::new();
    for point in &points {
        measurements.push((
            format!("shards={}/ns_per_request", point.shards),
            point.ns_per_request,
        ));
    }
    for point in points.iter().skip(1) {
        measurements.push((
            format!("shards={}/time_vs_1shard", point.shards),
            point.time_vs_1shard,
        ));
    }
    measurements.push((DRIVE_THREADS_POINT.to_string(), config.threads as f64));
    measurements
}

/// The `sessions` point recording how many threads drove the requests.
const DRIVE_THREADS_POINT: &str = "drive/threads";

/// The point labels `figure` can emit, across both timelines and the full
/// paper sweeps — the superset that `experiments check-baselines` validates
/// checked-in baseline files against, so a renamed or retired point fails
/// fast in CI instead of silently skipping its gate. Returns `None` for
/// unknown figures.
pub fn point_names(figure: &str) -> Option<Vec<String>> {
    match figure {
        "fig6" => {
            let mut names = vec![
                "overhead/proxy_ms".to_string(),
                "active/overall_ms".to_string(),
            ];
            // The phase windows are static casestudy configuration; both
            // timelines (paper / compressed) use the same names.
            names.extend(
                bifrost_casestudy::PhasePlan::default()
                    .windows()
                    .iter()
                    .map(|window| format!("active/{}_ms", window.name)),
            );
            Some(names)
        }
        "fig7" | "fig8" | "fig7_fig8" => Some(
            fig7_fig8::paper_steps(2_000)
                .into_iter()
                .map(|n| format!("strategies={n}"))
                .collect(),
        ),
        "fig9" | "fig10" | "fig9_fig10" => Some(
            fig9_fig10::paper_steps(16_000)
                .into_iter()
                .map(|n| format!("checks={n}"))
                .collect(),
        ),
        "traffic" => Some(
            [
                "latency/mean_ms",
                "latency/p95_ms",
                "split/abs_error_pct",
                "shadow/abs_error_pct",
                "proxy/cpu_ms_per_request",
            ]
            .into_iter()
            .map(str::to_string)
            .collect(),
        ),
        "sessions" => {
            let mut names: Vec<String> = SHARD_SWEEP
                .iter()
                .map(|n| format!("shards={n}/ns_per_request"))
                .collect();
            names.extend(
                SHARD_SWEEP
                    .iter()
                    .skip(1)
                    .map(|n| format!("shards={n}/time_vs_1shard")),
            );
            names.push(DRIVE_THREADS_POINT.to_string());
            Some(names)
        }
        "backends" => Some(
            REPLICA_SWEEP
                .iter()
                .flat_map(|&replicas| {
                    [false, true].into_iter().flat_map(move |dark| {
                        ["p95_ms", "shed_pct"].into_iter().map(move |metric| {
                            backend_experiments::point_label(replicas, dark, metric)
                        })
                    })
                })
                .collect(),
        ),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_figures_are_rejected() {
        for unknown in ["fig99", "nope"] {
            assert!(run_figure(unknown, true, None, None, &RunnerConfig::default()).is_none());
            assert!(point_names(unknown).is_none());
        }
    }

    #[test]
    fn sessions_report_has_raw_and_relative_points() {
        let config = RunnerConfig::default();
        // Tiny sizing keeps the test fast; the shape is what matters here.
        let report = run_figure("sessions", true, Some(20_000), Some(2_000), &config).unwrap();
        assert_eq!(report.figure, "sessions");
        for point in point_names("sessions").unwrap() {
            let stats = report
                .point(&point)
                .unwrap_or_else(|| panic!("missing {point}"));
            assert!(stats.stats.mean > 0.0, "{point}");
        }
    }

    #[test]
    fn every_known_figure_enumerates_its_points() {
        for figure in FIGURES {
            let names = point_names(figure).unwrap_or_else(|| panic!("no names for {figure}"));
            assert!(!names.is_empty());
        }
        // The enumerations cover what the trials actually emit.
        assert!(point_names("fig7")
            .unwrap()
            .contains(&"strategies=30".to_string()));
        assert!(point_names("fig9")
            .unwrap()
            .contains(&"checks=160".to_string()));
        assert!(point_names("fig6")
            .unwrap()
            .contains(&"active/Canary_ms".to_string()));
        assert!(point_names("sessions")
            .unwrap()
            .contains(&"shards=16/time_vs_1shard".to_string()));
        assert!(point_names("backends")
            .unwrap()
            .contains(&"replicas=2+dark20/shed_pct".to_string()));
        assert_eq!(point_names("backends").unwrap().len(), 12);
    }

    #[test]
    fn backends_report_has_the_expected_points() {
        let config = RunnerConfig::default();
        let report = run_figure("backends", true, None, Some(8_000), &config).unwrap();
        assert_eq!(report.figure, "backends");
        for point in point_names("backends").unwrap() {
            let stats = report
                .point(&point)
                .unwrap_or_else(|| panic!("missing {point}"));
            assert!(stats.stats.mean.is_finite(), "{point}");
        }
        // The undersized canary degrades measurably more than the wide one.
        let thin = report.point("replicas=1/p95_ms").unwrap().stats.mean;
        let wide = report.point("replicas=4/p95_ms").unwrap().stats.mean;
        assert!(thin > wide, "thin {thin} vs wide {wide}");
    }

    #[test]
    fn fig9_report_has_stats_per_point() {
        let config = RunnerConfig::default().with_trials(2).with_threads(2);
        let report = run_figure("fig9", true, Some(80), None, &config).unwrap();
        assert_eq!(report.figure, "fig9");
        assert_eq!(report.trials, 2);
        // Steps 8 and 80.
        assert_eq!(report.points.len(), 2);
        for point in &report.points {
            assert_eq!(point.stats.count, 2);
            assert_eq!(point.samples.len(), 2);
            assert!(point.stats.min <= point.stats.p50);
            assert!(point.stats.p50 <= point.stats.p95);
            assert!(point.stats.p95 <= point.stats.max);
        }
        // More checks → more delay, visible in the aggregated means.
        assert!(
            report.points[1].stats.mean >= report.points[0].stats.mean,
            "{report:?}"
        );
    }

    #[test]
    fn traffic_report_has_the_expected_points() {
        let config = RunnerConfig::default().with_trials(2).with_threads(2);
        let report = run_figure("traffic", true, None, Some(5_000), &config).unwrap();
        assert_eq!(report.figure, "traffic");
        for point in [
            "latency/mean_ms",
            "latency/p95_ms",
            "split/abs_error_pct",
            "shadow/abs_error_pct",
            "proxy/cpu_ms_per_request",
        ] {
            let stats = report
                .point(point)
                .unwrap_or_else(|| panic!("missing {point}"));
            assert_eq!(stats.samples.len(), 2);
            assert!(stats.stats.mean.is_finite());
        }
        // Routing accuracy at 5k requests stays within 2 percentage points.
        assert!(report.point("split/abs_error_pct").unwrap().stats.mean < 2.0);
        assert!(report.point("shadow/abs_error_pct").unwrap().stats.mean < 2.0);
    }

    #[test]
    fn traffic_figure_honours_a_request_override() {
        // A smaller request override still emits the latency and split points.
        let small =
            run_figure("traffic", true, None, Some(2_000), &RunnerConfig::default()).unwrap();
        assert_eq!(small.figure, "traffic");
        for point in ["latency/mean_ms", "split/abs_error_pct"] {
            assert!(small.point(point).is_some(), "missing {point}");
        }
    }

    #[test]
    fn fig9_trials_round_trip_through_the_json_report() {
        let config = RunnerConfig::default().with_trials(2).with_threads(2);
        let report = run_figure("fig9", true, Some(8), None, &config).unwrap();
        assert!(report.point("checks=8").is_some(), "{report:?}");
        let parsed = BenchReport::parse(&report.render_json()).unwrap();
        assert_eq!(parsed.figure, "fig9");
        assert_eq!(parsed.trials, 2);
        assert_eq!(parsed.points.len(), report.points.len());
    }

    #[test]
    fn fig7_trials_vary_with_seed_but_not_thread_count() {
        let base = RunnerConfig::default()
            .with_trials(3)
            .with_base_seed(Seed::new(11));
        let serial = run_figure("fig7", true, Some(10), None, &base.with_threads(1)).unwrap();
        let parallel = run_figure("fig7", true, Some(10), None, &base.with_threads(3)).unwrap();
        // Identical measurements regardless of parallelism.
        for (a, b) in serial.points.iter().zip(&parallel.points) {
            assert_eq!(a.point, b.point);
            assert_eq!(a.samples, b.samples);
        }
        // Different trials (seeds) produced at least some spread at the
        // contended point.
        let contended = serial.point("strategies=10").unwrap();
        assert!(contended.stats.max >= contended.stats.min);
    }
}
