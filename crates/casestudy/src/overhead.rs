//! The end-user overhead experiment (Figure 6 / Table 1).
//!
//! The experiment runs the JMeter-style workload against the case-study
//! application in three variations:
//!
//! * **baseline** — no Bifrost components deployed,
//! * **inactive** — proxies deployed but no strategy executing, and
//! * **active** — proxies deployed and the four-phase release strategy
//!   (canary → dark launch → A/B test → gradual rollout) executing.
//!
//! Response times are recorded per request, the timeline is divided into the
//! four phase windows, and the runner produces the 3-second moving-average
//! series of Figure 6 and the per-phase summary statistics of Table 1.

use crate::app::{CaseStudyApp, ProxyDeployment};
use crate::strategies::{evaluation_strategy, EvaluationDurations};
use bifrost_engine::{BifrostEngine, EngineConfig};
use bifrost_metrics::{SharedMetricStore, SummaryStats};
use bifrost_simnet::{SimRng, SimTime};
use bifrost_workload::{LoadProfile, PhaseWindow, ResponseRecorder};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// The three deployment variations compared by the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Variant {
    /// No middleware deployed.
    Baseline,
    /// Proxies deployed, no strategy running.
    Inactive,
    /// Proxies deployed, the release strategy executing.
    Active,
}

impl Variant {
    /// All variants in presentation order.
    pub const ALL: [Variant; 3] = [Variant::Baseline, Variant::Inactive, Variant::Active];

    /// The label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Baseline => "baseline",
            Variant::Inactive => "inactive",
            Variant::Active => "active",
        }
    }
}

/// The phase timeline of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhasePlan {
    /// Seconds of ramp-up plus health-checking before the strategy starts.
    pub warmup: Duration,
    /// The phase durations.
    pub durations: EvaluationDurations,
}

impl Default for PhasePlan {
    fn default() -> Self {
        Self {
            // 30 s ramp-up + 60 s health checks, as in the paper.
            warmup: Duration::from_secs(90),
            durations: EvaluationDurations::default(),
        }
    }
}

impl PhasePlan {
    /// A compressed plan for fast tests: shorter warm-up and phases.
    pub fn compressed() -> Self {
        Self {
            warmup: Duration::from_secs(20),
            durations: EvaluationDurations {
                canary: Duration::from_secs(20),
                dark: Duration::from_secs(20),
                ab: Duration::from_secs(20),
                rollout_step: Duration::from_secs(3),
            },
        }
    }

    /// When the release strategy starts (after the warm-up).
    pub fn strategy_start(&self) -> SimTime {
        SimTime::ZERO + self.warmup
    }

    /// Total experiment duration: warm-up plus all phases plus a small
    /// drain-out margin.
    pub fn total_duration(&self) -> Duration {
        self.warmup
            + self.durations.canary
            + self.durations.dark
            + self.durations.ab
            + self.durations.rollout_step * 20
            + Duration::from_secs(10)
    }

    /// The four phase windows (relative to the experiment clock).
    pub fn windows(&self) -> Vec<PhaseWindow> {
        let start = self.strategy_start();
        let canary_end = start + self.durations.canary;
        let dark_end = canary_end + self.durations.dark;
        let ab_end = dark_end + self.durations.ab;
        let rollout_end = ab_end + self.durations.rollout_step * 20;
        vec![
            PhaseWindow::new("Canary", start, canary_end),
            PhaseWindow::new("Dark Launch", canary_end, dark_end),
            PhaseWindow::new("A/B Test", dark_end, ab_end),
            PhaseWindow::new("Gradual Rollout", ab_end, rollout_end),
        ]
    }
}

/// The outcome of one run of one variant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverheadRun {
    /// Which variant was executed.
    pub variant: Variant,
    /// The recorded response times.
    pub recorder: ResponseRecorder,
    /// The phase windows of the run.
    pub windows: Vec<PhaseWindow>,
    /// Whether the release strategy (if any) finished successfully.
    pub strategy_succeeded: Option<bool>,
}

impl OverheadRun {
    /// Per-phase summary statistics (one Table 1 column group).
    pub fn phase_summaries(&self) -> Vec<(String, Option<SummaryStats>)> {
        self.windows
            .iter()
            .map(|w| (w.name.clone(), self.recorder.summary(Some(w))))
            .collect()
    }

    /// The Figure 6 series: 3-second moving average of response times.
    pub fn moving_average(&self) -> Vec<(f64, f64)> {
        self.recorder.moving_average_series(Duration::from_secs(3))
    }

    /// Mean response time (ms) during one named phase.
    pub fn phase_mean(&self, phase: &str) -> Option<f64> {
        let window = self.windows.iter().find(|w| w.name == phase)?;
        self.recorder.mean_ms(Some(window))
    }
}

/// The end-user overhead experiment runner.
#[derive(Debug, Clone)]
pub struct OverheadExperiment {
    plan: PhasePlan,
    load: LoadProfile,
    seed: u64,
}

impl OverheadExperiment {
    /// Creates the experiment with the paper's plan and load profile.
    pub fn paper() -> Self {
        let plan = PhasePlan::default();
        let load = LoadProfile::paper_profile(plan.total_duration());
        Self {
            plan,
            load,
            seed: 42,
        }
    }

    /// Creates a compressed experiment suitable for tests and quick demos.
    pub fn compressed() -> Self {
        let plan = PhasePlan::compressed();
        let load = LoadProfile::paper_profile(plan.total_duration()).with_rate(25.0);
        Self {
            plan,
            load,
            seed: 42,
        }
    }

    /// Overrides the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The phase plan in use.
    pub fn plan(&self) -> &PhasePlan {
        &self.plan
    }

    /// Runs one variant once and returns its recorded results.
    pub fn run_variant(&self, variant: Variant) -> OverheadRun {
        let store = SharedMetricStore::new();
        let deployment = match variant {
            Variant::Baseline => ProxyDeployment::None,
            Variant::Inactive | Variant::Active => ProxyDeployment::Deployed,
        };
        let mut app = CaseStudyApp::deploy(store.clone(), deployment, self.seed);
        let topology = app.topology().clone();

        // The engine only participates in the active variant.
        let mut engine = (variant == Variant::Active).then(|| {
            let mut engine = BifrostEngine::new(EngineConfig::default());
            engine.register_store_provider("prometheus", store.clone());
            let product_proxy =
                engine.register_proxy(topology.product_service, topology.product_stable);
            let search_proxy =
                engine.register_proxy(topology.search_service, topology.search_stable);
            app.attach_proxies(Some(product_proxy), Some(search_proxy));
            let strategy = evaluation_strategy(&topology, self.plan.durations);
            let handle = engine.schedule(strategy, self.plan.strategy_start());
            (engine, handle)
        });

        // Generate the arrival plan and replay it against the application,
        // advancing the engine's virtual clock in lockstep so proxy
        // configurations change mid-run exactly as they would in production.
        let mut rng = SimRng::seeded(self.seed.wrapping_mul(31).wrapping_add(7));
        let arrivals = self.load.plan(&mut rng);
        let mut recorder = ResponseRecorder::new();
        let mut next_scrape = SimTime::from_secs(1);
        for arrival in arrivals.arrivals() {
            if let Some((engine, _)) = engine.as_mut() {
                engine.run_until(arrival.at);
            }
            while arrival.at >= next_scrape {
                app.scrape_resources(next_scrape);
                next_scrape += Duration::from_secs(1);
            }
            let record = app.handle_request(arrival.at, arrival.user, arrival.kind);
            recorder.record(record);
        }
        let end = SimTime::ZERO + self.plan.total_duration();
        let strategy_succeeded = engine.as_mut().map(|(engine, handle)| {
            engine.run_until(end);
            engine
                .report(*handle)
                .map(|r| r.succeeded())
                .unwrap_or(false)
        });

        OverheadRun {
            variant,
            recorder,
            windows: self.plan.windows(),
            strategy_succeeded,
        }
    }

    /// Runs all three variants (one repetition each).
    pub fn run_all(&self) -> Vec<OverheadRun> {
        Variant::ALL.iter().map(|v| self.run_variant(*v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_plan_windows_cover_the_strategy() {
        let plan = PhasePlan::default();
        let windows = plan.windows();
        assert_eq!(windows.len(), 4);
        assert_eq!(windows[0].name, "Canary");
        assert_eq!(windows[0].from, SimTime::from_secs(90));
        assert_eq!(windows[3].to, SimTime::from_secs(90 + 60 + 60 + 60 + 200));
        assert!(plan.total_duration() > Duration::from_secs(380));
        assert_eq!(plan.strategy_start(), SimTime::from_secs(90));
    }

    #[test]
    fn compressed_experiment_reproduces_the_overhead_ordering() {
        let experiment = OverheadExperiment::compressed();
        let baseline = experiment.run_variant(Variant::Baseline);
        let inactive = experiment.run_variant(Variant::Inactive);
        let active = experiment.run_variant(Variant::Active);

        assert!(baseline.recorder.len() > 500);
        assert_eq!(baseline.variant.label(), "baseline");
        assert!(baseline.strategy_succeeded.is_none());
        assert!(inactive.strategy_succeeded.is_none());
        assert_eq!(active.strategy_succeeded, Some(true));

        // Whole-run means: baseline < inactive; the proxy overhead is in the
        // single-digit millisecond range.
        let base_mean = baseline.recorder.mean_ms(None).unwrap();
        let inactive_mean = inactive.recorder.mean_ms(None).unwrap();
        let overhead = inactive_mean - base_mean;
        assert!(overhead > 2.0 && overhead < 15.0, "overhead {overhead}");

        // Dark launch is the most expensive active phase.
        let active_dark = active.phase_mean("Dark Launch").unwrap();
        let active_canary = active.phase_mean("Canary").unwrap();
        let active_ab = active.phase_mean("A/B Test").unwrap();
        assert!(
            active_dark > active_canary,
            "dark {active_dark} vs canary {active_canary}"
        );
        // The A/B phase benefits from load sharing: cheaper than dark launch
        // and no more expensive than the canary phase.
        assert!(active_ab < active_dark);

        // Figure 6 series exists and spans the experiment.
        let series = active.moving_average();
        assert!(series.len() > 500);
        let summaries = active.phase_summaries();
        assert_eq!(summaries.len(), 4);
        assert!(summaries.iter().all(|(_, s)| s.is_some()));
    }

    #[test]
    fn compressed_experiment_output_is_pinned() {
        // Exact request counts and whole-run means: any change to the
        // simulated cluster's RNG draws, costs or routing shows up here.
        let experiment = OverheadExperiment::compressed();
        for (variant, requests, mean_bits) in [
            (Variant::Baseline, 3373, 0x4036_978d_9a86_a048_u64),
            (Variant::Inactive, 3373, 0x403e_2bfd_9db4_5a82),
            (Variant::Active, 3373, 0x4040_5531_966d_1de7),
        ] {
            let run = experiment.run_variant(variant);
            assert_eq!(run.recorder.len(), requests, "{}", variant.label());
            let mean = run.recorder.mean_ms(None).unwrap();
            assert_eq!(
                mean.to_bits(),
                mean_bits,
                "{}: mean {mean} ms",
                variant.label()
            );
        }
    }
}
