//! The untraced run: enact a workload repeatedly for the measuring time and
//! report the end-to-end metrics.
//!
//! One *step* is one `BifrostEngine::run_until` call at a virtual-second
//! boundary — every traffic tick, check and transition due in that second.
//! Each enactment ("rep") is built from scratch and stepped, then built
//! again (and dropped) until [`SETUPS_PER_REP`] set-ups have been timed.
//! After every step the [`HostProbe`] is timed; the rep's slowdown scales its wall times to the reference host
//! speed (see [`crate::probe`]). A run reports the median over its reps of
//! each per-rep figure.

use crate::gate::{check_outcome, check_plan_lengths, Outcome, ShareLedger};
use crate::probe::{at_reference, HostProbe, REFERENCE_PROBE_S, TAIL_ELASTICITY};
use crate::workloads::{build, Scenario, Workload, WorkloadSpec};
use bifrost_core::seed::Seed;
use bifrost_simnet::SimTime;
use std::time::{Duration, Instant};

/// Set-ups timed per rep. Set-up is a short burst of allocation and
/// random-number work and the noisiest timing; more samples per run steady
/// its median.
pub const SETUPS_PER_REP: usize = 3;

/// One enactment of a workload.
#[derive(Debug)]
pub struct Rep {
    /// Wall seconds from the start of the workload to its first step, per
    /// set-up (the first one was stepped).
    pub setups_s: Vec<f64>,
    /// Wall seconds of each step, in virtual-time order.
    pub steps_s: Vec<f64>,
    /// Mean probe time over the rep's steps ÷ [`REFERENCE_PROBE_S`]: how
    /// much slower than the reference the host ran during the rep.
    pub slowdown: f64,
    /// The process's peak resident set (MiB) once the stepped enactment
    /// finished, before the extra set-ups.
    pub peak_rss_mb: f64,
    /// What the enactment produced.
    pub outcome: Outcome,
    /// Correctness violations found in this rep.
    pub failures: Vec<String>,
}

/// Times one set-up of `workload`: spec, proxies, strategies, traffic.
fn set_up(workload: Workload, scale: f64, seed: Seed) -> (WorkloadSpec, Scenario, f64) {
    let start = Instant::now();
    let spec = workload.spec(scale);
    let scenario = build(&spec, seed);
    let setup_s = start.elapsed().as_secs_f64();
    (spec, scenario, setup_s)
}

/// Builds one enactment and steps it, timing `probe` after every step, and
/// checks the outcome; then times [`SETUPS_PER_REP`] − 1 more set-ups.
pub fn run_rep(workload: Workload, scale: f64, seed: Seed, probe: &mut HostProbe) -> Rep {
    let (spec, mut scenario, setup_s) = set_up(workload, scale, seed);
    let mut setups_s = vec![setup_s];

    let mut ledger = ShareLedger::new(&scenario);
    let mut steps_s = Vec::with_capacity(spec.virtual_secs as usize);
    let mut probe_s = 0.0;
    for second in 1..=spec.virtual_secs {
        let step = Instant::now();
        scenario.engine.run_until(SimTime::from_secs(second));
        steps_s.push(step.elapsed().as_secs_f64());
        probe_s += probe.time();
        ledger.observe(&scenario);
    }
    let slowdown = probe_s / spec.virtual_secs as f64 / REFERENCE_PROBE_S;

    let outcome = Outcome::collect(&scenario);
    let mut failures = Vec::new();
    check_outcome(&scenario, &outcome, &mut failures);
    ledger.check(&mut failures);
    drop(scenario);
    let peak_rss_mb = peak_rss_mb();

    // The extra set-ups come after the stepped one, so they do not raise
    // the peak of the first rep.
    while setups_s.len() < SETUPS_PER_REP {
        let (_, scenario, setup_s) = set_up(workload, scale, seed);
        setups_s.push(setup_s);
        drop(scenario);
    }
    Rep {
        setups_s,
        steps_s,
        slowdown,
        peak_rss_mb,
        outcome,
        failures,
    }
}

/// The result of an untraced run.
#[derive(Debug)]
pub struct Measurement {
    /// Every rep, in run order.
    pub reps: Vec<Rep>,
    /// Peak resident set after the first rep's stepped enactment, in MiB.
    /// Later set-ups and reps reuse memory the allocator kept from earlier
    /// ones, so the process peak after them depends on how many ran; the
    /// first enactment's peak is the footprint of one enactment in a fresh
    /// process (plus the probe's fixed table).
    pub peak_rss_mb: f64,
    /// Violations across all reps, plus plan-length and reproducibility
    /// checks.
    pub failures: Vec<String>,
}

impl Rep {
    /// Simulated requests per wall second of stepping.
    pub fn sim_rps(&self) -> f64 {
        self.outcome.requests() as f64 / self.steps_s.iter().sum::<f64>()
    }

    /// The `q`-quantile of this rep's step times, in milliseconds.
    pub fn step_ms(&self, q: f64) -> f64 {
        let mut steps: Vec<f64> = self.steps_s.iter().map(|s| s * 1_000.0).collect();
        steps.sort_by(f64::total_cmp);
        quantile(&steps, q)
    }

    /// The median of this rep's set-up times, in seconds.
    pub fn setup_s(&self) -> f64 {
        let mut setups = self.setups_s.clone();
        setups.sort_by(f64::total_cmp);
        quantile(&setups, 0.5)
    }
}

impl Measurement {
    /// The median over reps of a per-rep figure. Host noise on a shared
    /// machine comes in stretches; a median over reps keeps one slow rep
    /// from moving the run's figure.
    pub fn median_over_reps(&self, figure: impl Fn(&Rep) -> f64) -> f64 {
        let mut values: Vec<f64> = self.reps.iter().map(figure).collect();
        values.sort_by(f64::total_cmp);
        quantile(&values, 0.5)
    }

    /// The median over every set-up of the run, each at the reference host
    /// speed under its rep's slowdown.
    pub fn setup_s(&self) -> f64 {
        let mut setups: Vec<f64> = self
            .reps
            .iter()
            .flat_map(|r| {
                r.setups_s
                    .iter()
                    .map(|s| at_reference(*s, r.slowdown, TAIL_ELASTICITY))
            })
            .collect();
        setups.sort_by(f64::total_cmp);
        quantile(&setups, 0.5)
    }

    /// Errored, shed and timed-out requests over requests attempted; 1.0
    /// when any correctness check failed.
    pub fn error_frac(&self) -> f64 {
        if !self.failures.is_empty() {
            return 1.0;
        }
        let requests: u64 = self.reps.iter().map(|r| r.outcome.requests()).sum();
        let errors: u64 = self.reps.iter().map(|r| r.outcome.errors()).sum();
        errors as f64 / requests as f64
    }
}

/// Fewest reps a run makes: later reps confirm the first one's outcome
/// digest, and an odd count gives the median over reps a middle value.
pub const MIN_REPS: usize = 3;

/// Enacts `workload` until `budget` has elapsed, at least [`MIN_REPS`]
/// times.
pub fn measure(workload: Workload, scale: f64, seed: Seed, budget: Duration) -> Measurement {
    let start = Instant::now();
    let mut probe = HostProbe::new();
    let mut reps = vec![run_rep(workload, scale, seed, &mut probe)];
    let peak_rss_mb = reps[0].peak_rss_mb;
    while reps.len() < MIN_REPS || start.elapsed() < budget {
        reps.push(run_rep(workload, scale, seed, &mut probe));
    }
    let mut failures: Vec<String> = reps.iter().flat_map(|r| r.failures.clone()).collect();
    let first = &reps[0].outcome;
    for (index, rep) in reps.iter().enumerate().skip(1) {
        if rep.outcome.digest() != first.digest() {
            failures.push(format!(
                "rep {index} digest {:016x} differs from rep 0 digest {:016x} under the same seed",
                rep.outcome.digest(),
                first.digest()
            ));
        }
    }
    check_plan_lengths(&workload.spec(scale), seed, first, &mut failures);
    Measurement {
        reps,
        peak_rss_mb,
        failures,
    }
}

/// The `q`-quantile of `sorted`, interpolating linearly between ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
