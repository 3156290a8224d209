//! Deterministic seeding of experiments and trials.
//!
//! Every stochastic layer of the workspace — the workload generator's
//! arrival process, the case-study application's latency jitter, the
//! engine's (future) tie-breaking — draws from a [`Seed`]. A multi-trial
//! experiment derives one seed per trial with the transparent scheme
//! `base_seed + trial_index`, so any single trial of a parallel run can be
//! reproduced in isolation by handing the derived seed to a 1-thread run.
//!
//! [`TrialConfig`] bundles the base seed with a trial's index; it is the
//! value the `bifrost-bench` trial runner passes to each trial closure.

use crate::hash;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A deterministic RNG seed threaded through every seedable layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Seed(u64);

impl Seed {
    /// The workspace-wide default seed (the historical `42` every harness
    /// used before seeds became explicit).
    pub const DEFAULT: Seed = Seed(42);

    /// Creates a seed from a raw value.
    pub const fn new(value: u64) -> Self {
        Self(value)
    }

    /// The raw seed value (what `SimRng::seeded` consumes).
    pub const fn value(self) -> u64 {
        self.0
    }

    /// The seed of trial `trial_index` under this base seed. The scheme is
    /// deliberately the simplest possible — `base + index`, wrapping — so a
    /// trial printed in a report can be re-run by hand without consulting
    /// any mixing function.
    pub const fn for_trial(self, trial_index: u64) -> Seed {
        Seed(self.0.wrapping_add(trial_index))
    }

    /// A decorrelated sub-seed for a named stream (e.g. `"workload"` vs
    /// `"latency-jitter"`), so layers seeded from the same trial seed do not
    /// consume identical random sequences. Uses FNV-1a over the label,
    /// folded into the seed.
    pub fn stream(self, label: &str) -> Seed {
        Seed(self.0 ^ hash::fnv1a(label.as_bytes()))
    }
}

impl Default for Seed {
    fn default() -> Self {
        Self::DEFAULT
    }
}

impl From<u64> for Seed {
    fn from(value: u64) -> Self {
        Self(value)
    }
}

impl fmt::Display for Seed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The identity of one trial within a multi-trial experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TrialConfig {
    /// The experiment's base seed.
    pub base_seed: Seed,
    /// This trial's index (0-based).
    pub trial_index: u64,
    /// Total number of trials in the experiment (for reporting).
    pub trials: u64,
}

impl TrialConfig {
    /// Creates the configuration of trial `trial_index` of `trials` under
    /// `base_seed`.
    pub const fn new(base_seed: Seed, trial_index: u64, trials: u64) -> Self {
        Self {
            base_seed,
            trial_index,
            trials,
        }
    }

    /// The derived seed of this trial: `base_seed + trial_index`.
    pub const fn seed(&self) -> Seed {
        self.base_seed.for_trial(self.trial_index)
    }
}

impl fmt::Display for TrialConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trial {}/{} (seed {})",
            self.trial_index + 1,
            self.trials,
            self.seed()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_seeds_are_pinned() {
        assert_eq!(Seed::new(0).stream("").value(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(
            Seed::new(7).stream("workload").value(),
            0x5e9e_5100_67ad_e45b
        );
        assert_eq!(
            Seed::new(7).stream("latency-jitter").value(),
            0x25a2_b5aa_66f3_74cd
        );
    }

    #[test]
    fn trial_seeds_are_base_plus_index() {
        let base = Seed::new(100);
        assert_eq!(base.for_trial(0), Seed::new(100));
        assert_eq!(base.for_trial(7), Seed::new(107));
        assert_eq!(Seed::new(u64::MAX).for_trial(2), Seed::new(1));
    }

    #[test]
    fn trial_config_derives_its_seed() {
        let config = TrialConfig::new(Seed::new(1_000), 3, 8);
        assert_eq!(config.seed(), Seed::new(1_003));
        assert_eq!(config.to_string(), "trial 4/8 (seed 1003)");
    }

    #[test]
    fn streams_decorrelate_but_stay_deterministic() {
        let seed = Seed::new(42);
        assert_eq!(seed.stream("workload"), seed.stream("workload"));
        assert_ne!(seed.stream("workload"), seed.stream("jitter"));
        assert_ne!(seed.stream("workload"), seed);
    }

    #[test]
    fn default_and_conversions() {
        assert_eq!(Seed::default(), Seed::new(42));
        assert_eq!(Seed::from(9).value(), 9);
        assert_eq!(Seed::new(5).to_string(), "5");
    }
}
