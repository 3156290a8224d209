//! Deterministic random number generation for the simulation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A seeded random source used for jitter, traffic sampling, and synthetic
/// workloads. Wrapping [`StdRng`] behind a small facade keeps call sites
/// independent of the `rand` API and makes every experiment reproducible.
/// A clone continues the same sequence from the same point, which is how a
/// seeded generator is checkpointed and later resumed.
#[derive(Clone)]
pub struct SimRng {
    rng: StdRng,
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a seed.
    pub fn seeded(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed the generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A uniform draw in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.rng.gen()
    }

    /// A uniform draw in `[low, high)` (returns `low` if the range is empty).
    pub fn range(&mut self, low: f64, high: f64) -> f64 {
        if high <= low {
            return low;
        }
        self.rng.gen_range(low..high)
    }

    /// A draw from a (clamped-at-zero) normal distribution approximated by
    /// the sum of uniform draws (Irwin–Hall with 12 terms), which avoids an
    /// extra dependency while being close enough for latency jitter.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let sum: f64 = (0..12).map(|_| self.uniform()).sum();
        (mean + (sum - 6.0) * std_dev).max(0.0)
    }

    /// An exponentially distributed draw with the given mean (used for
    /// open-loop arrival processes).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u: f64 = self.uniform().max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// A Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// A uniform integer draw in `[0, n)` (returns 0 when `n == 0`).
    pub fn index(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            self.rng.gen_range(0..n)
        }
    }
}

impl fmt::Debug for SimRng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimRng").field("seed", &self.seed).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::seeded(42);
        let mut b = SimRng::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
        assert_eq!(a.seed(), 42);
    }

    #[test]
    fn a_clone_resumes_the_sequence() {
        let mut rng = SimRng::seeded(42);
        rng.uniform();
        let mut resumed = rng.clone();
        for _ in 0..100 {
            assert_eq!(rng.uniform().to_bits(), resumed.uniform().to_bits());
        }
        assert_eq!(resumed.seed(), 42);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seeded(1);
        let mut b = SimRng::seeded(2);
        let same = (0..20).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 20);
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut rng = SimRng::seeded(7);
        for _ in 0..1_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn range_respects_bounds_and_degenerates() {
        let mut rng = SimRng::seeded(7);
        for _ in 0..1_000 {
            let v = rng.range(5.0, 10.0);
            assert!((5.0..10.0).contains(&v));
        }
        assert_eq!(rng.range(3.0, 3.0), 3.0);
        assert_eq!(rng.range(9.0, 1.0), 9.0);
    }

    #[test]
    fn normal_is_clamped_and_centred() {
        let mut rng = SimRng::seeded(11);
        let n = 5_000;
        let mean = (0..n).map(|_| rng.normal(20.0, 2.0)).sum::<f64>() / n as f64;
        assert!((mean - 20.0).abs() < 0.5, "mean {mean}");
        for _ in 0..100 {
            assert!(rng.normal(0.0, 10.0) >= 0.0);
        }
    }

    #[test]
    fn exponential_has_requested_mean() {
        let mut rng = SimRng::seeded(13);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.exponential(30.0)).sum::<f64>() / n as f64;
        assert!((mean - 30.0).abs() < 1.5, "mean {mean}");
    }

    #[test]
    fn chance_matches_probability() {
        let mut rng = SimRng::seeded(17);
        let n = 20_000;
        let hits = (0..n).filter(|_| rng.chance(0.25)).count();
        let p = hits as f64 / n as f64;
        assert!((p - 0.25).abs() < 0.02, "p {p}");
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(rng.chance(5.0));
    }

    #[test]
    fn index_bounds() {
        let mut rng = SimRng::seeded(19);
        assert_eq!(rng.index(0), 0);
        for _ in 0..100 {
            assert!(rng.index(7) < 7);
        }
    }
}
