//! Statistical evaluation of A/B tests.
//!
//! The paper's A/B phase collects business metrics for two alternatives over
//! a predefined experiment time and then *statistically evaluates* which
//! version fared better (or whether there was a significant difference at
//! all). This module provides the two classical tests that cover the
//! evaluation's needs:
//!
//! * a **two-proportion z-test** for conversion-style metrics (e.g. the
//!   fraction of buy requests that result in a sold item per variant), and
//! * **Welch's t-test** for continuous metrics (e.g. response times).
//!
//! Both report a two-sided p-value computed from a normal approximation
//! (Welch's degrees of freedom are large for the sample sizes live tests
//! collect, so the normal approximation is adequate and keeps the crate
//! dependency-free).

use serde::{Deserialize, Serialize};

/// The decision of an A/B comparison at a given significance level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AbVerdict {
    /// Variant A performed significantly better.
    AWins,
    /// Variant B performed significantly better.
    BWins,
    /// No statistically significant difference was detected.
    Inconclusive,
}

/// The outcome of a statistical comparison between two variants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AbTestResult {
    /// The point estimate for variant A (proportion or mean).
    pub estimate_a: f64,
    /// The point estimate for variant B (proportion or mean).
    pub estimate_b: f64,
    /// The difference `estimate_a - estimate_b`.
    pub difference: f64,
    /// The z-statistic (or t-statistic under the normal approximation).
    pub statistic: f64,
    /// The two-sided p-value.
    pub p_value: f64,
    /// The verdict at the significance level the test was run with.
    pub verdict: AbVerdict,
    /// The significance level used.
    pub alpha: f64,
}

/// Conversion counts of one variant: how many trials (e.g. buy requests) and
/// how many successes (e.g. completed purchases).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Conversions {
    /// Number of trials.
    pub trials: u64,
    /// Number of successes (must not exceed `trials`).
    pub successes: u64,
}

impl Conversions {
    /// Creates a conversion count, clamping successes to trials.
    pub fn new(trials: u64, successes: u64) -> Self {
        Self {
            trials,
            successes: successes.min(trials),
        }
    }

    /// The conversion rate (0 for zero trials).
    pub fn rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }
}

/// The standard normal cumulative distribution function, via the
/// Abramowitz–Stegun 7.1.26 approximation of `erf` (absolute error < 1.5e-7,
/// far below what release decisions need).
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let a1 = 0.254829592;
    let a2 = -0.284496736;
    let a3 = 1.421413741;
    let a4 = -1.453152027;
    let a5 = 1.061405429;
    let p = 0.3275911;
    let t = 1.0 / (1.0 + p * x);
    let y = 1.0 - (((((a5 * t + a4) * t) + a3) * t + a2) * t + a1) * t * (-x * x).exp();
    sign * y
}

/// Two-sided p-value for a z-statistic.
fn two_sided_p(z: f64) -> f64 {
    2.0 * (1.0 - normal_cdf(z.abs()))
}

fn verdict(difference: f64, p_value: f64, alpha: f64) -> AbVerdict {
    if p_value >= alpha || difference == 0.0 {
        AbVerdict::Inconclusive
    } else if difference > 0.0 {
        AbVerdict::AWins
    } else {
        AbVerdict::BWins
    }
}

/// Two-proportion z-test: compares the conversion rates of two variants.
///
/// Returns an inconclusive result if either variant has no trials or the
/// pooled variance is degenerate (all successes or all failures overall).
pub fn two_proportion_z_test(a: Conversions, b: Conversions, alpha: f64) -> AbTestResult {
    let p_a = a.rate();
    let p_b = b.rate();
    let difference = p_a - p_b;
    let n_a = a.trials as f64;
    let n_b = b.trials as f64;
    if a.trials == 0 || b.trials == 0 {
        return AbTestResult {
            estimate_a: p_a,
            estimate_b: p_b,
            difference,
            statistic: 0.0,
            p_value: 1.0,
            verdict: AbVerdict::Inconclusive,
            alpha,
        };
    }
    let pooled = (a.successes + b.successes) as f64 / (n_a + n_b);
    let variance = pooled * (1.0 - pooled) * (1.0 / n_a + 1.0 / n_b);
    if variance <= 0.0 {
        return AbTestResult {
            estimate_a: p_a,
            estimate_b: p_b,
            difference,
            statistic: 0.0,
            p_value: 1.0,
            verdict: AbVerdict::Inconclusive,
            alpha,
        };
    }
    let statistic = difference / variance.sqrt();
    let p_value = two_sided_p(statistic);
    AbTestResult {
        estimate_a: p_a,
        estimate_b: p_b,
        difference,
        statistic,
        p_value,
        verdict: verdict(difference, p_value, alpha),
        alpha,
    }
}

/// Welch's t-test (normal approximation): compares the means of two samples
/// with possibly unequal variances, e.g. per-variant response times. For
/// metrics where *lower is better* (latencies), interpret [`AbVerdict::AWins`]
/// as "A has the higher mean" and negate accordingly at the call site.
pub fn welch_t_test(a: &[f64], b: &[f64], alpha: f64) -> AbTestResult {
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let var = |s: &[f64], m: f64| {
        if s.len() < 2 {
            0.0
        } else {
            s.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (s.len() - 1) as f64
        }
    };
    if a.is_empty() || b.is_empty() {
        return AbTestResult {
            estimate_a: if a.is_empty() { 0.0 } else { mean(a) },
            estimate_b: if b.is_empty() { 0.0 } else { mean(b) },
            difference: 0.0,
            statistic: 0.0,
            p_value: 1.0,
            verdict: AbVerdict::Inconclusive,
            alpha,
        };
    }
    let mean_a = mean(a);
    let mean_b = mean(b);
    let difference = mean_a - mean_b;
    let se = (var(a, mean_a) / a.len() as f64 + var(b, mean_b) / b.len() as f64).sqrt();
    let (statistic, p_value) = if se <= 0.0 {
        (0.0, if difference == 0.0 { 1.0 } else { 0.0 })
    } else {
        let t = difference / se;
        (t, two_sided_p(t))
    };
    AbTestResult {
        estimate_a: mean_a,
        estimate_b: mean_b,
        difference,
        statistic,
        p_value,
        verdict: verdict(difference, p_value, alpha),
        alpha,
    }
}

/// Welch's t-test from pre-aggregated summary statistics `(mean, sd, n)`
/// instead of raw samples. The CI perf-regression gate uses this: baseline
/// benchmark reports store only per-point summaries, and the gate still
/// wants to say whether a mean shift is statistically meaningful given the
/// trial counts and spreads.
pub fn welch_from_summary(
    mean_a: f64,
    sd_a: f64,
    n_a: usize,
    mean_b: f64,
    sd_b: f64,
    n_b: usize,
    alpha: f64,
) -> AbTestResult {
    let difference = mean_a - mean_b;
    if n_a == 0 || n_b == 0 {
        return AbTestResult {
            estimate_a: mean_a,
            estimate_b: mean_b,
            difference: 0.0,
            statistic: 0.0,
            p_value: 1.0,
            verdict: AbVerdict::Inconclusive,
            alpha,
        };
    }
    let se = (sd_a * sd_a / n_a as f64 + sd_b * sd_b / n_b as f64).sqrt();
    let (statistic, p_value) = if se <= 0.0 {
        (0.0, if difference == 0.0 { 1.0 } else { 0.0 })
    } else {
        let t = difference / se;
        (t, two_sided_p(t))
    };
    AbTestResult {
        estimate_a: mean_a,
        estimate_b: mean_b,
        difference,
        statistic,
        p_value,
        verdict: verdict(difference, p_value, alpha),
        alpha,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_cdf_matches_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!(normal_cdf(6.0) > 0.999_999);
        assert!(normal_cdf(-6.0) < 1e-6);
    }

    #[test]
    fn conversions_helpers() {
        let c = Conversions::new(100, 120);
        assert_eq!(c.successes, 100);
        assert_eq!(c.rate(), 1.0);
        assert_eq!(Conversions::new(0, 0).rate(), 0.0);
        assert_eq!(Conversions::new(200, 50).rate(), 0.25);
    }

    #[test]
    fn clearly_better_variant_wins_the_z_test() {
        // 12% vs 8% conversion over 5000 trials each: a real, detectable lift.
        let a = Conversions::new(5_000, 600);
        let b = Conversions::new(5_000, 400);
        let result = two_proportion_z_test(a, b, 0.05);
        assert!(result.p_value < 0.01);
        assert_eq!(result.verdict, AbVerdict::AWins);
        assert!(result.statistic > 2.0);
        assert!((result.estimate_a - 0.12).abs() < 1e-12);

        // Swapping the variants flips the verdict.
        let flipped = two_proportion_z_test(b, a, 0.05);
        assert_eq!(flipped.verdict, AbVerdict::BWins);
    }

    #[test]
    fn small_samples_are_inconclusive() {
        // The same 12% vs 8% lift on 50 trials each is statistically invisible.
        let a = Conversions::new(50, 6);
        let b = Conversions::new(50, 4);
        let result = two_proportion_z_test(a, b, 0.05);
        assert_eq!(result.verdict, AbVerdict::Inconclusive);
        assert!(result.p_value > 0.05);
    }

    #[test]
    fn equal_rates_are_inconclusive() {
        let a = Conversions::new(1_000, 100);
        let b = Conversions::new(1_000, 100);
        let result = two_proportion_z_test(a, b, 0.05);
        assert_eq!(result.verdict, AbVerdict::Inconclusive);
        // The erf approximation carries ~1e-7 absolute error at z = 0.
        assert!((result.p_value - 1.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_inputs_are_inconclusive() {
        assert_eq!(
            two_proportion_z_test(Conversions::new(0, 0), Conversions::new(10, 5), 0.05).verdict,
            AbVerdict::Inconclusive
        );
        assert_eq!(
            two_proportion_z_test(Conversions::new(10, 0), Conversions::new(10, 0), 0.05).verdict,
            AbVerdict::Inconclusive
        );
        assert_eq!(
            two_proportion_z_test(Conversions::new(10, 10), Conversions::new(10, 10), 0.05).verdict,
            AbVerdict::Inconclusive
        );
    }

    #[test]
    fn welch_detects_mean_differences() {
        let a: Vec<f64> = (0..200).map(|i| 100.0 + (i % 10) as f64).collect();
        let b: Vec<f64> = (0..200).map(|i| 110.0 + (i % 10) as f64).collect();
        let result = welch_t_test(&a, &b, 0.05);
        assert_eq!(result.verdict, AbVerdict::BWins);
        assert!(result.p_value < 0.001);
        assert!((result.difference + 10.0).abs() < 1e-9);
    }

    #[test]
    fn welch_on_identical_or_empty_samples() {
        let a = vec![5.0, 5.0, 5.0];
        let result = welch_t_test(&a, &a, 0.05);
        assert_eq!(result.verdict, AbVerdict::Inconclusive);
        assert_eq!(welch_t_test(&[], &a, 0.05).verdict, AbVerdict::Inconclusive);
        assert_eq!(welch_t_test(&a, &[], 0.05).verdict, AbVerdict::Inconclusive);
        // Zero variance but different means → decisive.
        let b = vec![6.0, 6.0, 6.0];
        assert_eq!(welch_t_test(&a, &b, 0.05).verdict, AbVerdict::BWins);
    }

    #[test]
    fn welch_from_summary_matches_sample_test() {
        let a: Vec<f64> = (0..200).map(|i| 100.0 + (i % 10) as f64).collect();
        let b: Vec<f64> = (0..200).map(|i| 110.0 + (i % 10) as f64).collect();
        let from_samples = welch_t_test(&a, &b, 0.05);
        let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
        let sd = |s: &[f64], m: f64| {
            (s.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (s.len() - 1) as f64).sqrt()
        };
        let (ma, mb) = (mean(&a), mean(&b));
        let from_summary =
            welch_from_summary(ma, sd(&a, ma), a.len(), mb, sd(&b, mb), b.len(), 0.05);
        assert_eq!(from_summary.verdict, from_samples.verdict);
        assert!((from_summary.statistic - from_samples.statistic).abs() < 1e-9);
        assert!((from_summary.p_value - from_samples.p_value).abs() < 1e-9);
        // Degenerate inputs.
        assert_eq!(
            welch_from_summary(1.0, 0.0, 0, 2.0, 0.0, 5, 0.05).verdict,
            AbVerdict::Inconclusive
        );
        assert_eq!(
            welch_from_summary(1.0, 0.0, 5, 2.0, 0.0, 5, 0.05).verdict,
            AbVerdict::BWins
        );
    }

    #[test]
    fn welch_noise_is_usually_inconclusive() {
        // Two samples from the same distribution should mostly be
        // inconclusive at alpha = 0.01.
        let a: Vec<f64> = (0..500).map(|i| ((i * 37) % 100) as f64).collect();
        let b: Vec<f64> = (0..500).map(|i| ((i * 53 + 11) % 100) as f64).collect();
        let result = welch_t_test(&a, &b, 0.01);
        assert_eq!(result.verdict, AbVerdict::Inconclusive);
    }
}
