//! Summary statistics and moving averages used by the evaluation harness.
//!
//! Table 1 of the paper reports mean, min, max, standard deviation, and
//! median of response times per release phase; Figure 6 plots a 3-second
//! moving average. Both computations live here so the workload generator,
//! benches, and experiment binaries share one implementation.

use serde::{Deserialize, Serialize};

/// Basic summary statistics of a sample of `f64` values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SummaryStats {
    /// Number of values.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Sample standard deviation (n − 1 denominator; 0 for a single value).
    pub sd: f64,
    /// Median (mean of the two central values for even counts).
    pub median: f64,
}

impl SummaryStats {
    /// Computes summary statistics. Returns `None` for an empty slice.
    pub fn compute(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        Some(Self::with_sorted(values, &sorted_copy(values)))
    }

    /// The statistics of `values`, given the same values sorted.
    fn with_sorted(values: &[f64], sorted: &[f64]) -> Self {
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let sd = if count > 1 {
            let variance =
                values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (count - 1) as f64;
            variance.sqrt()
        } else {
            0.0
        };
        let median = if count % 2 == 1 {
            sorted[count / 2]
        } else {
            (sorted[count / 2 - 1] + sorted[count / 2]) / 2.0
        };
        Self {
            count,
            mean,
            min,
            max,
            sd,
            median,
        }
    }

    /// Computes the given percentile (0–100) of a sample using
    /// nearest-rank interpolation. Returns `None` for an empty slice.
    pub fn percentile(values: &[f64], percentile: f64) -> Option<f64> {
        if values.is_empty() {
            return None;
        }
        let sorted = sorted_copy(values);
        Some(sorted[nearest_rank(sorted.len(), percentile)])
    }
}

/// The index of the `percentile` (0–100) in a sorted sample of `len > 0`
/// values, by nearest rank: the rank [`SummaryStats::percentile`] reads.
pub(crate) fn nearest_rank(len: usize, percentile: f64) -> usize {
    let rank = (percentile / 100.0 * (len - 1) as f64).round() as usize;
    rank.min(len - 1)
}

/// The order every percentile here sorts by. Panics on `NaN`.
pub(crate) fn sample_order(a: &f64, b: &f64) -> std::cmp::Ordering {
    a.partial_cmp(b).expect("finite values")
}

fn sorted_copy(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(sample_order);
    sorted
}

/// Summary of a sample distribution including tail percentiles — the
/// aggregation the multi-trial benchmark runner reports per experiment
/// point (mean / p50 / p95 / standard deviation across trials).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DistributionSummary {
    /// Number of values.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator; 0 for a single value).
    pub sd: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (50th percentile, nearest-rank).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
}

impl DistributionSummary {
    /// Computes the summary. Returns `None` for an empty slice.
    pub fn compute(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let sorted = sorted_copy(values);
        let base = SummaryStats::with_sorted(values, &sorted);
        Some(Self {
            count: base.count,
            mean: base.mean,
            sd: base.sd,
            min: base.min,
            max: base.max,
            p50: sorted[nearest_rank(sorted.len(), 50.0)],
            p95: sorted[nearest_rank(sorted.len(), 95.0)],
        })
    }
}

/// Computes a centred-at-the-end moving average over `(time, value)` pairs:
/// for every input point, the output value is the mean of all values whose
/// time lies within `window` *before* (and including) that point. This is the
/// aggregation used to produce Figure 6 ("moving average with a window size
/// of 3 seconds").
pub fn moving_average(points: &[(f64, f64)], window: f64) -> Vec<(f64, f64)> {
    let mut result = Vec::with_capacity(points.len());
    let mut start = 0usize;
    let mut sum = 0.0;
    for (i, &(t, v)) in points.iter().enumerate() {
        sum += v;
        while points[start].0 < t - window {
            sum -= points[start].1;
            start += 1;
        }
        let count = i - start + 1;
        result.push((t, sum / count as f64));
    }
    result
}

/// Buckets `(time, value)` pairs into fixed-width time bins and averages the
/// values per bin, producing a compact series for plotting (used by the
/// experiment report printers).
pub fn bin_average(points: &[(f64, f64)], bin_width: f64) -> Vec<(f64, f64)> {
    if points.is_empty() || bin_width <= 0.0 {
        return Vec::new();
    }
    let mut bins: std::collections::BTreeMap<i64, (f64, usize)> = std::collections::BTreeMap::new();
    for &(t, v) in points {
        let bin = (t / bin_width).floor() as i64;
        let entry = bins.entry(bin).or_insert((0.0, 0));
        entry.0 += v;
        entry.1 += 1;
    }
    bins.into_iter()
        .map(|(bin, (sum, count))| (bin as f64 * bin_width, sum / count as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_slice_is_none() {
        assert!(SummaryStats::compute(&[]).is_none());
        assert!(SummaryStats::percentile(&[], 50.0).is_none());
    }

    #[test]
    fn summary_of_single_value() {
        let s = SummaryStats::compute(&[5.0]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.sd, 0.0);
        assert_eq!(s.median, 5.0);
    }

    #[test]
    fn summary_matches_hand_computation() {
        let values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = SummaryStats::compute(&values).unwrap();
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        // Sample sd of this classic example is sqrt(32/7).
        assert!((s.sd - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.median, 4.5);
    }

    #[test]
    fn median_of_odd_count() {
        let s = SummaryStats::compute(&[9.0, 1.0, 5.0]).unwrap();
        assert_eq!(s.median, 5.0);
    }

    #[test]
    fn percentiles() {
        let values: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(SummaryStats::percentile(&values, 0.0), Some(1.0));
        assert_eq!(SummaryStats::percentile(&values, 100.0), Some(100.0));
        let p50 = SummaryStats::percentile(&values, 50.0).unwrap();
        assert!((p50 - 50.0).abs() <= 1.0);
        let p95 = SummaryStats::percentile(&values, 95.0).unwrap();
        assert!((p95 - 95.0).abs() <= 1.0);
    }

    #[test]
    fn distribution_summary_reports_tail_percentiles() {
        let values: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        let d = DistributionSummary::compute(&values).unwrap();
        assert_eq!(d.count, 100);
        assert!((d.mean - 50.5).abs() < 1e-12);
        assert_eq!(d.min, 1.0);
        assert_eq!(d.max, 100.0);
        assert!((d.p50 - 50.0).abs() <= 1.0);
        assert!((d.p95 - 95.0).abs() <= 1.0);
        assert!(d.sd > 28.0 && d.sd < 30.0);
        assert!(DistributionSummary::compute(&[]).is_none());
        let single = DistributionSummary::compute(&[3.0]).unwrap();
        assert_eq!(single.p50, 3.0);
        assert_eq!(single.p95, 3.0);
        assert_eq!(single.sd, 0.0);
    }

    #[test]
    fn moving_average_smooths_series() {
        let points: Vec<(f64, f64)> = vec![(0.0, 10.0), (1.0, 20.0), (2.0, 30.0), (5.0, 40.0)];
        let avg = moving_average(&points, 3.0);
        assert_eq!(avg.len(), 4);
        assert_eq!(avg[0].1, 10.0);
        assert_eq!(avg[1].1, 15.0);
        assert_eq!(avg[2].1, 20.0);
        // At t=5 with window 3, only points at t >= 2 are included.
        assert_eq!(avg[3].1, 35.0);
    }

    #[test]
    fn moving_average_of_constant_series_is_constant() {
        let points: Vec<(f64, f64)> = (0..100).map(|i| (i as f64 * 0.1, 22.5)).collect();
        for (_, v) in moving_average(&points, 3.0) {
            assert!((v - 22.5).abs() < 1e-12);
        }
    }

    #[test]
    fn bin_average_groups_points() {
        let points = vec![(0.1, 10.0), (0.4, 20.0), (1.2, 30.0), (2.9, 50.0)];
        let bins = bin_average(&points, 1.0);
        assert_eq!(bins.len(), 3);
        assert_eq!(bins[0], (0.0, 15.0));
        assert_eq!(bins[1], (1.0, 30.0));
        assert_eq!(bins[2], (2.0, 50.0));
        assert!(bin_average(&[], 1.0).is_empty());
        assert!(bin_average(&points, 0.0).is_empty());
    }
}
