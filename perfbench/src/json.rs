//! The result line, hand-rolled: the repository's serde is an offline
//! stand-in, so (like `bifrost_bench::json`) the output is written by hand.

use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit of the value.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; non-finite values (a ratio over nothing) are reported as 0.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

/// Renders the final result object on one line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (index, metric) in metrics.iter().enumerate() {
        if index > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name,
            number(metric.value),
            metric.unit
        );
    }
    out.push_str("}}");
    out
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            3,
            0,
            &[
                Metric::new("sim_rps", 761_234.5, "requests/s"),
                Metric::new("peak_rss_mb", 172.0, "MiB"),
                Metric::new("nan", f64::NAN, "ratio"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"sim_rps\": {\"value\": 761234.5, \"unit\": \"requests/s\"}, \"peak_rss_mb\": {\"value\": 172.0, \"unit\": \"MiB\"}, \"nan\": {\"value\": 0.0, \"unit\": \"ratio\"}}}"
        );
    }
}
