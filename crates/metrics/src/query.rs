//! Range queries with label matchers and aggregation.
//!
//! The query surface mirrors the small subset of Prometheus that Bifrost's
//! DSL uses: select a metric by name, filter by exact label matches, take a
//! look-back window, and reduce it to a scalar with an aggregation function.

use crate::sample::{Labels, Sample, SeriesKey};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// An exact-match label matcher (`instance="search:80"`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LabelMatcher {
    key: String,
    value: String,
}

impl LabelMatcher {
    /// Creates a matcher.
    pub fn new(key: impl Into<String>, value: impl Into<String>) -> Self {
        Self {
            key: key.into(),
            value: value.into(),
        }
    }

    /// The label key.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The expected label value.
    pub fn value(&self) -> &str {
        &self.value
    }

    /// Whether a label set satisfies this matcher.
    pub fn matches(&self, labels: &Labels) -> bool {
        labels.get(&self.key).map(String::as_str) == Some(self.value.as_str())
    }
}

/// How a window of samples is reduced to a scalar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Aggregation {
    /// The most recent sample in the window.
    #[default]
    Last,
    /// Arithmetic mean of the window.
    Mean,
    /// Sum of the window.
    Sum,
    /// Maximum of the window.
    Max,
    /// Minimum of the window.
    Min,
    /// Number of samples in the window.
    Count,
    /// Increase over the window (`last − first`, clamped at 0) — the shape of
    /// a counter rate without dividing by time.
    Increase,
    /// Increase divided by the window length in seconds (per-second rate).
    Rate,
}

impl Aggregation {
    /// Applies the aggregation to a window of samples. Returns `None` for an
    /// empty window (except [`Aggregation::Count`], which yields 0).
    pub fn apply(self, samples: &[Sample], window: Duration) -> Option<f64> {
        if samples.is_empty() {
            return match self {
                Aggregation::Count => Some(0.0),
                _ => None,
            };
        }
        let values = samples.iter().map(|s| s.value);
        Some(match self {
            Aggregation::Last => samples.last().expect("non-empty").value,
            Aggregation::Mean => values.clone().sum::<f64>() / samples.len() as f64,
            Aggregation::Sum => values.clone().sum(),
            Aggregation::Max => values.clone().fold(f64::NEG_INFINITY, f64::max),
            Aggregation::Min => values.clone().fold(f64::INFINITY, f64::min),
            Aggregation::Count => samples.len() as f64,
            Aggregation::Increase => {
                let first = samples.first().expect("non-empty").value;
                let last = samples.last().expect("non-empty").value;
                (last - first).max(0.0)
            }
            Aggregation::Rate => {
                let first = samples.first().expect("non-empty").value;
                let last = samples.last().expect("non-empty").value;
                let secs = window.as_secs_f64().max(f64::EPSILON);
                (last - first).max(0.0) / secs
            }
        })
    }
}

/// A range query: metric name, label matchers, window, and aggregation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RangeQuery {
    metric: String,
    matchers: Vec<LabelMatcher>,
    window: Duration,
    aggregation: Aggregation,
}

impl RangeQuery {
    /// Creates a query selecting `metric` with no matchers, a zero window
    /// (latest sample), and [`Aggregation::Last`].
    pub fn new(metric: impl Into<String>) -> Self {
        Self {
            metric: metric.into(),
            matchers: Vec::new(),
            window: Duration::ZERO,
            aggregation: Aggregation::Last,
        }
    }

    /// Adds an exact label matcher (builder style).
    pub fn with_label(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.matchers.push(LabelMatcher::new(key, value));
        self
    }

    /// Sets the look-back window (builder style).
    pub fn over_window(mut self, window: Duration) -> Self {
        self.window = window;
        self
    }

    /// Sets the look-back window in whole seconds (builder style).
    pub fn over_window_secs(mut self, secs: u64) -> Self {
        self.window = Duration::from_secs(secs);
        self
    }

    /// Sets the aggregation (builder style).
    pub fn aggregate(mut self, aggregation: Aggregation) -> Self {
        self.aggregation = aggregation;
        self
    }

    /// The metric name.
    pub fn metric(&self) -> &str {
        &self.metric
    }

    /// The label matchers.
    pub fn matchers(&self) -> &[LabelMatcher] {
        &self.matchers
    }

    /// The look-back window.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// The aggregation.
    pub fn aggregation(&self) -> Aggregation {
        self.aggregation
    }

    /// Whether a series key is selected by this query.
    pub fn selects(&self, key: &SeriesKey) -> bool {
        key.name() == self.metric && self.matchers.iter().all(|m| m.matches(key.labels()))
    }

    /// Parses the compact Prometheus-style selector syntax used by the DSL,
    /// e.g. `request_errors{instance="search:80",version="v2"}`.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message if braces or quotes are unbalanced.
    pub fn parse_selector(selector: &str) -> Result<Self, String> {
        let selector = selector.trim();
        let (name, rest) = match selector.find('{') {
            None => (selector, None),
            Some(idx) => {
                let name = &selector[..idx];
                let rest = &selector[idx + 1..];
                let end = rest
                    .rfind('}')
                    .ok_or_else(|| format!("selector '{selector}' is missing a closing brace"))?;
                (name, Some(&rest[..end]))
            }
        };
        if name.is_empty() {
            return Err(format!("selector '{selector}' has an empty metric name"));
        }
        let mut query = RangeQuery::new(name.trim());
        if let Some(labels) = rest {
            for pair in labels.split(',').filter(|p| !p.trim().is_empty()) {
                let (key, value) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("label pair '{pair}' is missing '='"))?;
                let value = value.trim().trim_matches('"');
                query = query.with_label(key.trim(), value);
            }
        }
        Ok(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::TimestampMs;

    fn samples(values: &[(u64, f64)]) -> Vec<Sample> {
        values
            .iter()
            .map(|(t, v)| Sample::new(TimestampMs::from_secs(*t), *v))
            .collect()
    }

    #[test]
    fn matcher_matches_exact_label() {
        let mut labels = Labels::new();
        labels.insert("instance".into(), "search:80".into());
        let matcher = LabelMatcher::new("instance", "search:80");
        assert!(matcher.matches(&labels));
        assert!(!LabelMatcher::new("instance", "product:80").matches(&labels));
        assert!(!LabelMatcher::new("job", "search").matches(&labels));
        assert_eq!(matcher.key(), "instance");
        assert_eq!(matcher.value(), "search:80");
    }

    #[test]
    fn aggregations_on_window() {
        let s = samples(&[(10, 2.0), (20, 6.0), (30, 4.0)]);
        let w = Duration::from_secs(30);
        assert_eq!(Aggregation::Last.apply(&s, w), Some(4.0));
        assert_eq!(Aggregation::Mean.apply(&s, w), Some(4.0));
        assert_eq!(Aggregation::Sum.apply(&s, w), Some(12.0));
        assert_eq!(Aggregation::Max.apply(&s, w), Some(6.0));
        assert_eq!(Aggregation::Min.apply(&s, w), Some(2.0));
        assert_eq!(Aggregation::Count.apply(&s, w), Some(3.0));
        assert_eq!(Aggregation::Increase.apply(&s, w), Some(2.0));
        assert_eq!(Aggregation::Rate.apply(&s, w), Some(2.0 / 30.0));
    }

    #[test]
    fn aggregations_on_empty_window() {
        let w = Duration::from_secs(10);
        assert_eq!(Aggregation::Last.apply(&[], w), None);
        assert_eq!(Aggregation::Mean.apply(&[], w), None);
        assert_eq!(Aggregation::Count.apply(&[], w), Some(0.0));
    }

    #[test]
    fn increase_clamps_counter_resets() {
        let s = samples(&[(10, 100.0), (20, 3.0)]);
        assert_eq!(
            Aggregation::Increase.apply(&s, Duration::from_secs(10)),
            Some(0.0)
        );
    }

    #[test]
    fn query_selects_series() {
        let query = RangeQuery::new("request_errors").with_label("instance", "search:80");
        let matching = SeriesKey::new("request_errors").with_label("instance", "search:80");
        let extra_labels = SeriesKey::new("request_errors")
            .with_label("instance", "search:80")
            .with_label("version", "v2");
        let wrong_name = SeriesKey::new("request_total").with_label("instance", "search:80");
        let wrong_label = SeriesKey::new("request_errors").with_label("instance", "product:80");
        assert!(query.selects(&matching));
        assert!(query.selects(&extra_labels));
        assert!(!query.selects(&wrong_name));
        assert!(!query.selects(&wrong_label));
    }

    #[test]
    fn parse_selector_with_and_without_labels() {
        let q = RangeQuery::parse_selector("request_errors{instance=\"search:80\"}").unwrap();
        assert_eq!(q.metric(), "request_errors");
        assert_eq!(q.matchers().len(), 1);
        assert_eq!(q.matchers()[0].value(), "search:80");

        let q = RangeQuery::parse_selector("up").unwrap();
        assert_eq!(q.metric(), "up");
        assert!(q.matchers().is_empty());

        let q = RangeQuery::parse_selector("m{a=\"1\", b=\"2\"}").unwrap();
        assert_eq!(q.matchers().len(), 2);
    }

    #[test]
    fn parse_selector_rejects_malformed_input() {
        assert!(RangeQuery::parse_selector("").is_err());
        assert!(RangeQuery::parse_selector("m{a=\"1\"").is_err());
        assert!(RangeQuery::parse_selector("{a=\"1\"}").is_err());
        assert!(RangeQuery::parse_selector("m{a}").is_err());
    }

    #[test]
    fn builder_setters() {
        let q = RangeQuery::new("m")
            .over_window_secs(30)
            .aggregate(Aggregation::Sum);
        assert_eq!(q.window(), Duration::from_secs(30));
        assert_eq!(q.aggregation(), Aggregation::Sum);
        let q = RangeQuery::new("m").over_window(Duration::from_millis(500));
        assert_eq!(q.window(), Duration::from_millis(500));
    }
}
