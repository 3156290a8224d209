//! # bifrost-metrics
//!
//! The monitoring-data substrate (`Ω` in the formal model) of the Bifrost
//! reproduction: an in-process time-series store with a Prometheus-flavoured
//! query interface, a provider registry the engine resolves check queries
//! against, and summary statistics used by the evaluation harness.
//!
//! The paper's prototype queries Prometheus (fed by cAdvisor and the
//! application services). This crate substitutes that external dependency
//! with a deterministic, simulation-friendly store: services and the
//! simulator push [`Sample`]s, checks pull scalars through
//! [`MetricsProvider`] implementations.
//!
//! ```
//! use bifrost_metrics::prelude::*;
//!
//! let store = SharedMetricStore::new();
//! store.record(
//!     SeriesKey::new("request_errors").with_label("instance", "search:80"),
//!     Sample::new(TimestampMs::from_secs(10), 2.0),
//! );
//! let query = RangeQuery::new("request_errors")
//!     .with_label("instance", "search:80")
//!     .over_window_secs(60)
//!     .aggregate(Aggregation::Sum);
//! let value = store.evaluate(&query, TimestampMs::from_secs(30));
//! assert_eq!(value, Some(2.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod provider;
pub mod query;
pub mod sample;
pub mod series;
pub mod significance;
pub mod stats;
pub mod store;
pub mod traffic;

pub use provider::{MetricsProvider, ProviderRegistry, StoreProvider};
pub use query::{Aggregation, LabelMatcher, RangeQuery};
pub use sample::{Labels, Sample, SeriesKey, TimestampMs};
pub use series::TimeSeries;
pub use significance::{
    two_proportion_z_test, welch_from_summary, welch_t_test, AbTestResult, AbVerdict, Conversions,
};
pub use stats::{bin_average, moving_average, DistributionSummary, SummaryStats};
pub use store::{MetricStore, SharedMetricStore};
pub use traffic::TrafficSeriesRecorder;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::provider::{MetricsProvider, ProviderRegistry, StoreProvider};
    pub use crate::query::{Aggregation, LabelMatcher, RangeQuery};
    pub use crate::sample::{Labels, Sample, SeriesKey, TimestampMs};
    pub use crate::series::TimeSeries;
    pub use crate::significance::{
        two_proportion_z_test, welch_from_summary, welch_t_test, AbTestResult, AbVerdict,
        Conversions,
    };
    pub use crate::stats::{bin_average, moving_average, DistributionSummary, SummaryStats};
    pub use crate::store::{MetricStore, SharedMetricStore};
    pub use crate::traffic::TrafficSeriesRecorder;
}
