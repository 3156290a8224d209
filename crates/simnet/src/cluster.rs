//! The cluster: one single-core VM per container.
//!
//! Mirrors the deployment of the paper's end-user overhead experiment: a
//! Docker Swarm of `n1-standard-1` VMs with one container each, requests
//! hopping between them over the cloud provider's network, and cAdvisor
//! scraping per-container resource usage into Prometheus. Here a
//! [`Cluster`] gives every container its own one-core [`CpuResource`],
//! samples the latency of each network hop, and writes utilisation and
//! memory samples into the shared metric store on every scrape.

use crate::cpu::{CpuResource, WorkReceipt};
use crate::rng::SimRng;
use crate::time::SimTime;
use bifrost_metrics::{SeriesKey, SharedMetricStore};
use std::time::Duration;

/// Fixed one-way latency of a hop between two VMs, in milliseconds.
const HOP_BASE_MS: f64 = 0.5;
/// Additional hop latency per kilobyte of payload, in milliseconds.
const HOP_PER_KB_MS: f64 = 0.01;
/// Standard deviation of the hop jitter, in milliseconds.
const HOP_JITTER_MS: f64 = 0.1;
/// Resident memory reported for every container (64 MiB).
const CONTAINER_MEMORY_BYTES: f64 = (64 * 1024 * 1024) as f64;
/// Series of per-container CPU utilisation (percent of the VM's core).
const CPU_UTILIZATION_METRIC: &str = "container_cpu_utilization";
/// Series of per-container resident memory (bytes).
const MEMORY_BYTES_METRIC: &str = "container_memory_bytes";

/// Identifies a container of a [`Cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContainerId(usize);

/// A container together with the single-core VM it runs on.
#[derive(Debug)]
struct Container {
    name: String,
    cpu: CpuResource,
    busy_since_scrape: Duration,
}

/// The simulated cluster.
#[derive(Debug)]
pub struct Cluster {
    store: SharedMetricStore,
    rng: SimRng,
    containers: Vec<Container>,
    last_scrape: SimTime,
}

impl Cluster {
    /// Creates a cluster exporting resource metrics into `store`, with
    /// network jitter drawn from a random stream seeded by `seed`.
    pub fn new(store: SharedMetricStore, seed: u64) -> Self {
        Self {
            store,
            rng: SimRng::seeded(seed),
            containers: Vec::new(),
            last_scrape: SimTime::ZERO,
        }
    }

    /// Starts a container named `name` (its `container` label) on a VM of
    /// its own with one core.
    pub fn add_container(&mut self, name: impl Into<String>) -> ContainerId {
        self.containers.push(Container {
            name: name.into(),
            cpu: CpuResource::single_core(),
            busy_since_scrape: Duration::ZERO,
        });
        ContainerId(self.containers.len() - 1)
    }

    /// Submits compute work to a container: the work queues behind earlier
    /// work on the container's core.
    ///
    /// # Panics
    ///
    /// Panics if `container` was not added to this cluster.
    pub fn execute(
        &mut self,
        container: ContainerId,
        arrival: SimTime,
        demand: Duration,
    ) -> WorkReceipt {
        let container = &mut self.containers[container.0];
        container.busy_since_scrape += demand;
        container.cpu.submit(arrival, demand)
    }

    /// The latency of one hop between two VMs carrying `payload_bytes`: a
    /// fixed base plus a per-kilobyte term, with normal jitter.
    pub fn network_hop(&mut self, payload_bytes: usize) -> Duration {
        let kb = payload_bytes as f64 / 1024.0;
        let ms = self
            .rng
            .normal(HOP_BASE_MS + HOP_PER_KB_MS * kb, HOP_JITTER_MS);
        Duration::from_secs_f64(ms.max(0.0) / 1_000.0)
    }

    /// Scrapes per-container CPU utilisation and memory into the metric store
    /// (the cAdvisor role), container by container in the order they were
    /// added. Utilisation is the container's busy time within the scrape
    /// window, in percent of its core.
    pub fn scrape_resources(&mut self, now: SimTime) {
        let window_secs = (now - self.last_scrape).as_secs_f64();
        let at = now.to_timestamp();
        for container in &mut self.containers {
            let cpu_percent = if window_secs > 0.0 {
                (container.busy_since_scrape.as_secs_f64() / window_secs * 100.0).min(100.0)
            } else {
                0.0
            };
            self.store.record_value(
                SeriesKey::new(CPU_UTILIZATION_METRIC).with_label("container", &container.name),
                at,
                cpu_percent,
            );
            self.store.record_value(
                SeriesKey::new(MEMORY_BYTES_METRIC).with_label("container", &container.name),
                at,
                CONTAINER_MEMORY_BYTES,
            );
            container.busy_since_scrape = Duration::ZERO;
        }
        self.last_scrape = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bifrost_metrics::{Aggregation, RangeQuery};

    #[test]
    fn execute_queues_work_on_the_containers_core() {
        let mut cluster = Cluster::new(SharedMetricStore::new(), 42);
        let product = cluster.add_container("product");
        let search = cluster.add_container("search");
        let a = cluster.execute(product, SimTime::ZERO, Duration::from_millis(10));
        let b = cluster.execute(product, SimTime::ZERO, Duration::from_millis(10));
        let c = cluster.execute(search, SimTime::ZERO, Duration::from_millis(10));
        assert_eq!(a.queueing_delay(), Duration::ZERO);
        assert_eq!(b.queueing_delay(), Duration::from_millis(10));
        // Every container has a VM of its own: no contention across them.
        assert_eq!(c.queueing_delay(), Duration::ZERO);
    }

    fn mean_hop_ms(cluster: &mut Cluster, bytes: usize) -> f64 {
        let n = 2_000;
        (0..n)
            .map(|_| cluster.network_hop(bytes).as_secs_f64() * 1_000.0)
            .sum::<f64>()
            / n as f64
    }

    #[test]
    fn network_hop_grows_with_payload() {
        let mut cluster = Cluster::new(SharedMetricStore::new(), 5);
        let small = mean_hop_ms(&mut cluster, 1024);
        let large = mean_hop_ms(&mut cluster, 100 * 1024);
        assert!(large > small, "{large} vs {small}");
        assert!(small >= HOP_BASE_MS - 0.05, "mean {small}");
    }

    #[test]
    fn sampled_network_hop_is_near_the_remote_constants() {
        let mut cluster = Cluster::new(SharedMetricStore::new(), 5);
        // 0.5 ms base + 0.01 ms per KiB.
        let small = mean_hop_ms(&mut cluster, 10 * 1024);
        assert!((small - 0.6).abs() < 0.1, "mean {small}");
        let large = mean_hop_ms(&mut cluster, 100 * 1024);
        assert!((large - 1.5).abs() < 0.1, "mean {large}");
    }

    #[test]
    fn scrape_exports_cpu_and_memory_series() {
        let store = SharedMetricStore::new();
        let mut cluster = Cluster::new(store.clone(), 42);
        let engine = cluster.add_container("bifrost-engine");
        let product = cluster.add_container("product");
        cluster.execute(engine, SimTime::ZERO, Duration::from_millis(500));
        cluster.execute(product, SimTime::ZERO, Duration::from_millis(100));
        cluster.scrape_resources(SimTime::from_secs(1));
        assert_eq!(store.series_count(), 4);

        let last = |metric: &str, container: &str, at: u64| {
            let query = RangeQuery::new(metric)
                .with_label("container", container)
                .aggregate(Aggregation::Last);
            store.evaluate(&query, SimTime::from_secs(at).to_timestamp())
        };
        assert_eq!(
            last(CPU_UTILIZATION_METRIC, "bifrost-engine", 2),
            Some(50.0)
        );
        assert_eq!(last(CPU_UTILIZATION_METRIC, "product", 2), Some(10.0));
        assert_eq!(
            last(MEMORY_BYTES_METRIC, "product", 2),
            Some(64.0 * 1024.0 * 1024.0)
        );

        // Second scrape window with no work → utilisation drops to zero.
        cluster.scrape_resources(SimTime::from_secs(2));
        assert_eq!(last(CPU_UTILIZATION_METRIC, "bifrost-engine", 3), Some(0.0));
    }
}
