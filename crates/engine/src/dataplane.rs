//! The parallel data plane: every attached traffic stream, the per-service
//! proxy-VM CPUs and the backend servers, stepped one run of traffic ticks
//! at a time.
//!
//! The engine batches consecutive `TrafficTick` events into a *run* and
//! hands it to [`DataPlane::step`] before it handles the next control
//! event (see [`crate::traffic`] for why that preserves the serial
//! semantics). The run is split into *partitions*: all streams of one
//! service share a partition, and so do services whose streams record
//! under one `service` label. A partition's ticks touch only its own
//! streams, CPUs, backend servers and proxies, and they write only its
//! own metric series, so partitions replay on separate workers, each in
//! queue order, and the outcome does not depend on the worker count.

use crate::backends::{BackendFleet, ServiceBackends};
use crate::proxies::{ProxyFleet, ProxyHandle};
use crate::traffic::{TrafficStats, TrafficStream};
use bifrost_core::ids::ServiceId;
use bifrost_simnet::{CpuResource, SimTime};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// One popped traffic tick: `(stream index, batch index, tick time)`.
pub(crate) type Tick = (usize, usize, SimTime);

/// The arrivals a run needs per worker thread. Routing this many takes
/// several times as long as spawning a thread, so small runs (sparse
/// traffic, dense control events) stay on the caller's thread: on a
/// 2-vCPU host, a six-service `bifrost run --traffic 100` with a check
/// every second took 13% longer than the serial loop when every run
/// spawned, and matched it with this cap.
const REQUESTS_PER_WORKER: usize = 1_024;

/// The engine's traffic state, partitioned for parallel stepping.
#[derive(Debug, Default)]
pub(crate) struct DataPlane {
    streams: Vec<TrafficStream>,
    /// The partition of each stream, named by its lowest stream index.
    partition: Vec<usize>,
    /// One proxy-VM CPU per service carrying traffic: streams targeting the
    /// same service contend for the same cores.
    cpus: BTreeMap<ServiceId, CpuResource>,
    /// The queued backend servers: every stream's primary and shadow
    /// dispatches of a version charge the same replicas.
    backends: BackendFleet,
    /// A worker count that replaces the host's parallelism in tests.
    #[cfg(test)]
    pub(crate) workers: Option<usize>,
}

impl DataPlane {
    /// Adds a stream and returns its index. The first stream of a service
    /// sizes that service's proxy-VM CPU.
    pub(crate) fn attach(&mut self, stream: TrafficStream) -> usize {
        let service = stream.service();
        self.cpus
            .entry(service)
            .or_insert_with(|| CpuResource::new(stream.cores()));
        self.backends.service_mut(service);
        self.streams.push(stream);
        self.repartition();
        self.streams.len() - 1
    }

    /// The number of attached streams.
    pub(crate) fn len(&self) -> usize {
        self.streams.len()
    }

    /// The statistics of stream `index`.
    pub(crate) fn stats(&self, index: usize) -> Option<&TrafficStats> {
        self.streams.get(index).map(TrafficStream::stats)
    }

    /// The running backend servers.
    pub(crate) fn backends(&self) -> &BackendFleet {
        &self.backends
    }

    /// Groups the streams into partitions: union-find over "same service"
    /// and "same `service` label", each group named by its lowest index.
    fn repartition(&mut self) {
        fn root(parent: &[usize], mut i: usize) -> usize {
            while parent[i] != i {
                i = parent[i];
            }
            i
        }
        let mut parent: Vec<usize> = (0..self.streams.len()).collect();
        let mut by_service = BTreeMap::new();
        let mut by_label = BTreeMap::new();
        for (i, stream) in self.streams.iter().enumerate() {
            let first_of_service = *by_service.entry(stream.service()).or_insert(i);
            let first_of_label = *by_label.entry(stream.service_label()).or_insert(i);
            for j in [first_of_service, first_of_label] {
                let (a, b) = (root(&parent, i), root(&parent, j));
                parent[a.max(b)] = a.min(b);
            }
        }
        self.partition = (0..parent.len()).map(|i| root(&parent, i)).collect();
    }

    /// The workers a run of `requests` arrivals may use: the host's
    /// parallelism (read once), but at most one per
    /// [`REQUESTS_PER_WORKER`] arrivals.
    fn workers(&self, requests: usize) -> usize {
        #[cfg(test)]
        if let Some(workers) = self.workers {
            return workers.max(1);
        }
        static HOST: OnceLock<usize> = OnceLock::new();
        let host =
            *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        host.min(requests.div_ceil(REQUESTS_PER_WORKER)).max(1)
    }

    /// Replays a run of ticks, given in queue order: each partition the run
    /// touches replays its ticks in queue order on one of `min(workers,
    /// partitions touched)` threads, the caller's thread being one of them,
    /// so a run that touches one partition, a run of at most
    /// [`REQUESTS_PER_WORKER`] arrivals, or a host with one CPU spawns no
    /// thread. Streams whose service has no registered proxy are skipped
    /// (like rules for unregistered services).
    pub(crate) fn step(&mut self, run: &[Tick], proxies: &ProxyFleet) {
        if run.is_empty() {
            return;
        }
        let requests = run
            .iter()
            .map(|&(index, batch, _)| self.streams[index].batch_len(batch))
            .sum();
        let workers = self.workers(requests);
        let lanes = self.lend(run, proxies);
        let workers = workers.min(lanes.len());
        let queue = Mutex::new(lanes.into_iter());
        let drain = || loop {
            // The lock is held only for `next()`, which cannot panic.
            let next = queue
                .lock()
                .expect("the lane queue is never poisoned")
                .next();
            match next {
                Some(mut lane) => lane.replay(),
                None => break,
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(drain);
            }
            drain();
        });
    }

    /// Splits `run` into one lane per partition it touches, in order of
    /// first appearance, and lends each lane exclusive borrows of its
    /// streams, CPUs and backend servers.
    fn lend<'a>(&'a mut self, run: &[Tick], proxies: &ProxyFleet) -> Vec<Lane<'a>> {
        let mut lane_of = vec![usize::MAX; self.streams.len()];
        let mut lanes: Vec<Lane<'a>> = Vec::new();
        for &tick in run {
            let partition = self.partition[tick.0];
            if lane_of[partition] == usize::MAX {
                lane_of[partition] = lanes.len();
                lanes.push(Lane::default());
            }
            lanes[lane_of[partition]].ticks.push(tick);
        }
        let mut lane_of_service = BTreeMap::new();
        for (index, stream) in self.streams.iter_mut().enumerate() {
            let lane = lane_of[self.partition[index]];
            if lane != usize::MAX {
                lane_of_service.insert(stream.service(), lane);
                lanes[lane].streams.push((index, stream));
            }
        }
        // `attach` creates a CPU and a server map for every service, so the
        // two maps have the same keys.
        for ((service, cpu), (servers_of, servers)) in
            self.cpus.iter_mut().zip(self.backends.services_mut())
        {
            assert_eq!(*service, servers_of, "one CPU per server map");
            if let Some(&lane) = lane_of_service.get(service) {
                lanes[lane].services.push(ServiceLane {
                    service: *service,
                    proxy: proxies.handle(*service),
                    cpu,
                    servers,
                });
            }
        }
        lanes
    }
}

/// One partition's share of a run: its ticks in queue order and exclusive
/// borrows of everything they touch, sorted by stream index and service.
#[derive(Default)]
struct Lane<'a> {
    ticks: Vec<Tick>,
    streams: Vec<(usize, &'a mut TrafficStream)>,
    services: Vec<ServiceLane<'a>>,
}

/// One service's state inside a [`Lane`].
struct ServiceLane<'a> {
    service: ServiceId,
    proxy: Option<ProxyHandle>,
    cpu: &'a mut CpuResource,
    servers: &'a mut ServiceBackends,
}

impl Lane<'_> {
    /// Replays the lane's ticks in queue order.
    fn replay(&mut self) {
        for &(index, batch, at) in &self.ticks {
            let slot = self
                .streams
                .binary_search_by_key(&index, |(i, _)| *i)
                .expect("lent with its partition");
            let stream = &mut *self.streams[slot].1;
            let slot = self
                .services
                .binary_search_by_key(&stream.service(), |s| s.service)
                .expect("lent with its streams");
            let plane = &mut self.services[slot];
            let Some(proxy) = &plane.proxy else {
                continue;
            };
            stream.route_batch(batch, proxy, plane.cpu, plane.servers, at);
        }
    }
}

#[cfg(test)]
mod tests;
