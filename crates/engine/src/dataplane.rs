//! The parallel data plane: every attached traffic stream, grouped by the
//! service it targets, stepped one run of traffic ticks at a time.
//!
//! The engine batches consecutive `TrafficTick` events into a *run* and
//! hands it to [`DataPlane::step`] before it handles the next control
//! event (see [`crate::traffic`] for why that preserves the serial
//! semantics). The service is the only partition. Each service owns its
//! streams, its proxy-VM CPU, its version table and the recorder of its one
//! `service` label, and a label names one service. A service's ticks
//! touch only what it owns and its own proxy, and they write only its own
//! metric series, so services replay on separate workers, each in queue
//! order, and the outcome does not depend on the worker count.

use crate::backends::VersionBackend;
use crate::proxies::ProxyFleet;
use crate::traffic::{ServiceState, TrafficStats, TrafficStream};
use bifrost_core::ids::{ServiceId, VersionId};
use bifrost_metrics::SharedMetricStore;
use bifrost_simnet::SimTime;
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

/// The engine's traffic state, one partition per service.
#[derive(Debug, Default)]
pub(crate) struct DataPlane {
    /// One entry per service carrying traffic, in first-attach order.
    services: Vec<ServicePlane>,
    /// Each stream's service entry and its place among that entry's
    /// streams, by attach index.
    streams: Vec<(usize, usize)>,
    /// A worker count that replaces the host's parallelism in tests.
    #[cfg(test)]
    pub(crate) workers: Option<usize>,
}

/// One service's partition: its streams in attach order, the state they
/// share, and the ticks of the run being stepped.
#[derive(Debug)]
struct ServicePlane {
    service: ServiceId,
    streams: Vec<TrafficStream>,
    state: ServiceState,
    /// The current run's ticks of this service, in queue order:
    /// `(place among the streams, batch index, tick time)`.
    ticks: Vec<(usize, usize, SimTime)>,
}

impl DataPlane {
    /// Adds a stream and returns its index. The first stream of a service
    /// sizes the service's proxy-VM CPU and names its `service` label; a
    /// later stream registers only the versions the service has no entry
    /// for yet. Panics on a label that breaks the rule of one label per
    /// service (see [`crate::BifrostEngine::attach_traffic`]).
    pub(crate) fn attach(&mut self, stream: TrafficStream, store: SharedMetricStore) -> usize {
        let profile = stream.profile();
        let (service, label) = (profile.service(), profile.service_label());
        let entry = match self.services.iter().position(|p| p.service == service) {
            Some(entry) => {
                let state = &mut self.services[entry].state;
                assert!(
                    state.label() == label,
                    "service {service} records under the label `{}`, not `{label}`",
                    state.label()
                );
                state.register(profile);
                entry
            }
            None => {
                if let Some(other) = self.services.iter().find(|p| p.state.label() == label) {
                    panic!(
                        "the label `{label}` already names service {}",
                        other.service
                    );
                }
                self.services.push(ServicePlane {
                    service,
                    state: ServiceState::new(profile, store),
                    streams: Vec::new(),
                    ticks: Vec::new(),
                });
                self.services.len() - 1
            }
        };
        let streams = &mut self.services[entry].streams;
        self.streams.push((entry, streams.len()));
        streams.push(stream);
        self.streams.len() - 1
    }

    /// The number of attached streams.
    pub(crate) fn len(&self) -> usize {
        self.streams.len()
    }

    /// The statistics of stream `index`.
    pub(crate) fn stats(&self, index: usize) -> Option<&TrafficStats> {
        let &(entry, place) = self.streams.get(index)?;
        Some(self.services[entry].streams[place].stats())
    }

    /// The running backend server of `(service, version)`, if any.
    pub(crate) fn backend(
        &self,
        service: ServiceId,
        version: VersionId,
    ) -> Option<&VersionBackend> {
        let plane = self.services.iter().find(|p| p.service == service)?;
        plane.state.server(version)
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

    /// Replays a run of ticks, given in queue order: each service the run
    /// touches replays its ticks in queue order on one of `min(workers,
    /// services touched)` threads, the caller's thread being one of them,
    /// so a run that touches one service, a run of at most
    /// [`REQUESTS_PER_WORKER`] arrivals, or a host with one CPU spawns no
    /// thread.
    pub(crate) fn step(&mut self, run: &[Tick], proxies: &ProxyFleet) {
        if run.is_empty() {
            return;
        }
        let mut requests = 0;
        for &(index, batch, at) in run {
            let (entry, place) = self.streams[index];
            let plane = &mut self.services[entry];
            requests += plane.streams[place].batch_len(batch);
            plane.ticks.push((place, batch, at));
        }
        let workers = self.workers(requests);
        let touched: Vec<&mut ServicePlane> = self
            .services
            .iter_mut()
            .filter(|plane| !plane.ticks.is_empty())
            .collect();
        let workers = workers.min(touched.len());
        let queue = Mutex::new(touched.into_iter());
        let drain = || loop {
            // The lock is held only for `next()`, which cannot panic.
            let next = queue
                .lock()
                .expect("the service queue is never poisoned")
                .next();
            match next {
                Some(plane) => plane.replay(proxies),
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
}

impl ServicePlane {
    /// Replays and clears the service's ticks, in queue order, closing each
    /// instant after its last tick. A service with no registered proxy
    /// skips them (like rules for unregistered services).
    fn replay(&mut self, proxies: &ProxyFleet) {
        if let Some(proxy) = proxies.handle(self.service) {
            // A run is in time order: the ticks of an instant are adjacent.
            for instant in self.ticks.chunk_by(|a, b| a.2 == b.2) {
                for &(place, batch, _) in instant {
                    self.streams[place].route_batch(batch, &proxy, &mut self.state);
                }
                self.state.close_tick(instant[0].2, |version, percent| {
                    for &(place, ..) in instant {
                        self.streams[place].note_utilization(version, percent);
                    }
                });
            }
        }
        self.ticks.clear();
    }
}

#[cfg(test)]
mod tests;
