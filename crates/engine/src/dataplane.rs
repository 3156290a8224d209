//! The parallel data plane: every attached traffic stream, grouped by the
//! service it targets, stepped one run of traffic ticks at a time.
//!
//! The engine batches consecutive `TrafficTick` events into a *run* and
//! hands it to [`DataPlane::step`] before it handles the next control
//! event (see [`crate::traffic`] for why that preserves the serial
//! semantics). The service is the only partition. Each service owns its
//! streams, its proxy-VM cores, its version table and the recorder of its one
//! `service` label, and a label names one service. A service's ticks
//! touch only what it owns and its own proxy, and they write only its own
//! metric series, so services replay on separate workers, each in queue
//! order, and the outcome does not depend on the worker count.
//!
//! Within a service, routing reads nothing that serving writes, and a run
//! holds no configuration push (pushes are control events). So when a run
//! may use two workers per service it touches, each service routes its
//! ticks on one thread while another serves them, a few ticks behind
//! (a staged pipeline, as in SEDA: Welsh et al., SOSP 2001). One heavy
//! service then uses two cores, with the same outcome.

use crate::backends::VersionBackend;
use crate::proxies::{ProxyFleet, ProxyHandle};
use crate::traffic::{ServiceBack, ServiceFront, TickPacket, TrafficStats, TrafficStream};
use bifrost_core::ids::{ServiceId, VersionId};
use bifrost_metrics::SharedMetricStore;
use bifrost_simnet::SimTime;
use std::collections::HashMap;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender};
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

/// The routed ticks a service's routing stage may run ahead of its serving
/// stage.
const PIPELINE_DEPTH: usize = 2;

/// The engine's traffic state, one partition per service.
#[derive(Debug, Default)]
pub(crate) struct DataPlane {
    /// One entry per service carrying traffic, in first-attach order, the
    /// order a run replays them in.
    services: Vec<ServicePlane>,
    /// Each service's entry in `services`.
    by_service: HashMap<ServiceId, usize>,
    /// The `service` label each entry records under.
    by_label: HashMap<String, usize>,
    /// Each stream's service entry and its place among that entry's
    /// streams, by attach index.
    streams: Vec<(usize, usize)>,
    /// A worker count that replaces the host's parallelism in tests.
    #[cfg(test)]
    pub(crate) workers: Option<usize>,
    /// The services replayed as two-stage pipelines so far.
    #[cfg(test)]
    pub(crate) pipelined: usize,
}

/// One service's partition: its streams in attach order, split into the
/// routing stage and the serving stage, and the ticks of the run being
/// stepped.
#[derive(Debug)]
struct ServicePlane {
    service: ServiceId,
    front: ServiceFront,
    back: ServiceBack,
    /// Tick packets kept for reuse by the routing stage.
    packets: Vec<TickPacket>,
    /// The current run's ticks of this service, in queue order:
    /// `(place among the streams, batch index, tick time)`.
    ticks: Vec<(usize, usize, SimTime)>,
}

impl DataPlane {
    /// Adds a stream and returns its index. The first stream of a service
    /// sizes the service's proxy-VM cores and names its `service` label; a
    /// later stream registers only the versions the service has no entry
    /// for yet. Panics on a label that breaks the rule of one label per
    /// service (see [`crate::BifrostEngine::attach_traffic`]).
    pub(crate) fn attach(&mut self, stream: TrafficStream, store: SharedMetricStore) -> usize {
        let profile = stream.front.profile();
        let (service, label) = (profile.service(), profile.service_label());
        let entry = match self.by_service.get(&service) {
            Some(&entry) => {
                let back = &mut self.services[entry].back;
                assert!(
                    back.label() == label,
                    "service {service} records under the label `{}`, not `{label}`",
                    back.label()
                );
                back.register(profile);
                entry
            }
            None => {
                if let Some(&other) = self.by_label.get(label) {
                    panic!(
                        "the label `{label}` already names service {}",
                        self.services[other].service
                    );
                }
                let entry = self.services.len();
                self.by_service.insert(service, entry);
                self.by_label.insert(label.to_string(), entry);
                self.services.push(ServicePlane {
                    service,
                    front: ServiceFront::new(profile),
                    back: ServiceBack::new(profile, store),
                    packets: Vec::new(),
                    ticks: Vec::new(),
                });
                entry
            }
        };
        let plane = &mut self.services[entry];
        self.streams.push((entry, plane.front.streams.len()));
        plane.front.streams.push(stream.front);
        plane.back.streams.push(stream.back);
        self.streams.len() - 1
    }

    /// The number of attached streams.
    pub(crate) fn len(&self) -> usize {
        self.streams.len()
    }

    /// The statistics of stream `index`.
    pub(crate) fn stats(&self, index: usize) -> Option<&TrafficStats> {
        let &(entry, place) = self.streams.get(index)?;
        Some(self.services[entry].back.streams[place].stats())
    }

    /// The running backend server of `(service, version)`, if any.
    pub(crate) fn backend(
        &self,
        service: ServiceId,
        version: VersionId,
    ) -> Option<&VersionBackend> {
        let &entry = self.by_service.get(&service)?;
        self.services[entry].back.server(version)
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
    /// touches replays its ticks in queue order. When the run may use two
    /// workers per service it touches, each service routes on one thread
    /// and serves on another; otherwise the services share `min(workers,
    /// services touched)` threads. The caller's thread is one of them, so a
    /// run of at most [`REQUESTS_PER_WORKER`] arrivals or a host with one
    /// CPU spawns no thread.
    pub(crate) fn step(&mut self, run: &[Tick], proxies: &ProxyFleet) {
        if run.is_empty() {
            return;
        }
        let mut requests = 0;
        for &(index, batch, at) in run {
            let (entry, place) = self.streams[index];
            let plane = &mut self.services[entry];
            requests += plane.front.streams[place].batch_len(batch);
            plane.ticks.push((place, batch, at));
        }
        let workers = self.workers(requests);
        let touched: Vec<&mut ServicePlane> = self
            .services
            .iter_mut()
            .filter(|plane| !plane.ticks.is_empty())
            .collect();
        let pipelined = workers >= 2 * touched.len();
        #[cfg(test)]
        if pipelined {
            self.pipelined += touched.len();
        }
        let workers = workers.min(touched.len());
        let queue = Mutex::new(touched.into_iter());
        let drain = || loop {
            // The lock is held only for `next()`, which cannot panic.
            let next = queue
                .lock()
                .expect("the service queue is never poisoned")
                .next();
            match next {
                Some(plane) => plane.replay(proxies, pipelined),
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
    /// instant after its last tick, serving on a thread of its own if
    /// `pipelined`. A service with no registered proxy skips them (like
    /// rules for unregistered services).
    ///
    /// Either way the routing stage routes each tick, and the serving stage
    /// serves each tick and then closes each instant, both in queue order.
    /// Routing reads nothing the serving stage writes, and a run holds no
    /// configuration push, so where the serving stage stands while a tick
    /// is routed cannot change the outcome.
    fn replay(&mut self, proxies: &ProxyFleet, pipelined: bool) {
        if let Some(proxy) = proxies.handle(self.service) {
            if pipelined {
                self.replay_pipelined(&proxy);
            } else {
                let mut packet = self.packets.pop().unwrap_or_default();
                for instant in instants(&self.ticks) {
                    let at = instant[0].2;
                    for &(place, batch, _) in instant {
                        self.front.route(place, batch, &proxy, &mut packet);
                        self.back.serve(place, &packet);
                    }
                    self.back.close_tick(at, instant.iter().map(|tick| tick.0));
                }
                self.packets.push(packet);
            }
        }
        self.ticks.clear();
    }

    /// Routes the run's ticks on this thread and serves them on another,
    /// handing them over through a bounded channel of packets that come
    /// back for reuse.
    fn replay_pipelined(&mut self, proxy: &ProxyHandle) {
        let Self {
            front,
            back,
            packets,
            ticks,
            ..
        } = self;
        let ticks: &[_] = ticks;
        let (to_back, routed) = sync_channel(PIPELINE_DEPTH);
        let (to_front, served) = channel();
        std::thread::scope(|scope| {
            scope.spawn(move || serve_run(back, ticks, routed, to_front));
            for &(place, batch, _) in ticks {
                let mut packet = served
                    .try_recv()
                    .ok()
                    .or_else(|| packets.pop())
                    .unwrap_or_default();
                front.route(place, batch, proxy, &mut packet);
                if to_back.send(packet).is_err() {
                    // The serving stage panicked; the scope rethrows.
                    return;
                }
            }
        });
        packets.extend(served.try_iter());
    }
}

/// The serving stage of a pipelined run: serves each tick packet as it
/// arrives, sends it back, and closes each instant.
fn serve_run(
    back: &mut ServiceBack,
    ticks: &[(usize, usize, SimTime)],
    routed: Receiver<TickPacket>,
    to_front: Sender<TickPacket>,
) {
    for instant in instants(ticks) {
        for &(place, ..) in instant {
            let packet = routed
                .recv()
                .expect("the routing stage sends every tick of the run");
            back.serve(place, &packet);
            // The routing stage holds its receiver until the run ends.
            let _ = to_front.send(packet);
        }
        back.close_tick(instant[0].2, instant.iter().map(|tick| tick.0));
    }
}

/// The ticks of a run grouped by instant. A run is in time order, so the
/// ticks of an instant are adjacent.
fn instants(ticks: &[(usize, usize, SimTime)]) -> impl Iterator<Item = &[(usize, usize, SimTime)]> {
    ticks.chunk_by(|a, b| a.2 == b.2)
}

#[cfg(test)]
mod tests;
