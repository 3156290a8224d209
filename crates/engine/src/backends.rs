//! Queued per-version backend servers: load-dependent latency, bounded
//! queues, and overload shedding for the request-level traffic pipeline.
//!
//! The paper's dark-launch and canary claims rest on live traffic *loading
//! the application versions themselves*: a shadowed version must visibly
//! heat up, and an undersized canary must saturate and degrade. The plain
//! [`crate::traffic::BackendProfile`] models a version as a fixed mean
//! service time plus an error coin-flip, so no strategy can ever observe
//! queueing or saturation. This module adds the missing capacity model:
//!
//! * a [`QueuedBackend`] describes one version's server shape — mean
//!   service demand per request, intrinsic error rate, replica count,
//!   per-replica queue bound, and a request timeout;
//! * a [`VersionBackend`] is the running instance: one single-core
//!   [`CpuResource`] per replica. A request goes to the replica that can
//!   start it earliest among those whose queue has room, the lowest index
//!   on ties, and is shed immediately when every queue is full. An
//!   admitted request holds its place in the queue until the first later
//!   dispatch whose time reaches its completion, so room is judged at the
//!   running maximum of dispatch times since it was admitted. A min-tree
//!   over the replicas (free time, or none while full) and a heap of full
//!   replicas (keyed by the completion that frees a place) make a dispatch
//!   O(log replicas);
//! * a [`BackendFleet`] keys running servers by `(ServiceId, VersionId)`,
//!   for harnesses that dispatch outside an engine. The engine keeps each
//!   server in its service's version table in the data plane (see
//!   [`crate::traffic`]), so every traffic stream of a service charges the
//!   same replicas — which is exactly what lets a 20% dark launch
//!   measurably heat the shadow version — and the service samples each
//!   server once per tick instant.
//!
//! Latency becomes load-dependent through [`WorkReceipt::queueing_delay`]:
//! below saturation a request starts almost immediately and its latency is
//! its service demand; past saturation the queue builds, latencies climb
//! towards the timeout, and once the per-replica queue bound is hit the
//! server sheds load. All of it is deterministic — the only randomness
//! (demand jitter, error draws) lives in the traffic stream's seeded RNGs.

use bifrost_core::ids::{ServiceId, VersionId};
use bifrost_simnet::{CpuResource, SimTime, WorkReceipt};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::fmt;
use std::time::Duration;

/// Default per-replica bound on outstanding (queued + executing) requests.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// Default request timeout.
pub const DEFAULT_BACKEND_TIMEOUT: Duration = Duration::from_millis(1_000);

/// The server shape of one service version: how much work a request costs,
/// how often it fails intrinsically, and how much capacity the version has.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedBackend {
    /// Mean service demand of one request (per replica core).
    pub service_time: Duration,
    /// Intrinsic probability that a *served* request fails.
    pub error_rate: f64,
    /// Number of single-core replicas serving this version.
    pub replicas: usize,
    /// Per-replica bound on outstanding requests (queued + executing);
    /// arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// Deadline from backend arrival to completion; requests finishing
    /// later count as timeout errors (the work is still charged — the
    /// server burns the cycles even when the caller has given up).
    pub timeout: Duration,
}

impl QueuedBackend {
    /// A healthy queued backend with the given mean service demand and the
    /// default replica/queue/timeout shape.
    pub fn new(service_time: Duration) -> Self {
        Self {
            service_time,
            error_rate: 0.0,
            replicas: 1,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            timeout: DEFAULT_BACKEND_TIMEOUT,
        }
    }

    /// Overrides the intrinsic error rate (builder style, clamped to
    /// `[0, 1]`).
    pub fn with_error_rate(mut self, error_rate: f64) -> Self {
        self.error_rate = if error_rate.is_nan() {
            0.0
        } else {
            error_rate.clamp(0.0, 1.0)
        };
        self
    }

    /// Overrides the replica count (builder style, minimum 1).
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas.max(1);
        self
    }

    /// Overrides the per-replica queue bound (builder style, minimum 1).
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity.max(1);
        self
    }

    /// Overrides the request timeout (builder style, minimum 1 ms).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout.max(Duration::from_millis(1));
        self
    }
}

/// The outcome of handing one request to a version's replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendDispatch {
    /// The request was admitted; the receipt carries queueing delay and
    /// completion time. The caller applies the timeout policy.
    Admitted(WorkReceipt),
    /// Every replica's queue was full — the request was shed without
    /// charging any work.
    Shed,
}

/// Stands for "no room" in the room tree: later than any completion.
const NO_ROOM: SimTime = SimTime::from_micros(u64::MAX);

/// One replica: a single-core queued server (the paper testbed's
/// `n1-standard-1` shape) plus the completion times of its outstanding
/// requests, so the queue bound is enforceable without a full event list.
#[derive(Debug, Clone)]
struct Replica {
    cpu: CpuResource,
    /// Completion times of admitted requests not yet known to be done, in
    /// dispatch order. A single-core FIFO server completes in that order,
    /// so the front is always the earliest completion.
    inflight: VecDeque<SimTime>,
    /// The dispatch call that last admitted a request here. `inflight` is
    /// pruned up to it, and only dispatch times after it can prune more.
    pruned_at_call: u64,
}

impl Replica {
    fn new() -> Self {
        Self {
            cpu: CpuResource::single_core(),
            inflight: VecDeque::new(),
            pruned_at_call: 0,
        }
    }
}

/// The running queued server of one service version.
pub struct VersionBackend {
    spec: QueuedBackend,
    replicas: Vec<Replica>,
    /// Each replica's free time if its queue has room, [`NO_ROOM`] if not.
    room: MinTree,
    /// The replicas whose queue is full, keyed by the completion that gives
    /// them room again: their oldest outstanding request's.
    full: BinaryHeap<Reverse<(SimTime, usize)>>,
    /// The times of the dispatch calls so far.
    calls: DispatchTimes,
    /// Requests shed because every replica's queue was full.
    shed: u64,
    /// Requests admitted (work charged to a replica).
    admitted: u64,
}

impl VersionBackend {
    /// Boots the version's replicas from its spec.
    pub fn new(spec: QueuedBackend) -> Self {
        let replicas = spec.replicas.max(1);
        let free = if spec.queue_capacity == 0 {
            NO_ROOM
        } else {
            SimTime::ZERO
        };
        Self {
            spec,
            replicas: (0..replicas).map(|_| Replica::new()).collect(),
            room: MinTree::new(replicas, free),
            full: BinaryHeap::new(),
            calls: DispatchTimes::default(),
            shed: 0,
            admitted: 0,
        }
    }

    /// The server shape.
    pub fn spec(&self) -> &QueuedBackend {
        &self.spec
    }

    /// Requests shed so far.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Requests admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Dispatches one request arriving at the backend at `at` with the
    /// given service `demand`. Among the replicas whose queue has room, the
    /// one that can start it earliest admits it, the lowest index on ties;
    /// the request is shed — no work charged — when every queue is full.
    ///
    /// A queue has room when fewer than `queue_capacity` of its admitted
    /// requests are outstanding. An admitted request stops counting at the
    /// first dispatch after its own whose `at` reaches its completion:
    /// room is judged at the running maximum of dispatch times since each
    /// request was admitted, not at `at` alone, since `at` (a proxy
    /// completion time) is not monotone. O(log replicas) per call.
    pub fn dispatch(&mut self, at: SimTime, demand: Duration) -> BackendDispatch {
        let call = self.calls.push(at);
        while let Some(&Reverse((room_at, idx))) = self.full.peek() {
            if room_at > at {
                break;
            }
            self.full.pop();
            self.room.set(idx, self.replicas[idx].cpu.drained_at());
        }
        // Every replica free by `at` starts the request at `at`; otherwise
        // the earliest free one starts it.
        let earliest = self.room.min();
        if earliest == NO_ROOM {
            self.shed += 1;
            return BackendDispatch::Shed;
        }
        let idx = self.room.leftmost_at_most(earliest.max(at));
        let replica = &mut self.replicas[idx];
        let passed = self.calls.max_since(replica.pruned_at_call);
        while replica.inflight.front().is_some_and(|done| *done <= passed) {
            replica.inflight.pop_front();
        }
        let receipt = replica.cpu.submit(at, demand);
        replica.inflight.push_back(receipt.completed);
        replica.pruned_at_call = call;
        if replica.inflight.len() >= self.spec.queue_capacity {
            self.full.push(Reverse((replica.inflight[0], idx)));
            self.room.set(idx, NO_ROOM);
        } else {
            self.room.set(idx, receipt.completed);
        }
        self.admitted += 1;
        BackendDispatch::Admitted(receipt)
    }

    /// Utilisation in percent of the version's total replica capacity since
    /// the previous sample (see [`CpuResource::sample_utilization`]). The
    /// service samples once per tick instant, which also keeps the
    /// replicas' pending execution-interval lists drained.
    pub fn sample_utilization(&mut self, now: SimTime) -> f64 {
        let sum: f64 = self
            .replicas
            .iter_mut()
            .map(|r| r.cpu.sample_utilization(now))
            .sum();
        sum / self.replicas.len() as f64
    }
}

/// The times of a server's dispatch calls, kept as the maxima of their
/// suffixes: `(call, at)` pairs with ascending calls and strictly
/// descending times, the last one the latest call. A call is dropped once
/// a later one is at least as late, so in time order only the latest call
/// is kept.
#[derive(Debug, Default)]
struct DispatchTimes {
    maxima: Vec<(u64, SimTime)>,
    calls: u64,
}

impl DispatchTimes {
    /// Records a call at `at` and returns its number, counted from 1.
    fn push(&mut self, at: SimTime) -> u64 {
        self.calls += 1;
        while self.maxima.last().is_some_and(|&(_, time)| time <= at) {
            self.maxima.pop();
        }
        self.maxima.push((self.calls, at));
        self.calls
    }

    /// The latest time among the calls after `call`. At least one call
    /// must have been made since.
    fn max_since(&self, call: u64) -> SimTime {
        let first = self.maxima.partition_point(|&(k, _)| k <= call);
        self.maxima[first].1
    }
}

/// A min-tree over `len` keys: `nodes[1]` is the root, node `k`'s children
/// are `2k` and `2k + 1`, and key `i` is leaf `leaves + i`. Padding leaves
/// hold [`NO_ROOM`].
#[derive(Debug)]
struct MinTree {
    nodes: Vec<SimTime>,
    leaves: usize,
}

impl MinTree {
    fn new(len: usize, key: SimTime) -> Self {
        let leaves = len.next_power_of_two();
        let mut nodes = vec![NO_ROOM; 2 * leaves];
        nodes[leaves..leaves + len].fill(key);
        for k in (1..leaves).rev() {
            nodes[k] = nodes[2 * k].min(nodes[2 * k + 1]);
        }
        Self { nodes, leaves }
    }

    /// The least key.
    fn min(&self) -> SimTime {
        self.nodes[1]
    }

    fn set(&mut self, i: usize, key: SimTime) {
        let mut k = self.leaves + i;
        self.nodes[k] = key;
        while k > 1 {
            k /= 2;
            let min = self.nodes[2 * k].min(self.nodes[2 * k + 1]);
            if self.nodes[k] == min {
                break;
            }
            self.nodes[k] = min;
        }
    }

    /// The lowest index whose key is at most `bound`, which must be at
    /// least the least key.
    fn leftmost_at_most(&self, bound: SimTime) -> usize {
        let mut k = 1;
        while k < self.leaves {
            k = if self.nodes[2 * k] <= bound {
                2 * k
            } else {
                2 * k + 1
            };
        }
        k - self.leaves
    }
}

impl fmt::Debug for VersionBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VersionBackend")
            .field("spec", &self.spec)
            .field("admitted", &self.admitted)
            .field("shed", &self.shed)
            .finish()
    }
}

/// Running backend servers of several services, one [`VersionBackend`] per
/// `(service, version)`, for harnesses that dispatch outside an engine.
#[derive(Debug, Default)]
pub struct BackendFleet {
    servers: BTreeMap<(ServiceId, VersionId), VersionBackend>,
}

impl BackendFleet {
    /// An empty fleet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the running server of `(service, version)`, booting it from
    /// `spec` on first sight (later calls keep the existing server and its
    /// accumulated load — the first registration wins).
    pub fn ensure(
        &mut self,
        service: ServiceId,
        version: VersionId,
        spec: &QueuedBackend,
    ) -> &mut VersionBackend {
        self.servers
            .entry((service, version))
            .or_insert_with(|| VersionBackend::new(*spec))
    }

    /// Iterates mutably over the running servers of one service, in
    /// version order.
    pub fn servers_of_mut(
        &mut self,
        service: ServiceId,
    ) -> impl Iterator<Item = (VersionId, &mut VersionBackend)> {
        self.servers
            .range_mut((service, VersionId::new(0))..=(service, VersionId::new(u64::MAX)))
            .map(|(&(_, version), server)| (version, server))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(ms: u64) -> QueuedBackend {
        QueuedBackend::new(Duration::from_millis(ms))
            .with_queue_capacity(2)
            .with_timeout(Duration::from_millis(100))
    }

    #[test]
    fn builders_clamp_degenerate_values() {
        let q = QueuedBackend::new(Duration::from_millis(5))
            .with_error_rate(7.0)
            .with_replicas(0)
            .with_queue_capacity(0)
            .with_timeout(Duration::ZERO);
        assert_eq!(q.error_rate, 1.0);
        assert_eq!(q.replicas, 1);
        assert_eq!(q.queue_capacity, 1);
        assert_eq!(q.timeout, Duration::from_millis(1));
        assert_eq!(
            QueuedBackend::new(Duration::ZERO)
                .with_error_rate(f64::NAN)
                .error_rate,
            0.0
        );
    }

    #[test]
    fn idle_server_serves_at_service_demand() {
        let mut server = VersionBackend::new(spec(10));
        match server.dispatch(SimTime::from_secs(1), Duration::from_millis(10)) {
            BackendDispatch::Admitted(receipt) => {
                assert_eq!(receipt.queueing_delay(), Duration::ZERO);
                assert_eq!(receipt.latency(), Duration::from_millis(10));
            }
            BackendDispatch::Shed => panic!("idle server must admit"),
        }
        assert_eq!(server.admitted(), 1);
        assert_eq!(server.shed(), 0);
    }

    #[test]
    fn latency_grows_with_backlog_then_queue_sheds() {
        // Capacity 2 outstanding per replica: the third simultaneous
        // arrival is shed, and the second one queues behind the first.
        let mut server = VersionBackend::new(spec(10));
        let a = server.dispatch(SimTime::ZERO, Duration::from_millis(10));
        let b = server.dispatch(SimTime::ZERO, Duration::from_millis(10));
        let c = server.dispatch(SimTime::ZERO, Duration::from_millis(10));
        let BackendDispatch::Admitted(a) = a else {
            panic!("first admitted")
        };
        let BackendDispatch::Admitted(b) = b else {
            panic!("second admitted")
        };
        assert_eq!(a.queueing_delay(), Duration::ZERO);
        assert_eq!(b.queueing_delay(), Duration::from_millis(10));
        assert_eq!(c, BackendDispatch::Shed);
        assert_eq!(server.shed(), 1);
        // Once the backlog drains, the queue admits again.
        let d = server.dispatch(SimTime::from_millis(50), Duration::from_millis(10));
        assert!(matches!(d, BackendDispatch::Admitted(_)));
    }

    #[test]
    fn a_full_replica_overflows_to_one_with_queue_room() {
        // Replica A ends up time-least-backlogged with a full queue of
        // short jobs; the next arrival must land on B's free slot, not be
        // shed. Capacity 2, two replicas.
        let mut server = VersionBackend::new(spec(10).with_replicas(2));
        // A gets two 1 ms jobs (earliest free), B gets one 40 ms job.
        assert!(matches!(
            server.dispatch(SimTime::ZERO, Duration::from_millis(1)),
            BackendDispatch::Admitted(_)
        ));
        assert!(matches!(
            server.dispatch(SimTime::ZERO, Duration::from_millis(40)),
            BackendDispatch::Admitted(_)
        ));
        assert!(matches!(
            server.dispatch(SimTime::ZERO, Duration::from_millis(1)),
            BackendDispatch::Admitted(_)
        ));
        // A (free at 2 ms) is the time-least-backlogged but holds 2
        // outstanding jobs; B (free at 40 ms) has one slot left.
        let d = server.dispatch(SimTime::ZERO, Duration::from_millis(1));
        let BackendDispatch::Admitted(receipt) = d else {
            panic!("must overflow to the replica with queue room")
        };
        assert_eq!(receipt.started, SimTime::from_millis(40));
        // Now every queue is full → shed.
        assert_eq!(
            server.dispatch(SimTime::ZERO, Duration::from_millis(1)),
            BackendDispatch::Shed
        );
        assert_eq!(server.shed(), 1);
    }

    #[test]
    fn replicas_spread_simultaneous_load() {
        let mut server = VersionBackend::new(spec(10).with_replicas(2));
        let a = server.dispatch(SimTime::ZERO, Duration::from_millis(10));
        let b = server.dispatch(SimTime::ZERO, Duration::from_millis(10));
        for dispatch in [a, b] {
            let BackendDispatch::Admitted(receipt) = dispatch else {
                panic!("admitted")
            };
            assert_eq!(receipt.queueing_delay(), Duration::ZERO);
        }
        // 2 × 10 ms over 2 replicas in a 20 ms window → 50 %.
        let u = server.sample_utilization(SimTime::from_millis(20));
        assert!((u - 50.0).abs() < 1e-9, "{u}");
    }

    #[test]
    fn fleet_shares_servers_per_service_version() {
        let mut fleet = BackendFleet::new();
        let service = ServiceId::new(1);
        let v1 = VersionId::new(1);
        let v2 = VersionId::new(2);
        fleet
            .ensure(service, v1, &spec(10))
            .dispatch(SimTime::ZERO, Duration::from_millis(10));
        // Second ensure with a different spec keeps the booted server.
        let server = fleet.ensure(service, v1, &spec(99));
        assert_eq!(server.spec().service_time, Duration::from_millis(10));
        assert_eq!(server.admitted(), 1);
        fleet.ensure(service, v2, &spec(10));
        fleet.ensure(ServiceId::new(2), v1, &spec(10));
        let versions: Vec<_> = fleet.servers_of_mut(service).map(|(v, _)| v).collect();
        assert_eq!(versions, [v1, v2]);
        assert_eq!(fleet.servers_of_mut(ServiceId::new(2)).count(), 1);
        assert_eq!(fleet.servers_of_mut(ServiceId::new(9)).count(), 0);
    }
}
