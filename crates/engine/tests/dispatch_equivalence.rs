//! Equivalence of [`VersionBackend::dispatch`]'s room tree and heap of full
//! replicas with the linear scan it replaced. The scan prunes every
//! replica's queue against each dispatch time in turn, so a request stops
//! counting against its queue at the first dispatch after its own whose
//! time reaches its completion. Dispatch times here are not monotone: they
//! tie, drift back a little (as proxy completions do) and jump back a whole
//! tick (as a service's second stream does), and demands include zero and
//! very long ones. Every dispatch outcome, the shed and admitted counts and
//! the windowed utilisation at random cuts must be identical.

use bifrost_engine::{BackendDispatch, QueuedBackend, VersionBackend};
use bifrost_simnet::{CpuResource, SimRng, SimTime};
use std::collections::VecDeque;
use std::time::Duration;

/// The reference: every dispatch prunes and scans every replica.
struct ScanBackend {
    queue_capacity: usize,
    replicas: Vec<(CpuResource, VecDeque<SimTime>)>,
    shed: u64,
    admitted: u64,
}

impl ScanBackend {
    fn new(spec: &QueuedBackend) -> Self {
        Self {
            queue_capacity: spec.queue_capacity,
            replicas: (0..spec.replicas.max(1))
                .map(|_| (CpuResource::single_core(), VecDeque::new()))
                .collect(),
            shed: 0,
            admitted: 0,
        }
    }

    fn dispatch(&mut self, at: SimTime, demand: Duration) -> BackendDispatch {
        let mut best: Option<(usize, SimTime)> = None;
        for (idx, (cpu, inflight)) in self.replicas.iter_mut().enumerate() {
            while inflight.front().is_some_and(|done| *done <= at) {
                inflight.pop_front();
            }
            if inflight.len() >= self.queue_capacity {
                continue;
            }
            let start = cpu.earliest_start(at);
            if best.is_none_or(|(_, s)| start < s) {
                best = Some((idx, start));
            }
        }
        let Some((idx, _)) = best else {
            self.shed += 1;
            return BackendDispatch::Shed;
        };
        let (cpu, inflight) = &mut self.replicas[idx];
        let receipt = cpu.submit(at, demand);
        inflight.push_back(receipt.completed);
        self.admitted += 1;
        BackendDispatch::Admitted(receipt)
    }

    fn sample_utilization(&mut self, now: SimTime) -> f64 {
        let sum: f64 = (self.replicas.iter_mut())
            .map(|(cpu, _)| cpu.sample_utilization(now))
            .sum();
        sum / self.replicas.len() as f64
    }
}

/// One seeded case: a server shape and a load around saturation, long
/// enough for the queues to fill when the load exceeds capacity. Returns
/// the replica count and how many requests were shed.
fn run_case(seed: u64) -> (usize, u64) {
    let mut rng = SimRng::seeded(seed);
    // Replica counts spread over 1..=1024 on a log scale; the queues of
    // many replicas are kept short so that they fill within the case.
    let replicas = (2f64.powf(rng.range(0.0, 10.0)).round() as usize).clamp(1, 1_024);
    let queue_capacity = 1 + rng.index((4_096 / replicas).clamp(1, 64));
    let spec = QueuedBackend::new(Duration::from_millis(5))
        .with_replicas(replicas)
        .with_queue_capacity(queue_capacity);
    let mut tree = VersionBackend::new(spec);
    let mut scan = ScanBackend::new(&spec);

    // Offered load between 0.6 and 2.5 cores per replica.
    let gap_us = 1.0 + rng.index(200) as f64;
    let load = rng.range(0.6, 2.5);
    let mean_demand_us = load * replicas as f64 * gap_us;
    let tick_us = 100.0 * gap_us;
    let slots = (replicas * queue_capacity) as f64;
    let calls = (3.0 * slots * load / (load - 1.0).max(0.1)).clamp(1_500.0, 8_000.0) as usize;
    let mut clock = 0.0f64;
    let mut at = SimTime::ZERO;
    let mut cut = SimTime::ZERO;
    let mut shed = 0;
    for call in 0..calls {
        clock += rng.exponential(gap_us);
        let draw = rng.uniform();
        at = if draw < 0.15 {
            // A tie with the previous dispatch.
            at
        } else if draw < 0.2 {
            // A second stream replaying the same tick.
            SimTime::from_micros((clock - rng.range(0.0, tick_us)).max(0.0) as u64)
        } else if draw < 0.35 {
            SimTime::from_micros((clock - rng.range(0.0, 3.0 * gap_us)).max(0.0) as u64)
        } else {
            SimTime::from_micros(clock as u64)
        };
        let draw = rng.uniform();
        let demand = if draw < 0.1 {
            Duration::ZERO
        } else if draw < 0.13 {
            Duration::from_micros((mean_demand_us * 40.0) as u64)
        } else {
            Duration::from_micros(rng.exponential(mean_demand_us) as u64)
        };
        let expected = scan.dispatch(at, demand);
        assert_eq!(
            tree.dispatch(at, demand),
            expected,
            "seed {seed}, call {call}: {replicas} replicas, capacity {queue_capacity}, at {at:?}"
        );
        shed += u64::from(expected == BackendDispatch::Shed);
        assert_eq!((tree.shed(), tree.admitted()), (scan.shed, scan.admitted));
        if rng.chance(0.02) {
            cut = cut.max(at);
            let (a, b) = (tree.sample_utilization(cut), scan.sample_utilization(cut));
            assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}, cut at {cut:?}");
        }
    }
    (replicas, shed)
}

#[test]
fn tree_dispatch_matches_the_linear_scan() {
    let cases: Vec<(usize, u64)> = (0..120).map(run_case).collect();
    // Queues fill and shed at every scale.
    for range in [1..16, 16..256, 256..1_025] {
        let cases = cases
            .iter()
            .filter(|(replicas, _)| range.contains(replicas));
        let shedding = cases.clone().filter(|&&(_, shed)| shed > 0).count();
        let all = cases.count();
        assert!(
            2 * shedding > all,
            "{range:?}: {shedding} of {all} cases shed"
        );
    }
}
