//! CPU contention model.
//!
//! Every container owns a [`CpuResource`] with one or more cores. Work is
//! submitted as `(arrival time, service demand)`; the resource runs it on a
//! core that frees up first, producing a start time (possibly delayed by
//! queueing) and a completion time.
//!
//! The model has two parts. A [`CoreHeap`] holds the core free times as a
//! binary min-heap and decides every start and completion: a submission
//! costs O(log c) on a `c`-core VM (proxy VMs run to hundreds of cores), and
//! [`CoreHeap::earliest_start`] and [`CoreHeap::drained_at`] cost O(1). A
//! [`CpuResource`] is a heap plus busy accounting: the accumulated busy
//! time and the execution intervals not yet attributed to a sampling
//! window, so utilisation over arbitrary windows can be reported — this is
//! the mechanism behind Figures 7–10 (engine CPU utilisation and enactment
//! delay as a function of parallel strategies / checks on a single-core
//! VM). A CPU whose utilisation nothing samples, such as the traffic data
//! plane's proxy VM, holds the heap alone and logs no intervals.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// The result of submitting a piece of work to a CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkReceipt {
    /// When the work arrived.
    pub arrived: SimTime,
    /// When a core actually started executing it.
    pub started: SimTime,
    /// When it completed.
    pub completed: SimTime,
}

impl WorkReceipt {
    /// Time spent waiting for a free core.
    pub fn queueing_delay(&self) -> Duration {
        self.started - self.arrived
    }

    /// Total latency from arrival to completion.
    pub fn latency(&self) -> Duration {
        self.completed - self.arrived
    }
}

/// The cores of a processor: `cores` identical cores executing work in
/// FIFO order per core (work is dispatched to a core with the earliest free
/// time), with no accounting of what they ran.
///
/// Which of several equally free cores takes the work cannot change any
/// output: receipts depend only on the multiset of core free times, so the
/// cores are kept anonymous in a heap rather than indexed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreHeap {
    /// The time each core becomes idle again, as an implicit binary min-heap:
    /// `cores[i] <= cores[2i + 1]` and `cores[i] <= cores[2i + 2]`, so
    /// `cores[0]` is the earliest free time.
    cores: Vec<SimTime>,
    /// The latest core free time. A core's free time never decreases, so
    /// this is the running maximum of every completion.
    latest: SimTime,
}

impl CoreHeap {
    /// Creates `cores` idle cores (minimum 1).
    pub fn new(cores: usize) -> Self {
        Self {
            cores: vec![SimTime::ZERO; cores.max(1)],
            latest: SimTime::ZERO,
        }
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Runs work arriving at `arrival` with the given service `demand` on
    /// the earliest free core. Returns when it started and completed.
    /// O(log c) for `c` cores. Virtual time has microsecond resolution, so
    /// a sub-microsecond part of `demand` is dropped.
    pub fn submit(&mut self, arrival: SimTime, demand: Duration) -> WorkReceipt {
        let started = self.cores[0].max(arrival);
        let completed = started + demand;
        self.replace_earliest(completed);
        self.latest = self.latest.max(completed);
        WorkReceipt {
            arrived: arrival,
            started,
            completed,
        }
    }

    /// Overwrites the heap root (the earliest free time) with `free_at`, which
    /// is never earlier than it, and sifts it down to restore the heap order.
    fn replace_earliest(&mut self, free_at: SimTime) {
        let cores = &mut self.cores;
        let mut hole = 0;
        loop {
            let left = 2 * hole + 1;
            let Some(&left_at) = cores.get(left) else {
                break;
            };
            let (child, child_at) = match cores.get(left + 1) {
                Some(&right_at) if right_at < left_at => (left + 1, right_at),
                _ => (left, left_at),
            };
            if child_at >= free_at {
                break;
            }
            cores[hole] = child_at;
            hole = child;
        }
        cores[hole] = free_at;
    }

    /// The earliest time at which a newly arriving item could start. O(1).
    pub fn earliest_start(&self, arrival: SimTime) -> SimTime {
        self.cores[0].max(arrival)
    }

    /// The time at which all queued work is finished. O(1).
    pub fn drained_at(&self) -> SimTime {
        self.latest
    }
}

/// A processor: a [`CoreHeap`] plus the accounting of what its cores ran,
/// which [`CpuResource::sample_utilization`] and
/// [`CpuResource::average_utilization`] report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuResource {
    heap: CoreHeap,
    /// Total busy time accumulated across all cores.
    busy: Duration,
    /// Execution intervals `(start, end)` not yet fully attributed to a
    /// utilisation sampling window.
    pending_intervals: Vec<(SimTime, SimTime)>,
    /// Time of the last utilisation sample.
    last_sample_at: SimTime,
    /// Number of work items executed.
    executed: u64,
}

impl CpuResource {
    /// Creates a CPU with the given number of cores (minimum 1).
    pub fn new(cores: usize) -> Self {
        Self {
            heap: CoreHeap::new(cores),
            busy: Duration::ZERO,
            pending_intervals: Vec::new(),
            last_sample_at: SimTime::ZERO,
            executed: 0,
        }
    }

    /// A single-core CPU — the `n1-standard-1` instances of the paper's
    /// testbed.
    pub fn single_core() -> Self {
        Self::new(1)
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.heap.core_count()
    }

    /// Number of work items executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Total busy time accumulated across all cores.
    pub fn total_busy(&self) -> Duration {
        self.busy
    }

    /// Submits work arriving at `arrival` with the given service `demand`.
    /// Returns when the work started and completed. O(log c) for `c` cores.
    ///
    /// Virtual time has microsecond resolution, so a sub-microsecond part of
    /// `demand` is dropped; the busy total is charged what the core's
    /// timeline actually holds, `completed - started`.
    pub fn submit(&mut self, arrival: SimTime, demand: Duration) -> WorkReceipt {
        let receipt = self.heap.submit(arrival, demand);
        self.busy += receipt.completed - receipt.started;
        if !demand.is_zero() {
            self.pending_intervals
                .push((receipt.started, receipt.completed));
        }
        self.executed += 1;
        receipt
    }

    /// The earliest time at which a newly arriving item could start. O(1).
    pub fn earliest_start(&self, arrival: SimTime) -> SimTime {
        self.heap.earliest_start(arrival)
    }

    /// The time at which all queued work is finished. O(1).
    pub fn drained_at(&self) -> SimTime {
        self.heap.drained_at()
    }

    /// Utilisation in percent of total core capacity since the previous call
    /// to this method, sampled at `now`. The first call measures from time
    /// zero.
    ///
    /// The measurement is based on the *actual execution intervals* of the
    /// submitted work: demand that was submitted earlier but executes inside
    /// the current window (because the core was backlogged) counts towards
    /// this window, and demand still queued at `now` is carried over to later
    /// windows — which is what a cAdvisor-style sampler observes.
    pub fn sample_utilization(&mut self, now: SimTime) -> f64 {
        let window_start = self.last_sample_at;
        let window = now - window_start;
        let mut busy_in_window = Duration::ZERO;
        self.pending_intervals.retain_mut(|(start, end)| {
            let overlap_start = (*start).max(window_start);
            let overlap_end = (*end).min(now);
            if overlap_end > overlap_start {
                busy_in_window += overlap_end - overlap_start;
            }
            // The tail of an interval running past `now` belongs to future
            // windows.
            *start = (*start).max(now);
            *end > now
        });
        let utilization = if window.is_zero() {
            0.0
        } else {
            let capacity = window.as_secs_f64() * self.core_count() as f64;
            (busy_in_window.as_secs_f64() / capacity * 100.0).min(100.0)
        };
        self.last_sample_at = now;
        utilization
    }

    /// Average utilisation in percent of total core capacity from time zero
    /// until `now` (ignores sampling state). Capped at 100, like
    /// [`CpuResource::sample_utilization`]: work submitted but not yet run by
    /// `now` does not push it past full.
    pub fn average_utilization(&self, now: SimTime) -> f64 {
        let elapsed = now.as_secs_f64();
        if elapsed <= 0.0 {
            return 0.0;
        }
        let capacity = elapsed * self.core_count() as f64;
        (self.busy.as_secs_f64() / capacity * 100.0).min(100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_on_idle_core_starts_immediately() {
        let mut cpu = CpuResource::single_core();
        let r = cpu.submit(SimTime::from_millis(100), Duration::from_millis(20));
        assert_eq!(r.started, SimTime::from_millis(100));
        assert_eq!(r.completed, SimTime::from_millis(120));
        assert_eq!(r.queueing_delay(), Duration::ZERO);
        assert_eq!(r.latency(), Duration::from_millis(20));
        assert_eq!(cpu.executed(), 1);
        assert_eq!(cpu.core_count(), 1);
    }

    #[test]
    fn contention_serialises_work_on_single_core() {
        let mut cpu = CpuResource::single_core();
        // Two items arrive at the same instant; the second must wait.
        let a = cpu.submit(SimTime::ZERO, Duration::from_millis(10));
        let b = cpu.submit(SimTime::ZERO, Duration::from_millis(10));
        assert_eq!(a.queueing_delay(), Duration::ZERO);
        assert_eq!(b.queueing_delay(), Duration::from_millis(10));
        assert_eq!(b.completed, SimTime::from_millis(20));
        assert_eq!(cpu.drained_at(), SimTime::from_millis(20));
        assert_eq!(cpu.total_busy(), Duration::from_millis(20));
    }

    #[test]
    fn multi_core_runs_work_in_parallel() {
        let mut cpu = CpuResource::new(2);
        let a = cpu.submit(SimTime::ZERO, Duration::from_millis(10));
        let b = cpu.submit(SimTime::ZERO, Duration::from_millis(10));
        let c = cpu.submit(SimTime::ZERO, Duration::from_millis(10));
        assert_eq!(a.queueing_delay(), Duration::ZERO);
        assert_eq!(b.queueing_delay(), Duration::ZERO);
        assert_eq!(c.queueing_delay(), Duration::from_millis(10));
        assert_eq!(cpu.earliest_start(SimTime::ZERO), SimTime::from_millis(10));
    }

    #[test]
    fn zero_core_request_clamps_to_one() {
        let cpu = CpuResource::new(0);
        assert_eq!(cpu.core_count(), 1);
    }

    #[test]
    fn utilization_sampling_windows() {
        let mut cpu = CpuResource::single_core();
        // 50 ms of work in a 100 ms window → 50 %.
        cpu.submit(SimTime::ZERO, Duration::from_millis(50));
        let u = cpu.sample_utilization(SimTime::from_millis(100));
        assert!((u - 50.0).abs() < 1e-9, "{u}");
        // Next window has no work → 0 %.
        let u = cpu.sample_utilization(SimTime::from_millis(200));
        assert_eq!(u, 0.0);
        // Saturated window is capped at 100 %.
        for _ in 0..20 {
            cpu.submit(SimTime::from_millis(200), Duration::from_millis(50));
        }
        let u = cpu.sample_utilization(SimTime::from_millis(300));
        assert_eq!(u, 100.0);
    }

    #[test]
    fn average_utilization_over_experiment() {
        let mut cpu = CpuResource::single_core();
        cpu.submit(SimTime::ZERO, Duration::from_millis(250));
        assert!((cpu.average_utilization(SimTime::from_secs(1)) - 25.0).abs() < 1e-9);
        assert_eq!(cpu.average_utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn busy_total_matches_the_microsecond_timeline() {
        // Virtual time drops the sub-microsecond half of each 1.5 µs job, so
        // the core's timeline holds 10 µs; the busy total must agree with it
        // and with what a sample attributes.
        let mut cpu = CpuResource::single_core();
        for _ in 0..10 {
            cpu.submit(SimTime::ZERO, Duration::from_nanos(1_500));
        }
        assert_eq!(cpu.drained_at(), SimTime::from_micros(10));
        assert_eq!(cpu.total_busy(), Duration::from_micros(10));
        let u = cpu.sample_utilization(SimTime::from_millis(1));
        assert!((u - 1.0).abs() < 1e-9, "{u}");
    }

    #[test]
    fn average_utilization_caps_at_full_capacity() {
        // Three 1 s jobs on 2 cores: by t = 1 s both cores were busy the
        // whole time, and the third job has not run yet.
        let mut cpu = CpuResource::new(2);
        for _ in 0..3 {
            cpu.submit(SimTime::ZERO, Duration::from_secs(1));
        }
        assert_eq!(cpu.average_utilization(SimTime::from_secs(1)), 100.0);
        assert!((cpu.average_utilization(SimTime::from_secs(2)) - 75.0).abs() < 1e-9);
    }

    #[test]
    fn core_heap_receipts_equal_the_cpu_resource_receipts() {
        // The bare heap must decide exactly what the resource it was split
        // out of decides, over seeded non-monotone arrivals (many sharing
        // an instant) with zero, sub-microsecond and long demands.
        for seed in 1..=24 {
            let mut rng = crate::rng::SimRng::seeded(seed);
            let cores = [1, 2, 3, 7, 64, 300][seed as usize % 6];
            let mut heap = CoreHeap::new(cores);
            let mut cpu = CpuResource::new(cores);
            for _ in 0..2_000 {
                let arrival = SimTime::from_micros((rng.uniform() * 200.0) as u64 * 100);
                let demand = match (rng.uniform() * 4.0) as u32 {
                    0 => Duration::ZERO,
                    1 => Duration::from_nanos((rng.uniform() * 1_000.0) as u64),
                    2 => Duration::from_nanos((rng.uniform() * 3e6) as u64),
                    _ => Duration::from_nanos((rng.uniform() * 1e9) as u64),
                };
                assert_eq!(heap.submit(arrival, demand), cpu.submit(arrival, demand));
                assert_eq!(heap.earliest_start(arrival), cpu.earliest_start(arrival));
                assert_eq!(heap.drained_at(), cpu.drained_at());
            }
            assert_eq!(heap.core_count(), cpu.core_count());
        }
    }

    #[test]
    fn queueing_delay_grows_with_offered_load() {
        // The mechanism behind Figure 8/10: identical work arriving at the
        // same instant on one core queues linearly.
        let mut cpu = CpuResource::single_core();
        let receipts: Vec<WorkReceipt> = (0..100)
            .map(|_| cpu.submit(SimTime::ZERO, Duration::from_millis(5)))
            .collect();
        let delays: Vec<Duration> = receipts.iter().map(|r| r.queueing_delay()).collect();
        assert_eq!(delays[0], Duration::ZERO);
        assert_eq!(delays[99], Duration::from_millis(495));
        // Monotone non-decreasing delay.
        assert!(delays.windows(2).all(|w| w[0] <= w[1]));
    }
}
