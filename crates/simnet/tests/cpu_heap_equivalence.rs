//! Equivalence of [`CpuResource`]'s heap of core free times with the
//! linear scan it replaced. The heap keeps cores anonymous, which is only
//! sound if receipts depend on nothing but the multiset of free times: this
//! property drives both with the same non-monotone arrivals (many at equal
//! instants, so cores tie), zero and sub-microsecond demands and many-core
//! VMs, and requires identical receipts, `earliest_start`, `drained_at`,
//! busy totals and windowed utilisation throughout.

use bifrost_simnet::{CpuResource, SimTime, WorkReceipt};
use proptest::collection::vec as any_vec;
use proptest::prelude::*;
use std::time::Duration;

/// The reference: every submit scans all cores for the earliest free one,
/// and a sample overlaps every interval ever executed with its window.
struct ScanCpu {
    cores: Vec<SimTime>,
    intervals: Vec<(SimTime, SimTime)>,
    last_sample_at: SimTime,
}

impl ScanCpu {
    fn new(cores: usize) -> Self {
        Self {
            cores: vec![SimTime::ZERO; cores],
            intervals: Vec::new(),
            last_sample_at: SimTime::ZERO,
        }
    }

    fn submit(&mut self, arrival: SimTime, demand: Duration) -> WorkReceipt {
        let (idx, earliest) = (self.cores.iter().copied().enumerate())
            .min_by_key(|(_, t)| *t)
            .unwrap();
        let started = earliest.max(arrival);
        let completed = started + demand;
        self.cores[idx] = completed;
        self.intervals.push((started, completed));
        WorkReceipt {
            arrived: arrival,
            started,
            completed,
        }
    }

    fn earliest_start(&self, arrival: SimTime) -> SimTime {
        self.cores.iter().copied().min().unwrap().max(arrival)
    }

    fn drained_at(&self) -> SimTime {
        self.cores.iter().copied().max().unwrap()
    }

    fn busy(&self) -> Duration {
        self.intervals.iter().map(|&(start, end)| end - start).sum()
    }

    fn sample_utilization(&mut self, now: SimTime) -> f64 {
        let from = std::mem::replace(&mut self.last_sample_at, now);
        let window = now - from;
        if window.is_zero() {
            return 0.0;
        }
        // `SimTime` subtraction saturates, so a disjoint interval adds zero.
        let busy: Duration = (self.intervals.iter())
            .map(|&(start, end)| end.min(now) - start.max(from))
            .sum();
        let capacity = window.as_secs_f64() * self.cores.len() as f64;
        (busy.as_secs_f64() / capacity * 100.0).min(100.0)
    }
}

/// Decodes a demand draw: a quarter each of zero, sub-microsecond,
/// fractional-microsecond up to 3 ms, and long (up to 1 s) demands.
fn demand(code: u64) -> Duration {
    match code % 4 {
        0 => Duration::ZERO,
        1 => Duration::from_nanos(code % 1_000),
        2 => Duration::from_nanos(code),
        _ => Duration::from_nanos(code * 333),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn heap_matches_the_linear_scan(
        cores in 1usize..=600,
        // Arrival slots on a 100 µs grid over 0.2 s, in random order: the
        // sequence is non-monotone and many arrivals share an instant.
        slots in any_vec(0u64..2_000, 1..1_200),
        demand_codes in any_vec(0u64..3_000_000, 1..64),
        // About one submit in seven is followed by a sample, each advancing
        // a monotone clock by up to ~14 ms — often to before arrivals that
        // come later in the sequence.
        cut_codes in any_vec(0u64..1_000, 1..64),
    ) {
        let mut heap = CpuResource::new(cores);
        let mut scan = ScanCpu::new(cores);
        let mut now = SimTime::ZERO;
        let codes = demand_codes.iter().cycle().zip(cut_codes.iter().cycle());
        for (i, (&slot, (&demand_code, &cut_code))) in slots.iter().zip(codes).enumerate() {
            let arrival = SimTime::from_micros(slot * 100);
            let work = demand(demand_code);
            let expected = scan.submit(arrival, work);
            let got = heap.submit(arrival, work);
            prop_assert!(got == expected, "submit {i}: {got:?} vs {expected:?}");
            prop_assert_eq!(heap.earliest_start(arrival), scan.earliest_start(arrival));
            prop_assert_eq!(heap.drained_at(), scan.drained_at());
            if cut_code < 140 {
                now += Duration::from_micros(cut_code * 97);
                let (got, expected) = (heap.sample_utilization(now), scan.sample_utilization(now));
                prop_assert!(got == expected, "sample at {now} after submit {i}: {got} vs {expected}");
            }
        }
        prop_assert_eq!(heap.total_busy(), scan.busy());
        prop_assert_eq!(heap.executed(), slots.len() as u64);
        let end = now.max(scan.drained_at()) + Duration::from_millis(1);
        prop_assert_eq!(heap.sample_utilization(end), scan.sample_utilization(end));
    }
}
