//! A fixed probe of how fast the host runs right now.
//!
//! The benchmark's host is shared, and its speed drifts by tens of percent
//! over seconds to minutes — in memory-bound work most. The probe is a
//! fixed piece of work of the same kind as the engine's hot paths: hashed
//! lookups that miss the core's private caches, in a table built once per
//! process with a fixed hasher. Timing it right after every step samples
//! the host's speed throughout a rep; the mean over the rep, divided by
//! [`REFERENCE_PROBE_S`], is the rep's *slowdown*.
//!
//! A timing at the reference host speed is its wall time divided by
//! `slowdown ^ elasticity`, the elasticity being the log-log slope of the
//! timing against the slowdown over reps of identical work on the
//! reference VM. Step throughput and the median step follow the probe
//! strongly ([`BULK_ELASTICITY`]); the step tail and set-up, which carry
//! more allocation and page-fault work, follow it about half as strongly
//! ([`TAIL_ELASTICITY`]).
//!
//! The probe's code and table never change with the program under test, so
//! a change to the program moves the normalised figures as it moves the
//! raw ones; what the slowdown takes out is the host's drift.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Entries in the probe table: about 10 MiB, several times a core's L2.
const TABLE_KEYS: u64 = 400_000;

/// Lookups per timing (about half a millisecond).
const LOOKUPS: u64 = 4_000;

/// Seconds one probe timing takes at the reference host speed: its median
/// on the 2-vCPU VM (Xeon, KVM) the benchmark's bounds were set on.
pub const REFERENCE_PROBE_S: f64 = 0.000_5;

/// Elasticity of step throughput and median step time to the slowdown.
/// Fitted slopes on the reference VM: 0.9–1.1 for a rep's total step time
/// (correlation 0.95–0.99), 1.1–1.6 for its median step.
pub const BULK_ELASTICITY: f64 = 1.0;

/// Elasticity of the p95 step time and of set-up to the slowdown. Fitted
/// slopes on the reference VM: 0.3–0.7.
pub const TAIL_ELASTICITY: f64 = 0.5;

/// `wall` (a duration) at the reference host speed, given the slowdown it
/// was measured under and its elasticity to it.
pub fn at_reference(wall: f64, slowdown: f64, elasticity: f64) -> f64 {
    wall / slowdown.powf(elasticity)
}

/// SplitMix64: scatters consecutive integers over the key space.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The probe: a hashed table and a cursor walking its keys.
#[derive(Debug)]
pub struct HostProbe {
    table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    cursor: u64,
}

impl Default for HostProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl HostProbe {
    /// Builds the table. `DefaultHasher` with the default build hasher has
    /// fixed keys, so every process lays the table out alike.
    pub fn new() -> Self {
        let mut table = HashMap::with_capacity_and_hasher(TABLE_KEYS as usize, Default::default());
        for i in 0..TABLE_KEYS {
            table.insert(splitmix(i), i);
        }
        Self { table, cursor: 0 }
    }

    /// Times one probe: [`LOOKUPS`] lookups of scattered keys. Returns
    /// seconds.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        let mut sum = 0u64;
        for _ in 0..LOOKUPS {
            self.cursor = (self.cursor + 1) % TABLE_KEYS;
            sum = sum.wrapping_add(self.table.get(&splitmix(self.cursor)).copied().unwrap_or(0));
        }
        black_box(sum);
        start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_lookup_hits() {
        let mut probe = HostProbe::new();
        let mut hits = 0;
        for i in 0..TABLE_KEYS {
            hits += u64::from(probe.table.get(&splitmix(i)) == Some(&i));
        }
        assert_eq!(hits, TABLE_KEYS);
        assert!(probe.time() > 0.0);
    }

    #[test]
    fn reference_speed_scales_by_the_elastic_slowdown() {
        assert_eq!(at_reference(2.0, 2.0, 1.0), 1.0);
        assert!((at_reference(2.0, 4.0, 0.5) - 1.0).abs() < 1e-12);
        assert_eq!(at_reference(3.0, 1.0, BULK_ELASTICITY), 3.0);
        assert_eq!(at_reference(3.0, 1.0, TAIL_ELASTICITY), 3.0);
    }
}
