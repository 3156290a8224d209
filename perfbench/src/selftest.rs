//! Self-tests: reduced-size runs of every workload pass the correctness
//! gate on the default and the held-out seed, and the traced replay counts
//! what the engine pass routed.

use crate::measure::{measure, MIN_REPS};
use crate::trace;
use crate::workloads::Workload;
use bifrost_core::seed::Seed;
use std::time::Duration;

/// A quarter of the measured request rate: enough traffic per proxy
/// configuration for the 1-point share tolerance, small enough for seconds.
const SCALE: f64 = 0.25;

fn assert_gate_passes(workload: Workload, seed: u64) {
    // A zero budget still makes the minimum reps, so the digest check runs.
    let run = measure(workload, SCALE, Seed::new(seed), Duration::ZERO);
    assert_eq!(run.reps.len(), MIN_REPS);
    assert!(
        run.failures.is_empty(),
        "{} seed {seed}: {:#?}",
        workload.name(),
        run.failures
    );
    let error_frac = run.error_frac();
    assert!(
        error_frac > 0.0 && error_frac < 0.1,
        "error_frac {error_frac}"
    );
}

#[test]
fn sticky_rollout_passes_the_gate_on_both_seeds() {
    let w = Workload::StickyRollout;
    assert_gate_passes(w, w.default_seed());
    assert_gate_passes(w, w.held_out_seed());
}

#[test]
fn canary_overload_passes_the_gate_on_both_seeds() {
    let w = Workload::CanaryOverload;
    assert_gate_passes(w, w.default_seed());
    assert_gate_passes(w, w.held_out_seed());
}

#[test]
fn fleet_checks_passes_the_gate_on_both_seeds() {
    let w = Workload::FleetChecks;
    assert_gate_passes(w, w.default_seed());
    assert_gate_passes(w, w.held_out_seed());
}

#[test]
fn traced_replay_matches_the_engine_pass() {
    for workload in Workload::ALL {
        let traced = trace::run(workload, SCALE, Seed::new(workload.default_seed()));
        assert!(
            traced.failures.is_empty(),
            "{}: {:#?}",
            workload.name(),
            traced.failures
        );
        let value = |name: &str| {
            traced
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .value
        };
        assert!(value("proxy.route_ns_per_req") > 0.0);
        assert!(value("workload.arrivals") > 0.0);
        assert!(value("engine.checks_executed") > 0.0);
    }
}
