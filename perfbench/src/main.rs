//! `bifrost-perfbench`: wall-clock benchmark of Bifrost enactment over
//! request-level traffic.
//!
//! ```text
//! bifrost-perfbench --workload <sticky_rollout|canary_overload|fleet_checks>
//!                   [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! `--trace 0` (the default) enacts the workload repeatedly for `--seconds`
//! and prints the end-to-end metrics; `--trace 1` runs one engine pass with
//! spans plus a per-layer replay and prints the per-layer metrics. Either
//! way the last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`), and a run that fails a
//! correctness check exits with status 1. See `README.md` for the
//! workloads, metrics and noise notes.

mod gate;
mod json;
mod measure;
mod probe;
#[cfg(test)]
mod selftest;
mod trace;
mod workloads;

use bifrost_core::seed::Seed;
use json::{result_line, Metric};
use probe::{at_reference, BULK_ELASTICITY, TAIL_ELASTICITY};
use std::process::ExitCode;
use std::time::Duration;
use workloads::Workload;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: bifrost-perfbench --workload <sticky_rollout|canary_overload|fleet_checks> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or("--seconds takes an integer from 1 to 600")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or_else(|| workload.default_seed()),
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} (default {}, held out {}) seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.workload.default_seed(),
        args.workload.held_out_seed(),
        args.seconds,
        u8::from(args.trace)
    );
    let (attempted, failed, metrics, failures) = if args.trace {
        let traced = trace::run(args.workload, 1.0, Seed::new(args.seed));
        let failed = u64::from(!traced.failures.is_empty());
        (traced.passes, failed, traced.metrics, traced.failures)
    } else {
        untraced(&args)
    };
    let correct = failures.is_empty();
    for metric in &metrics {
        println!("{:<32} {:>16.6} {}", metric.name, metric.value, metric.unit);
    }
    for failure in &failures {
        println!("FAILED: {failure}");
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the untraced mode; returns reps attempted, reps failed, the
/// end-to-end metrics, and any correctness violations.
fn untraced(args: &Args) -> (u64, u64, Vec<Metric>, Vec<String>) {
    let run = measure::measure(
        args.workload,
        1.0,
        Seed::new(args.seed),
        Duration::from_secs(args.seconds),
    );
    for (index, rep) in run.reps.iter().enumerate() {
        println!(
            "rep {index}: wall setup {:.4} s, {:.0} requests/s, step p50 {:.3} ms, p95 {:.3} ms; slowdown {:.4}",
            rep.setup_s(),
            rep.sim_rps(),
            rep.step_ms(0.50),
            rep.step_ms(0.95),
            rep.slowdown
        );
    }
    let steps: usize = run.reps.iter().map(|r| r.steps_s.len()).sum();
    println!(
        "{} reps of {} steps ({steps} steps in all), {} set-ups per rep; every timing is at the reference host speed (wall time ÷ the rep's slowdown ^ elasticity), the median over reps (set-up: over all set-ups)",
        run.reps.len(),
        run.reps[0].steps_s.len(),
        measure::SETUPS_PER_REP,
    );
    let metrics = vec![
        Metric::new(
            "sim_rps",
            run.median_over_reps(|r| {
                r.outcome.requests() as f64
                    / at_reference(r.steps_s.iter().sum(), r.slowdown, BULK_ELASTICITY)
            }),
            "requests/s",
        ),
        Metric::new(
            "step_p50_ms",
            run.median_over_reps(|r| at_reference(r.step_ms(0.50), r.slowdown, BULK_ELASTICITY)),
            "ms",
        ),
        Metric::new(
            "step_p95_ms",
            run.median_over_reps(|r| at_reference(r.step_ms(0.95), r.slowdown, TAIL_ELASTICITY)),
            "ms",
        ),
        Metric::new("setup_s", run.setup_s(), "s"),
        Metric::new("peak_rss_mb", run.peak_rss_mb, "MiB"),
        Metric::new("error_frac", run.error_frac(), "ratio"),
    ];
    // A violation found across reps (digest, plan length) fails the run even
    // when every rep passed on its own.
    let failed = run.reps.iter().filter(|r| !r.failures.is_empty()).count() as u64;
    let failed = failed.max(u64::from(!run.failures.is_empty()));
    (run.reps.len() as u64, failed, metrics, run.failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_full_command_line() {
        let parsed = args(&[
            "--workload",
            "fleet_checks",
            "--seed",
            "9",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            parsed,
            Args {
                workload: Workload::FleetChecks,
                seed: 9,
                seconds: 20,
                trace: true
            }
        );
        let defaults = args(&["--workload", "sticky_rollout"]).unwrap();
        assert_eq!(defaults.seed, Workload::StickyRollout.default_seed());
        assert!(!defaults.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "sticky_rollout", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "sticky_rollout", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "sticky_rollout", "--bogus"]).is_err());
    }
}
