//! The experiment harness binary: regenerates every table and figure of the
//! paper's evaluation section, with optional multi-trial parallel execution
//! and machine-readable JSON reports for CI.
//!
//! ```text
//! experiments fig6     [--quick] [--trials N] [--threads M] [--json [path]]
//! experiments table1   [--quick]
//! experiments fig7 | fig8 [--max N] [--trials N] [--threads M] [--json [path]]
//! experiments fig9 | fig10 [--max N] [--trials N] [--threads M] [--json [path]]
//! experiments all      [--quick] [...]           everything above
//! experiments gate --candidate X.json --baseline Y.json [--threshold 0.2]
//! ```
//!
//! `--quick` runs the compressed timeline (shorter phases, same structure).
//! `--trials N` repeats every experiment N times with deterministic seeds
//! (`base seed + trial index`, override the base with `--base-seed S`) and
//! reports mean/p50/p95/stddev per point; `--threads M` shards the trials
//! over M worker threads without changing any result. `--json` writes the
//! report to `BENCH_<fig>.json` (or the given path). `gate` compares a
//! candidate report against a checked-in baseline and exits non-zero when a
//! point's mean regressed beyond the threshold — the CI perf gate.
//!
//! Everything runs in virtual time, so even the full sweeps finish in
//! seconds to minutes of wall-clock time.

use bifrost_bench::runner::RunnerConfig;
use bifrost_bench::{fig6, fig7_fig8, fig9_fig10, table1};
use bifrost_bench::{report, suite, BenchReport};
use bifrost_core::seed::Seed;

const USAGE: &str = "usage: experiments <fig6|table1|fig7|fig8|fig9|fig10|traffic|sessions|backends|all> \
[--quick] [--max N] [--requests N] [--trials N] [--threads M] [--base-seed S] [--json [path]]\n       \
experiments gate --candidate <report.json> --baseline <baseline.json> [--threshold 0.2]\n       \
experiments list-points <figure>\n       \
experiments check-baselines [dir]      validate every baseline*.json in dir (default crates/bench)\n\n\
--max, --requests, --trials and --threads must be at least 1 and --threshold a\n\
finite number >= 0; --threads defaults to the machine's available parallelism\n\
(thread count never changes any result).";

/// Parsed command-line options shared by the figure commands.
struct Options {
    quick: bool,
    max: Option<usize>,
    requests: Option<usize>,
    runner: RunnerConfig,
    /// Whether `--base-seed` was given explicitly (forces the seeded
    /// multi-trial path even for a single trial).
    seeded: bool,
    /// `Some(None)` = `--json` with the default file name,
    /// `Some(Some(path))` = explicit path.
    json: Option<Option<String>>,
}

fn value_of(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parses a flag's value when the flag is given. A missing, malformed or
/// invalid value is a usage error (exit 2), never a silent fall-back to
/// the default.
fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    expected: &str,
    valid: impl Fn(&T) -> bool,
) -> Option<T> {
    let index = args.iter().position(|a| a == flag)?;
    let value = args.get(index + 1).map_or("", String::as_str);
    match value.parse::<T>() {
        Ok(parsed) if valid(&parsed) => Some(parsed),
        _ => {
            eprintln!("{flag} must be {expected}, got '{value}'\n{USAGE}");
            std::process::exit(2);
        }
    }
}

/// Parses a count flag that must be at least 1 when given: an explicit 0
/// is a usage error, not a silently clamped degenerate run.
fn parse_count(args: &[String], flag: &str) -> Option<usize> {
    parse_flag(args, flag, "a positive integer", |&count| count >= 1)
}

fn parse_options(args: &[String]) -> Options {
    let json = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).filter(|v| !v.starts_with("--")).cloned());
    let base_seed = parse_flag::<u64>(args, "--base-seed", "a non-negative integer", |_| true);
    let trials = parse_count(args, "--trials").unwrap_or(1);
    // Trials are seed-deterministic and independent, so the only sensible
    // default is to use the machine (run_trials caps workers at the trial
    // count, so single-trial runs stay serial).
    let threads = parse_count(args, "--threads").unwrap_or_else(RunnerConfig::auto_threads);
    Options {
        quick: args.iter().any(|a| a == "--quick"),
        max: parse_count(args, "--max"),
        requests: parse_count(args, "--requests"),
        runner: RunnerConfig::default()
            .with_trials(trials)
            .with_threads(threads)
            .with_base_seed(base_seed.map(Seed::new).unwrap_or_default()),
        seeded: base_seed.is_some(),
        json,
    }
}

/// Runs one figure through the multi-trial suite, prints its table, and
/// writes the JSON report when requested. Exits the process on I/O errors.
fn run_suite_figure(figure: &str, options: &Options) {
    let report = suite::run_figure(
        figure,
        options.quick,
        options.max,
        options.requests,
        &options.runner,
    )
    .unwrap_or_else(|| {
        eprintln!("unknown figure '{figure}'");
        std::process::exit(2);
    });
    print!("{}", report::render_bench_report(&report));
    if let Some(path) = &options.json {
        let path = path
            .clone()
            .unwrap_or_else(|| BenchReport::file_name(figure));
        if let Err(error) = std::fs::write(&path, report.render_json()) {
            eprintln!("cannot write '{path}': {error}");
            std::process::exit(2);
        }
        println!("wrote {path}");
    }
}

/// The single-trial legacy renderings (no --trials flag): exactly the
/// paper-shaped text tables.
fn run_single_trial(command: &str, options: &Options) {
    match command {
        "fig6" => {
            let series = fig6::run(options.quick);
            print!("{}", report::render_fig6(&series));
            print!("{}", report::render_expectations(&series));
        }
        "fig7" | "fig8" | "fig7_fig8" => {
            let max = options.max.unwrap_or(if options.quick { 60 } else { 130 });
            let points = fig7_fig8::run(max);
            print!("{}", report::render_fig7_fig8(&points));
        }
        "fig9" | "fig10" | "fig9_fig10" => {
            let max = options
                .max
                .unwrap_or(if options.quick { 400 } else { 1_600 });
            let points = fig9_fig10::run(max);
            print!("{}", report::render_fig9_fig10(&points));
        }
        _ => unreachable!("caller dispatches only figure commands"),
    }
}

fn run_figure_command(command: &str, options: &Options) {
    // Multi-trial mode, an explicit JSON request, or an explicit seed goes
    // through the suite; the bare single-trial invocation keeps the
    // original paper-shaped output. The traffic, sessions, and backends
    // figures are suite-only (they have no paper-shaped legacy table).
    if matches!(command, "traffic" | "sessions" | "backends")
        || options.runner.trials > 1
        || options.json.is_some()
        || options.seeded
    {
        run_suite_figure(command, options);
    } else {
        run_single_trial(command, options);
    }
}

fn run_gate(args: &[String]) -> ! {
    let load = |flag: &str| -> BenchReport {
        let path = value_of(args, flag).unwrap_or_else(|| {
            eprintln!("gate requires {flag} <report.json>\n{USAGE}");
            std::process::exit(2);
        });
        let text = std::fs::read_to_string(&path).unwrap_or_else(|error| {
            eprintln!("cannot read '{path}': {error}");
            std::process::exit(2);
        });
        BenchReport::parse(&text).unwrap_or_else(|error| {
            eprintln!("invalid report '{path}': {error}");
            std::process::exit(2);
        })
    };
    let threshold = parse_flag(args, "--threshold", "a finite number >= 0", |t: &f64| {
        t.is_finite() && *t >= 0.0
    })
    .unwrap_or(0.2);
    let candidate = load("--candidate");
    let baseline = load("--baseline");
    let result = bifrost_bench::gate(&candidate, &baseline, threshold);
    print!("{}", result.render());
    std::process::exit(if result.passed() { 0 } else { 1 });
}

/// Validates every `baseline*.json` in `dir` (default `crates/bench`):
/// each must parse as a bench report, name a figure the suite knows, and
/// only contain point labels the suite can emit for that figure — so a
/// renamed figure or point fails the lint job fast instead of silently
/// skipping its regression gate. Exits non-zero on the first problem-set.
fn run_check_baselines(dir: Option<&str>) -> ! {
    let dir = dir.unwrap_or("crates/bench");
    let entries = std::fs::read_dir(dir).unwrap_or_else(|error| {
        eprintln!("cannot read baseline directory '{dir}': {error}");
        std::process::exit(2);
    });
    let mut baselines = 0usize;
    let mut problems = Vec::new();
    let mut names: Vec<_> = entries
        .filter_map(|entry| entry.ok().map(|e| e.file_name()))
        .filter_map(|name| name.into_string().ok())
        .filter(|name| name.starts_with("baseline") && name.ends_with(".json"))
        .collect();
    names.sort();
    for name in names {
        baselines += 1;
        let path = format!("{dir}/{name}");
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(error) => {
                problems.push(format!("{path}: unreadable: {error}"));
                continue;
            }
        };
        let report = match BenchReport::parse(&text) {
            Ok(report) => report,
            Err(error) => {
                problems.push(format!("{path}: invalid report: {error}"));
                continue;
            }
        };
        let Some(known) = suite::point_names(&report.figure) else {
            problems.push(format!(
                "{path}: figure '{}' is not in the suite",
                report.figure
            ));
            continue;
        };
        if report.points.is_empty() {
            problems.push(format!("{path}: no points — nothing would be gated"));
        }
        for point in &report.points {
            if !known.contains(&point.point) {
                problems.push(format!(
                    "{path}: point '{}' is not emitted by figure '{}'",
                    point.point, report.figure
                ));
            }
        }
        println!(
            "checked {path} (figure {}, {} points)",
            report.figure,
            report.points.len()
        );
    }
    if baselines == 0 {
        problems.push(format!("no baseline*.json files found in '{dir}'"));
    }
    if problems.is_empty() {
        println!("check-baselines: OK ({baselines} baseline files in sync with bench::suite)");
        std::process::exit(0);
    }
    for problem in &problems {
        eprintln!("check-baselines: {problem}");
    }
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("all");
    let options = parse_options(&args);

    match command {
        "gate" => run_gate(&args),
        "table1" => {
            let rows = table1::run(options.quick);
            print!("{}", report::render_table1(&rows));
        }
        "list-points" => {
            let figure = args.get(1).map(String::as_str).unwrap_or_else(|| {
                eprintln!("list-points requires a figure name\n{USAGE}");
                std::process::exit(2);
            });
            let names = suite::point_names(figure).unwrap_or_else(|| {
                eprintln!("unknown figure '{figure}'");
                std::process::exit(2);
            });
            for name in names {
                println!("{name}");
            }
        }
        "check-baselines" => run_check_baselines(args.get(1).map(String::as_str)),
        "fig6" | "fig7" | "fig8" | "fig7_fig8" | "fig9" | "fig10" | "fig9_fig10" | "traffic"
        | "sessions" | "backends" => {
            run_figure_command(command, &options);
        }
        "all" => {
            let mut options = options;
            // One explicit --json path cannot hold several figures: fall
            // back to the per-figure BENCH_<fig>.json names.
            if let Some(Some(path)) = &options.json {
                eprintln!("note: 'all' ignores the explicit path '{path}' and writes BENCH_<fig>.json per figure");
                options.json = Some(None);
            }
            for figure in ["fig6", "fig7", "fig9", "traffic", "sessions", "backends"] {
                run_figure_command(figure, &options);
            }
            let rows = table1::run(options.quick);
            print!("{}", report::render_table1(&rows));
        }
        "help" | "--help" | "-h" => {
            eprintln!("{USAGE}");
        }
        other => {
            eprintln!("unknown experiment '{other}'\n{USAGE}");
            std::process::exit(2);
        }
    }
}
