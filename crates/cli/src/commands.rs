//! CLI commands: argument parsing and command execution.

use crate::dashboard::Dashboard;
use bifrost_casestudy::prelude::*;
use bifrost_dsl::{BackendDoc, EngineDoc};
use bifrost_engine::{BackendProfile, BifrostEngine, EngineConfig, QueuedBackend, TrafficProfile};
use bifrost_metrics::SharedMetricStore;
use bifrost_simnet::SimTime;
use bifrost_workload::LoadProfile;
use std::error::Error;
use std::fmt;
use std::fs;
use std::path::PathBuf;
use std::time::Duration;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// The arguments did not match any command; carries the usage text.
    Usage(String),
    /// A strategy file could not be read.
    Io {
        /// The file that failed to load.
        path: PathBuf,
        /// The underlying error message.
        message: String,
    },
    /// The strategy file failed to parse or compile.
    Dsl(bifrost_dsl::DslError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(usage) => write!(f, "{usage}"),
            CliError::Io { path, message } => {
                write!(f, "cannot read '{}': {message}", path.display())
            }
            CliError::Dsl(err) => write!(f, "invalid strategy: {err}"),
        }
    }
}

impl Error for CliError {}

impl From<bifrost_dsl::DslError> for CliError {
    fn from(err: bifrost_dsl::DslError) -> Self {
        CliError::Dsl(err)
    }
}

/// The usage text shown for `--help` and argument errors.
pub const USAGE: &str = "bifrost — automated enactment of multi-phase live testing strategies

USAGE:
    bifrost validate <strategy.yml>     check a strategy file and print its summary
    bifrost dot <strategy.yml>          render the strategy's automaton as Graphviz dot
    bifrost run <strategy.yml> [--verbose] [--deadline <secs>] [--traffic <rps>]
                                        enact the strategy against the simulated deployment
                                        (--traffic drives seeded request-level traffic through
                                        every proxied service, shaped by the file's
                                        engine: tick, cores, and backends)
    bifrost demo [--verbose]            run the product-replacement evaluation scenario
    bifrost help                        show this message";

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Validate a strategy file.
    Validate {
        /// Path to the strategy file.
        path: PathBuf,
    },
    /// Render a strategy's automaton as Graphviz dot.
    Dot {
        /// Path to the strategy file.
        path: PathBuf,
    },
    /// Enact a strategy against the simulated deployment.
    Run {
        /// Path to the strategy file.
        path: PathBuf,
        /// Show individual check executions.
        verbose: bool,
        /// Virtual-time deadline in seconds.
        deadline_secs: u64,
        /// Request rate of seeded request-level traffic to drive through
        /// every proxied service (`--traffic`); `None` enacts without
        /// traffic (the historical behaviour).
        traffic_rps: Option<f64>,
    },
    /// Run the built-in product-replacement demo scenario.
    Demo {
        /// Show individual check executions.
        verbose: bool,
    },
    /// Print the usage text.
    Help,
}

impl Command {
    /// Parses process arguments (without the binary name).
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] when the arguments do not form a valid
    /// command.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut iter = args.iter().map(String::as_str);
        match iter.next() {
            None | Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
            Some("validate") => {
                let path = iter
                    .next()
                    .ok_or_else(|| CliError::Usage(USAGE.to_string()))?;
                Ok(Command::Validate { path: path.into() })
            }
            Some("dot") => {
                let path = iter
                    .next()
                    .ok_or_else(|| CliError::Usage(USAGE.to_string()))?;
                Ok(Command::Dot { path: path.into() })
            }
            Some("run") => {
                let path = iter
                    .next()
                    .ok_or_else(|| CliError::Usage(USAGE.to_string()))?;
                let mut verbose = false;
                let mut deadline_secs = 7 * 24 * 3_600;
                let mut traffic_rps = None;
                let rest: Vec<&str> = iter.collect();
                let mut i = 0;
                while i < rest.len() {
                    match rest[i] {
                        "--verbose" | "-v" => verbose = true,
                        "--deadline" => {
                            i += 1;
                            deadline_secs = rest
                                .get(i)
                                .and_then(|s| s.parse().ok())
                                .ok_or_else(|| CliError::Usage(USAGE.to_string()))?;
                        }
                        "--traffic" => {
                            i += 1;
                            let rps: f64 = rest
                                .get(i)
                                .and_then(|s| s.parse().ok())
                                .filter(|v: &f64| v.is_finite() && *v > 0.0)
                                .ok_or_else(|| CliError::Usage(USAGE.to_string()))?;
                            traffic_rps = Some(rps);
                        }
                        _ => return Err(CliError::Usage(USAGE.to_string())),
                    }
                    i += 1;
                }
                Ok(Command::Run {
                    path: path.into(),
                    verbose,
                    deadline_secs,
                    traffic_rps,
                })
            }
            Some("demo") => {
                let verbose = iter.any(|a| a == "--verbose" || a == "-v");
                Ok(Command::Demo { verbose })
            }
            Some(other) => Err(CliError::Usage(format!(
                "unknown command '{other}'\n\n{USAGE}"
            ))),
        }
    }
}

/// The result of executing a command: the text to print and the exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandOutput {
    /// Text to print to stdout.
    pub text: String,
    /// Process exit code (0 = success).
    pub exit_code: i32,
}

impl CommandOutput {
    fn ok(text: impl Into<String>) -> Self {
        Self {
            text: text.into(),
            exit_code: 0,
        }
    }
}

/// Executes a parsed command.
///
/// # Errors
///
/// Returns a [`CliError`] for unreadable files or invalid strategy documents.
pub fn run_command(command: &Command) -> Result<CommandOutput, CliError> {
    match command {
        Command::Help => Ok(CommandOutput::ok(USAGE)),
        Command::Validate { path } => {
            let strategy = load_strategy(path)?;
            let mut text = format!(
                "strategy '{}' is valid\n  services: {}\n  versions: {}\n  states: {}\n  nominal duration: {:.0}s\n",
                strategy.name(),
                strategy.services().service_count(),
                strategy.services().version_count(),
                strategy.automaton().state_count(),
                strategy.nominal_duration().as_secs_f64(),
            );
            for (id, state) in strategy.automaton().states() {
                text.push_str(&format!(
                    "  {} '{}' ({} checks, {:.0}s)\n",
                    id,
                    state.name(),
                    state.checks().len(),
                    state.duration().as_secs_f64()
                ));
            }
            Ok(CommandOutput::ok(text))
        }
        Command::Dot { path } => {
            let strategy = load_strategy(path)?;
            Ok(CommandOutput::ok(strategy.automaton().to_dot()))
        }
        Command::Run {
            path,
            verbose,
            deadline_secs,
            traffic_rps,
        } => {
            let document = load_document(path)?;
            let strategy = bifrost_dsl::compile(&document)?;
            Ok(enact_strategy(
                strategy,
                &document.engine,
                *verbose,
                *deadline_secs,
                *traffic_rps,
            ))
        }
        Command::Demo { verbose } => Ok(run_demo(*verbose)),
    }
}

fn load_document(path: &PathBuf) -> Result<bifrost_dsl::StrategyDocument, CliError> {
    let source = fs::read_to_string(path).map_err(|e| CliError::Io {
        path: path.clone(),
        message: e.to_string(),
    })?;
    Ok(bifrost_dsl::parse_document(&source)?)
}

fn load_strategy(path: &PathBuf) -> Result<bifrost_core::Strategy, CliError> {
    Ok(bifrost_dsl::compile(&load_document(path)?)?)
}

/// Builds the queued backend of one `engine: backends:` declaration.
fn queued_from_doc(doc: &BackendDoc) -> QueuedBackend {
    QueuedBackend::new(Duration::from_millis(doc.service_time_ms))
        .with_error_rate(doc.error_rate)
        .with_replicas(doc.replicas)
        .with_queue_capacity(doc.queue_capacity)
        .with_timeout(Duration::from_millis(doc.timeout_ms))
}

/// Enacts a compiled strategy against an engine with an in-process metric
/// store. Without `--traffic` no application feeds the store, so checks
/// without data fail — useful for dry-running check-free strategies and
/// inspecting the enactment timeline. With `--traffic` a seeded
/// request-level workload flows through every proxied service and its
/// backends (shaped by the file's `engine:` section), so checks evaluate
/// observed series: latency, errors, shed rate, utilisation.
fn enact_strategy(
    strategy: bifrost_core::Strategy,
    engine_doc: &EngineDoc,
    verbose: bool,
    deadline_secs: u64,
    traffic_rps: Option<f64>,
) -> CommandOutput {
    let store = SharedMetricStore::new();
    let mut engine = BifrostEngine::new(EngineConfig::default());
    engine.register_store_provider("prometheus", store.clone());
    // Register one proxy per service, defaulting to the first version.
    let registrations: Vec<_> = strategy
        .services()
        .services()
        .map(|(id, _)| (id, strategy.services().versions_of(id)))
        .collect();
    for (service, versions) in &registrations {
        if let Some(default) = versions.first() {
            engine.register_proxy(*service, *default);
        }
    }
    // Attach a traffic stream per proxied service, its backends shaped by
    // the strategy file's engine section.
    let mut streams = Vec::new();
    if let Some(rps) = traffic_rps {
        let nominal = strategy.nominal_duration().as_secs() + 30;
        let duration = Duration::from_secs(deadline_secs.min(nominal));
        let catalog = strategy.services();
        for (service_id, versions) in &registrations {
            let service_name = catalog
                .service(*service_id)
                .map(|s| s.name().to_string())
                .unwrap_or_else(|| service_id.to_string());
            let load = LoadProfile::paper_profile(duration).with_rate(rps);
            let mut profile =
                TrafficProfile::new(*service_id, load).with_service_label(service_name.clone());
            if let Some(tick) = engine_doc.tick_secs {
                profile = profile.with_tick(Duration::from_secs_f64(tick));
            }
            if let Some(cores) = engine_doc.cores {
                profile = profile.with_cores(cores);
            }
            for vid in versions {
                let Some(version) = catalog.version(*vid) else {
                    continue;
                };
                profile = match engine_doc
                    .backends
                    .iter()
                    .find(|b| b.matches(&service_name, version.name()))
                {
                    Some(doc) => {
                        profile.with_queued_backend(*vid, version.name(), queued_from_doc(doc))
                    }
                    None => profile.with_backend(*vid, version.name(), BackendProfile::default()),
                };
            }
            let handle = engine.attach_traffic(profile, store.clone());
            streams.push((service_name, handle));
        }
    }
    let handle = engine.schedule(strategy, SimTime::ZERO);
    engine.run_to_completion(SimTime::from_secs(deadline_secs));
    let dashboard = Dashboard::new().verbose(verbose);
    let mut text = dashboard.render(&engine);
    let exit_code = match engine.report(handle) {
        Some(report) if report.succeeded() => 0,
        Some(_) => 1,
        None => 2,
    };
    for (service, stream) in streams {
        let Some(stats) = engine.traffic_stats(stream) else {
            continue;
        };
        text.push_str(&format!(
            "traffic {service}: {} requests, {} errors, {} shed, {} timed out, mean {:.1}ms, p95 {:.1}ms\n",
            stats.requests,
            stats.errors,
            stats.shed,
            stats.timed_out,
            stats.mean_latency_ms(),
            stats.latency_quantile_ms(0.95),
        ));
    }
    text.push_str(&dashboard.progress_line(&engine));
    text.push('\n');
    CommandOutput { text, exit_code }
}

/// Runs the compressed product-replacement scenario end to end (load
/// generation, application, engine) and prints the per-phase overhead table.
fn run_demo(verbose: bool) -> CommandOutput {
    let experiment = OverheadExperiment::compressed();
    let baseline = experiment.run_variant(Variant::Baseline);
    let active = experiment.run_variant(Variant::Active);

    let mut text = String::from("product-replacement demo (compressed timeline)\n\n");
    text.push_str("phase              baseline-mean  active-mean  overhead\n");
    for window in &active.windows {
        let base = baseline.phase_mean(&window.name).unwrap_or(f64::NAN);
        let act = active.phase_mean(&window.name).unwrap_or(f64::NAN);
        text.push_str(&format!(
            "{:<18} {:>10.2}ms {:>10.2}ms {:>8.2}ms\n",
            window.name,
            base,
            act,
            act - base
        ));
    }
    text.push_str(&format!(
        "\nstrategy finished successfully: {}\n",
        active.strategy_succeeded.unwrap_or(false)
    ));
    if verbose {
        text.push_str(&format!(
            "requests recorded: baseline={} active={}\n",
            baseline.recorder.len(),
            active.recorder.len()
        ));
    }
    CommandOutput::ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_basic_commands() {
        assert_eq!(Command::parse(&[]).unwrap(), Command::Help);
        assert_eq!(Command::parse(&strings(&["help"])).unwrap(), Command::Help);
        assert_eq!(
            Command::parse(&strings(&["validate", "s.yml"])).unwrap(),
            Command::Validate {
                path: "s.yml".into()
            }
        );
        assert_eq!(
            Command::parse(&strings(&["dot", "s.yml"])).unwrap(),
            Command::Dot {
                path: "s.yml".into()
            }
        );
        assert_eq!(
            Command::parse(&strings(&[
                "run",
                "s.yml",
                "--verbose",
                "--deadline",
                "600",
                "--traffic",
                "250.5",
            ]))
            .unwrap(),
            Command::Run {
                path: "s.yml".into(),
                verbose: true,
                deadline_secs: 600,
                traffic_rps: Some(250.5),
            }
        );
        assert!(Command::parse(&strings(&["run", "s.yml", "--traffic", "0"])).is_err());
        assert!(Command::parse(&strings(&["run", "s.yml", "--traffic", "-5"])).is_err());
        assert!(Command::parse(&strings(&["bench"])).is_err());
        assert_eq!(
            Command::parse(&strings(&["demo", "-v"])).unwrap(),
            Command::Demo { verbose: true }
        );
    }

    #[test]
    fn parse_rejects_unknown_and_incomplete_commands() {
        assert!(matches!(
            Command::parse(&strings(&["frobnicate"])),
            Err(CliError::Usage(_))
        ));
        assert!(Command::parse(&strings(&["validate"])).is_err());
        assert!(Command::parse(&strings(&["run", "s.yml", "--deadline"])).is_err());
        assert!(Command::parse(&strings(&["run", "s.yml", "--bogus"])).is_err());
    }

    #[test]
    fn help_command_prints_usage() {
        let output = run_command(&Command::Help).unwrap();
        assert_eq!(output.exit_code, 0);
        assert!(output.text.contains("USAGE"));
    }

    #[test]
    fn validate_and_dot_and_run_on_a_real_file() {
        let dir = std::env::temp_dir().join(format!("bifrost-cli-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("strategy.yml");
        fs::write(
            &path,
            r#"
name: cli-test
strategy:
  phases:
    - phase: canary
      service: search
      stable: v1
      candidate: v2
      traffic: 5
      duration: 30
    - phase: ab_test
      service: search
      a: v1
      b: v2
      duration: 30
"#,
        )
        .unwrap();

        let validate = run_command(&Command::Validate { path: path.clone() }).unwrap();
        assert_eq!(validate.exit_code, 0);
        assert!(validate.text.contains("cli-test"));
        assert!(validate.text.contains("states: 4"));

        let dot = run_command(&Command::Dot { path: path.clone() }).unwrap();
        assert!(dot.text.starts_with("digraph"));

        let run = run_command(&Command::Run {
            path: path.clone(),
            verbose: false,
            deadline_secs: 3_600,
            traffic_rps: None,
        })
        .unwrap();
        // The strategy has no checks, so it auto-passes and succeeds.
        assert_eq!(run.exit_code, 0, "output: {}", run.text);
        assert!(run.text.contains("strategies finished"));

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_reported() {
        let err = run_command(&Command::Validate {
            path: "/definitely/not/here.yml".into(),
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Io { .. }));
        assert!(err.to_string().contains("cannot read"));
    }

    #[test]
    fn invalid_file_is_reported_as_dsl_error() {
        let dir = std::env::temp_dir().join(format!("bifrost-cli-bad-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.yml");
        fs::write(&path, "name: broken\n").unwrap();
        let err = run_command(&Command::Validate { path: path.clone() }).unwrap_err();
        assert!(matches!(err, CliError::Dsl(_)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_with_traffic_drives_queued_backends_from_the_engine_section() {
        let dir = std::env::temp_dir().join(format!("bifrost-cli-traffic-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let strategy = r#"
strategy:
  phases:
    - phase: canary
      service: search
      stable: v1
      candidate: v2
      traffic: 20
      duration: 30
"#;
        // One slow replica with a two-request queue cannot absorb a 20%
        // canary of 200 req/s, so the file alone makes the canary shed.
        let undersized = r#"
name: traffic-run
engine:
  tick: 0.5
  cores: 4
  backends:
    - service: search
      version: v2
      service_time_ms: 200
      replicas: 1
      queue_capacity: 2
      timeout_ms: 250
"#;
        let shed_of = |engine_section: &str| -> u64 {
            let path = dir.join("traffic.yml");
            fs::write(&path, format!("{engine_section}{strategy}")).unwrap();
            let output = run_command(&Command::Run {
                path,
                verbose: false,
                deadline_secs: 600,
                traffic_rps: Some(200.0),
            })
            .unwrap();
            assert_eq!(output.exit_code, 0, "output: {}", output.text);
            let line = output
                .text
                .lines()
                .find(|line| line.starts_with("traffic search:"))
                .unwrap_or_else(|| panic!("no traffic summary in {}", output.text));
            let shed = line
                .split(", ")
                .find_map(|field| field.strip_suffix(" shed"))
                .unwrap_or_else(|| panic!("no shed count in {line}"));
            shed.parse().unwrap()
        };
        assert!(shed_of(undersized) > 0);
        assert_eq!(shed_of("name: traffic-run\n"), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn demo_runs_and_reports_phases() {
        let output = run_command(&Command::Demo { verbose: true }).unwrap();
        assert_eq!(output.exit_code, 0);
        assert!(output.text.contains("Canary"));
        assert!(output.text.contains("Dark Launch"));
        assert!(output.text.contains("requests recorded"));
    }

    #[test]
    fn run_deadline_is_virtual_time_not_wall_clock() {
        // A week-long strategy enacts in well under a second of wall time.
        let dir = std::env::temp_dir().join(format!("bifrost-cli-long-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("long.yml");
        fs::write(
            &path,
            r#"
name: long-running
strategy:
  phases:
    - phase: rollout
      service: search
      stable: v1
      candidate: v2
      from_traffic: 10
      to_traffic: 100
      step: 10
      step_duration: 86400
"#,
        )
        .unwrap();
        let started = std::time::Instant::now();
        let output = run_command(&Command::Run {
            path,
            verbose: false,
            deadline_secs: 30 * 86_400,
            traffic_rps: None,
        })
        .unwrap();
        assert_eq!(output.exit_code, 0);
        assert!(started.elapsed() < Duration::from_secs(10));
        fs::remove_dir_all(&dir).ok();
    }
}
