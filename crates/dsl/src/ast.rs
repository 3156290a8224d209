//! The document model of a strategy file.
//!
//! A strategy file has two parts, mirroring the DSL described in the paper:
//! the *deployment* part declares the services, their versions (with
//! endpoint information), and optionally the proxy host fronting each
//! service; the *strategy* part declares the ordered phases with their
//! traffic routing and checks.

use crate::error::DslError;
use crate::yaml::YamlValue;
use bifrost_core::routing::RoutingMode;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One declared version of a service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VersionDoc {
    /// The version name (e.g. `"fastsearch"`).
    pub name: String,
    /// The host the version is reachable at.
    pub host: String,
    /// The TCP port.
    pub port: u16,
    /// Free-form labels.
    pub labels: BTreeMap<String, String>,
}

/// One declared service with its versions and optional proxy host.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceDoc {
    /// The service name.
    pub name: String,
    /// The proxy host fronting the service, if any.
    pub proxy: Option<String>,
    /// Declared versions.
    pub versions: Vec<VersionDoc>,
}

/// The deployment part of a strategy file.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DeploymentDoc {
    /// Declared services.
    pub services: Vec<ServiceDoc>,
}

/// One metric query of a check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricDoc {
    /// The provider name (e.g. `"prometheus"`).
    pub provider: String,
    /// The name under which the value is exposed to the validator.
    pub name: String,
    /// The query/selector string (e.g. `request_errors{instance="search:80"}`).
    pub query: String,
    /// Aggregation applied to the fetched window (`last`, `mean`, `sum`,
    /// `max`, `min`, `count`, `rate`); defaults to `last`.
    pub aggregation: Option<String>,
    /// Look-back window in seconds.
    pub window: Option<u64>,
}

/// One check of a phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckDoc {
    /// The check name.
    pub name: String,
    /// The metrics fetched by the check.
    pub metrics: Vec<MetricDoc>,
    /// Seconds between executions (`intervalTime` in the paper's listing).
    pub interval_secs: u64,
    /// Number of executions (`intervalLimit`).
    pub executions: u32,
    /// How many executions must succeed for the check to pass (`threshold`);
    /// defaults to all of them.
    pub threshold: Option<i64>,
    /// The validator expression applied to each fetched value (e.g. `"<5"`).
    pub validator: String,
    /// Weight of the check in the state outcome (default 1.0).
    pub weight: Option<f64>,
    /// Whether this is an exception check (fails fast to the rollback state).
    pub exception: bool,
}

/// The kind of a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PhaseType {
    /// Canary release.
    Canary,
    /// Dark launch (traffic duplication).
    DarkLaunch,
    /// A/B test (50/50 split, sticky sessions).
    AbTest,
    /// Gradual rollout (stepwise traffic increase).
    GradualRollout,
}

impl PhaseType {
    /// Parses the DSL spelling of a phase type.
    pub fn parse(text: &str) -> Option<Self> {
        match text.to_ascii_lowercase().replace('-', "_").as_str() {
            "canary" | "canary_release" => Some(Self::Canary),
            "dark_launch" | "darklaunch" | "shadow" => Some(Self::DarkLaunch),
            "ab_test" | "abtest" | "a/b" | "ab" => Some(Self::AbTest),
            "gradual_rollout" | "rollout" | "gradual" => Some(Self::GradualRollout),
            _ => None,
        }
    }
}

/// One phase of the strategy part.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseDoc {
    /// The phase name.
    pub name: String,
    /// The phase type.
    pub phase_type: PhaseType,
    /// The service being live-tested.
    pub service: String,
    /// The stable / source / "A" version (interpretation depends on type).
    pub stable: String,
    /// The candidate / shadow / "B" version.
    pub candidate: String,
    /// Traffic percentage (canary share or dark-launch duplication share).
    pub traffic: Option<f64>,
    /// Phase duration in seconds.
    pub duration_secs: Option<u64>,
    /// Gradual rollout: starting share.
    pub from_traffic: Option<f64>,
    /// Gradual rollout: final share.
    pub to_traffic: Option<f64>,
    /// Gradual rollout: increment per step.
    pub step: Option<f64>,
    /// Gradual rollout: seconds per step.
    pub step_duration_secs: Option<u64>,
    /// Whether sessions are sticky within the phase.
    pub sticky: Option<bool>,
    /// Restrict the phase to users with this attribute, e.g.
    /// `country: US`.
    pub user_filter: BTreeMap<String, String>,
    /// Percentage of the (possibly filtered) user base eligible for the
    /// phase.
    pub user_percentage: Option<f64>,
    /// Routing mode: `cookie` (the default), `header` or `header-based`.
    /// One mode applies to the whole strategy.
    pub routing: Option<RoutingMode>,
    /// The phase's checks.
    pub checks: Vec<CheckDoc>,
}

/// Upper bound accepted for the traffic batching tick (seconds).
pub const MAX_TICK_SECS: f64 = 3_600.0;
/// Upper bound accepted for the proxy-VM core count.
pub const MAX_CORES: usize = 1_024;
/// Upper bound accepted for a backend's replica count.
pub const MAX_REPLICAS: usize = 1_024;
/// Upper bound accepted for a backend's per-replica queue capacity.
pub const MAX_QUEUE_CAPACITY: usize = 1_000_000;
/// Upper bound accepted for millisecond-valued backend fields
/// (`service_time_ms`, `timeout_ms`).
pub const MAX_BACKEND_MS: i64 = 3_600_000;

/// The queued-backend shape of one service version, declared in the
/// `engine: backends:` section. Used by `bifrost run --traffic` to give
/// the version capacity-bounded replicas instead of the degenerate
/// unlimited-capacity model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendDoc {
    /// The service the version belongs to; `None` matches the version name
    /// in any service.
    pub service: Option<String>,
    /// The version name.
    pub version: String,
    /// Mean service demand per request in milliseconds.
    pub service_time_ms: u64,
    /// Intrinsic error rate of served requests (`0..=1`).
    pub error_rate: f64,
    /// Number of single-core replicas.
    pub replicas: usize,
    /// Per-replica bound on outstanding requests; arrivals beyond it shed.
    pub queue_capacity: usize,
    /// Request deadline in milliseconds.
    pub timeout_ms: u64,
}

impl BackendDoc {
    /// Whether this declaration applies to `version` of `service`.
    pub fn matches(&self, service: &str, version: &str) -> bool {
        self.version == version && self.service.as_deref().is_none_or(|s| s == service)
    }
}

/// Enactment settings declared in a strategy file's `engine:` section. They
/// do not alter the compiled strategy — they shape the request-level
/// traffic the CLI drives through it, and are the only place that does
/// (absent keys keep the traffic profile's defaults; unknown keys are
/// rejected).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EngineDoc {
    /// The traffic batching tick in seconds (`tick`, fractional values
    /// allowed). `None` keeps the traffic profile's default.
    pub tick_secs: Option<f64>,
    /// The proxy VM's core count under request-level traffic (`cores`).
    pub cores: Option<usize>,
    /// Per-version queued-backend declarations (`backends`).
    pub backends: Vec<BackendDoc>,
}

/// A complete, parsed strategy file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyDocument {
    /// The strategy name.
    pub name: String,
    /// The deployment part.
    pub deployment: DeploymentDoc,
    /// Optional engine settings.
    pub engine: EngineDoc,
    /// The ordered phases.
    pub phases: Vec<PhaseDoc>,
}

impl StrategyDocument {
    /// Builds the document model from parsed YAML.
    ///
    /// # Errors
    ///
    /// Returns a [`DslError`] for missing or ill-typed fields.
    pub fn from_yaml(yaml: &YamlValue) -> Result<Self, DslError> {
        reject_unknown_keys(
            yaml,
            "strategy document",
            &["name", "deployment", "engine", "strategy"],
        )?;
        let name = require_str(yaml, "name", "strategy document")?;
        let deployment = match yaml.get("deployment") {
            Some(dep) => parse_deployment(dep)?,
            None => DeploymentDoc::default(),
        };
        let engine = match yaml.get("engine") {
            Some(engine) => parse_engine(engine)?,
            None => EngineDoc::default(),
        };
        let strategy = yaml
            .get("strategy")
            .ok_or_else(|| DslError::missing("strategy document", "strategy"))?;
        reject_unknown_keys(strategy, "strategy section", &["phases"])?;
        let phases_yaml = strategy
            .get("phases")
            .and_then(YamlValue::as_seq)
            .ok_or_else(|| DslError::missing("strategy section", "phases"))?;
        let mut phases = Vec::with_capacity(phases_yaml.len());
        for phase in phases_yaml {
            phases.push(parse_phase(phase)?);
        }
        Ok(Self {
            name,
            deployment,
            engine,
            phases,
        })
    }

    /// Looks up a declared service by name.
    pub fn service(&self, name: &str) -> Option<&ServiceDoc> {
        self.deployment.services.iter().find(|s| s.name == name)
    }
}

fn parse_deployment(yaml: &YamlValue) -> Result<DeploymentDoc, DslError> {
    reject_unknown_keys(yaml, "deployment section", &["services"])?;
    let services_yaml = yaml
        .get("services")
        .and_then(YamlValue::as_seq)
        .ok_or_else(|| DslError::missing("deployment section", "services"))?;
    let mut services = Vec::with_capacity(services_yaml.len());
    for service in services_yaml {
        let name = require_str(service, "service", "deployment service")?;
        let context = format!("service '{name}'");
        reject_unknown_keys(service, &context, &["service", "proxy", "versions"])?;
        let proxy = optional_str(service, "proxy", &context)?;
        let versions_yaml = service
            .get("versions")
            .and_then(YamlValue::as_seq)
            .ok_or_else(|| DslError::missing(&context, "versions"))?;
        let mut versions = Vec::with_capacity(versions_yaml.len());
        for version in versions_yaml {
            let vname = require_str(version, "name", &format!("version of {context}"))?;
            let vcontext = format!("version '{vname}'");
            reject_unknown_keys(version, &vcontext, &["name", "host", "port", "labels"])?;
            let host = require_str(version, "host", &vcontext)?;
            let port = optional_i64(version, "port", &vcontext)?.unwrap_or(80);
            let port = u16::try_from(port)
                .map_err(|_| DslError::invalid(&vcontext, "port", "must fit in a u16"))?;
            let labels = optional_str_map(version, "labels", &vcontext)?;
            versions.push(VersionDoc {
                name: vname,
                host,
                port,
                labels,
            });
        }
        services.push(ServiceDoc {
            name,
            proxy,
            versions,
        });
    }
    Ok(DeploymentDoc { services })
}

fn parse_engine(yaml: &YamlValue) -> Result<EngineDoc, DslError> {
    reject_unknown_keys(yaml, "engine section", &["tick", "cores", "backends"])?;
    let tick_secs = match yaml.get("tick") {
        None => None,
        Some(value) => {
            let tick = value
                .as_f64()
                .filter(|v| v.is_finite() && *v > 0.0 && *v <= MAX_TICK_SECS)
                .ok_or_else(|| {
                    DslError::invalid(
                        "engine section",
                        "tick",
                        format!("must be a number of seconds in (0, {MAX_TICK_SECS}]"),
                    )
                })?;
            Some(tick)
        }
    };
    let cores = match yaml.get("cores") {
        None => None,
        Some(value) => {
            let cores = value
                .as_i64()
                .filter(|v| (1..=MAX_CORES as i64).contains(v))
                .ok_or_else(|| {
                    DslError::invalid(
                        "engine section",
                        "cores",
                        format!("must be an integer in 1..={MAX_CORES}"),
                    )
                })?;
            Some(cores as usize)
        }
    };
    let backends = match yaml.get("backends") {
        None => Vec::new(),
        Some(backends_yaml) => {
            let seq = backends_yaml.as_seq().ok_or_else(|| {
                DslError::invalid("engine section", "backends", "must be a sequence")
            })?;
            seq.iter().map(parse_backend).collect::<Result<_, _>>()?
        }
    };
    Ok(EngineDoc {
        tick_secs,
        cores,
        backends,
    })
}

fn parse_backend(yaml: &YamlValue) -> Result<BackendDoc, DslError> {
    let version = require_str(yaml, "version", "engine backend")?;
    let context = format!("engine backend '{version}'");
    reject_unknown_keys(
        yaml,
        &context,
        &[
            "service",
            "version",
            "service_time_ms",
            "error_rate",
            "replicas",
            "queue_capacity",
            "timeout_ms",
        ],
    )?;
    let bounded_ms = |field: &str, default: u64| -> Result<u64, DslError> {
        match yaml.get(field) {
            None => Ok(default),
            Some(value) => value
                .as_i64()
                .filter(|v| (1..=MAX_BACKEND_MS).contains(v))
                .map(|v| v as u64)
                .ok_or_else(|| {
                    DslError::invalid(
                        &context,
                        field,
                        format!("must be an integer in 1..={MAX_BACKEND_MS}"),
                    )
                }),
        }
    };
    let bounded_count = |field: &str, max: usize, default: usize| -> Result<usize, DslError> {
        match yaml.get(field) {
            None => Ok(default),
            Some(value) => value
                .as_i64()
                .filter(|v| (1..=max as i64).contains(v))
                .map(|v| v as usize)
                .ok_or_else(|| {
                    DslError::invalid(&context, field, format!("must be an integer in 1..={max}"))
                }),
        }
    };
    let error_rate = match yaml.get("error_rate") {
        None => 0.0,
        Some(value) => value
            .as_f64()
            .filter(|v| (0.0..=1.0).contains(v))
            .ok_or_else(|| {
                DslError::invalid(&context, "error_rate", "must be a number in 0..=1")
            })?,
    };
    Ok(BackendDoc {
        service: optional_str(yaml, "service", &context)?,
        version,
        service_time_ms: bounded_ms("service_time_ms", 10)?,
        error_rate,
        replicas: bounded_count("replicas", MAX_REPLICAS, 1)?,
        queue_capacity: bounded_count("queue_capacity", MAX_QUEUE_CAPACITY, 64)?,
        timeout_ms: bounded_ms("timeout_ms", 1_000)?,
    })
}

fn parse_phase(yaml: &YamlValue) -> Result<PhaseDoc, DslError> {
    let type_text = require_str(yaml, "phase", "phase")?;
    let phase_type = PhaseType::parse(&type_text).ok_or_else(|| {
        DslError::invalid("phase", "phase", format!("unknown type '{type_text}'"))
    })?;
    let name = optional_str(yaml, "name", "phase")?.unwrap_or_else(|| type_text.clone());
    let context = format!("phase '{name}'");

    // Version references have per-type aliases mirroring the paper's route
    // directive (from/to) and A/B terminology; the traffic keys depend on
    // the type too.
    let (stable_keys, candidate_keys, traffic_keys): (&[&str], &[&str], &[&str]) = match phase_type
    {
        PhaseType::Canary => (
            &["stable", "from"],
            &["candidate", "canary", "to"],
            &["traffic"],
        ),
        PhaseType::GradualRollout => (
            &["stable", "from"],
            &["candidate", "canary", "to"],
            &["from_traffic", "to_traffic", "step", "step_duration"],
        ),
        PhaseType::DarkLaunch => (
            &["from", "stable", "source"],
            &["to", "shadow", "candidate"],
            &["traffic"],
        ),
        PhaseType::AbTest => (&["a", "stable"], &["b", "candidate"], &[]),
    };
    let common_keys = [
        "phase",
        "name",
        "service",
        "duration",
        "sticky",
        "user_filter",
        "user_percentage",
        "routing",
        "checks",
    ];
    let known: Vec<&str> = common_keys
        .iter()
        .chain(stable_keys)
        .chain(candidate_keys)
        .chain(traffic_keys)
        .copied()
        .collect();
    reject_unknown_keys(yaml, &context, &known)?;

    let service = require_str(yaml, "service", &context)?;
    let stable = require_str(yaml, first_key(yaml, stable_keys), &context)?;
    let candidate = require_str(yaml, first_key(yaml, candidate_keys), &context)?;

    let checks = match yaml.get("checks") {
        None => Vec::new(),
        Some(checks_yaml) => {
            let seq = checks_yaml
                .as_seq()
                .ok_or_else(|| DslError::invalid(&context, "checks", "must be a sequence"))?;
            seq.iter()
                .map(|c| parse_check(c, &context))
                .collect::<Result<Vec<_>, _>>()?
        }
    };

    Ok(PhaseDoc {
        name,
        phase_type,
        service,
        stable,
        candidate,
        traffic: optional_f64(yaml, "traffic", &context)?,
        duration_secs: optional_u64(yaml, "duration", &context)?,
        from_traffic: optional_f64(yaml, "from_traffic", &context)?,
        to_traffic: optional_f64(yaml, "to_traffic", &context)?,
        step: optional_f64(yaml, "step", &context)?,
        step_duration_secs: optional_u64(yaml, "step_duration", &context)?,
        sticky: optional_bool(yaml, "sticky", &context)?,
        user_filter: optional_str_map(yaml, "user_filter", &context)?,
        user_percentage: optional_f64(yaml, "user_percentage", &context)?,
        routing: optional(
            yaml,
            "routing",
            &context,
            "cookie, header or header-based",
            |value| match value.scalar_to_string()?.as_str() {
                "cookie" => Some(RoutingMode::CookieBased),
                "header" | "header-based" => Some(RoutingMode::HeaderBased),
                _ => None,
            },
        )?,
        checks,
    })
}

/// Keys every check body may carry, whichever form its query takes.
const CHECK_KEYS: [&str; 9] = [
    "name",
    "intervalTime",
    "interval",
    "intervalLimit",
    "executions",
    "threshold",
    "validator",
    "weight",
    "exception",
];
/// Keys of the flat, single-query check form (`query:` instead of
/// `providers:`).
const FLAT_QUERY_KEYS: [&str; 4] = ["provider", "query", "aggregation", "window"];
/// Keys of one provider's entry under `providers:`.
const PROVIDER_KEYS: [&str; 4] = ["name", "query", "aggregation", "window"];

fn parse_check(yaml: &YamlValue, phase_context: &str) -> Result<CheckDoc, DslError> {
    // Accept both the paper's `- metric:` wrapper and a flat `- name:` form.
    let wrapper = ["metric", "check"]
        .into_iter()
        .find(|key| yaml.get(key).is_some());
    let body = wrapper.and_then(|key| yaml.get(key)).unwrap_or(yaml);
    let name = optional_str(body, "name", &format!("{phase_context} check"))?
        .unwrap_or_else(|| "check".to_string());
    let context = format!("{phase_context} check '{name}'");
    if let Some(key) = wrapper {
        reject_unknown_keys(yaml, &context, &[key])?;
    }

    let query_keys: &[&str] = match body.get("providers") {
        Some(_) => &["providers"],
        None => &FLAT_QUERY_KEYS,
    };
    let known: Vec<&str> = CHECK_KEYS.iter().chain(query_keys).copied().collect();
    reject_unknown_keys(body, &context, &known)?;

    let mut metrics = Vec::new();
    if let Some(providers) = body.get("providers") {
        let providers = providers
            .as_seq()
            .ok_or_else(|| DslError::invalid(&context, "providers", "must be a sequence"))?;
        for provider_entry in providers {
            let entries = provider_entry.as_map().ok_or_else(|| {
                DslError::invalid(&context, "providers", "each entry must be a mapping")
            })?;
            for (provider_name, details) in entries {
                let provider_context = format!("{context} provider '{provider_name}'");
                reject_unknown_keys(details, &provider_context, &PROVIDER_KEYS)?;
                let query = optional_str(details, "query", &provider_context)?
                    .ok_or_else(|| DslError::missing(&context, "query"))?;
                metrics.push(MetricDoc {
                    provider: provider_name.clone(),
                    name: optional_str(details, "name", &provider_context)?
                        .unwrap_or_else(|| name.clone()),
                    query,
                    aggregation: optional_str(details, "aggregation", &provider_context)?,
                    window: optional_u64(details, "window", &provider_context)?,
                });
            }
        }
    } else if let Some(query) = optional_str(body, "query", &context)? {
        metrics.push(MetricDoc {
            provider: optional_str(body, "provider", &context)?
                .unwrap_or_else(|| "prometheus".to_string()),
            name: name.clone(),
            query,
            aggregation: optional_str(body, "aggregation", &context)?,
            window: optional_u64(body, "window", &context)?,
        });
    }
    if metrics.is_empty() {
        return Err(DslError::missing(&context, "providers/query"));
    }

    let interval_key = first_key(body, &["intervalTime", "interval"]);
    let interval_secs = optional_u64(body, interval_key, &context)?
        .ok_or_else(|| DslError::missing(&context, interval_key))?;
    let executions_key = first_key(body, &["intervalLimit", "executions"]);
    let executions = optional(
        body,
        executions_key,
        &context,
        "an integer in 0..=4294967295",
        |value| value.as_i64().and_then(|v| u32::try_from(v).ok()),
    )?
    .ok_or_else(|| DslError::missing(&context, executions_key))?;
    let validator = optional_str(body, "validator", &context)?
        .ok_or_else(|| DslError::missing(&context, "validator"))?;

    Ok(CheckDoc {
        name,
        metrics,
        interval_secs,
        executions,
        threshold: optional_i64(body, "threshold", &context)?,
        validator,
        weight: optional_f64(body, "weight", &context)?,
        exception: optional_bool(body, "exception", &context)?.unwrap_or(false),
    })
}

/// Fails on the first key of the mapping `yaml` that is not in `known`, so
/// a misspelt or retired setting is an error instead of a silent default.
fn reject_unknown_keys(yaml: &YamlValue, context: &str, known: &[&str]) -> Result<(), DslError> {
    let entries = yaml.as_map().unwrap_or_default();
    match entries
        .iter()
        .find(|(key, _)| !known.contains(&key.as_str()))
    {
        Some((key, _)) => Err(DslError::invalid(
            context,
            key,
            format!("unknown key (expected one of: {})", known.join(", ")),
        )),
        None => Ok(()),
    }
}

fn require_str(yaml: &YamlValue, field: &str, context: &str) -> Result<String, DslError> {
    optional_str(yaml, field, context)?.ok_or_else(|| DslError::missing(context, field))
}

/// The value of an optional `field`, converted by `convert`. A value of the
/// wrong type is an error naming the field and the `expected` type, not a
/// silent default.
fn optional<T>(
    yaml: &YamlValue,
    field: &str,
    context: &str,
    expected: &str,
    convert: impl Fn(&YamlValue) -> Option<T>,
) -> Result<Option<T>, DslError> {
    yaml.get(field)
        .map(|value| {
            convert(value)
                .ok_or_else(|| DslError::invalid(context, field, format!("must be {expected}")))
        })
        .transpose()
}

fn optional_str(yaml: &YamlValue, field: &str, context: &str) -> Result<Option<String>, DslError> {
    optional(
        yaml,
        field,
        context,
        "a scalar",
        YamlValue::scalar_to_string,
    )
}

fn optional_f64(yaml: &YamlValue, field: &str, context: &str) -> Result<Option<f64>, DslError> {
    optional(yaml, field, context, "a number", YamlValue::as_f64)
}

fn optional_i64(yaml: &YamlValue, field: &str, context: &str) -> Result<Option<i64>, DslError> {
    optional(yaml, field, context, "an integer", YamlValue::as_i64)
}

fn optional_bool(yaml: &YamlValue, field: &str, context: &str) -> Result<Option<bool>, DslError> {
    optional(yaml, field, context, "true or false", YamlValue::as_bool)
}

fn optional_u64(yaml: &YamlValue, field: &str, context: &str) -> Result<Option<u64>, DslError> {
    optional(yaml, field, context, "a non-negative integer", |value| {
        value.as_i64().and_then(|v| u64::try_from(v).ok())
    })
}

/// An optional mapping of scalar values (absent: empty).
fn optional_str_map(
    yaml: &YamlValue,
    field: &str,
    context: &str,
) -> Result<BTreeMap<String, String>, DslError> {
    let is_scalar_map = |value: &YamlValue| {
        value
            .as_map()
            .is_some_and(|entries| entries.iter().all(|(_, v)| v.scalar_to_string().is_some()))
    };
    Ok(
        optional(yaml, field, context, "a mapping of scalars", |value| {
            is_scalar_map(value).then(|| value.to_string_map())
        })?
        .unwrap_or_default(),
    )
}

/// The first of `keys` (aliases of one field) present in `yaml`, or the
/// first alias when none is.
fn first_key<'k>(yaml: &YamlValue, keys: &[&'k str]) -> &'k str {
    keys.iter()
        .copied()
        .find(|key| yaml.get(key).is_some())
        .unwrap_or(keys[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::yaml;

    const FULL_DOC: &str = r#"
name: fastsearch-rollout
deployment:
  services:
    - service: search
      proxy: search-proxy:8080
      versions:
        - name: search-v1
          host: 10.0.0.1
          port: 8080
        - name: fastsearch
          host: 10.0.0.2
          port: 8080
          labels:
            track: canary
strategy:
  phases:
    - phase: canary
      name: canary-1
      service: search
      stable: search-v1
      candidate: fastsearch
      traffic: 1
      duration: 86400
      user_filter:
        country: US
      checks:
        - metric:
            name: response_time
            providers:
              - prometheus:
                  name: search_rt
                  query: response_time_ms{instance="search:80"}
            intervalTime: 600
            intervalLimit: 100
            threshold: 95
            validator: "<150"
    - phase: ab_test
      name: ab
      service: search
      a: search-v1
      b: fastsearch
      duration: 432000
      checks:
        - metric:
            name: conversions
            provider: prometheus
            query: items_sold_total
            intervalTime: 432000
            intervalLimit: 1
            validator: ">0"
    - phase: gradual_rollout
      name: rollout
      service: search
      stable: search-v1
      candidate: fastsearch
      from_traffic: 5
      to_traffic: 100
      step: 5
      step_duration: 86400
"#;

    #[test]
    fn parses_full_document() {
        let doc = StrategyDocument::from_yaml(&yaml::parse(FULL_DOC).unwrap()).unwrap();
        assert_eq!(doc.name, "fastsearch-rollout");
        assert_eq!(doc.deployment.services.len(), 1);
        let service = doc.service("search").unwrap();
        assert_eq!(service.proxy.as_deref(), Some("search-proxy:8080"));
        assert_eq!(service.versions.len(), 2);
        assert_eq!(service.versions[1].labels["track"], "canary");
        assert_eq!(service.versions[0].port, 8080);
        assert!(doc.service("product").is_none());

        assert_eq!(doc.phases.len(), 3);
        let canary = &doc.phases[0];
        assert_eq!(canary.phase_type, PhaseType::Canary);
        assert_eq!(canary.traffic, Some(1.0));
        assert_eq!(canary.duration_secs, Some(86_400));
        assert_eq!(canary.user_filter["country"], "US");
        assert_eq!(canary.checks.len(), 1);
        let check = &canary.checks[0];
        assert_eq!(check.interval_secs, 600);
        assert_eq!(check.executions, 100);
        assert_eq!(check.threshold, Some(95));
        assert_eq!(check.validator, "<150");
        assert_eq!(check.metrics[0].provider, "prometheus");
        assert_eq!(check.metrics[0].name, "search_rt");

        let ab = &doc.phases[1];
        assert_eq!(ab.phase_type, PhaseType::AbTest);
        assert_eq!(ab.stable, "search-v1");
        assert_eq!(ab.candidate, "fastsearch");
        assert_eq!(ab.checks[0].metrics[0].query, "items_sold_total");

        let rollout = &doc.phases[2];
        assert_eq!(rollout.phase_type, PhaseType::GradualRollout);
        assert_eq!(rollout.from_traffic, Some(5.0));
        assert_eq!(rollout.to_traffic, Some(100.0));
        assert_eq!(rollout.step, Some(5.0));
        assert_eq!(rollout.step_duration_secs, Some(86_400));
    }

    #[test]
    fn engine_section_parses_tick_cores_and_backends() {
        let source = r#"
name: x
engine:
  tick: 0.5
  cores: 8
  backends:
    - service: search
      version: v2
      service_time_ms: 8
      error_rate: 0.05
      replicas: 2
      queue_capacity: 128
      timeout_ms: 250
    - version: v9
strategy:
  phases:
    - phase: canary
      service: search
      stable: a
      candidate: b
"#;
        let doc = StrategyDocument::from_yaml(&yaml::parse(source).unwrap()).unwrap();
        assert_eq!(doc.engine.tick_secs, Some(0.5));
        assert_eq!(doc.engine.cores, Some(8));
        assert_eq!(doc.engine.backends.len(), 2);
        let backend = &doc.engine.backends[0];
        assert_eq!(backend.service.as_deref(), Some("search"));
        assert_eq!(backend.version, "v2");
        assert_eq!(backend.service_time_ms, 8);
        assert_eq!(backend.error_rate, 0.05);
        assert_eq!(backend.replicas, 2);
        assert_eq!(backend.queue_capacity, 128);
        assert_eq!(backend.timeout_ms, 250);
        assert!(backend.matches("search", "v2"));
        assert!(!backend.matches("product", "v2"));
        assert!(!backend.matches("search", "v1"));
        // Omitted fields take the documented defaults; no service matches
        // the version name anywhere.
        let sparse = &doc.engine.backends[1];
        assert_eq!(sparse.service, None);
        assert_eq!(sparse.service_time_ms, 10);
        assert_eq!(sparse.error_rate, 0.0);
        assert_eq!(sparse.replicas, 1);
        assert_eq!(sparse.queue_capacity, 64);
        assert_eq!(sparse.timeout_ms, 1_000);
        assert!(sparse.matches("anything", "v9"));
    }

    #[test]
    fn absent_engine_section_takes_defaults() {
        let bare = "name: x\nstrategy:\n  phases:\n    - phase: canary\n      service: s\n      stable: a\n      candidate: b\n";
        let doc = StrategyDocument::from_yaml(&yaml::parse(bare).unwrap()).unwrap();
        assert_eq!(doc.engine, EngineDoc::default());
    }

    #[test]
    fn engine_section_rejects_invalid_tick_cores_and_backends() {
        let cases = [
            ("tick: 0", "tick"),
            ("tick: -1.5", "tick"),
            ("tick: lots", "tick"),
            ("tick: 99999", "tick"),
            ("cores: 0", "cores"),
            ("cores: 99999", "cores"),
            ("backends: 7", "backends"),
            ("backends:\n    - service: s", "version"),
            ("backends:\n    - version: v\n      replicas: 0", "replicas"),
            (
                "backends:\n    - version: v\n      error_rate: 1.5",
                "error_rate",
            ),
            (
                "backends:\n    - version: v\n      queue_capacity: 0",
                "queue_capacity",
            ),
            (
                "backends:\n    - version: v\n      timeout_ms: 0",
                "timeout_ms",
            ),
            (
                "backends:\n    - version: v\n      service_time_ms: -4",
                "service_time_ms",
            ),
            // Unknown keys are named, not silently ignored.
            ("tik: 0.5", "tik"),
            ("session_shards: 16", "session_shards"),
            ("backends:\n    - version: v\n      replica: 2", "replica"),
        ];
        for (bad, field) in cases {
            let source = format!(
                "name: x\nengine:\n  {bad}\nstrategy:\n  phases:\n    - phase: canary\n      service: s\n      stable: a\n      candidate: b\n"
            );
            let err = StrategyDocument::from_yaml(&yaml::parse(&source).unwrap()).unwrap_err();
            assert!(err.to_string().contains(field), "{bad}: {err}");
        }
    }

    #[test]
    fn engine_section_rejects_invalid_shard_counts() {
        // The shard count is an engine-construction value, not a strategy
        // key: any `session_shards` entry is rejected and named.
        for bad in [
            "session_shards: 0",
            "session_shards: -4",
            "session_shards: lots",
            "session_shards: 99999999999",
        ] {
            let source = format!(
                "name: x\nengine:\n  {bad}\nstrategy:\n  phases:\n    - phase: canary\n      service: s\n      stable: a\n      candidate: b\n"
            );
            let err = StrategyDocument::from_yaml(&yaml::parse(&source).unwrap()).unwrap_err();
            assert!(err.to_string().contains("session_shards"), "{bad}: {err}");
        }
    }

    #[test]
    fn misspelt_and_mistyped_keys_are_rejected() {
        // Each typo used to parse: the canary silently became a 30 s, 5%
        // phase whose check threshold was all executions.
        for (phase_line, check_line, field) in [
            ("traffic: fifty", "threshold: 1", "traffic"),
            ("durration: 600", "threshold: 1", "durration"),
            ("traffic: 50", "treshold: 1", "treshold"),
        ] {
            let source = format!(
                "name: x\nstrategy:\n  phases:\n    - phase: canary\n      service: s\n      stable: a\n      candidate: b\n      {phase_line}\n      checks:\n        - metric:\n            name: errors\n            query: request_errors\n            intervalTime: 5\n            intervalLimit: 3\n            {check_line}\n            validator: \"<5\"\n"
            );
            let err = StrategyDocument::from_yaml(&yaml::parse(&source).unwrap()).unwrap_err();
            assert!(
                matches!(&err, DslError::InvalidField { field: f, .. } if f == field),
                "{phase_line} / {check_line}: {err}"
            );
        }
    }

    #[test]
    fn negative_and_oversized_integers_are_rejected() {
        // A negative value must not clamp to zero, nor an execution count
        // past u32::MAX wrap (4294967297 would run the check once).
        for (duration, interval, limit, field) in [
            ("-60", "5", "3", "duration"),
            ("60", "-5", "3", "intervalTime"),
            ("60", "5", "-1", "intervalLimit"),
            ("60", "5", "4294967297", "intervalLimit"),
        ] {
            let source = format!(
                "name: x\nstrategy:\n  phases:\n    - phase: canary\n      service: s\n      stable: a\n      candidate: b\n      duration: {duration}\n      checks:\n        - metric:\n            name: errors\n            query: request_errors\n            intervalTime: {interval}\n            intervalLimit: {limit}\n            validator: \"<5\"\n"
            );
            let err = StrategyDocument::from_yaml(&yaml::parse(&source).unwrap()).unwrap_err();
            assert!(
                matches!(&err, DslError::InvalidField { field: f, .. } if f == field),
                "{duration}/{interval}/{limit}: {err}"
            );
        }
    }

    #[test]
    fn unknown_keys_are_rejected_at_every_level() {
        let base = "name: x\ndeployment:\n  services:\n    - service: s\n      versions:\n        - name: a\n          host: h\nstrategy:\n  phases:\n    - phase: ab_test\n      service: s\n      a: a\n      b: b\n      checks:\n        - name: c\n          providers:\n            - prometheus:\n                query: q\n          interval: 5\n          executions: 1\n          validator: \">0\"\n";
        StrategyDocument::from_yaml(&yaml::parse(base).unwrap()).unwrap();
        let cases = [
            ("name: x\n", "name: x\nversion: 2\n", "version"),
            ("  services:\n", "  sevices: []\n  services:\n", "sevices"),
            (
                "      versions:\n",
                "      proxies: p\n      versions:\n",
                "proxies",
            ),
            (
                "          host: h\n",
                "          host: h\n          hots: h\n",
                "hots",
            ),
            ("  phases:\n", "  rollback: now\n  phases:\n", "rollback"),
            // An A/B test takes neither another type's aliases nor a share.
            ("      b: b\n", "      b: b\n      shadow: b\n", "shadow"),
            ("      b: b\n", "      b: b\n      traffic: 5\n", "traffic"),
            (
                "          interval: 5\n",
                "          intervall: 5\n",
                "intervall",
            ),
            (
                "          interval: 5\n",
                "          interval: 5\n          query: q\n",
                "query",
            ),
            (
                "                query: q\n",
                "                query: q\n                windw: 9\n",
                "windw",
            ),
            (
                "          executions: 1\n",
                "          executions: one\n",
                "executions",
            ),
            (
                "          executions: 1\n",
                "          executions: 1\n          exception: maybe\n",
                "exception",
            ),
            (
                "          host: h\n",
                "          host: h\n          port: http\n",
                "port",
            ),
            (
                "          host: h\n",
                "          host: h\n          labels: [a]\n",
                "labels",
            ),
        ];
        for (from, to, field) in cases {
            assert!(base.contains(from), "{from}");
            let source = base.replacen(from, to, 1);
            let err = StrategyDocument::from_yaml(&yaml::parse(&source).unwrap()).unwrap_err();
            assert!(
                matches!(&err, DslError::InvalidField { field: f, .. } if f == field),
                "{to}: {err}"
            );
        }
        // A `metric:` wrapper holds the whole check: a key beside it is
        // unknown.
        let checks_at = base.find("        - name: c").unwrap();
        let wrapped = format!(
            "{}        - metric:\n            name: c\n            query: q\n            interval: 5\n            executions: 1\n            validator: \">0\"\n          weight: 2\n",
            &base[..checks_at]
        );
        let err = StrategyDocument::from_yaml(&yaml::parse(&wrapped).unwrap()).unwrap_err();
        assert!(
            matches!(&err, DslError::InvalidField { field, .. } if field == "weight"),
            "{err}"
        );
    }

    #[test]
    fn phase_type_spellings() {
        assert_eq!(PhaseType::parse("canary"), Some(PhaseType::Canary));
        assert_eq!(PhaseType::parse("Canary"), Some(PhaseType::Canary));
        assert_eq!(PhaseType::parse("dark-launch"), Some(PhaseType::DarkLaunch));
        assert_eq!(PhaseType::parse("shadow"), Some(PhaseType::DarkLaunch));
        assert_eq!(PhaseType::parse("ab_test"), Some(PhaseType::AbTest));
        assert_eq!(PhaseType::parse("AB"), Some(PhaseType::AbTest));
        assert_eq!(PhaseType::parse("rollout"), Some(PhaseType::GradualRollout));
        assert_eq!(PhaseType::parse("blue-green"), None);
    }

    #[test]
    fn missing_name_is_rejected() {
        let err =
            StrategyDocument::from_yaml(&yaml::parse("deployment:\n  services: []\n").unwrap())
                .unwrap_err();
        assert!(matches!(err, DslError::MissingField { .. }));
    }

    #[test]
    fn missing_strategy_section_is_rejected() {
        let source = "name: x\ndeployment:\n  services: []\n";
        let err = StrategyDocument::from_yaml(&yaml::parse(source).unwrap()).unwrap_err();
        assert!(err.to_string().contains("strategy"));
    }

    #[test]
    fn unknown_phase_type_is_rejected() {
        let source = r#"
name: x
strategy:
  phases:
    - phase: blue_green
      service: search
      stable: a
      candidate: b
"#;
        let err = StrategyDocument::from_yaml(&yaml::parse(source).unwrap()).unwrap_err();
        assert!(err.to_string().contains("unknown type"));
    }

    #[test]
    fn check_requires_interval_and_validator() {
        let source = r#"
name: x
strategy:
  phases:
    - phase: canary
      service: search
      stable: a
      candidate: b
      checks:
        - metric:
            name: m
            query: q
            intervalTime: 5
            intervalLimit: 3
"#;
        let err = StrategyDocument::from_yaml(&yaml::parse(source).unwrap()).unwrap_err();
        assert!(err.to_string().contains("validator"));
    }

    #[test]
    fn dark_launch_accepts_from_to_aliases() {
        let source = r#"
name: x
strategy:
  phases:
    - phase: dark_launch
      service: product
      from: product-v1
      to: product-a
      traffic: 100
      duration: 60
"#;
        let doc = StrategyDocument::from_yaml(&yaml::parse(source).unwrap()).unwrap();
        assert_eq!(doc.phases[0].stable, "product-v1");
        assert_eq!(doc.phases[0].candidate, "product-a");
        assert_eq!(doc.phases[0].name, "dark_launch");
    }

    #[test]
    fn flat_check_form_with_exception_flag() {
        let source = r#"
name: x
strategy:
  phases:
    - phase: canary
      service: search
      stable: a
      candidate: b
      checks:
        - name: error-spike
          provider: prometheus
          query: request_errors
          interval: 5
          executions: 12
          validator: "<100"
          exception: true
          weight: 2.5
"#;
        let doc = StrategyDocument::from_yaml(&yaml::parse(source).unwrap()).unwrap();
        let check = &doc.phases[0].checks[0];
        assert!(check.exception);
        assert_eq!(check.weight, Some(2.5));
        assert_eq!(check.interval_secs, 5);
        assert_eq!(check.executions, 12);
        assert_eq!(check.name, "error-spike");
    }
}
