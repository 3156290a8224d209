//! Compilation of a parsed strategy document into the formal model.

use crate::ast::{CheckDoc, PhaseDoc, PhaseType, StrategyDocument};
use crate::error::DslError;
use bifrost_core::check::{CheckSpec, MetricQuery, QueryAggregation, Validator};
use bifrost_core::outcome::{OutcomeMapping, Weight};
use bifrost_core::phase::{PhaseCheck, PhaseSpec};
use bifrost_core::routing::{Percentage, RoutingMode};
use bifrost_core::service::{Endpoint, Service, ServiceCatalog, ServiceVersion};
use bifrost_core::strategy::{Strategy, StrategyBuilder};
use bifrost_core::timer::Timer;
use bifrost_core::user::UserSelector;
use bifrost_metrics::RangeQuery;
use std::collections::BTreeMap;
use std::time::Duration;

/// Compiles a strategy document into an enactable [`Strategy`].
///
/// # Errors
///
/// Returns a [`DslError`] when references cannot be resolved (unknown
/// services or versions), values are out of range, or the resulting model
/// fails validation.
pub fn compile(document: &StrategyDocument) -> Result<Strategy, DslError> {
    // 1. Build the service catalog from the deployment part. Services or
    //    versions that are referenced by phases but not declared are added
    //    implicitly with synthetic endpoints, which keeps simple strategy
    //    files short (the engine only needs endpoints when it talks to real
    //    deployments).
    let mut catalog = ServiceCatalog::new();
    let mut service_ids = BTreeMap::new();
    let mut version_ids: BTreeMap<(String, String), bifrost_core::VersionId> = BTreeMap::new();

    for service_doc in &document.deployment.services {
        let id = catalog.add_service(Service::new(&service_doc.name));
        if service_ids.insert(service_doc.name.clone(), id).is_some() {
            return Err(DslError::invalid(
                "deployment",
                "services",
                format!("declares the service '{}' twice", service_doc.name),
            ));
        }
        for version_doc in &service_doc.versions {
            let mut version = ServiceVersion::new(
                &version_doc.name,
                Endpoint::new(&version_doc.host, version_doc.port),
            );
            for (key, value) in &version_doc.labels {
                version = version.with_label(key, value);
            }
            let vid = catalog.add_version(id, version)?;
            version_ids.insert((service_doc.name.clone(), version_doc.name.clone()), vid);
        }
    }

    let mut next_synthetic_port = 9000u16;
    for phase in &document.phases {
        let service_id = *service_ids
            .entry(phase.service.clone())
            .or_insert_with(|| catalog.add_service(Service::new(&phase.service)));
        for version_name in [&phase.stable, &phase.candidate] {
            let key = (phase.service.clone(), version_name.clone());
            if let std::collections::btree_map::Entry::Vacant(e) = version_ids.entry(key) {
                let endpoint =
                    Endpoint::new(format!("{}.internal", version_name), next_synthetic_port);
                next_synthetic_port = next_synthetic_port.wrapping_add(1).max(9000);
                let vid =
                    catalog.add_version(service_id, ServiceVersion::new(version_name, endpoint))?;
                e.insert(vid);
            }
        }
    }

    // 2. Translate phases.
    let mut builder = StrategyBuilder::new(&document.name, catalog);
    let mut routing: Option<(RoutingMode, &str)> = None;
    for phase_doc in &document.phases {
        if let Some(mode) = phase_doc.routing {
            let (first, first_phase) = *routing.get_or_insert((mode, &phase_doc.name));
            if first != mode {
                return Err(DslError::invalid(
                    format!("phase '{}'", phase_doc.name),
                    "routing",
                    format!(
                        "differs from phase '{first_phase}' (one routing mode applies to the \
                         whole strategy)"
                    ),
                ));
            }
        }
        builder = builder.phase(compile_phase(phase_doc, &service_ids, &version_ids)?);
    }
    if let Some((mode, _)) = routing {
        builder = builder.routing_mode(mode);
    }
    Ok(builder.build()?)
}

fn compile_phase(
    doc: &PhaseDoc,
    services: &BTreeMap<String, bifrost_core::ServiceId>,
    versions: &BTreeMap<(String, String), bifrost_core::VersionId>,
) -> Result<PhaseSpec, DslError> {
    let service = *services
        .get(&doc.service)
        .ok_or_else(|| DslError::unknown("service", &doc.service))?;
    let stable = *versions
        .get(&(doc.service.clone(), doc.stable.clone()))
        .ok_or_else(|| DslError::unknown("version", &doc.stable))?;
    let candidate = *versions
        .get(&(doc.service.clone(), doc.candidate.clone()))
        .ok_or_else(|| DslError::unknown("version", &doc.candidate))?;
    let context = format!("phase '{}'", doc.name);

    let percentage = |value: f64, field: &str| {
        Percentage::new(value).map_err(|e| DslError::invalid(&context, field, e.to_string()))
    };

    let mut phase = match doc.phase_type {
        PhaseType::Canary => {
            let share = percentage(doc.traffic.unwrap_or(5.0), "traffic")?;
            PhaseSpec::canary(&doc.name, service, stable, candidate, share)
        }
        PhaseType::DarkLaunch => {
            let share = percentage(doc.traffic.unwrap_or(100.0), "traffic")?;
            PhaseSpec::dark_launch(&doc.name, service, stable, candidate, share)
        }
        PhaseType::AbTest => PhaseSpec::ab_test(&doc.name, service, stable, candidate),
        PhaseType::GradualRollout => {
            let from = percentage(doc.from_traffic.unwrap_or(5.0), "from_traffic")?;
            let to = percentage(doc.to_traffic.unwrap_or(100.0), "to_traffic")?;
            let step = percentage(doc.step.unwrap_or(5.0), "step")?;
            let step_duration = Duration::from_secs(doc.step_duration_secs.unwrap_or(60));
            PhaseSpec::gradual_rollout(
                &doc.name,
                service,
                stable,
                candidate,
                from,
                to,
                step,
                step_duration,
            )
        }
    };

    if let Some(duration) = doc.duration_secs {
        phase = phase.duration_secs(duration);
    }
    if let Some(sticky) = doc.sticky {
        phase = phase.sticky(sticky);
    }
    phase = phase.selector(compile_selector(doc, &context)?);
    for check in &doc.checks {
        phase = phase.check(compile_check(check, &context)?);
    }
    Ok(phase)
}

/// Builds the user selection function `η` of a phase from its filter and
/// percentage fields.
fn compile_selector(doc: &PhaseDoc, context: &str) -> Result<UserSelector, DslError> {
    let mut selectors = Vec::new();
    for (key, value) in &doc.user_filter {
        selectors.push(UserSelector::attribute(key, value));
    }
    if let Some(p) = doc.user_percentage {
        let p = Percentage::new(p)
            .map_err(|e| DslError::invalid(context, "user_percentage", e.to_string()))?;
        selectors.push(UserSelector::percentage(p));
    }
    Ok(match selectors.len() {
        0 => UserSelector::All,
        1 => selectors.into_iter().next().expect("one selector"),
        _ => UserSelector::And(selectors),
    })
}

fn compile_check(doc: &CheckDoc, phase_context: &str) -> Result<PhaseCheck, DslError> {
    let context = format!("{phase_context} check '{}'", doc.name);
    let validator = Validator::parse(&doc.validator)
        .map_err(|e| DslError::invalid(&context, "validator", e.to_string()))?;
    let mut queries = Vec::with_capacity(doc.metrics.len());
    for metric in &doc.metrics {
        let selector = RangeQuery::parse_selector(&metric.query)
            .map_err(|message| DslError::invalid(&context, "query", message))?;
        let mut query = MetricQuery::new(&metric.provider, &metric.name, selector.metric());
        for matcher in selector.matchers() {
            query = query.with_label(matcher.key(), matcher.value());
        }
        if let Some(window) = metric.window {
            query = query.with_window_secs(window);
        }
        if let Some(aggregation) = &metric.aggregation {
            query = query.with_aggregation(parse_aggregation(aggregation, &context)?);
        }
        queries.push((query, validator));
    }
    let spec = CheckSpec::all_of(queries);
    let timer = Timer::from_secs(doc.interval_secs, doc.executions)
        .map_err(|e| DslError::invalid(&context, "intervalTime", e.to_string()))?;

    let mut check = if doc.exception {
        PhaseCheck::exception(&doc.name, spec, timer)
    } else {
        // The simplified DSL semantics of the paper: the check passes only if
        // at least `threshold` of the executions succeed (default: all).
        let threshold = doc.threshold.unwrap_or(doc.executions as i64);
        let mapping = OutcomeMapping::binary(threshold, -1, 1)
            .map_err(|e| DslError::invalid(&context, "threshold", e.to_string()))?;
        PhaseCheck::basic(&doc.name, spec, timer, mapping)
    };
    if let Some(weight) = doc.weight {
        check = check.with_weight(
            Weight::new(weight)
                .map_err(|e| DslError::invalid(&context, "weight", e.to_string()))?,
        );
    }
    Ok(check)
}

fn parse_aggregation(text: &str, context: &str) -> Result<QueryAggregation, DslError> {
    match text.to_ascii_lowercase().as_str() {
        "last" => Ok(QueryAggregation::Last),
        "mean" | "avg" | "average" => Ok(QueryAggregation::Mean),
        "sum" => Ok(QueryAggregation::Sum),
        "max" => Ok(QueryAggregation::Max),
        "min" => Ok(QueryAggregation::Min),
        "count" => Ok(QueryAggregation::Count),
        "rate" | "increase" => Ok(QueryAggregation::Rate),
        other => Err(DslError::invalid(
            context,
            "aggregation",
            format!("unknown aggregation '{other}'"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_strategy;
    use bifrost_core::routing::RoutingRule;

    const RUNNING_EXAMPLE: &str = r#"
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
            provider: prometheus
            query: response_time_ms{instance="search:80"}
            intervalTime: 600
            intervalLimit: 100
            threshold: 95
            validator: "<150"
    - phase: gradual_rollout
      name: ramp
      service: search
      stable: search-v1
      candidate: fastsearch
      from_traffic: 5
      to_traffic: 50
      step: 15
      step_duration: 86400
    - phase: ab_test
      name: ab
      service: search
      a: search-v1
      b: fastsearch
      duration: 432000
      checks:
        - metric:
            name: items_sold
            provider: prometheus
            query: items_sold_total{version="fastsearch"}
            intervalTime: 432000
            intervalLimit: 1
            validator: ">0"
"#;

    #[test]
    fn compiles_running_example_end_to_end() {
        let strategy = parse_strategy(RUNNING_EXAMPLE).unwrap();
        assert_eq!(strategy.name(), "fastsearch-rollout");
        // canary (1) + rollout steps 5,20,35,50 (4) + ab (1) + success + rollback
        assert_eq!(strategy.automaton().state_count(), 8);
        assert_eq!(strategy.services().service_count(), 1);
        assert_eq!(strategy.services().version_count(), 2);
        strategy.validate().unwrap();

        // The canary state restricts itself to US users.
        let start = strategy
            .automaton()
            .state(strategy.automaton().start())
            .unwrap();
        match start.routing().first().unwrap() {
            RoutingRule::Split {
                selector, split, ..
            } => {
                assert_eq!(selector, &UserSelector::attribute("country", "US"));
                let shares: Vec<f64> = split.shares().iter().map(|(_, p)| p.value()).collect();
                assert_eq!(shares, vec![99.0, 1.0]);
            }
            other => panic!("expected split rule, got {other:?}"),
        }
        // Check: thresholds of 95/100 executions with the <150 validator.
        let check = &start.checks()[0];
        assert_eq!(check.timer().repetitions(), 100);
        assert_eq!(check.spec().queries().len(), 1);
        assert_eq!(check.spec().queries()[0].0.metric(), "response_time_ms");
        assert_eq!(
            check.spec().queries()[0].0.labels()["instance"],
            "search:80"
        );
    }

    #[test]
    fn undeclared_services_get_synthetic_endpoints() {
        let source = r#"
name: minimal
strategy:
  phases:
    - phase: canary
      service: product
      stable: product-v1
      candidate: product-a
      traffic: 5
      duration: 60
"#;
        let strategy = parse_strategy(source).unwrap();
        assert_eq!(strategy.services().service_count(), 1);
        assert_eq!(strategy.services().version_count(), 2);
        let (_, service) = strategy.services().service_by_name("product").unwrap();
        assert_eq!(service.name(), "product");
    }

    #[test]
    fn header_routing_flag_switches_mode() {
        let source = r#"
name: hdr
strategy:
  phases:
    - phase: ab_test
      service: search
      a: v1
      b: v2
      duration: 60
      routing: header
"#;
        let strategy = parse_strategy(source).unwrap();
        let start = strategy
            .automaton()
            .state(strategy.automaton().start())
            .unwrap();
        match start.routing().first().unwrap() {
            RoutingRule::Split { mode, sticky, .. } => {
                assert_eq!(*mode, RoutingMode::HeaderBased);
                assert!(*sticky, "A/B tests default to sticky sessions");
            }
            other => panic!("unexpected rule {other:?}"),
        }
    }

    #[test]
    fn routing_typos_and_mixed_modes_are_rejected() {
        // A typo must not fall back to cookie routing, and one phase's mode
        // must not silently switch every other phase, success and rollback.
        let two_phases = |first: &str, second: &str| {
            format!(
                "name: r\nstrategy:\n  phases:\n    - phase: canary\n      name: one\n      service: s\n      stable: a\n      candidate: b\n      duration: 60\n{first}    - phase: canary\n      name: two\n      service: s\n      stable: a\n      candidate: b\n      duration: 60\n{second}"
            )
        };
        for (first, second, context) in [
            ("      routing: heder\n", "", "phase 'one'"),
            (
                "      routing: cookie\n",
                "      routing: header\n",
                "phase 'two'",
            ),
            (
                "      routing: header-based\n",
                "      routing: cookie\n",
                "phase 'two'",
            ),
        ] {
            let err = parse_strategy(&two_phases(first, second)).unwrap_err();
            assert!(
                matches!(&err, DslError::InvalidField { context: c, field, .. }
                    if c == context && field == "routing"),
                "{first:?} {second:?}: {err}"
            );
        }
        for (first, second) in [
            ("      routing: header\n", "      routing: header-based\n"),
            ("", "      routing: header\n"),
        ] {
            let strategy = parse_strategy(&two_phases(first, second)).unwrap();
            for state in strategy.automaton().states().values() {
                for rule in state.routing() {
                    if let RoutingRule::Split { mode, .. } = rule {
                        assert_eq!(*mode, RoutingMode::HeaderBased);
                    }
                }
            }
        }
    }

    #[test]
    fn a_service_declared_twice_is_rejected() {
        let twice = RUNNING_EXAMPLE.replacen(
            "strategy:\n",
            "    - service: search\n      versions:\n        - name: search-v2\n          host: 10.0.0.3\n          port: 8080\nstrategy:\n",
            1,
        );
        let err = parse_strategy(&twice).unwrap_err();
        assert!(
            matches!(&err, DslError::InvalidField { context, field, .. }
                if context == "deployment" && field == "services"),
            "{err}"
        );
        assert!(
            err.to_string().contains("the service 'search' twice"),
            "{err}"
        );
    }

    #[test]
    fn exception_checks_fall_back_to_rollback() {
        let source = r#"
name: exc
strategy:
  phases:
    - phase: canary
      service: search
      stable: v1
      candidate: v2
      traffic: 5
      duration: 60
      checks:
        - name: spike
          query: request_errors
          interval: 12
          executions: 5
          validator: "<100"
          exception: true
"#;
        let strategy = parse_strategy(source).unwrap();
        let start = strategy
            .automaton()
            .state(strategy.automaton().start())
            .unwrap();
        let check = &start.checks()[0];
        assert!(check.is_exception());
        assert_eq!(check.fallback(), Some(strategy.rollback_state()));
    }

    #[test]
    fn invalid_validator_is_reported() {
        let source = r#"
name: bad
strategy:
  phases:
    - phase: canary
      service: s
      stable: a
      candidate: b
      duration: 60
      checks:
        - name: c
          query: q
          interval: 5
          executions: 3
          validator: "~5"
"#;
        let err = parse_strategy(source).unwrap_err();
        assert!(matches!(err, DslError::InvalidField { .. }));
    }

    #[test]
    fn invalid_percentage_is_reported() {
        let source = r#"
name: bad
strategy:
  phases:
    - phase: canary
      service: s
      stable: a
      candidate: b
      traffic: 250
      duration: 60
"#;
        let err = parse_strategy(source).unwrap_err();
        assert!(err.to_string().contains("traffic"));
    }

    #[test]
    fn dark_launch_compiles_to_shadow_rule() {
        let source = r#"
name: dark
strategy:
  phases:
    - phase: dark_launch
      service: product
      from: product-v1
      to: product-a
      traffic: 100
      duration: 60
"#;
        let strategy = parse_strategy(source).unwrap();
        let start = strategy
            .automaton()
            .state(strategy.automaton().start())
            .unwrap();
        assert!(start.routing()[0].is_shadow());
    }

    #[test]
    fn selector_combines_filter_and_percentage() {
        let source = r#"
name: filtered
strategy:
  phases:
    - phase: canary
      service: s
      stable: a
      candidate: b
      traffic: 5
      duration: 60
      user_percentage: 20
      user_filter:
        country: US
"#;
        let strategy = parse_strategy(source).unwrap();
        let start = strategy
            .automaton()
            .state(strategy.automaton().start())
            .unwrap();
        match start.routing().first().unwrap() {
            RoutingRule::Split { selector, .. } => match selector {
                UserSelector::And(parts) => assert_eq!(parts.len(), 2),
                other => panic!("expected And selector, got {other:?}"),
            },
            _ => panic!("expected split"),
        }
    }

    #[test]
    fn aggregation_spellings() {
        for (text, expected) in [
            ("last", QueryAggregation::Last),
            ("mean", QueryAggregation::Mean),
            ("avg", QueryAggregation::Mean),
            ("sum", QueryAggregation::Sum),
            ("max", QueryAggregation::Max),
            ("min", QueryAggregation::Min),
            ("count", QueryAggregation::Count),
            ("rate", QueryAggregation::Rate),
        ] {
            assert_eq!(parse_aggregation(text, "ctx").unwrap(), expected);
        }
        assert!(parse_aggregation("p99", "ctx").is_err());
    }
}
