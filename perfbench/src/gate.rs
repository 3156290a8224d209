//! The correctness gate every run passes before its numbers count.
//!
//! * **Conservation.** Per stream, the per-version counts sum to the
//!   requests routed, which equal the proxy's own count and the arrival
//!   plan's length; shadow copies equal the sum of the per-version shadow
//!   counts and the proxy's count.
//! * **Outcome.** Every strategy finishes in its success state and no
//!   arrival is left unrouted.
//! * **Shares.** In every proxy configuration, the observed split and
//!   dark-launch shares are within [`SHARE_TOLERANCE_PP`] percentage points
//!   of the configured ones. Shares are counted over whole virtual seconds
//!   in which the configuration did not change.
//! * **Reproducibility.** Runs with the same seed have the same
//!   [`Outcome::digest`].

use crate::workloads::{Scenario, WorkloadSpec};
use bifrost_core::ids::VersionId;
use bifrost_core::seed::Seed;
use bifrost_engine::{EngineEvent, TrafficStats};
use bifrost_proxy::{ProxyConfig, ProxyRule};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How far an observed share may sit from the configured one.
pub const SHARE_TOLERANCE_PP: f64 = 1.0;

/// Configurations observed for fewer requests than this are not share-checked
/// (too few draws for a 1-point tolerance).
const MIN_SHARE_SAMPLE: u64 = 20_000;

/// Cumulative routing counts of one stream at the end of a virtual second,
/// with the revision of its proxy's configuration.
#[derive(Debug, Clone, Default)]
struct SecondMark {
    revision: u64,
    per_version: BTreeMap<VersionId, u64>,
    shadows: BTreeMap<VersionId, u64>,
}

/// Per-configuration share bookkeeping, filled between steps.
#[derive(Debug, Default)]
pub struct ShareLedger {
    last: Vec<SecondMark>,
    /// Per `(stream, revision)`: the counts over the clean seconds of that
    /// configuration.
    totals: BTreeMap<(usize, u64), ConfigTally>,
}

/// Traffic routed under one proxy configuration.
#[derive(Debug)]
struct ConfigTally {
    config: ProxyConfig,
    primary: BTreeMap<VersionId, u64>,
    shadows: BTreeMap<VersionId, u64>,
}

impl ShareLedger {
    /// A ledger for the scenario's streams, before the first step.
    pub fn new(scenario: &Scenario) -> Self {
        Self {
            last: (0..scenario.traffic.len())
                .map(|stream| mark(scenario, stream))
                .collect(),
            totals: BTreeMap::new(),
        }
    }

    /// Folds the virtual second that just ended into the ledger: seconds in
    /// which a stream's configuration stayed the same count towards it.
    pub fn observe(&mut self, scenario: &Scenario) {
        for stream in 0..self.last.len() {
            let now = mark(scenario, stream);
            let before = &self.last[stream];
            if now.revision == before.revision {
                let tally = self
                    .totals
                    .entry((stream, now.revision))
                    .or_insert_with(|| ConfigTally {
                        config: scenario.proxy(stream).read().config().clone(),
                        primary: BTreeMap::new(),
                        shadows: BTreeMap::new(),
                    });
                add_delta(&mut tally.primary, &now.per_version, &before.per_version);
                add_delta(&mut tally.shadows, &now.shadows, &before.shadows);
            }
            self.last[stream] = now;
        }
    }

    /// Checks every configuration's observed shares against its rules.
    pub fn check(&self, failures: &mut Vec<String>) {
        for ((stream, revision), tally) in &self.totals {
            let ConfigTally {
                config,
                primary,
                shadows,
            } = tally;
            let total: u64 = primary.values().sum();
            if total < MIN_SHARE_SAMPLE {
                continue;
            }
            for (version, expected) in configured_split(config) {
                let observed = *primary.get(&version).unwrap_or(&0) as f64 / total as f64 * 100.0;
                if (observed - expected).abs() > SHARE_TOLERANCE_PP {
                    failures.push(format!(
                        "stream {stream} revision {revision}: {version} got {observed:.2}% of traffic, configured {expected:.2}%"
                    ));
                }
            }
            for rule in config.shadow_rules() {
                let ProxyRule::Shadow { route } = rule else {
                    continue;
                };
                let source = *primary.get(&route.source).unwrap_or(&0);
                if source < MIN_SHARE_SAMPLE {
                    continue;
                }
                let observed =
                    *shadows.get(&route.target).unwrap_or(&0) as f64 / source as f64 * 100.0;
                let expected = route.percentage.value();
                if (observed - expected).abs() > SHARE_TOLERANCE_PP {
                    failures.push(format!(
                        "stream {stream} revision {revision}: shadowed {observed:.2}% of {} to {}, configured {expected:.2}%",
                        route.source, route.target
                    ));
                }
            }
        }
    }
}

fn mark(scenario: &Scenario, stream: usize) -> SecondMark {
    let stats = scenario
        .engine
        .traffic_stats(scenario.traffic[stream])
        .expect("attached stream");
    SecondMark {
        revision: scenario.proxy(stream).read().config().revision(),
        per_version: stats.per_version.clone(),
        shadows: stats.shadow_per_version.clone(),
    }
}

fn add_delta(
    total: &mut BTreeMap<VersionId, u64>,
    now: &BTreeMap<VersionId, u64>,
    before: &BTreeMap<VersionId, u64>,
) {
    for (version, count) in now {
        *total.entry(*version).or_insert(0) += count - before.get(version).copied().unwrap_or(0);
    }
}

/// The primary share (percent) each version should receive under `config`.
fn configured_split(config: &ProxyConfig) -> Vec<(VersionId, f64)> {
    match config.split_rule() {
        Some(ProxyRule::Split { split, .. }) => split
            .shares()
            .iter()
            .map(|(version, share)| (*version, share.value()))
            .collect(),
        _ => vec![(config.default_version(), 100.0)],
    }
}

/// A stream's routing and serving counts: what the digest covers and what
/// the traced replay must reproduce.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamTally {
    /// Requests routed.
    pub requests: u64,
    /// Requests that errored, were shed, or timed out.
    pub errors: u64,
    /// Primary requests shed by a full backend queue.
    pub shed: u64,
    /// Primary requests past their backend's deadline.
    pub timed_out: u64,
    /// Shadow copies shed by a full backend queue.
    pub shadow_shed: u64,
    /// Dark-launch shadow copies produced.
    pub shadow_copies: u64,
    /// Primary requests per version.
    pub per_version: BTreeMap<VersionId, u64>,
    /// Shadow copies per target version.
    pub shadow_per_version: BTreeMap<VersionId, u64>,
}

impl From<&TrafficStats> for StreamTally {
    fn from(s: &TrafficStats) -> Self {
        Self {
            requests: s.requests,
            errors: s.errors,
            shed: s.shed,
            timed_out: s.timed_out,
            shadow_shed: s.shadow_shed,
            shadow_copies: s.shadow_copies,
            per_version: s.per_version.clone(),
            shadow_per_version: s.shadow_per_version.clone(),
        }
    }
}

/// What one enactment produced: everything the digest covers.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Per-stream counts.
    pub streams: Vec<StreamTally>,
    /// Per-strategy `(finished, succeeded, transitions)`.
    pub strategies: Vec<(bool, bool, usize)>,
    /// Check executions the engine recorded.
    pub checks_executed: usize,
    /// State evaluations the engine recorded.
    pub transitions: usize,
    /// Proxy configuration pushes the engine recorded.
    pub proxy_configs: usize,
}

impl Outcome {
    /// Collects the outcome of a finished enactment.
    pub fn collect(scenario: &Scenario) -> Self {
        let streams = scenario
            .traffic
            .iter()
            .map(|handle| {
                let stats = scenario.engine.traffic_stats(*handle);
                StreamTally::from(stats.expect("attached stream"))
            })
            .collect();
        let strategies = scenario
            .strategies
            .iter()
            .map(|handle| {
                let report = scenario.engine.report(*handle).expect("scheduled strategy");
                (
                    report.is_finished(),
                    report.succeeded(),
                    report.transitions(),
                )
            })
            .collect();
        let events = scenario.engine.events().events();
        let count = |pred: fn(&EngineEvent) -> bool| events.iter().filter(|e| pred(e)).count();
        Self {
            streams,
            strategies,
            checks_executed: count(|e| matches!(e, EngineEvent::CheckExecuted { .. })),
            transitions: count(|e| matches!(e, EngineEvent::StateEvaluated { .. })),
            proxy_configs: count(|e| matches!(e, EngineEvent::ProxyConfigured { .. })),
        }
    }

    /// Requests routed over all streams.
    pub fn requests(&self) -> u64 {
        self.streams.iter().map(|s| s.requests).sum()
    }

    /// Requests that errored, were shed, or timed out, over all streams.
    pub fn errors(&self) -> u64 {
        self.streams.iter().map(|s| s.errors).sum()
    }

    /// A 64-bit FNV-1a digest of the counts, shed figures and final states.
    pub fn digest(&self) -> u64 {
        let mut text = String::new();
        for stream in &self.streams {
            let _ = write!(text, "{stream:?};");
        }
        let _ = write!(
            text,
            "{:?} {} {} {}",
            self.strategies, self.checks_executed, self.transitions, self.proxy_configs
        );
        text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }
}

/// Checks conservation and outcome of a finished enactment, appending a
/// line per violation to `failures`.
pub fn check_outcome(scenario: &Scenario, outcome: &Outcome, failures: &mut Vec<String>) {
    for (index, stats) in outcome.streams.iter().enumerate() {
        let routed: u64 = stats.per_version.values().sum();
        if routed != stats.requests {
            failures.push(format!(
                "stream {index}: per-version counts sum to {routed}, {} routed",
                stats.requests
            ));
        }
        let shadows: u64 = stats.shadow_per_version.values().sum();
        if shadows != stats.shadow_copies {
            failures.push(format!(
                "stream {index}: per-version shadows sum to {shadows}, {} copies",
                stats.shadow_copies
            ));
        }
        let proxy_stats = scenario.proxy(index).read().stats();
        if proxy_stats.requests != stats.requests
            || proxy_stats.per_version != stats.per_version
            || proxy_stats.shadow_copies != stats.shadow_copies
        {
            failures.push(format!(
                "stream {index}: proxy counted {} requests / {} shadows, traffic {} / {}",
                proxy_stats.requests,
                proxy_stats.shadow_copies,
                stats.requests,
                stats.shadow_copies
            ));
        }
    }
    for (index, (finished, succeeded, _)) in outcome.strategies.iter().enumerate() {
        if !finished || !succeeded {
            failures.push(format!(
                "strategy {index}: finished={finished} succeeded={succeeded}, expected success"
            ));
        }
    }
}

/// Checks each stream's routed count against its arrival plan, regenerated
/// from the seed the way the engine materialises it.
pub fn check_plan_lengths(
    spec: &WorkloadSpec,
    seed: Seed,
    outcome: &Outcome,
    failures: &mut Vec<String>,
) {
    for (index, (stream, stats)) in spec.streams.iter().zip(&outcome.streams).enumerate() {
        let planned = stream
            .profile
            .load()
            .plan_seeded(stream_seed(seed, index))
            .len() as u64;
        if planned != stats.requests {
            failures.push(format!(
                "stream {index}: {} routed, {planned} planned",
                stats.requests
            ));
        }
    }
}

/// The seed the engine derives stream `index`'s arrival plan and backend
/// draws from.
pub fn stream_seed(seed: Seed, index: usize) -> Seed {
    seed.stream(&format!("traffic-{index}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bifrost_core::ids::ServiceId;
    use bifrost_core::routing::{DarkLaunchRoute, Percentage, RoutingMode, TrafficSplit};
    use bifrost_core::user::UserSelector;

    fn ledger_with(
        config: ProxyConfig,
        primary: &[(u64, u64)],
        shadows: &[(u64, u64)],
    ) -> Vec<String> {
        let counts = |pairs: &[(u64, u64)]| {
            pairs
                .iter()
                .map(|(v, n)| (VersionId::new(*v), *n))
                .collect::<BTreeMap<_, _>>()
        };
        let mut ledger = ShareLedger::default();
        ledger.totals.insert(
            (0, 1),
            ConfigTally {
                config,
                primary: counts(primary),
                shadows: counts(shadows),
            },
        );
        let mut failures = Vec::new();
        ledger.check(&mut failures);
        failures
    }

    fn canary_config(share: f64) -> ProxyConfig {
        let (stable, canary) = (VersionId::new(0), VersionId::new(1));
        let split = TrafficSplit::canary(stable, canary, Percentage::new(share).unwrap()).unwrap();
        ProxyConfig::new(ServiceId::new(0), stable).with_rule(ProxyRule::split(
            split,
            false,
            UserSelector::All,
            RoutingMode::CookieBased,
        ))
    }

    #[test]
    fn shares_within_a_point_pass_and_beyond_fail() {
        assert!(ledger_with(canary_config(20.0), &[(0, 80_400), (1, 19_600)], &[]).is_empty());
        let failures = ledger_with(canary_config(20.0), &[(0, 78_000), (1, 22_000)], &[]);
        assert_eq!(failures.len(), 2, "{failures:?}");
    }

    #[test]
    fn shadow_share_is_checked_against_its_source() {
        let (stable, canary) = (VersionId::new(0), VersionId::new(1));
        let config = ProxyConfig::new(ServiceId::new(0), stable).with_rule(ProxyRule::shadow(
            DarkLaunchRoute::new(stable, canary, Percentage::new(20.0).unwrap()),
        ));
        assert!(ledger_with(config.clone(), &[(0, 100_000)], &[(1, 20_300)]).is_empty());
        assert_eq!(
            ledger_with(config, &[(0, 100_000)], &[(1, 25_000)]).len(),
            1
        );
    }

    #[test]
    fn small_samples_are_not_share_checked() {
        assert!(ledger_with(canary_config(20.0), &[(0, 500), (1, 500)], &[]).is_empty());
    }
}
