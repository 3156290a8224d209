//! Routing descriptions of a service's dynamic routing configuration
//! `dcᵢ = ⟨M, Γ⟩`.
//!
//! The routing state of a service consists of user mappings
//! `M = ⟨uₖ, vⱼ, sticky⟩` (which user uses which version, and whether the
//! assignment is permanent within the current state) and dark-launch routes
//! `Γ = ⟨v_src, v_tgt, p⟩` (from which version what share of traffic is
//! duplicated to which shadow version). States carry the [`TrafficSplit`]
//! and [`RoutingRule`] descriptions of this module in their routing
//! configuration `Φ`; proxies turn them into concrete per-request decisions
//! and keep the materialised user mappings `M` in their session store.

use crate::error::ModelError;
use crate::ids::{ServiceId, VersionId};
use crate::user::UserSelector;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A percentage in the inclusive range `0.0..=100.0`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Percentage(f64);

impl Percentage {
    /// Creates a percentage.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidPercentage`] if the value is not finite
    /// or outside `0.0..=100.0`.
    pub fn new(value: f64) -> Result<Self, ModelError> {
        if !value.is_finite() || !(0.0..=100.0).contains(&value) {
            return Err(ModelError::InvalidPercentage(value));
        }
        Ok(Self(value))
    }

    /// 0 %.
    pub const fn zero() -> Self {
        Self(0.0)
    }

    /// 100 %.
    pub const fn full() -> Self {
        Self(100.0)
    }

    /// The raw value in `0.0..=100.0`.
    pub fn value(self) -> f64 {
        self.0
    }

    /// The value as a fraction in `0.0..=1.0`.
    pub fn fraction(self) -> f64 {
        self.0 / 100.0
    }
}

impl fmt::Display for Percentage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}%", self.0)
    }
}

impl TryFrom<f64> for Percentage {
    type Error = ModelError;

    fn try_from(value: f64) -> Result<Self, Self::Error> {
        Self::new(value)
    }
}

/// A dark-launch route `⟨v_src, v_tgt, p⟩`: `p` percent of the traffic hitting
/// `source` is duplicated and also sent to `target` (whose responses are
/// discarded).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DarkLaunchRoute {
    /// The version whose traffic is observed.
    pub source: VersionId,
    /// The shadow version receiving duplicated traffic.
    pub target: VersionId,
    /// The share of traffic that is duplicated.
    pub percentage: Percentage,
}

impl DarkLaunchRoute {
    /// Creates a dark-launch route.
    pub fn new(source: VersionId, target: VersionId, percentage: Percentage) -> Self {
        Self {
            source,
            target,
            percentage,
        }
    }
}

/// How the proxy identifies a user across requests when making routing
/// decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum RoutingMode {
    /// The proxy sets and reads a UUID cookie (`Set-Cookie`) to bucket and
    /// re-identify clients itself. Slightly slower but self-contained.
    #[default]
    CookieBased,
    /// The proxy routes purely on a request header injected upstream (e.g. by
    /// the login service); it never makes bucketing decisions itself.
    HeaderBased,
}

/// A weighted traffic split across versions of one service.
///
/// The weights must sum to 100 % (within a small tolerance to absorb
/// floating-point error accumulated by gradual-rollout step arithmetic).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficSplit {
    shares: Vec<(VersionId, Percentage)>,
}

impl TrafficSplit {
    /// Tolerance (in percentage points) allowed when validating that shares
    /// sum to 100.
    pub const TOLERANCE: f64 = 1e-6;

    /// Creates a traffic split.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidTrafficSplit`] if no share is given, a
    /// version appears twice, or the shares do not sum to 100 %.
    pub fn new(shares: Vec<(VersionId, Percentage)>) -> Result<Self, ModelError> {
        if shares.is_empty() {
            return Err(ModelError::InvalidTrafficSplit(
                "a traffic split needs at least one version".into(),
            ));
        }
        for (i, (v, _)) in shares.iter().enumerate() {
            if shares.iter().skip(i + 1).any(|(other, _)| other == v) {
                return Err(ModelError::InvalidTrafficSplit(format!(
                    "version {v} appears more than once"
                )));
            }
        }
        let total: f64 = shares.iter().map(|(_, p)| p.value()).sum();
        if (total - 100.0).abs() > Self::TOLERANCE {
            return Err(ModelError::InvalidTrafficSplit(format!(
                "shares sum to {total}, expected 100"
            )));
        }
        Ok(Self { shares })
    }

    /// A split sending all traffic to a single version.
    pub fn all_to(version: VersionId) -> Self {
        Self {
            shares: vec![(version, Percentage::full())],
        }
    }

    /// A two-way split: `canary_share` percent to `canary`, the rest to
    /// `stable`. This is the shape used by canary releases and gradual
    /// rollouts.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidTrafficSplit`] if both versions are the
    /// same.
    pub fn canary(
        stable: VersionId,
        canary: VersionId,
        canary_share: Percentage,
    ) -> Result<Self, ModelError> {
        let stable_share = Percentage::new(100.0 - canary_share.value())
            .expect("complement of a valid percentage is valid");
        Self::new(vec![(stable, stable_share), (canary, canary_share)])
    }

    /// A 50/50 split between two alternatives (A/B test).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidTrafficSplit`] if both versions are the
    /// same.
    pub fn ab(a: VersionId, b: VersionId) -> Result<Self, ModelError> {
        Self::new(vec![
            (a, Percentage::new(50.0).expect("50 is valid")),
            (b, Percentage::new(50.0).expect("50 is valid")),
        ])
    }

    /// The shares of the split.
    pub fn shares(&self) -> &[(VersionId, Percentage)] {
        &self.shares
    }

    /// The share routed to `version`, or 0 % if the version is not part of
    /// the split.
    pub fn share_of(&self, version: VersionId) -> Percentage {
        self.shares
            .iter()
            .find(|(v, _)| *v == version)
            .map(|(_, p)| *p)
            .unwrap_or(Percentage::zero())
    }

    /// The versions participating in the split.
    pub fn versions(&self) -> impl Iterator<Item = VersionId> + '_ {
        self.shares.iter().map(|(v, _)| *v)
    }

    /// Picks the version a request falls into given a uniform draw in
    /// `0.0..1.0` (e.g. from hashing a sticky cookie). The cumulative
    /// distribution over shares is walked in declaration order, which makes
    /// bucketing stable as long as the share order is stable.
    pub fn pick(&self, uniform_draw: f64) -> VersionId {
        let draw = uniform_draw.clamp(0.0, 1.0 - f64::EPSILON);
        let mut cumulative = 0.0;
        for (version, share) in &self.shares {
            cumulative += share.fraction();
            if draw < cumulative {
                return *version;
            }
        }
        // Fall back to the last version to absorb floating point residue.
        self.shares.last().expect("split is non-empty").0
    }
}

/// A routing rule of a state: for one service, either split live traffic
/// across versions or duplicate ("shadow") traffic to a dark-launched
/// version.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RoutingRule {
    /// Split live traffic between versions according to a [`TrafficSplit`].
    Split {
        /// The service whose traffic is split.
        service: ServiceId,
        /// The split across the service's versions.
        split: TrafficSplit,
        /// Whether a user, once bucketed, must stay in the same bucket for the
        /// remainder of the state (sticky sessions).
        sticky: bool,
        /// Which users the rule applies to; users not selected keep using the
        /// stable (first-listed) version.
        selector: UserSelector,
        /// How the proxy identifies users (cookie vs header routing).
        mode: RoutingMode,
    },
    /// Duplicate traffic to a shadow version without affecting user-visible
    /// responses.
    Shadow {
        /// The service whose traffic is duplicated.
        service: ServiceId,
        /// The dark-launch route.
        route: DarkLaunchRoute,
    },
}

impl RoutingRule {
    /// The service this rule applies to.
    pub fn service(&self) -> ServiceId {
        match self {
            RoutingRule::Split { service, .. } | RoutingRule::Shadow { service, .. } => *service,
        }
    }

    /// All versions referenced by this rule.
    pub fn versions(&self) -> Vec<VersionId> {
        match self {
            RoutingRule::Split { split, .. } => split.versions().collect(),
            RoutingRule::Shadow { route, .. } => vec![route.source, route.target],
        }
    }

    /// Whether the rule duplicates traffic (dark launch).
    pub fn is_shadow(&self) -> bool {
        matches!(self, RoutingRule::Shadow { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentage_bounds() {
        assert!(Percentage::new(-0.1).is_err());
        assert!(Percentage::new(100.1).is_err());
        assert!(Percentage::new(f64::NAN).is_err());
        assert_eq!(Percentage::new(0.0).unwrap(), Percentage::zero());
        assert_eq!(Percentage::new(100.0).unwrap(), Percentage::full());
        assert_eq!(Percentage::new(25.0).unwrap().fraction(), 0.25);
        assert_eq!(Percentage::new(5.0).unwrap().to_string(), "5%");
        assert!(Percentage::try_from(50.0).is_ok());
    }

    #[test]
    fn traffic_split_must_sum_to_100() {
        let v1 = VersionId::new(1);
        let v2 = VersionId::new(2);
        assert!(TrafficSplit::new(vec![
            (v1, Percentage::new(60.0).unwrap()),
            (v2, Percentage::new(30.0).unwrap()),
        ])
        .is_err());
        assert!(TrafficSplit::new(vec![]).is_err());
        assert!(TrafficSplit::new(vec![
            (v1, Percentage::new(95.0).unwrap()),
            (v2, Percentage::new(5.0).unwrap()),
        ])
        .is_ok());
    }

    #[test]
    fn traffic_split_rejects_duplicate_versions() {
        let v1 = VersionId::new(1);
        let err = TrafficSplit::new(vec![
            (v1, Percentage::new(50.0).unwrap()),
            (v1, Percentage::new(50.0).unwrap()),
        ])
        .unwrap_err();
        assert!(matches!(err, ModelError::InvalidTrafficSplit(_)));
    }

    #[test]
    fn canary_split_computes_complement() {
        let stable = VersionId::new(1);
        let canary = VersionId::new(2);
        let split = TrafficSplit::canary(stable, canary, Percentage::new(5.0).unwrap()).unwrap();
        assert_eq!(split.share_of(stable).value(), 95.0);
        assert_eq!(split.share_of(canary).value(), 5.0);
        assert_eq!(split.share_of(VersionId::new(9)).value(), 0.0);
    }

    #[test]
    fn ab_split_is_even() {
        let split = TrafficSplit::ab(VersionId::new(1), VersionId::new(2)).unwrap();
        assert_eq!(split.share_of(VersionId::new(1)).value(), 50.0);
        assert_eq!(split.share_of(VersionId::new(2)).value(), 50.0);
    }

    #[test]
    fn pick_respects_shares() {
        let stable = VersionId::new(1);
        let canary = VersionId::new(2);
        let split = TrafficSplit::canary(stable, canary, Percentage::new(10.0).unwrap()).unwrap();
        assert_eq!(split.pick(0.0), stable);
        assert_eq!(split.pick(0.5), stable);
        assert_eq!(split.pick(0.899), stable);
        assert_eq!(split.pick(0.95), canary);
        assert_eq!(split.pick(1.0), canary);
    }

    #[test]
    fn pick_distribution_roughly_matches_shares() {
        let stable = VersionId::new(1);
        let canary = VersionId::new(2);
        let split = TrafficSplit::canary(stable, canary, Percentage::new(20.0).unwrap()).unwrap();
        let n = 10_000;
        let canary_hits = (0..n)
            .map(|i| i as f64 / n as f64)
            .filter(|&d| split.pick(d) == canary)
            .count();
        let fraction = canary_hits as f64 / n as f64;
        assert!((fraction - 0.2).abs() < 0.01, "fraction {fraction}");
    }

    #[test]
    fn routing_rule_accessors() {
        let service = ServiceId::new(1);
        let v1 = VersionId::new(1);
        let v2 = VersionId::new(2);
        let split_rule = RoutingRule::Split {
            service,
            split: TrafficSplit::ab(v1, v2).unwrap(),
            sticky: true,
            selector: UserSelector::All,
            mode: RoutingMode::CookieBased,
        };
        assert_eq!(split_rule.service(), service);
        assert_eq!(split_rule.versions(), vec![v1, v2]);
        assert!(!split_rule.is_shadow());

        let shadow_rule = RoutingRule::Shadow {
            service,
            route: DarkLaunchRoute::new(v1, v2, Percentage::full()),
        };
        assert!(shadow_rule.is_shadow());
        assert_eq!(shadow_rule.versions(), vec![v1, v2]);
    }
}
