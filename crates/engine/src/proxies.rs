//! The engine's view of the proxy fleet.
//!
//! There is exactly one Bifrost proxy per live-tested service. The engine
//! owns the fleet and pushes configurations on state transitions; the
//! simulated application holds clones of the same handles so its request
//! routing immediately reflects configuration changes (exactly like the real
//! proxies picking up engine updates over HTTP). The fleet keeps only the
//! handles: a proxy's default version and revision live in its config.

use bifrost_core::ids::{ServiceId, VersionId};
use bifrost_core::routing::RoutingRule;
use bifrost_proxy::{BifrostProxy, ProxyConfig, ProxyRule, DEFAULT_SESSION_SHARDS};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A shared handle to one proxy instance.
pub type ProxyHandle = Arc<RwLock<BifrostProxy>>;

/// The set of proxies managed by one engine.
pub struct ProxyFleet {
    proxies: BTreeMap<ServiceId, ProxyHandle>,
    /// Session-store shards configured into every registered proxy.
    session_shards: usize,
}

impl Default for ProxyFleet {
    fn default() -> Self {
        Self {
            proxies: BTreeMap::new(),
            session_shards: DEFAULT_SESSION_SHARDS,
        }
    }
}

impl ProxyFleet {
    /// Creates an empty fleet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty fleet whose proxies shard their sticky-session
    /// tables `session_shards` ways (minimum 1).
    pub fn with_session_shards(session_shards: usize) -> Self {
        Self {
            session_shards: session_shards.max(1),
            ..Self::default()
        }
    }

    /// The session-shard count configured into registered proxies.
    pub fn session_shards(&self) -> usize {
        self.session_shards
    }

    /// Registers a proxy for `service`, initially routing everything to
    /// `default_version`. Returns the shared handle (give clones of it to the
    /// application simulation).
    pub fn register(&mut self, service: ServiceId, default_version: VersionId) -> ProxyHandle {
        let config = ProxyConfig::new(service, default_version);
        let proxy = Arc::new(RwLock::new(
            BifrostProxy::new(format!("proxy-{service}"), config)
                .with_session_shards(self.session_shards),
        ));
        self.proxies.insert(service, proxy.clone());
        proxy
    }

    /// The handle of the proxy fronting `service`, if registered.
    pub fn handle(&self, service: ServiceId) -> Option<ProxyHandle> {
        self.proxies.get(&service).cloned()
    }

    /// Number of registered proxies.
    pub fn len(&self) -> usize {
        self.proxies.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.proxies.is_empty()
    }

    /// The services with a registered proxy.
    pub fn services(&self) -> impl Iterator<Item = ServiceId> + '_ {
        self.proxies.keys().copied()
    }

    /// Translates a state's routing rules into per-service proxy
    /// configurations and applies them, each at the revision after the
    /// proxy's own. Returns the `(service, revision)` pairs that were
    /// updated. Services without a registered proxy are skipped (the
    /// paper's auth service has no proxy either).
    pub fn apply_rules(&mut self, rules: &[RoutingRule]) -> Vec<(ServiceId, u64)> {
        // Group rules by service: one config per service carrying all rules.
        let mut grouped: BTreeMap<ServiceId, Vec<&RoutingRule>> = BTreeMap::new();
        for rule in rules {
            grouped.entry(rule.service()).or_default().push(rule);
        }
        let mut updated = Vec::new();
        for (service, service_rules) in grouped {
            let Some(handle) = self.proxies.get(&service) else {
                continue;
            };
            let mut proxy = handle.write();
            let current = proxy.config();
            let revision = current.revision() + 1;
            let mut config =
                ProxyConfig::new(service, current.default_version()).with_revision(revision);
            for rule in service_rules {
                config = config.with_rule(translate_rule(rule));
            }
            proxy.apply_config(config);
            updated.push((service, revision));
        }
        updated
    }
}

impl fmt::Debug for ProxyFleet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProxyFleet")
            .field("proxies", &self.proxies.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// Translates a model-level routing rule into a proxy-level rule.
fn translate_rule(rule: &RoutingRule) -> ProxyRule {
    match rule {
        RoutingRule::Split {
            split,
            sticky,
            selector,
            mode,
            ..
        } => ProxyRule::split(split.clone(), *sticky, selector.clone(), *mode),
        RoutingRule::Shadow { route, .. } => ProxyRule::shadow(*route),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bifrost_core::ids::UserId;
    use bifrost_core::routing::{DarkLaunchRoute, Percentage, RoutingMode, TrafficSplit};
    use bifrost_core::user::UserSelector;
    use bifrost_proxy::ProxyRequest;

    fn ids() -> (ServiceId, VersionId, VersionId) {
        (ServiceId::new(0), VersionId::new(0), VersionId::new(1))
    }

    #[test]
    fn register_and_lookup() {
        let (service, stable, _) = ids();
        let mut fleet = ProxyFleet::new();
        assert!(fleet.is_empty());
        let handle = fleet.register(service, stable);
        assert_eq!(fleet.len(), 1);
        assert!(fleet.handle(service).is_some());
        assert!(fleet.handle(ServiceId::new(9)).is_none());
        assert_eq!(fleet.services().collect::<Vec<_>>(), vec![service]);
        assert_eq!(handle.read().config().default_version(), stable);
    }

    #[test]
    fn apply_rules_pushes_config_and_bumps_revision() {
        let (service, stable, canary) = ids();
        let mut fleet = ProxyFleet::new();
        let handle = fleet.register(service, stable);

        let rules = vec![RoutingRule::Split {
            service,
            split: TrafficSplit::canary(stable, canary, Percentage::new(5.0).unwrap()).unwrap(),
            sticky: false,
            selector: UserSelector::All,
            mode: RoutingMode::CookieBased,
        }];
        let updated = fleet.apply_rules(&rules);
        assert_eq!(updated, vec![(service, 1)]);
        assert!(handle.read().is_active());
        assert_eq!(handle.read().config().revision(), 1);

        // A second application bumps the revision again.
        let updated = fleet.apply_rules(&rules);
        assert_eq!(updated, vec![(service, 2)]);
    }

    #[test]
    fn apply_rules_continues_from_the_proxys_own_revision() {
        let (service, stable, canary) = ids();
        let mut fleet = ProxyFleet::new();
        let handle = fleet.register(service, stable);
        handle
            .write()
            .apply_config(ProxyConfig::new(service, stable).with_revision(5));
        let rules = [RoutingRule::Shadow {
            service,
            route: DarkLaunchRoute::new(stable, canary, Percentage::full()),
        }];
        assert_eq!(fleet.apply_rules(&rules), vec![(service, 6)]);
        assert_eq!(handle.read().config().revision(), 6);
        assert_eq!(handle.read().config().default_version(), stable);
    }

    #[test]
    fn rules_for_unregistered_services_are_skipped() {
        let (service, stable, canary) = ids();
        let mut fleet = ProxyFleet::new();
        fleet.register(service, stable);
        let rules = vec![RoutingRule::Shadow {
            service: ServiceId::new(7),
            route: DarkLaunchRoute::new(stable, canary, Percentage::full()),
        }];
        assert!(fleet.apply_rules(&rules).is_empty());
    }

    #[test]
    fn split_and_shadow_rules_for_one_service_combine_into_one_config() {
        let (service, stable, canary) = ids();
        let mut fleet = ProxyFleet::new();
        let handle = fleet.register(service, stable);
        let rules = vec![
            RoutingRule::Split {
                service,
                split: TrafficSplit::ab(stable, canary).unwrap(),
                sticky: true,
                selector: UserSelector::All,
                mode: RoutingMode::CookieBased,
            },
            RoutingRule::Shadow {
                service,
                route: DarkLaunchRoute::new(stable, canary, Percentage::full()),
            },
        ];
        fleet.apply_rules(&rules);
        let proxy = handle.read();
        assert_eq!(proxy.config().rules().len(), 2);
        assert!(proxy.config().has_dark_launch());
        assert!(proxy.config().requires_sticky_sessions());
    }

    #[test]
    fn reset_restores_default_routing() {
        // A rollback state's all-to-stable rule is what returns a proxy to
        // the default version once a strategy gives up on the canary.
        let (service, stable, canary) = ids();
        let mut fleet = ProxyFleet::new();
        let handle = fleet.register(service, stable);
        let all_to = |version| RoutingRule::Split {
            service,
            split: TrafficSplit::all_to(version),
            sticky: false,
            selector: UserSelector::All,
            mode: RoutingMode::CookieBased,
        };
        fleet.apply_rules(&[all_to(canary)]);
        assert_eq!(
            handle
                .write()
                .route(&ProxyRequest::from_user(UserId::new(1)))
                .primary,
            canary
        );
        assert_eq!(fleet.apply_rules(&[all_to(stable)]), vec![(service, 2)]);
        assert_eq!(handle.read().config().revision(), 2);
        assert_eq!(
            handle
                .write()
                .route(&ProxyRequest::from_user(UserId::new(1)))
                .primary,
            stable
        );
    }
}
