//! The simulated 7-service e-commerce application.
//!
//! The topology mirrors Figure 5 of the paper: nginx is the entry point,
//! the product service handles the four workload request types, it calls the
//! auth service for every request, MongoDB for data access, and the search
//! service for search queries. The product service exists in three versions
//! (stable, product A, product B), the search service in two (stable,
//! fastSearch). Bifrost proxies can be deployed in front of the product and
//! search services; when they are, every request to those services pays the
//! proxy's processing cost and follows its routing decision.

use crate::model::{ServiceCosts, VersionBehavior};
use bifrost_core::ids::{ServiceId, UserId, VersionId};
use bifrost_core::service::{Endpoint, Service, ServiceCatalog, ServiceVersion};
use bifrost_engine::ProxyHandle;
use bifrost_metrics::{SeriesKey, SharedMetricStore};
use bifrost_proxy::{ProxyRequest, RoutingDecision};
use bifrost_simnet::{Cluster, ContainerId, SimRng, SimTime};
use bifrost_workload::{RequestKind, ResponseRecord};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

/// Whether Bifrost proxies are part of the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProxyDeployment {
    /// No proxies deployed (the paper's *baseline* variant).
    None,
    /// Proxies deployed in front of the product and search services (the
    /// *inactive* and *active* variants; whether a strategy is running is
    /// determined by the proxies' configuration, which the engine controls).
    Deployed,
}

/// The identifiers of the case-study services and versions, shared between
/// the application, the strategies, and the engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseStudyTopology {
    /// The service catalog (product + search with all their versions).
    pub catalog: ServiceCatalog,
    /// The product service.
    pub product_service: ServiceId,
    /// The stable product version.
    pub product_stable: VersionId,
    /// Product alternative A.
    pub product_a: VersionId,
    /// Product alternative B.
    pub product_b: VersionId,
    /// The search service.
    pub search_service: ServiceId,
    /// The stable search version.
    pub search_stable: VersionId,
    /// The redesigned fastSearch version.
    pub fast_search: VersionId,
}

impl CaseStudyTopology {
    /// Builds the catalog of the case-study application.
    pub fn new() -> Self {
        let mut catalog = ServiceCatalog::new();
        let product_service = catalog
            .add_service(Service::new("product").with_description("product catalog and orders"));
        let product_stable = catalog
            .add_version(
                product_service,
                ServiceVersion::new("product", Endpoint::new("10.10.0.10", 8080)),
            )
            .expect("fresh catalog");
        let product_a = catalog
            .add_version(
                product_service,
                ServiceVersion::new("product-a", Endpoint::new("10.10.0.11", 8080)),
            )
            .expect("fresh catalog");
        let product_b = catalog
            .add_version(
                product_service,
                ServiceVersion::new("product-b", Endpoint::new("10.10.0.12", 8080)),
            )
            .expect("fresh catalog");
        let search_service = catalog
            .add_service(Service::new("search").with_description("text-based product search"));
        let search_stable = catalog
            .add_version(
                search_service,
                ServiceVersion::new("search", Endpoint::new("10.10.0.20", 8080)),
            )
            .expect("fresh catalog");
        let fast_search = catalog
            .add_version(
                search_service,
                ServiceVersion::new("fastSearch", Endpoint::new("10.10.0.21", 8080)),
            )
            .expect("fresh catalog");
        Self {
            catalog,
            product_service,
            product_stable,
            product_a,
            product_b,
            search_service,
            search_stable,
            fast_search,
        }
    }
}

impl Default for CaseStudyTopology {
    fn default() -> Self {
        Self::new()
    }
}

/// The simulated application.
#[derive(Debug)]
pub struct CaseStudyApp {
    topology: CaseStudyTopology,
    cluster: Cluster,
    costs: ServiceCosts,
    proxy_deployment: ProxyDeployment,
    // Containers.
    nginx: ContainerId,
    auth: ContainerId,
    mongo: ContainerId,
    product_proxy_container: Option<ContainerId>,
    search_proxy_container: Option<ContainerId>,
    version_containers: BTreeMap<VersionId, ContainerId>,
    version_behaviors: BTreeMap<VersionId, VersionBehavior>,
    // Proxies (shared with the engine).
    product_proxy: Option<ProxyHandle>,
    search_proxy: Option<ProxyHandle>,
    // Metrics.
    store: SharedMetricStore,
    rng: SimRng,
    requests_served: u64,
    /// Cumulative application counters, keyed by `(metric, version)`; they
    /// are re-published on every scrape so that windowed rate queries always
    /// see a sample (the behaviour of a Prometheus scrape loop).
    counters: BTreeMap<(String, String), f64>,
}

impl CaseStudyApp {
    /// Builds the 12-VM deployment of the end-user overhead experiment:
    /// every container on its own single-core VM.
    pub fn deploy(store: SharedMetricStore, proxy_deployment: ProxyDeployment, seed: u64) -> Self {
        let topology = CaseStudyTopology::new();
        let mut cluster = Cluster::new(store.clone(), seed);

        let nginx = cluster.add_container("nginx");
        cluster.add_container("frontend");
        let auth = cluster.add_container("auth");
        let mongo = cluster.add_container("mongodb");
        cluster.add_container("prometheus");
        let product_stable_c = cluster.add_container("product");
        let product_a_c = cluster.add_container("product-a");
        let product_b_c = cluster.add_container("product-b");
        let search_c = cluster.add_container("search");
        let fast_search_c = cluster.add_container("fastsearch");

        let (product_proxy_container, search_proxy_container) = match proxy_deployment {
            ProxyDeployment::None => (None, None),
            ProxyDeployment::Deployed => (
                Some(cluster.add_container("product-proxy")),
                Some(cluster.add_container("search-proxy")),
            ),
        };

        let mut version_containers = BTreeMap::new();
        version_containers.insert(topology.product_stable, product_stable_c);
        version_containers.insert(topology.product_a, product_a_c);
        version_containers.insert(topology.product_b, product_b_c);
        version_containers.insert(topology.search_stable, search_c);
        version_containers.insert(topology.fast_search, fast_search_c);

        let mut version_behaviors = BTreeMap::new();
        version_behaviors.insert(topology.product_stable, VersionBehavior::stable());
        version_behaviors.insert(topology.product_a, VersionBehavior::healthy_redesign());
        version_behaviors.insert(topology.product_b, VersionBehavior::healthy_redesign());
        version_behaviors.insert(topology.search_stable, VersionBehavior::stable());
        version_behaviors.insert(topology.fast_search, VersionBehavior::healthy_redesign());

        let mut app = Self {
            topology,
            cluster,
            costs: ServiceCosts::calibrated(),
            proxy_deployment,
            nginx,
            auth,
            mongo,
            product_proxy_container,
            search_proxy_container,
            version_containers,
            version_behaviors,
            product_proxy: None,
            search_proxy: None,
            store,
            rng: SimRng::seeded(seed ^ 0x5151_5151),
            requests_served: 0,
            counters: BTreeMap::new(),
        };
        // Initialise the counter series every version exposes, mirroring how
        // Prometheus client libraries register counters at zero on service
        // start-up. Checks that look at error counts therefore see "0" rather
        // than "no data" before the first request arrives.
        let versions: Vec<VersionId> = app.version_containers.keys().copied().collect();
        for version in versions {
            let name = app.version_name(version).to_string();
            for metric in ["request_errors", "requests_total", "items_sold_total"] {
                app.counters.insert((metric.to_string(), name.clone()), 0.0);
            }
        }
        app.publish_counters(SimTime::ZERO);
        app
    }

    /// The topology (catalog and ids) of the application.
    pub fn topology(&self) -> &CaseStudyTopology {
        &self.topology
    }

    /// The shared metric store the application reports into.
    pub fn metric_store(&self) -> &SharedMetricStore {
        &self.store
    }

    /// Overrides the behaviour of a version (e.g. to inject a defective
    /// canary).
    pub fn set_version_behavior(&mut self, version: VersionId, behavior: VersionBehavior) {
        self.version_behaviors.insert(version, behavior);
    }

    /// Attaches the proxy handles obtained from the engine
    /// ([`bifrost_engine::BifrostEngine::register_proxy`]). Without handles,
    /// a deployed proxy acts as a pure pass-through.
    pub fn attach_proxies(&mut self, product: Option<ProxyHandle>, search: Option<ProxyHandle>) {
        self.product_proxy = product;
        self.search_proxy = search;
    }

    /// Number of requests served so far.
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    /// Scrapes per-container resource metrics (the cAdvisor role) and
    /// re-publishes the application counters (the Prometheus scrape loop), so
    /// that windowed queries always find a sample even in quiet periods.
    pub fn scrape_resources(&mut self, now: SimTime) {
        self.cluster.scrape_resources(now);
        self.publish_counters(now);
    }

    /// Writes the current value of every application counter into the store.
    fn publish_counters(&mut self, now: SimTime) {
        for ((metric, version), value) in &self.counters {
            self.store.record_value(
                SeriesKey::new(metric.clone()).with_label("version", version.clone()),
                now.to_timestamp(),
                *value,
            );
        }
    }

    /// Adds `delta` to a cumulative counter and publishes the new value.
    fn bump_counter(&mut self, metric: &str, version: &str, at: SimTime, delta: f64) {
        let value = self
            .counters
            .entry((metric.to_string(), version.to_string()))
            .or_insert(0.0);
        *value += delta;
        let value = *value;
        self.store.record_value(
            SeriesKey::new(metric).with_label("version", version),
            at.to_timestamp(),
            value,
        );
    }

    /// Handles one request end to end and returns its response record.
    ///
    /// The request path is nginx → (product proxy) → product version →
    /// auth → MongoDB (→ (search proxy) → search version → MongoDB for
    /// search requests), with every hop paying network latency and every
    /// service paying CPU on its container. Dark-launched shadow copies
    /// consume CPU on the shadow version, auth, and MongoDB without
    /// affecting the client-visible response.
    pub fn handle_request(
        &mut self,
        at: SimTime,
        user: UserId,
        kind: RequestKind,
    ) -> ResponseRecord {
        self.requests_served += 1;
        let mut now = at;
        // Client → nginx.
        now += self.costs.client_link();
        let nginx_receipt = self
            .cluster
            .execute(self.nginx, now, self.costs.nginx_demand());
        now = nginx_receipt.completed;

        // nginx → product (possibly through the Bifrost proxy).
        let (product_version, shadows, proxy_cost) = self.route_product(user);
        if let Some(proxy_container) = self.product_proxy_container {
            now += self.cluster.network_hop(kind.request_bytes());
            let receipt = self.cluster.execute(proxy_container, now, proxy_cost);
            now = receipt.completed;
        }
        let product_container = self.version_containers[&product_version];
        let behavior = self.version_behaviors[&product_version];
        now += self.cluster.network_hop(kind.request_bytes());
        let product_receipt = self.cluster.execute(
            product_container,
            now,
            behavior.scale(self.costs.product_demand(kind)),
        );
        now = product_receipt.completed;

        // product → auth (token validation) and back.
        now += self.cluster.network_hop(256);
        let auth_receipt = self
            .cluster
            .execute(self.auth, now, self.costs.auth_demand());
        now = auth_receipt.completed;
        now += self.cluster.network_hop(128);

        // product → MongoDB and back.
        now += self.cluster.network_hop(kind.request_bytes());
        let db_receipt = self
            .cluster
            .execute(self.mongo, now, self.costs.db_demand(kind));
        now = db_receipt.completed;
        now += self.cluster.network_hop(kind.response_bytes() / 4);

        // Search requests additionally fan out to the search service.
        if kind.touches_search() {
            let (search_version, search_shadows, search_proxy_cost) = self.route_search(user);
            if let Some(proxy_container) = self.search_proxy_container {
                now += self.cluster.network_hop(256);
                let receipt = self
                    .cluster
                    .execute(proxy_container, now, search_proxy_cost);
                now = receipt.completed;
            }
            let search_container = self.version_containers[&search_version];
            let search_behavior = self.version_behaviors[&search_version];
            now += self.cluster.network_hop(256);
            let search_receipt = self.cluster.execute(
                search_container,
                now,
                search_behavior.scale(self.costs.search_demand()),
            );
            now = search_receipt.completed;
            // Search hits the database too.
            now += self.cluster.network_hop(128);
            let db =
                self.cluster
                    .execute(self.mongo, now, self.costs.db_demand(RequestKind::Details));
            now = db.completed;
            now += self.cluster.network_hop(1024);
            now += self.cluster.network_hop(1024);
            // Shadow copies of the search call (dark-launched fastSearch).
            for shadow in search_shadows {
                self.execute_shadow_search(at, shadow);
            }
        }

        // Response travels back to the client.
        now += self.cluster.network_hop(kind.response_bytes());
        now += self.costs.client_link();

        // Shadow copies of the product request (dark launch): they replay the
        // product → auth → db chain on the shadow version without delaying
        // the client-visible response.
        for shadow in shadows {
            self.execute_shadow_product(at, shadow, kind);
        }

        // Outcome: the serving version may fail with its error rate.
        let success = !self.rng.chance(behavior.error_rate);
        self.report_request_metrics(at, kind, product_version, success, behavior);

        ResponseRecord {
            at,
            kind,
            response_time: now - at,
            success,
        }
    }

    /// Routes a product request through the product proxy (if deployed and
    /// attached), returning the serving version, dark-launch shadow targets,
    /// and the proxy CPU cost.
    fn route_product(&mut self, user: UserId) -> (VersionId, Vec<VersionId>, Duration) {
        route_via_proxy(
            self.proxy_deployment,
            self.product_proxy.as_ref(),
            self.topology.product_stable,
            user,
        )
    }

    /// Routes a search sub-request through the search proxy.
    fn route_search(&mut self, user: UserId) -> (VersionId, Vec<VersionId>, Duration) {
        route_via_proxy(
            self.proxy_deployment,
            self.search_proxy.as_ref(),
            self.topology.search_stable,
            user,
        )
    }

    /// Executes the duplicated work of a dark-launched product request.
    fn execute_shadow_product(&mut self, at: SimTime, target: VersionId, kind: RequestKind) {
        let Some(&container) = self.version_containers.get(&target) else {
            return;
        };
        let behavior = self.version_behaviors[&target];
        let product = self.cluster.execute(
            container,
            at,
            behavior.scale(self.costs.product_demand(kind)),
        );
        // The shadow also validates the token and reads the database — the
        // "three requests need to be shadowed" of the paper.
        let auth = self
            .cluster
            .execute(self.auth, product.completed, self.costs.auth_demand());
        self.cluster
            .execute(self.mongo, auth.completed, self.costs.db_demand(kind));
        self.store.increment(
            SeriesKey::new("shadow_requests_total")
                .with_label("version", self.version_name(target)),
            at.to_timestamp(),
            1.0,
        );
    }

    /// Executes the duplicated work of a dark-launched search request.
    fn execute_shadow_search(&mut self, at: SimTime, target: VersionId) {
        let Some(&container) = self.version_containers.get(&target) else {
            return;
        };
        let behavior = self.version_behaviors[&target];
        let search =
            self.cluster
                .execute(container, at, behavior.scale(self.costs.search_demand()));
        self.cluster.execute(
            self.mongo,
            search.completed,
            self.costs.db_demand(RequestKind::Details),
        );
    }

    /// Pushes the per-request application metrics that strategy checks watch.
    fn report_request_metrics(
        &mut self,
        at: SimTime,
        kind: RequestKind,
        version: VersionId,
        success: bool,
        behavior: VersionBehavior,
    ) {
        let version_name = self.version_name(version).to_string();
        self.bump_counter("requests_total", &version_name, at, 1.0);
        self.store.increment(
            SeriesKey::new("requests_by_kind")
                .with_label("version", &version_name)
                .with_label("kind", kind.name()),
            at.to_timestamp(),
            1.0,
        );
        if !success {
            self.bump_counter("request_errors", &version_name, at, 1.0);
        }
        // Business metric: buy requests convert into sold items, better
        // versions convert slightly more.
        let converts = kind == RequestKind::Buy
            && success
            && self.rng.chance(0.4 * behavior.conversion_factor);
        if converts {
            self.bump_counter("items_sold_total", &version_name, at, 1.0);
        }
    }

    fn version_name(&self, version: VersionId) -> &str {
        self.topology
            .catalog
            .version(version)
            .map(|v| v.name())
            .unwrap_or("unknown")
    }
}

/// Routes one request through a service's Bifrost proxy — the same
/// decision + cost pipeline ([`bifrost_proxy::BifrostProxy::route_costed`])
/// the engine's traffic simulation drives in batches. Returns the serving
/// version, the dark-launch shadow targets, and the proxy's CPU cost.
fn route_via_proxy(
    deployment: ProxyDeployment,
    proxy: Option<&ProxyHandle>,
    stable: VersionId,
    user: UserId,
) -> (VersionId, Vec<VersionId>, Duration) {
    match (deployment, proxy) {
        (ProxyDeployment::None, _) => (stable, Vec::new(), Duration::ZERO),
        (ProxyDeployment::Deployed, None) => (
            stable,
            Vec::new(),
            bifrost_proxy::OverheadModel::default().passthrough_cost(),
        ),
        (ProxyDeployment::Deployed, Some(handle)) => {
            let (decision, cost): (RoutingDecision, Duration) =
                handle.read().route_costed(&ProxyRequest::from_user(user));
            let shadows = decision.shadows.iter().map(|s| s.target).collect();
            (decision.primary, shadows, cost)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bifrost_core::routing::{DarkLaunchRoute, Percentage, RoutingMode, TrafficSplit};
    use bifrost_core::user::UserSelector;
    use bifrost_engine::{BifrostEngine, EngineConfig};
    use bifrost_metrics::{Aggregation, RangeQuery};
    use bifrost_proxy::{ProxyConfig, ProxyRule};
    use parking_lot::RwLock;
    use std::sync::Arc;

    fn request_mean_ms(app: &mut CaseStudyApp, kinds: &[RequestKind], n: usize) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for i in 0..n {
            for (j, kind) in kinds.iter().enumerate() {
                // Space the requests 100 ms apart to avoid artificial queueing.
                let at = SimTime::from_millis((i * kinds.len() + j) as u64 * 100);
                let record = app.handle_request(at, UserId::new((i * 7 + j) as u64), *kind);
                total += record.response_time.as_secs_f64() * 1_000.0;
                count += 1;
            }
        }
        total / count as f64
    }

    #[test]
    fn baseline_response_time_is_low_twenties() {
        let store = SharedMetricStore::new();
        let mut app = CaseStudyApp::deploy(store, ProxyDeployment::None, 1);
        let mean = request_mean_ms(&mut app, &RequestKind::ALL, 50);
        assert!(mean > 15.0 && mean < 30.0, "baseline mean {mean}");
        assert_eq!(app.requests_served(), 200);
    }

    #[test]
    fn deployed_but_unattached_proxies_add_passthrough_overhead() {
        let store = SharedMetricStore::new();
        let mut baseline = CaseStudyApp::deploy(store.clone(), ProxyDeployment::None, 1);
        let mut inactive = CaseStudyApp::deploy(store, ProxyDeployment::Deployed, 1);
        let base = request_mean_ms(&mut baseline, &RequestKind::ALL, 50);
        let with_proxy = request_mean_ms(&mut inactive, &RequestKind::ALL, 50);
        let overhead = with_proxy - base;
        assert!(overhead > 3.0 && overhead < 15.0, "overhead {overhead}");
    }

    #[test]
    fn engine_attached_proxy_routes_canary_traffic() {
        let store = SharedMetricStore::new();
        let mut app = CaseStudyApp::deploy(store.clone(), ProxyDeployment::Deployed, 3);
        let topology = app.topology().clone();

        let mut engine = BifrostEngine::new(EngineConfig::default());
        engine.register_store_provider("prometheus", store);
        let product_proxy =
            engine.register_proxy(topology.product_service, topology.product_stable);
        let search_proxy = engine.register_proxy(topology.search_service, topology.search_stable);
        app.attach_proxies(Some(product_proxy.clone()), Some(search_proxy));

        // Manually push a 50% canary config (bypassing the engine loop).
        let split = TrafficSplit::canary(
            topology.product_stable,
            topology.product_a,
            Percentage::new(50.0).unwrap(),
        )
        .unwrap();
        product_proxy.write().apply_config(
            ProxyConfig::new(topology.product_service, topology.product_stable).with_rule(
                ProxyRule::split(split, false, UserSelector::All, RoutingMode::CookieBased),
            ),
        );

        for i in 0..400 {
            app.handle_request(
                SimTime::from_millis(i * 30),
                UserId::new(i),
                RequestKind::Details,
            );
        }
        let store = app.metric_store().clone();
        let a_requests = store
            .evaluate(
                &RangeQuery::new("requests_total")
                    .with_label("version", "product-a")
                    .aggregate(Aggregation::Last),
                SimTime::from_secs(60).to_timestamp(),
            )
            .unwrap_or(0.0);
        assert!(
            a_requests > 120.0 && a_requests < 280.0,
            "canary got {a_requests}"
        );
    }

    #[test]
    fn dark_launch_duplicates_work_without_changing_primary() {
        let store = SharedMetricStore::new();
        let mut app = CaseStudyApp::deploy(store.clone(), ProxyDeployment::Deployed, 5);
        let topology = app.topology().clone();
        let proxy = Arc::new(RwLock::new(bifrost_proxy::BifrostProxy::new(
            "product-proxy",
            ProxyConfig::new(topology.product_service, topology.product_stable).with_rule(
                ProxyRule::shadow(DarkLaunchRoute::new(
                    topology.product_stable,
                    topology.product_a,
                    Percentage::full(),
                )),
            ),
        )));
        app.attach_proxies(Some(proxy), None);
        for i in 0..100 {
            let record = app.handle_request(
                SimTime::from_millis(i * 30),
                UserId::new(i),
                RequestKind::Details,
            );
            assert!(record.response_time > Duration::ZERO);
        }
        let shadows = store
            .evaluate(
                &RangeQuery::new("shadow_requests_total")
                    .with_label("version", "product-a")
                    .aggregate(Aggregation::Last),
                SimTime::from_secs(60).to_timestamp(),
            )
            .unwrap_or(0.0);
        assert_eq!(shadows, 100.0);
        // Primary traffic still went to the stable product version.
        let stable_requests = store
            .evaluate(
                &RangeQuery::new("requests_total")
                    .with_label("version", "product")
                    .aggregate(Aggregation::Last),
                SimTime::from_secs(60).to_timestamp(),
            )
            .unwrap_or(0.0);
        assert_eq!(stable_requests, 100.0);
    }

    #[test]
    fn defective_version_produces_errors_and_slower_responses() {
        let store = SharedMetricStore::new();
        let mut app = CaseStudyApp::deploy(store.clone(), ProxyDeployment::Deployed, 7);
        let topology = app.topology().clone();
        app.set_version_behavior(topology.product_a, VersionBehavior::defective());
        // Route everything to the defective version.
        let proxy = Arc::new(RwLock::new(bifrost_proxy::BifrostProxy::new(
            "product-proxy",
            ProxyConfig::new(topology.product_service, topology.product_stable).with_rule(
                ProxyRule::split(
                    TrafficSplit::all_to(topology.product_a),
                    false,
                    UserSelector::All,
                    RoutingMode::CookieBased,
                ),
            ),
        )));
        app.attach_proxies(Some(proxy), None);
        let mut failures = 0;
        for i in 0..500 {
            let record = app.handle_request(
                SimTime::from_millis(i * 30),
                UserId::new(i),
                RequestKind::Details,
            );
            if !record.success {
                failures += 1;
            }
        }
        assert!(failures > 20, "expected visible error rate, got {failures}");
        let errors = store
            .evaluate(
                &RangeQuery::new("request_errors")
                    .with_label("version", "product-a")
                    .aggregate(Aggregation::Last),
                SimTime::from_secs(60).to_timestamp(),
            )
            .unwrap_or(0.0);
        assert_eq!(errors, failures as f64);
    }

    #[test]
    fn buy_requests_generate_sales_metrics() {
        let store = SharedMetricStore::new();
        let mut app = CaseStudyApp::deploy(store.clone(), ProxyDeployment::None, 11);
        for i in 0..200 {
            app.handle_request(
                SimTime::from_millis(i * 30),
                UserId::new(i),
                RequestKind::Buy,
            );
        }
        let sold = store
            .evaluate(
                &RangeQuery::new("items_sold_total")
                    .with_label("version", "product")
                    .aggregate(Aggregation::Last),
                SimTime::from_secs(60).to_timestamp(),
            )
            .unwrap_or(0.0);
        assert!(sold > 30.0 && sold < 150.0, "sold {sold}");
    }

    #[test]
    fn resource_scrapes_export_container_series() {
        let store = SharedMetricStore::new();
        let mut app = CaseStudyApp::deploy(store.clone(), ProxyDeployment::None, 13);
        for i in 0..50 {
            app.handle_request(
                SimTime::from_millis(i * 20),
                UserId::new(i),
                RequestKind::Search,
            );
        }
        app.scrape_resources(SimTime::from_secs(2));
        let cpu = store.evaluate(
            &RangeQuery::new("container_cpu_utilization")
                .with_label("container", "product")
                .aggregate(Aggregation::Last),
            SimTime::from_secs(3).to_timestamp(),
        );
        assert!(cpu.is_some());
        assert!(cpu.unwrap() > 0.0);
    }
}
