//! The `sessions` figure: sticky-routing throughput versus session-store
//! shard count.
//!
//! Like the `traffic` figure this has no paper counterpart — it pins the
//! behaviour of the sharded sticky-session store: a proxy holding on the
//! order of a million live bindings routes a burst of cookie-carrying
//! (sticky-hit) requests through [`BifrostProxy::route_many_costed`] at
//! every shard count of [`SHARD_SWEEP`], and the trial reports the
//! wall-clock **nanoseconds per routed request** per shard count plus each
//! multi-shard count's **time relative to the 1-shard run of the same
//! trial**, and the number of drive threads it ran with.
//!
//! Unlike the virtual-time figures these points measure real wall-clock
//! work, so absolute `ns_per_request` values are machine-dependent and only
//! informational. The `time_vs_1shard` ratios are what the CI gate pins
//! (`crates/bench/baseline_sessions.json`). Each repetition times every
//! shard count back to back, so a ratio pairs a multi-shard pass with the
//! 1-shard pass next to it, and slow host drift hits both passes of a
//! pair alike; the trial reports the median pair ratio. The
//! ratios transfer across hardware far better than raw times. Sharding wins
//! on multi-core runners by striping lock contention across shards, which
//! pushes the ratio below 1.0; a broken sharded path pushes it back to
//! ~1.0 and fails the gate. On a single core there is no contention to
//! stripe, and each shard is a hash table whose lookup is one probe at any
//! shard count, so there the ratio sits at about 1.0, at the gate's limit.
//!
//! Because the measurements are wall-clock, CI runs this figure with
//! `--threads 1` (serial trials); the *drive* inside a trial still uses up
//! to [`MAX_DRIVE_THREADS`] OS threads when the machine has the cores.

use bifrost_core::ids::{ServiceId, VersionId};
use bifrost_core::routing::{Percentage, RoutingMode, TrafficSplit};
use bifrost_core::seed::Seed;
use bifrost_core::user::UserSelector;
use bifrost_metrics::SummaryStats;
use bifrost_proxy::{
    BifrostProxy, ProxyConfig, ProxyRequest, ProxyRule, SessionToken, TokenGenerator,
};
use std::time::Instant;

/// The shard counts every trial sweeps.
pub const SHARD_SWEEP: &[usize] = &[1, 4, 16];

/// Upper bound on the OS threads driving requests inside one trial. Capped
/// so the checked-in ratio baseline stays comparable across the small
/// runners CI uses and bigger developer machines.
pub const MAX_DRIVE_THREADS: usize = 4;

/// Sizing of one sessions trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionsConfig {
    /// Live sticky bindings pre-populated into the store.
    pub bindings: usize,
    /// Requests routed per timed repetition.
    pub requests: usize,
    /// Timed repetitions: each one passes over every shard count.
    pub repetitions: usize,
    /// OS threads driving the requests concurrently.
    pub threads: usize,
}

impl SessionsConfig {
    /// The CI sizing: a million live bindings, compact request volume.
    pub fn quick() -> Self {
        Self {
            bindings: 1_000_000,
            requests: 200_000,
            repetitions: 7,
            threads: drive_threads(),
        }
    }

    /// The full sizing: millions of live bindings.
    pub fn full() -> Self {
        Self {
            bindings: 2_000_000,
            requests: 600_000,
            repetitions: 7,
            threads: drive_threads(),
        }
    }

    /// Overrides the per-repetition request volume (builder style).
    pub fn with_requests(mut self, requests: usize) -> Self {
        self.requests = requests.max(1);
        self
    }

    /// Overrides the live-binding count (builder style).
    pub fn with_bindings(mut self, bindings: usize) -> Self {
        self.bindings = bindings.max(1);
        self
    }
}

/// How many OS threads a trial drives requests with on this machine.
fn drive_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, MAX_DRIVE_THREADS)
}

/// The outcome of one shard count within a trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionsPointResult {
    /// The session-store shard count measured.
    pub shards: usize,
    /// Best-of-repetitions wall-clock nanoseconds per routed request (the
    /// minimum is the standard noise-robust estimator for a fixed
    /// deterministic workload: systematic cost stays, interference drops).
    pub ns_per_request: f64,
    /// Median over repetitions of this shard count's pass time divided by
    /// the 1-shard pass time of the same repetition (1.0 for 1 shard).
    pub time_vs_1shard: f64,
    /// Sticky hits observed (sanity: the drive must exercise the table).
    pub sticky_hits: u64,
}

/// Runs one seeded trial: the full [`SHARD_SWEEP`] over one shared token
/// population.
///
/// All sweep points are built (and their binding tables populated) up
/// front, then every timed repetition passes over all shard counts back to
/// back, alternating the direction (`1, 4, 16`, then `16, 4, 1`, …), so
/// slow drift on a busy machine (thermal state, noisy CI neighbours) lands
/// on every shard count alike instead of biasing whichever point ran
/// last. Each repetition yields one paired ratio per multi-shard count.
pub fn run_sweep_seeded(config: &SessionsConfig, seed: Seed) -> Vec<SessionsPointResult> {
    // One deterministic token population per trial, shared by every shard
    // count so all sweep points route byte-identical traffic.
    let mut generator = TokenGenerator::seeded(seed.stream("session-tokens").value());
    let tokens: Vec<SessionToken> = (0..config.bindings.max(1))
        .map(|_| generator.next_token())
        .collect();
    // The request burst references bindings via a cheap deterministic
    // stride walk (coprime to the population size), touching the whole
    // table without the memory cost of an index permutation.
    let stride = stride_for(tokens.len());
    let requests: Vec<ProxyRequest> = (0..config.requests.max(1))
        .map(|i| ProxyRequest::new().with_session(tokens[(i * stride) % tokens.len()]))
        .collect();

    let proxies: Vec<BifrostProxy> = SHARD_SWEEP
        .iter()
        .map(|&shards| build_proxy(shards, &tokens))
        .collect();
    let threads = config.threads.max(1);
    // One row per repetition: each point's pass time, ns per request.
    let passes: Vec<Vec<f64>> = (0..config.repetitions.max(1))
        .map(|rep| {
            let mut row = vec![0.0; proxies.len()];
            let mut order: Vec<usize> = (0..proxies.len()).collect();
            if rep % 2 == 1 {
                order.reverse();
            }
            for point in order {
                row[point] = timed_pass(&proxies[point], &requests, threads);
            }
            row
        })
        .collect();
    proxies
        .iter()
        .enumerate()
        .map(|(point, proxy)| {
            let ratios: Vec<f64> = passes.iter().map(|row| row[point] / row[0]).collect();
            SessionsPointResult {
                shards: SHARD_SWEEP[point],
                ns_per_request: passes
                    .iter()
                    .map(|row| row[point])
                    .fold(f64::INFINITY, f64::min),
                time_vs_1shard: SummaryStats::compute(&ratios)
                    .expect("at least one repetition")
                    .median,
                sticky_hits: proxy.stats().sticky_hits,
            }
        })
        .collect()
}

/// A stride coprime to `n` that spreads consecutive requests across the
/// token population (golden-ratio fraction, nudged until coprime).
fn stride_for(n: usize) -> usize {
    if n <= 2 {
        return 1;
    }
    let mut stride = ((n as f64 * 0.618_033_988) as usize).max(1);
    fn gcd(mut a: usize, mut b: usize) -> usize {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    }
    while gcd(stride, n) != 1 {
        stride += 1;
    }
    stride
}

/// Builds one sweep point's proxy — a sticky 50/50 cookie split — and
/// pre-populates its live bindings (not part of any timed section).
fn build_proxy(shards: usize, tokens: &[SessionToken]) -> BifrostProxy {
    let (service, stable, canary) = (ServiceId::new(0), VersionId::new(0), VersionId::new(1));
    let split = TrafficSplit::canary(stable, canary, Percentage::new(50.0).expect("valid"))
        .expect("two distinct versions");
    let proxy_config = ProxyConfig::new(service, stable).with_rule(ProxyRule::split(
        split,
        true,
        UserSelector::All,
        RoutingMode::CookieBased,
    ));
    let proxy = BifrostProxy::new("sessions-bench", proxy_config).with_session_shards(shards);
    let store = proxy.sessions();
    for token in tokens {
        let version = if token.bucket_draw() < 0.5 {
            stable
        } else {
            canary
        };
        store.bind(*token, version);
    }
    proxy
}

/// Times one full pass of the request burst across `threads` driver
/// threads (each routing its contiguous slice in batches of 512) and
/// returns the wall-clock nanoseconds per routed request.
fn timed_pass(proxy: &BifrostProxy, requests: &[ProxyRequest], threads: usize) -> f64 {
    let chunk = requests.len().div_ceil(threads);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for slice in requests.chunks(chunk) {
            scope.spawn(move || {
                for batch in slice.chunks(512) {
                    let routed = proxy.route_many_costed(batch.iter());
                    std::hint::black_box(routed.len());
                }
            });
        }
    });
    started.elapsed().as_nanos() as f64 / requests.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_reports_every_shard_count_and_hits_the_table() {
        let config = SessionsConfig {
            bindings: 20_000,
            requests: 4_000,
            repetitions: 2,
            threads: 2,
        };
        let points = run_sweep_seeded(&config, Seed::new(7));
        assert_eq!(points.len(), SHARD_SWEEP.len());
        for (point, &shards) in points.iter().zip(SHARD_SWEEP) {
            assert_eq!(point.shards, shards);
            assert!(point.ns_per_request > 0.0);
            assert!(point.time_vs_1shard > 0.0);
            // Every repetition's requests hit the pre-populated table.
            assert_eq!(
                point.sticky_hits,
                (config.requests * config.repetitions) as u64
            );
        }
    }

    #[test]
    fn strides_are_coprime_to_the_population() {
        for n in [2usize, 3, 10, 1_000, 65_536, 99_991] {
            let stride = stride_for(n);
            assert!(stride >= 1 && stride < n.max(2));
            let visited: std::collections::BTreeSet<usize> =
                (0..n).map(|i| (i * stride) % n).collect();
            assert_eq!(visited.len(), n, "stride {stride} must cover {n}");
        }
    }

    #[test]
    fn configs_scale_and_clamp() {
        assert!(SessionsConfig::full().bindings > SessionsConfig::quick().bindings);
        assert_eq!(SessionsConfig::quick().with_requests(0).requests, 1);
        assert!(SessionsConfig::quick().threads >= 1);
        assert!(SessionsConfig::quick().threads <= MAX_DRIVE_THREADS);
    }
}
