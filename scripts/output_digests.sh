#!/usr/bin/env bash
# Prints one sha256 per deterministic output of the workspace, one
# `<digest>  <output>` line each:
#
#   * the text of `experiments table1|fig6 --quick`, `fig7 --quick --max 30`,
#     `fig9 --quick --max 160` and `traffic --quick`,
#   * the `points` of the fig6, fig7, fig9, traffic and backends JSON
#     reports, run with the trial counts CI uses,
#   * a six-service `bifrost run --traffic` with a check every 2 s,
#   * a one-service `bifrost run --traffic` on queued backends whose runs
#     of ticks exceed 1024 arrivals, so that on two or more CPUs its service
#     routes on one thread and serves on another (under `taskset -c 0`, it
#     does both on one),
#   * a one-service `bifrost run --traffic` that takes a sticky gradual
#     rollout and then a dark launch through the engine's traffic streams.
#
# Everything here runs in virtual time, so the digests depend only on the
# code. Lines that report wall-clock time are dropped, and the JSON keeps
# only its points (not `wall_clock_secs` or `threads`). A change that
# should leave every output byte-identical shows it with one diff:
#
#   scripts/output_digests.sh > before.txt   # at the parent commit
#   scripts/output_digests.sh > after.txt    # at the change
#   diff before.txt after.txt
#
# scripts/output_digests.expected pins the digests of the committed code,
# and CI diffs a run against it, so a change that moves an output has to
# re-pin that file in the same commit:
#
#   scripts/output_digests.sh > scripts/output_digests.expected
#
# Needs cargo, sha256sum and jq. Takes under a minute after the build.

set -euo pipefail

cd "$(dirname "$0")/.."
cargo build --release --quiet -p bifrost-bench --bin experiments -p bifrost-cli --bin bifrost
experiments=target/release/experiments
bifrost=target/release/bifrost

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Prints "<sha256>  <name>" for standard input.
digest() {
    printf '%s  %s\n' "$(sha256sum | cut -d' ' -f1)" "$1"
}

for args in "table1 --quick" "fig6 --quick" "fig7 --quick --max 30" \
    "fig9 --quick --max 160" "traffic --quick --threads 2"; do
    # shellcheck disable=SC2086 # the arguments are split on purpose
    "$experiments" $args | grep -v '^wall-clock:' | digest "text: $args"
done

for args in "fig7 --quick --max 30 --trials 4" "fig6 --quick --trials 4" \
    "fig9 --quick --max 160 --trials 2" "traffic --quick --trials 4" \
    "backends --quick --trials 4"; do
    # shellcheck disable=SC2086
    "$experiments" $args --threads 2 --json "$work/report.json" >/dev/null
    jq -S '.points' "$work/report.json" | digest "points: $args"
done

# Six services s0..s5, one 10 s canary phase each, every phase checking
# its canary's error rate every 2 s (the ramping load has no sample in the
# first check's window before then).
strategy="$work/six-services.yml"
{
    echo "name: six-services"
    echo "engine:"
    echo "  tick: 0.1"
    echo "deployment:"
    echo "  services:"
    for i in 0 1 2 3 4 5; do
        echo "    - service: s$i"
        echo "      versions:"
        echo "        - name: v1"
        echo "          host: 10.0.$i.1"
        echo "          port: 8080"
        echo "        - name: v2"
        echo "          host: 10.0.$i.2"
        echo "          port: 8080"
    done
    echo "strategy:"
    echo "  phases:"
    for i in 0 1 2 3 4 5; do
        echo "    - phase: canary"
        echo "      name: canary-s$i"
        echo "      service: s$i"
        echo "      stable: v1"
        echo "      candidate: v2"
        echo "      traffic: 20"
        echo "      duration: 10"
        echo "      checks:"
        echo "        - metric:"
        echo "            name: s$i-errors"
        echo "            provider: prometheus"
        echo "            query: 'request_errors{service=\"s$i\",version=\"v2\"}'"
        echo "            aggregation: rate"
        echo "            window: 5"
        echo "            intervalTime: 2"
        echo "            intervalLimit: 5"
        echo "            validator: \"<50\""
    done
} >"$strategy"
"$bifrost" run "$strategy" --verbose --traffic 100 | digest "bifrost run --traffic 100: six services"

# One service at 3000 req/s on queued backends: a 10 s 20% canary that
# checks the canary's shed requests every 2 s, a 10 s 20% dark launch, and
# a rollout that overloads the canary's replicas.
strategy="$work/one-service.yml"
cat >"$strategy" <<'EOF'
name: one-service
engine:
  tick: 0.1
  cores: 64
  backends:
    - service: checkout
      version: v1
      service_time_ms: 2
      replicas: 8
    - service: checkout
      version: v2
      service_time_ms: 2
      replicas: 5
      queue_capacity: 8
      timeout_ms: 40
deployment:
  services:
    - service: checkout
      versions:
        - name: v1
          host: 10.1.0.1
          port: 8080
        - name: v2
          host: 10.1.0.2
          port: 8080
strategy:
  phases:
    - phase: canary
      name: canary
      service: checkout
      stable: v1
      candidate: v2
      traffic: 20
      duration: 10
      checks:
        - metric:
            name: v2-shed
            provider: prometheus
            query: 'requests_shed_total{service="checkout",version="v2"}'
            aggregation: rate
            window: 5
            intervalTime: 2
            intervalLimit: 5
            validator: "<1000000"
    - phase: dark_launch
      name: dark
      service: checkout
      from: v1
      to: v2
      traffic: 20
      duration: 10
EOF
"$bifrost" run "$strategy" --verbose --traffic 3000 | digest "bifrost run --traffic 3000: one service"

# One service at 3000 req/s on queued backends of different speeds: a
# sticky 10 -> 30 -> 50% gradual rollout that checks the canary's errors
# every 2 s, then a 30% dark launch. Every request mints a sticky token.
strategy="$work/sticky-rollout.yml"
cat >"$strategy" <<'EOF'
name: sticky-rollout
engine:
  tick: 0.1
  cores: 32
  backends:
    - service: cart
      version: v1
      service_time_ms: 2
      replicas: 10
    - service: cart
      version: v2
      service_time_ms: 4
      replicas: 12
deployment:
  services:
    - service: cart
      versions:
        - name: v1
          host: 10.2.0.1
          port: 8080
        - name: v2
          host: 10.2.0.2
          port: 8080
strategy:
  phases:
    - phase: gradual_rollout
      name: rollout
      service: cart
      stable: v1
      candidate: v2
      sticky: true
      from_traffic: 10
      to_traffic: 50
      step: 20
      step_duration: 3
      checks:
        - metric:
            name: v2-errors
            provider: prometheus
            query: 'request_errors{service="cart",version="v2"}'
            aggregation: rate
            window: 5
            intervalTime: 2
            intervalLimit: 2
            validator: "<50"
    - phase: dark_launch
      name: dark
      service: cart
      from: v1
      to: v2
      traffic: 30
      duration: 6
EOF
"$bifrost" run "$strategy" --verbose --traffic 3000 | digest "bifrost run --traffic 3000: sticky rollout"
