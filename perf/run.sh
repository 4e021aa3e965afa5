#!/usr/bin/env bash
# Builds the benchmark once and runs it.
#
#   perf/run.sh --workload W --seed N --seconds S --trace 0|1   one run; the
#       last line of standard output is the result object (BENCHMARK.json's
#       command, as the driver calls it)
#   perf/run.sh [--seed N] [--seconds S] [--trace]              every workload,
#       each in a process of its own, so that peak_rss_mb is per workload
#
# Results also land in perf/out/<workload>.json (and, traced,
# perf/out/<workload>-traced.json + perf/out/trace-<workload>.json).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# A relative CARGO_TARGET_DIR means relative to where we were called from.
# Without one, share the repository's target/ so its crates are built once.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/synergy-perf"

workload="" seed=1 seconds="" trace=0
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace)
            case "${2:-}" in
                0|1) trace="$2"; shift 2 ;;
                *) trace=1; shift ;;
            esac ;;
        *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
    esac
done

args=(--seed "$seed" --trace "$trace" --dir "$here")
[ -n "$seconds" ] && args+=(--seconds "$seconds")

if [ -n "$workload" ]; then
    exec "$bin" --workload "$workload" "${args[@]}"
fi
for w in admit_storm steady_compiled steady_fabric lifecycle_churn; do
    echo "== $w"
    "$bin" --workload "$w" "${args[@]}"
done
