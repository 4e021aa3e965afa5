#!/usr/bin/env bash
# Is the benchmark steady enough to judge a change with?
#
# Every workload runs twice at one seed — once plain, once traced (a traced
# invocation makes its own untraced pass first, over half the seconds, so it
# is a second measurement and a second set of digests) — and once at another
# seed. Fails unless
#   * every run is correct: all output checks pass, the traced pass has the
#     digests of the untraced one, and the layer ledger reconciles;
#   * the two same-seed runs have byte-identical digests;
#   * every pair of end-to-end values agrees within that metric's bound.
# A pair that is apart is measured again, up to twice, before it counts: on a
# shared box the odd run lands in a noisy minute and is 10 % to 3x slow across
# the board (both have been seen); three disagreements in a row are not noise.
#
#   perf/selfcheck.sh [SEED_A [SEED_B]]        (defaults 1 and 2; 7 minutes when quiet)
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed_a="${1:-1}" seed_b="${2:-2}"
target="${CARGO_TARGET_DIR:-$(dirname "$here")/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
out="$here/out/selfcheck"
mkdir -p "$out"

# measure NAME SEED TRACE: one run of workload $w, kept as $out/$w.NAME.json
measure() {
    "$here/run.sh" --workload "$w" --seed "$2" --trace "$3" >/dev/null
    if [ "$3" = 1 ]; then
        cp "$here/out/$w-traced.json" "$out/$w.$1.json"
    else
        cp "$here/out/$w.json" "$out/$w.$1.json"
    fi
}

# agree A SEED_A TRACE_A B SEED_B TRACE_B: do runs A and B agree? If not, both
# are measured again (either may have been the slow one), up to twice.
agree() {
    echo "== $w: $1 vs $4"
    for attempt in 1 2 3; do
        "$target/release/synergy-perf" compare "$out/$w.$1.json" "$out/$w.$4.json" && return 0
        [ "$attempt" = 3 ] && return 1
        echo "-- apart (attempt $attempt of 3); measuring both again"
        measure "$1" "$2" "$3"
        measure "$4" "$5" "$6"
    done
}

status=0
for w in admit_storm steady_compiled steady_fabric lifecycle_churn; do
    measure a-plain "$seed_a" 0
    measure a-traced "$seed_a" 1
    measure b-plain "$seed_b" 0
    agree a-plain "$seed_a" 0 a-traced "$seed_a" 1 || status=1
    agree a-plain "$seed_a" 0 b-plain "$seed_b" 0 || status=1
done
[ "$status" -eq 0 ] && echo "selfcheck: green" || echo "selfcheck: RED"
exit "$status"
