#!/usr/bin/env bash
# A/B the end-to-end benchmark of this working tree against a base revision.
#
# Exports <base-rev> (default HEAD) into a temporary directory with
# `git archive` and builds `perfbench` there and in this working tree, each
# with its own target dir. Then runs <pairs> (default 3) base/change pairs
# of every workload in BENCHMARK.json for its `run_seconds`, with the
# command BENCHMARK.json names. Pair k uses seed k for both sides, and the
# side that runs first alternates from pair to pair, so a drift in the
# host's speed over the session hits both sides alike. Runs go one at a
# time: the benchmark pins itself to one CPU and times wall-clock slots.
#
# Each run's last stdout line is its JSON summary; its end-to-end values
# are echoed as it finishes. Per workload the script then prints, for every
# end-to-end metric, each side's median and quartiles, the ratio of the
# medians, the metric's bound, and in how many pairs the change was better.
# A metric worse than the base by more than its bound is flagged WORSE, and
# any run with a failed operation is flagged too; either makes the exit
# code 1. A metric is marked GAIN when the change won at least nine pairs
# in ten and its median moved by more than the base's interquartile range.
#
# The temporary directory (base tree, base target dir, run outputs) is
# removed on exit, and perfbench/Cargo.lock, which a build may rewrite, is
# restored. Nothing under perfbench/ is changed.
#
# Usage:
#   scripts/perf_ab.sh                 # HEAD vs the working tree, 3 pairs
#   scripts/perf_ab.sh main~1 10       # another base, 10 pairs

set -euo pipefail
cd "$(dirname "$0")/.."

BASE_REV="${1:-HEAD}"
PAIRS="${2:-3}"
case "$PAIRS" in
    '' | *[!0-9]* | 0) echo "perf_ab: pairs must be a positive integer" >&2; exit 2 ;;
esac
BASE_SHA="$(git rev-parse --verify "$BASE_REV^{commit}")"

TMP="$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")"
cp perfbench/Cargo.lock "$TMP/Cargo.lock.saved"
cleanup() {
    cp "$TMP/Cargo.lock.saved" perfbench/Cargo.lock
    rm -rf "$TMP"
}
trap cleanup EXIT

echo "== perf_ab: base $BASE_REV ($BASE_SHA) vs the working tree, $PAIRS pair(s)"
mkdir -p "$TMP/base" "$TMP/runs"
git archive "$BASE_SHA" | tar -x -C "$TMP/base"

mapfile -t COMMAND < <(jq -r '.command[]' BENCHMARK.json)
mapfile -t WORKLOADS < <(jq -r '.workloads[].name' BENCHMARK.json)
SECONDS_PER_RUN="$(jq -r '.run_seconds' BENCHMARK.json)"

# side -> tree root and cargo target dir
declare -A TREE=([base]="$TMP/base" [change]="$PWD")
declare -A TARGET=([base]="$TMP/target-base" [change]="$PWD/perfbench/target")

for side in base change; do
    echo "== building perfbench ($side)"
    (cd "${TREE[$side]}" &&
        CARGO_TARGET_DIR="${TARGET[$side]}" cargo build --release --quiet --offline \
            --manifest-path perfbench/Cargo.toml)
done

run() { # side workload seed
    local side=$1 workload=$2 seed=$3
    local out="$TMP/runs/$workload.$side.$seed"
    echo "-- pair $seed: $workload ($side)"
    # A failed run still prints its summary; the exit code is judged below
    # from the summary's own `failed` count.
    (cd "${TREE[$side]}" &&
        CARGO_TARGET_DIR="${TARGET[$side]}" "${COMMAND[@]}" --workload "$workload" \
            --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace 0) >"$out.log" 2>&1 || true
    grep '^{' "$out.log" | tail -n 1 >"$out.json" || true
    if [ ! -s "$out.json" ]; then
        echo "perf_ab: no JSON summary from $workload ($side, seed $seed):" >&2
        tail -n 20 "$out.log" >&2
        exit 1
    fi
    jq -r --slurpfile b BENCHMARK.json \
        '"   failed \(.failed); " + ([$b[0].end_to_end[].name as $m
            | "\($m) \(.metrics[$m].value * 10000 | round / 10000)"] | join("; "))' "$out.json"
}

for seed in $(seq 1 "$PAIRS"); do
    for workload in "${WORKLOADS[@]}"; do
        if [ $((seed % 2)) -eq 1 ]; then
            run base "$workload" "$seed"
            run change "$workload" "$seed"
        else
            run change "$workload" "$seed"
            run base "$workload" "$seed"
        fi
    done
done

python3 - "$TMP/runs" "$PAIRS" <<'EOF'
import json, statistics, sys

runs, pairs = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
bad = []


def load(workload, side, seed):
    return json.load(open(f"{runs}/{workload}.{side}.{seed}.json"))


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0]
    q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return q1, q3


for w in (w["name"] for w in bench["workloads"]):
    summaries = {
        side: [load(w, side, s) for s in range(1, pairs + 1)]
        for side in ("base", "change")
    }
    print(f"\n== {w}   (median [q1, q3] of {pairs} run(s) per side)")
    print(f"{'metric':<17} {'base':>28} {'change':>28} {'ratio':>6} {'bound':>5} {'better':>6}")
    for m in bench["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        vals = {
            side: [r["metrics"][name]["value"] for r in summaries[side]]
            for side in ("base", "change")
        }
        b, c = (statistics.median(vals[side]) for side in ("base", "change"))
        (bq1, bq3), (cq1, cq3) = (quartiles(vals[side]) for side in ("base", "change"))
        wins = sum(
            (y < x) if lower else (y > x) for x, y in zip(vals["base"], vals["change"])
        )
        ratio = c / b if b else float("nan")
        worse = b and ((c - b) / b if lower else (b - c) / b) > bound
        # A gain: the change wins 9 in 10 pairs, and its median moves by more
        # than the spread between the base's own runs.
        gain = 10 * wins >= 9 * pairs and abs(c - b) > bq3 - bq1
        flag = "  WORSE" if worse else "  GAIN" if gain else ""
        base = f"{b:.4g} [{bq1:.4g}, {bq3:.4g}]"
        change = f"{c:.4g} [{cq1:.4g}, {cq3:.4g}]"
        print(f"{name:<17} {base:>28} {change:>28} {ratio:>6.3f} {bound:>5} {wins:>3}/{pairs}{flag}")
        if worse:
            bad.append(f"{w}/{name} worse beyond its bound ({ratio:.3f})")
    for side in ("base", "change"):
        failed = sum(r["failed"] for r in summaries[side])
        attempted = sum(r["attempted"] for r in summaries[side])
        print(f"{side}: failed {failed} of {attempted} operations")
        if failed or not all(r["correct"] for r in summaries[side]):
            bad.append(f"{w} ({side}): {failed} failed operations or a failed check")

if bad:
    print("\nperf_ab: FLAGGED\n  " + "\n  ".join(bad))
    sys.exit(1)
print("\nperf_ab: every end-to-end metric within its bound, no failed operations")
EOF
