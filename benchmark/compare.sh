#!/usr/bin/env bash
# Compares two commits on every end-to-end metric of this benchmark.
#
#   benchmark/compare.sh [BASE] [CHANGE]
#
# BASE defaults to HEAD~1 and CHANGE to HEAD. Both commits are exported with
# `git archive` into $COMPARE_DIR (default: benchmark/.compare, ignored by
# git). CHANGE's benchmark directory is copied over BASE's tree, so both
# sides run identical benchmark code, and each side is built once. Then, for
# every workload in BENCHMARK.json, 10 pairs of runs are made on one seed,
# $SEED (default 1009, the held-out seed), each run measuring the file's
# run_seconds. The pairs alternate which side runs first.
#
# For every end-to-end metric the script prints each side's median and
# quartiles over its runs, and the fraction of pairs the change won. Ties
# count for neither side. A gain needs a win fraction of at least 0.9 and
# medians further apart than BASE's own quartile spread.
#
# The simulated metrics (every end-to-end metric but the host's throughput,
# set-up time and memory) are deterministic for a seed, so every run of both
# sides must report them bit-identical. The script exits 1 if any of them
# differs, or if any run fails; BENCHMARK.json's bounds on them cover the
# spread between seeds, which a same-seed comparison must not use.
#
# Environment: SEED, COMPARE_DIR, WORKLOADS (comma-separated subset).
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"
base=$(git rev-parse --verify "${1:-HEAD~1}^{commit}")
change=$(git rev-parse --verify "${2:-HEAD}^{commit}")
pairs=10
seed=${SEED:-1009}
out=${COMPARE_DIR:-$root/benchmark/.compare}

rm -rf "$out/base" "$out/change" "$out/runs"
mkdir -p "$out/base" "$out/change" "$out/runs"
git archive "$base" | tar -x -C "$out/base"
git archive "$change" | tar -x -C "$out/change"
rm -rf "$out/base/benchmark"
cp -R "$out/change/benchmark" "$out/base/benchmark"
spec="$out/change/BENCHMARK.json"

for side in base change; do
    echo "building $side ($([ "$side" = base ] && echo "$base" || echo "$change"))" >&2
    (cd "$out/$side" && CARGO_TARGET_DIR="$out/target-$side" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
    cp "$out/target-$side/release/dias-benchmark" "$out/bin-$side"
done

seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")
workloads=${WORKLOADS:-$(python3 -c \
    'import json,sys; print(",".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")}

run() { # side workload
    local line
    line=$("$out/bin-$1" --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1) ||
        line='{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}'
    echo "$line" >> "$out/runs/$2-$1.jsonl"
}

for w in ${workloads//,/ }; do
    for i in $(seq 1 "$pairs"); do
        echo "$w: pair $i of $pairs" >&2
        if (( i % 2 )); then run base "$w"; run change "$w"; else run change "$w"; run base "$w"; fi
    done
done

python3 - "$spec" "$out/runs" "$workloads" "$seed" <<'EOF'
import json, statistics, sys

spec, runs, workloads, seed = json.load(open(sys.argv[1])), sys.argv[2], sys.argv[3].split(","), sys.argv[4]
HOST = {"sim_jobs_per_s", "setup_s", "peak_rss_mb"}
problems = []

def load(w, side):
    return [json.loads(l) for l in open(f"{runs}/{w}-{side}.jsonl")]

def stats(vals):
    if len(vals) < 2:
        return (vals[0], vals[0], vals[0]) if vals else (float("nan"),) * 3
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return statistics.median(vals), q1, q3

for w in workloads:
    base, change = load(w, "base"), load(w, "change")
    bad = sum(not r["correct"] for r in base + change)
    if bad:
        problems.append(f"{w}: {bad} incorrect runs")
    print(f"\n{w}: {len(base)} pairs on seed {seed}, {bad} incorrect runs")
    print(f"  {'metric':<20} {'base median [q1, q3]':>36} {'change median [q1, q3]':>36} {'wins':>5}")
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
                 for b, c in zip(base, change) if name in b["metrics"] and name in c["metrics"]]
        if not pairs:
            print(f"  {name:<20} (no values)")
            continue
        if name not in HOST and len({v for p in pairs for v in p}) > 1:
            problems.append(f"{w}: simulated metric {name} differs between runs")
        wins = sum((c < b) if lower else (c > b) for b, c in pairs)
        fmt = lambda s: f"{s[0]:.6g} [{s[1]:.6g}, {s[2]:.6g}]"
        print(f"  {name:<20} {fmt(stats([b for b, _ in pairs])):>36} "
              f"{fmt(stats([c for _, c in pairs])):>36} {wins / len(pairs):>5.2f}")

for p in problems:
    print(f"FAILED: {p}")
sys.exit(1 if problems else 0)
EOF
