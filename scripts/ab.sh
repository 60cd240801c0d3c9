#!/usr/bin/env bash
# A/B the benchmark: a parent revision against the working tree.
#
#   scripts/ab.sh <parent-rev> [pairs] [out.json]
#
# Exports <parent-rev> with `git archive` into a scratch directory (under
# $TMPDIR), builds `shard_worker` and the benchmark of each side
# `--offline --locked` into its own target directory, and runs every
# workload `BENCHMARK.json` lists as alternating pairs of
#
#   pairtrade-benchmark --workload W --seed 2009 --seconds 20 --trace 0
#
# (default 10 pairs), swapping which side runs first every round. It then
# prints one row per workload and end-to-end metric — median [q1, q3] of
# each side (inclusive quartiles), the change's median over the parent's,
# whether that falls inside the parent's quartiles, the pairs the change
# won, and the verdict against the metric's bound — and writes the ratios
# (not the times, which drift between campaigns) to out.json (default
# docs/ab/<parent>-<change>.json). A metric whose quartile spread on
# either side, over its median, is wider than its bound is `unresolved`.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 3 ]]; then
    echo "usage: scripts/ab.sh <parent-rev> [pairs] [out.json]" >&2
    exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
parent_rev="$(git -C "$root" rev-parse --short "$1")"
pairs="${2:-10}"
change_rev="$(git -C "$root" rev-parse --short HEAD)"
if [[ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]]; then
    change_rev="$change_rev+"
fi
out="${3:-$root/docs/ab/$parent_rev-$change_rev.json}"

work="$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")"
echo "ab: parent $parent_rev, change $change_rev (working tree), $pairs pairs, in $work" >&2
mkdir -p "$work/parent" "$work/runs"
git -C "$root" archive "$parent_rev" | tar -x -C "$work/parent"

declare -A dir=([parent]="$work/parent" [change]="$root")
for side in parent change; do
    echo "ab: building $side" >&2
    (
        cd "${dir[$side]}"
        export CARGO_TARGET_DIR="$work/$side-target"
        cargo build --release --offline --locked --quiet -p marketminer --bin shard_worker
        cargo build --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml
    )
done

mapfile -t workloads < <(jq -r '.workloads[].name' "$root/BENCHMARK.json")
for ((round = 0; round < pairs; round++)); do
    order=(parent change)
    ((round % 2)) && order=(change parent)
    for w in "${workloads[@]}"; do
        for side in "${order[@]}"; do
            echo "ab: round $((round + 1))/$pairs $w $side" >&2
            (
                cd "${dir[$side]}"
                "$work/$side-target/release/pairtrade-benchmark" \
                    --workload "$w" --seed 2009 --seconds 20 --trace 0 | tail -n 1
            ) > "$work/runs/$side.$w.$round.json" ||
                # A failed output check still prints its result line, which
                # the table counts as a run not correct.
                echo "ab: round $((round + 1))/$pairs $w $side exited nonzero" >&2
        done
    done
done

mkdir -p "$(dirname "$out")"
python3 - "$root/BENCHMARK.json" "$work/runs" "$pairs" "$parent_rev" "$change_rev" "$out" <<'EOF'
import json, statistics, sys

bench_path, runs, pairs, parent_rev, change_rev, out = sys.argv[1:]
pairs = int(pairs)
bench = json.load(open(bench_path))

def run(side, w, r):
    return json.load(open(f"{runs}/{side}.{w}.{r}.json"))

def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

def g(x):
    return f"{x:.4g}"

bad = [(side, w["name"], r)
       for w in bench["workloads"] for r in range(pairs) for side in ("parent", "change")
       if not run(side, w["name"], r)["correct"]]
print(f"A/B {parent_rev} -> {change_rev}: {pairs} pairs per workload, "
      f"{len(bad)} runs not correct{': ' + str(bad) if bad else ''}\n")
print("| workload | metric | parent | change | ratio | wins | vs bound |")
print("|---|---|---|---|---|---|---|")
cells = []
for w in (x["name"] for x in bench["workloads"]):
    for m in bench["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        side = {s: [run(s, w, r)["metrics"][name]["value"] for r in range(pairs)]
                for s in ("parent", "change")}
        p1, p, p3 = quartiles(side["parent"])
        c1, c, c3 = quartiles(side["change"])
        ratio = c / p if p else float("nan")
        inside = "within IQR" if p1 <= c <= p3 else "outside IQR"
        wins = sum((b < a) if lower else (b > a) for a, b in zip(side["parent"], side["change"]))
        spread = max((p3 - p1) / p if p else 0, (c3 - c1) / c if c else 0)
        worse = ratio - 1 if lower else 1 - ratio
        verdict = ("unresolved" if spread > bound
                   else "worse past bound" if worse > bound else "within")
        print(f"| `{w}` | `{name}` | {g(p)} [{g(p1)}, {g(p3)}] | {g(c)} [{g(c1)}, {g(c3)}] "
              f"| {ratio:.3f}, {inside} | {wins}/{pairs} | {verdict} |")
        cells.append({"workload": w, "metric": name, "ratio": round(ratio, 4),
                      "change_inside_parent_iqr": inside == "within IQR", "wins": wins,
                      "spread": round(spread, 4), "bound": bound, "verdict": verdict})
record = {"parent": parent_rev, "change": change_rev, "pairs": pairs, "seed": 2009,
          "seconds": 20, "not_correct": len(bad), "cells": cells}
with open(out, "w") as f:
    json.dump(record, f, indent=1)
    f.write("\n")
print(f"\nratios written to {out}")
EOF
