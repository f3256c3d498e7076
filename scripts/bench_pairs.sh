#!/usr/bin/env bash
# Interleaved parent/change pairs of the driver's unit, `swbench bench`.
#
#   scripts/bench_pairs.sh <baseline-rev> <workload> <seed> <pairs> <seconds> [out.json]
#
# Builds `benchmark/` of <baseline-rev> from a `git archive` under
# .bench_build/<rev>/ (git-ignored) and of the working tree in place, then
# runs `swbench bench --workload W --seed S --seconds T --trace 0` <pairs>
# times per side, one run at a time, the side that runs first flipped each
# pair. Prints one `swbench.pairs.v1` document: per metric every run, each
# side's median and inclusive quartiles, the per-pair ratio and winner, and
#   resolved = both sides' IQR/median are below the metric's bound
# (BENCHMARK.json). With [out.json] the comparison is appended to that
# document's `comparisons` instead (created if missing), so one file can hold
# several workloads. Progress goes to stderr. Run it on an otherwise idle box.
set -euo pipefail

if [ "$#" -lt 5 ] || [ "$#" -gt 6 ]; then
    sed -n '2,5p' "$0" >&2
    exit 2
fi
rev=$1 workload=$2 seed=$3 pairs=$4 seconds=$5 out=${6:-}

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$root"
sha=$(git rev-parse --short "$rev^{commit}")
base=".bench_build/$sha"
if [ ! -d "$base" ]; then
    mkdir -p "$base"
    git archive "$sha" | tar -x -C "$base"
fi
for side in "$base" .; do
    cargo build --release --offline --quiet --manifest-path "$side/benchmark/Cargo.toml"
done

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT
for pair in $(seq 0 $((pairs - 1))); do
    if [ $((pair % 2)) -eq 0 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then bin="$base"; else bin=.; fi
        line=$("$bin/benchmark/target/release/swbench" bench --workload "$workload" \
            --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
        echo "pair $pair $side $line" >&2
        printf '%s\t%s\t%s\n' "$pair" "$side" "$line" >>"$runs"
    done
done

python3 - "$runs" "$sha" "$workload" "$seed" "$seconds" "$out" <<'PY'
import json, statistics, sys

runs_file, sha, workload, seed, seconds, out = sys.argv[1:7]
spec = {m["name"]: m for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
sides = {"parent": [], "change": []}
first_in_pair = []
for row in open(runs_file):
    pair, side, line = row.rstrip("\n").split("\t")
    if len(first_in_pair) == int(pair):
        first_in_pair.append(side)
    sides[side].append(json.loads(line))


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else [values[0]] * 3
    return {"runs": values, "median": statistics.median(values), "q1": q1, "q3": q3}


metrics = {}
for name, m in spec.items():
    parent = summary([r["metrics"][name]["value"] for r in sides["parent"]])
    change = summary([r["metrics"][name]["value"] for r in sides["change"]])
    higher = m["better"] == "higher"
    winners = [
        "tie" if c == p else "change" if (c > p) == higher else "parent"
        for p, c in zip(parent["runs"], change["runs"])
    ]
    iqr = lambda s: s["q3"] - s["q1"]
    metrics[name] = {
        "parent": parent,
        "change": change,
        "delta_of_medians": change["median"] / parent["median"] - 1,
        "ratio_per_pair": [c / p for p, c in zip(parent["runs"], change["runs"])],
        "winner_per_pair": winners,
        "change_wins": winners.count("change"),
        "parent_iqr": iqr(parent),
        "medians_apart_by_more_than_parent_iqr": abs(change["median"] - parent["median"]) > iqr(parent),
        "bound": m["bound"],
        "resolved": all(iqr(s) / s["median"] < m["bound"] for s in (parent, change)),
    }
comparison = {
    "workload": workload,
    "seed": int(seed),
    "seconds": float(seconds),
    "a": "parent",
    "b": "change",
    "pairs": len(first_in_pair),
    "first_in_pair": first_in_pair,
    "metrics": metrics,
}
for key in ("failed", "attempted", "correct"):
    total = all if key == "correct" else sum
    comparison[key] = {side: total(r[key] for r in rs) for side, rs in sides.items()}

document = {
    "schema": "swbench.pairs.v1",
    "parent": sha,
    "method": "scripts/bench_pairs.sh: interleaved parent/change runs of `swbench bench --trace 0`, "
    "binaries built once per side, first side flipped each pair, every run listed; "
    "quartiles inclusive; resolved = both sides' IQR/median below the metric's bound",
    "comparisons": [],
}
if out:
    try:
        document = json.load(open(out))
    except FileNotFoundError:
        pass
    if document.get("schema") != "swbench.pairs.v1" or document.get("parent") != sha:
        sys.exit(f"{out}: not a swbench.pairs.v1 document against {sha}")
document["comparisons"].append(comparison)
text = json.dumps(document, indent=1) + "\n"
if out:
    open(out, "w").write(text)
else:
    sys.stdout.write(text)
PY
