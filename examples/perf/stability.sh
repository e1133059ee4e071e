#!/usr/bin/env bash
# Run-to-run stability of the benchmark's end-to-end metrics.
#
# Usage, from the repository root:
#
#   examples/perf/stability.sh [runs-per-set] [workload...]
#
# For each workload (default: every workload in BENCHMARK.json) this runs
# two sets of runs, interleaved A B A B ..., with run i of both sets on
# seed i. It prints each set's median and interquartile range (IQR, as
# Python's statistics.quantiles(n=4) gives the quartiles) per metric, and
# whether the two sets agree: each IQR within the metric's bound (setup_s
# exempt) and set B's median no worse than set A's by more than the bound.
# A metric with bound 0 (the simulated totals, which no seed changes) must
# read the same in every run of both sets. The bounds in BENCHMARK.json
# are set from this output: every IQR should stay below a third of its
# bound. Exit status 1 if any check fails.

set -euo pipefail
cd "$(dirname "$0")/../.."

runs="${1:-5}"
shift || true
out="${CARGO_TARGET_DIR:-.bench_build}/stability-$$"
mkdir -p "$out"
trap 'rm -rf "$out"' EXIT

# command, run_seconds and workload names from BENCHMARK.json.
mapfile -t cmd < <(python3 -c 'import json; [print(a) for a in json.load(open("BENCHMARK.json"))["command"]]')
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
if [ "$#" -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi

for w in "${workloads[@]}"; do
    for i in $(seq 1 "$runs"); do
        for set in A B; do
            echo "run: $w set $set seed $i" >&2
            "${cmd[@]}" --workload "$w" --seed "$i" --seconds "$seconds" --trace 0 \
                | tail -n 1 > "$out/$w.$set.$i.json"
        done
    done
done

python3 - "$out" "${workloads[@]}" <<'EOF'
import json, statistics, sys

out, workloads = sys.argv[1], sys.argv[2:]
bench = json.load(open("BENCHMARK.json"))
ok = True
for w in workloads:
    sets = {}
    for s in "AB":
        runs = []
        i = 1
        while True:
            try:
                runs.append(json.load(open(f"{out}/{w}.{s}.{i}.json")))
            except FileNotFoundError:
                break
            i += 1
        sets[s] = runs
    print(f"\n{w}  ({len(sets['A'])} runs per set)")
    print(f"  {'metric':<18} {'median A':>14} {'IQR A':>7} {'median B':>14} {'IQR B':>7} {'B vs A':>7} {'bound':>6}  verdict")
    for r in sets["A"] + sets["B"]:
        if not r["correct"] or r["failed"]:
            print(f"  a run failed its correctness checks: {r}")
            ok = False
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        row, failures, warnings = [], [], []
        for s in "AB":
            xs = [r["metrics"][name]["value"] for r in sets[s]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            row += [med, spread]
            if name == "setup_s":
                continue
            if spread > bound:
                failures.append(f"IQR {s} over bound")
            elif spread > bound / 3:
                warnings.append(f"IQR {s} over bound/3")
        change = row[2] / row[0] - 1
        if (change if m["better"] == "lower" else -change) > bound:
            failures.append("B worse than A by more than bound")
        if bound == 0:
            values = {r["metrics"][name]["value"] for r in sets["A"] + sets["B"]}
            if len(values) > 1:
                failures.append(f"{len(values)} different values")
        ok = ok and not failures
        verdict = "; ".join(failures + warnings) or "ok"
        print(f"  {name:<18} {row[0]:>14.6g} {row[1]:>7.2%} {row[2]:>14.6g} {row[3]:>7.2%} "
              f"{change:>+7.2%} {bound:>6.2f}  {verdict}")
print("\nstable" if ok else "\nNOT STABLE")
sys.exit(0 if ok else 1)
EOF
