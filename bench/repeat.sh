#!/usr/bin/env bash
# bench/repeat.sh [K] [--seed S]
#
# Runs the full benchmark K times (default 5), each with another seed, and
# prints per workload and end-to-end metric the min, median, max and the
# largest deviation from the median as a share of it, next to the metric's
# bound from BENCHMARK.json; then the same table for the raw
# (uncalibrated) readings of the timed metrics. The runs' own output is
# kept in bench/out/repeat.log. Exits nonzero when a calibrated deviation
# exceeds its bound or a run fails.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

runs=5
seed=1
while (($#)); do
  case $1 in
    --seed) seed=$2; shift ;;
    *) runs=$1 ;;
  esac
  shift
done

mkdir -p bench/out
log=bench/out/repeat.log
: >"$log"
status=0
for ((k = 0; k < runs; k++)); do
  echo "repeat.sh: run $((k + 1)) of $runs (seed $((seed + k)))" >&2
  bench/run.sh --seed $((seed + k)) >>"$log" || status=1
done

python3 - "$log" <<'PY' || status=1
import json, statistics, sys

bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
values = {}  # (workload, metric) -> readings, in run order
workload = None
for line in open(sys.argv[1]):
    parts = line.split()
    if len(parts) == 6 and parts[0] == "workload":
        workload = parts[1]
    elif len(parts) == 3 and not line.startswith("{"):
        values.setdefault((workload, parts[0]), []).append(float(parts[1]))

def table(title, prefix, check):
    print(f"\n### {title}\n")
    print("| workload | metric | min | median | max | max dev | bound |")
    print("|---|---|---:|---:|---:|---:|---:|")
    over = []
    for (workload, metric), readings in values.items():
        name = metric.removeprefix("raw.")
        if metric.startswith("raw.") != bool(prefix) or name not in bounds:
            continue
        med = statistics.median(readings)
        dev = max(abs(v - med) for v in readings) / med
        print(f"| {workload} | {name} | {min(readings):.6g} | {med:.6g} | {max(readings):.6g} "
              f"| {dev:.2%} | {bounds[name]:.0%} |")
        if check and dev > bounds[name]:
            over.append(f"{workload}/{name}: {dev:.2%} > {bounds[name]:.0%}")
    return over

runs = max(len(v) for v in values.values())
print(f"{runs} runs of every workload, one seed each")
over = table("Calibrated (what BENCHMARK.json gates)", "", True)
table("Raw (uncalibrated readings of the timed metrics)", "raw.", False)
for line in over:
    print("over bound:", line, file=sys.stderr)
sys.exit(1 if over else 0)
PY
exit "$status"
