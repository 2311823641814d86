#!/usr/bin/env bash
# Builds the benchmark in release and runs it.
#
#   bench/run.sh --workload W --seed S --seconds T --trace 0|1
#       one run in this process tree; the last line of standard output is
#       the result object (the form BENCHMARK.json's command is called in).
#   bench/run.sh [--seed S] [--seconds T] [--trace] [--quick]
#       every workload, each in its own child process: the end-to-end run,
#       and with --trace the traced run after it. --quick is the smoke
#       test: 5 predictions, one set-up and one probe repetition.
#
# Exits nonzero when the build fails, a prediction fails or a metric is
# missing.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

export CARGO_NET_OFFLINE=true
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml 1>&2
bin="${CARGO_TARGET_DIR:-bench/target}/release/abnn2-perfbench"

for arg in "$@"; do
  if [[ $arg == --workload ]]; then
    exec "$bin" "$@"
  fi
done

pass=()
trace=0
while (($#)); do
  case $1 in
    --trace) trace=1 ;;
    --quick) pass+=(--quick) ;;
    --seed | --seconds) pass+=("$1" "$2"); shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
  shift
done

status=0
for workload in fig4_warm encoder_warm slim_cold_iknp slim_cold_silent; do
  for t in $(seq 0 "$trace"); do
    "$bin" --workload "$workload" --trace "$t" ${pass[@]+"${pass[@]}"} || status=1
  done
done
exit "$status"
