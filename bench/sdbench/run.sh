#!/usr/bin/env bash
# sdbench entry point: build, generate inputs, measure.
#
#   bench/sdbench/run.sh --seed=N [--workloads=a,b] [--seconds=S] [--out=DIR] [--trace]
#   bench/sdbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the benchmark into build-sdbench/ at the repository root, writes each
# workload's input for the seed once (sdbench_gen), then runs each workload
# in its own process: sdbench_run (end-to-end, tracing off) or, with --trace,
# sdbench_trace (per-layer). Result files go to --out (default
# build-sdbench/results). The last line of standard output is the last
# workload's one-line JSON result. Exits nonzero if the build, an input, or
# any replay's output check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-sdbench"

workloads="curie-sd,curie-backfill,ricc-sd,ricc-backfill"
seed=""
seconds=10
trace=0
out="$build/results"

while [[ $# -gt 0 ]]; do
  arg="$1"
  shift
  case "$arg" in
    --*=*) name="${arg%%=*}" value="${arg#*=}" ;;
    --trace)
      # Bare --trace, or the explicit --trace 0|1 form.
      name="--trace" value=1
      if [[ $# -gt 0 && ( "$1" == 0 || "$1" == 1 ) ]]; then value="$1"; shift; fi
      ;;
    --*)
      if [[ $# -eq 0 ]]; then echo "run.sh: $arg needs a value" >&2; exit 2; fi
      name="$arg" value="$1"
      shift
      ;;
    *) echo "run.sh: unexpected argument '$arg'" >&2; exit 2 ;;
  esac
  case "$name" in
    --seed) seed="$value" ;;
    --workload | --workloads) workloads="$value" ;;
    --seconds) seconds="$value" ;;
    --trace) trace="$value" ;;
    --out) out="$value" ;;
    *) echo "run.sh: unknown option '$name'" >&2; exit 2 ;;
  esac
done
if [[ ! "$seed" =~ ^[0-9]+$ ]]; then
  echo "run.sh: --seed=N (a whole number) is required" >&2
  exit 2
fi

mkdir -p "$build"
log="$build/build.log"
jobs="$(nproc 2>/dev/null || echo 1)"
if ! { cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" -j "$jobs"; } > "$log" 2>&1; then
  tail -n 30 "$log" >&2
  echo "run.sh: build failed (full log: $log)" >&2
  exit 1
fi

mkdir -p "$out"
program="$build/sdbench_run"
[[ "$trace" == 1 ]] && program="$build/sdbench_trace"
status=0
for workload in ${workloads//,/ }; do
  "$build/sdbench_gen" --workload="$workload" --seed="$seed" --inputs="$build/inputs" >&2 ||
    exit 1
  "$program" --workload="$workload" --seed="$seed" --seconds="$seconds" \
    --inputs="$build/inputs" --out="$out" || status=1
done
exit "$status"
