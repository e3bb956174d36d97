#!/usr/bin/env bash
# End-to-end benchmark of the mGBA closure flow, the ECO refit loop and the
# timing daemon. Builds the engine (Release) and the benchmark program under
# .bench_build/, then runs each workload in its own process.
#
#   bash bench/e2e/run.sh [--workload NAME]... [--seed N] [--trace 0|1|DIR]
#                         [--smoke] [--out DIR]
#
#   --workload  closure_mgba | closure_gba | eco_refit | query_serve
#               (repeatable; default: all four)
#   --seed      workload seed (default 7)
#   --trace     1 runs traced: per-layer metrics, span traces written to
#               .bench_build/e2e/trace (or to DIR when a directory is given)
#   --smoke     small stand-in workloads, traced, so every gate runs
#   --out       directory for <workload>.results.json (untraced) and
#               <workload>.traced.json (default .bench_build/e2e/results)
#
# The measurement window is fixed: 25 s per run (run_seconds in
# BENCHMARK.json), 2 s with --smoke. `--seconds 25` is accepted so a caller
# can state the window it expects; any other value is refused.
#
# Each run prints every metric and gate, and its last line is one JSON
# object {"correct", "attempted", "failed", "metrics"}. The exit status is
# nonzero when a build or a correctness gate fails.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
cd "$root"

workloads=()
seed=7
trace=0
trace_dir=.bench_build/e2e/trace
out=.bench_build/e2e/results
smoke=0
while (($#)); do
  case $1 in
    --workload) workloads+=("$2"); shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds)
      if [[ $2 != 25 ]]; then
        echo "run.sh: the window is fixed at 25 s; got --seconds '$2'" >&2
        exit 2
      fi
      shift 2 ;;
    --trace)
      case $2 in
        0 | 1) trace=$2 ;;
        *) trace=1; trace_dir=$2 ;;
      esac
      shift 2 ;;
    --out) out=$2; shift 2 ;;
    --smoke) smoke=1; trace=1; shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
((${#workloads[@]})) ||
  workloads=(closure_mgba closure_gba eco_refit query_serve)

build=.bench_build
mkdir -p "$build/e2e" "$build/tmp" "$out" "$trace_dir"
# Compiler temporaries stay inside the checkout.
export TMPDIR="$root/$build/tmp"
jobs=$(nproc 2>/dev/null || echo 2)
((jobs <= 4)) || jobs=4

# The engine tree builds only mgba_timer and the libraries it links.
build_all() {
  if [[ ! -f $build/main/Makefile ]]; then
    cmake -S . -B "$build/main" -DCMAKE_BUILD_TYPE=Release || return
  fi
  cmake --build "$build/main" --target mgba_timer -j "$jobs" || return
  if [[ ! -f $build/bench/Makefile ]]; then
    cmake -S bench/e2e -B "$build/bench" -DCMAKE_BUILD_TYPE=Release \
      -DMGBA_BUILD_DIR="$root/$build/main" || return
  fi
  cmake --build "$build/bench" -j "$jobs"
}
log=$build/e2e/build.log
if ! (flock 9 && build_all) 9>"$build/build.lock" >"$log" 2>&1; then
  echo "run.sh: build failed; last lines of $log:" >&2
  tail -n 25 "$log" >&2
  exit 1
fi

status=0
for w in "${workloads[@]}"; do
  args=(--workload "$w" --seed "$seed" --trace "$trace"
        --timer "$build/main/tools/mgba_timer" --work "$build/e2e"
        --out "$out" --trace-dir "$trace_dir")
  ((smoke)) && args+=(--smoke)
  "$build/bench/mgba_e2e" "${args[@]}" || status=1
done
exit $status
