#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md), one line per pass:
#   1. standard build + the full ctest suite (with it the CLI smokes at 1 and 4
#      threads: the one-corner --corners regression of mgba_timer fit/optimize/report,
#      and the CLI-session checks that the subcommands read an SDC, derates and
#      corners as the shell does, fit a false path to a finite MSE, derive the period
#      from --utilization under an SDC without create_clock, exit 3 on an unwritable
#      --out before the closure without truncating an existing one, and 2 on an
#      unknown --solver or a --period that is not a finite number);
#   2. TSan, 4 threads: the suites whose pool workers or reader threads share state,
#      the MCMM suites, whose sweeps run corners x nodes on the pool, and the
#      optimizer, whose rejected upsizes re-propagate on the parallel frontier;
#   3. ASan+UBSan with assertions compiled in (MGBA_DCHECK, assert), 4 threads: the suites
#      that index arenas, scratch, frames, the graph CSR and its buffer patch, the AOCV
#      depth state, the optimizer (area recovery's per-instance revert slots,
#      moved-derate installs and the arena carry of a patched buffer trial under a real
#      closure), and the path engine's node-major tables where the hub-less fit's
#      throwaway engine and the hub-served golden QoR use them (MgbaFramework*, Qor*),
#      and golden PBA's single walk and endpoint rule under uncertainty, multicycle and
#      false paths (PathEval*, PathReport*, Exceptions*, HoldFramework*, the
#      DesignSweep no-optimism sweeps); the pass first checks that the assertion
#      death test was compiled in;
#   4. shell golden-transcript smoke at 1 and 4 threads (byte-identical);
#   5. server smoke at 1 and 4 threads, including a kill -9 / --recover round trip;
#   6. the end-to-end benchmark's correctness gates on its smoke workloads
#      (bench/e2e/run.sh --smoke, Release build under .bench_build/): reps agree, refits
#      stay warm, the head matches a fresh Timer, the stepwise fit matches the session
#      fit, and the query_serve transcripts match.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j)

cmake -B build-tsan -S . -DMGBA_SANITIZE=thread
cmake --build build-tsan -j --target mgba_tests
MGBA_THREADS=4 ./build-tsan/tests/mgba_tests --gtest_filter='Parallel*:ThreadPool*:Mcmm*:Incremental*:SolverFastpath*:Snapshot*:Server*:PathEngine*:Optimizer*'

cmake -B build-asan -S . -DMGBA_SANITIZE=address
cmake --build build-asan -j --target mgba_tests
# The listing is read whole before grep -q runs: piped, grep -q's early exit
# could kill the lister with SIGPIPE, and pipefail would report that as
# missing assertions.
if ! grep -q 'DcheckAbortsWithAssertionsOn' \
    <<<"$(./build-asan/tests/mgba_tests --gtest_list_tests)"; then
  echo "tier1: the ASan+UBSan build compiled assertions out (NDEBUG)" >&2
  exit 1
fi
MGBA_THREADS=4 ./build-asan/tests/mgba_tests --gtest_filter='CheckDeathTest*:Mcmm*:Parallel*:Shell*:Incremental*:SolverFastpath*:Snapshot*:Server*:Kernel*:PathEngine*:TimingGraph*:Timer.*:DepthAnalysis*:AocvModel*:Optimizer*:MgbaFramework*:Qor*:PathEval*:PathReport*:Exceptions*:HoldFramework*:AllDesigns/DesignSweep*'

for threads in 1 4; do
  ./scripts/shell_smoke.sh build/tools/mgba_timer \
      examples/close_timing.mgbash examples/close_timing.golden "$threads"
done

for threads in 1 4; do
  ./scripts/server_smoke.sh build/tools/mgba_timer build/tools/mgba_client \
      examples/close_timing.mgbash examples/close_timing.golden "$threads"
done

bash bench/e2e/run.sh --smoke
echo "tier-1 OK (ctest + TSan parallel/MCMM/incremental/server/path-engine/optimizer suites + ASan+UBSan with assertions: check/MCMM/shell/incremental/kernel/path-engine/timing-graph/timer/depth-analysis/aocv/optimizer/mGBA-framework/QoR/PBA-evaluator suites + shell and server smokes + e2e smoke gates)"
