#!/usr/bin/env bash
# Regenerates every BENCH_*.json artifact from its bench binary and folds
# them into a single BENCH_summary.json trajectory table (one row per
# artifact: the top-level scalar headline fields plus the acceptance
# block, when the bench has one). Benches write JSON into the cwd, so
# everything runs from the repo root and the artifacts land next to
# EXPERIMENTS.md.
#
# Usage: scripts/bench_all.sh [--smoke]
#   --smoke  passes --smoke to the benches that support it (seconds-scale
#            designs; the same designs their ctest smoke entries use) so
#            the whole sweep finishes quickly. Full mode reproduces the
#            headline numbers and is the mode used for committed
#            artifacts.
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE_FLAG=""
if [ "${1:-}" = "--smoke" ]; then SMOKE_FLAG="--smoke"; fi

cmake -B build -S . >/dev/null
cmake --build build -j --target \
    bench_parallel_scaling bench_mcmm bench_ablation_incremental \
    bench_solver_fastpath bench_snapshot_cow \
    bench_server_throughput bench_pba_fastpath >/dev/null

# Benches without a --smoke mode are already seconds-scale.
./build/bench/bench_parallel_scaling
./build/bench/bench_mcmm
./build/bench/bench_ablation_incremental
./build/bench/bench_solver_fastpath $SMOKE_FLAG
./build/bench/bench_snapshot_cow $SMOKE_FLAG
./build/bench/bench_server_throughput $SMOKE_FLAG
./build/bench/bench_pba_fastpath $SMOKE_FLAG

python3 - "$SMOKE_FLAG" <<'PYEOF'
import glob, json, sys

smoke = bool(sys.argv[1:] and sys.argv[1] == "--smoke")
rows = []
for path in sorted(glob.glob("BENCH_*.json")):
    if path == "BENCH_summary.json":
        continue
    with open(path) as f:
        data = json.load(f)
    # The headline of each artifact: its top-level scalars, plus the
    # acceptance block when the bench gates a PR criterion.
    row = {"artifact": path}
    row.update({k: v for k, v in data.items()
                if isinstance(v, (int, float, str, bool))})
    if isinstance(data.get("acceptance"), dict):
        row["acceptance"] = data["acceptance"]
    rows.append(row)

summary = {
    "schema": "mgba-bench-summary-v1",
    "mode": "smoke" if smoke else "full",
    "artifacts": rows,
}
with open("BENCH_summary.json", "w") as f:
    json.dump(summary, f, indent=2)
    f.write("\n")
print(f"wrote BENCH_summary.json ({len(rows)} artifacts, "
      f"{'smoke' if smoke else 'full'} mode)")
PYEOF
