#!/usr/bin/env bash
# Record the platform's perf baseline.
#
# Runs the seeded scale sweep (`flexran-campaign sweep`: every eNB×UE
# grid point under 8 seeds × 2 000 measured TTIs) and snapshots it to
# the repository root, then runs the criterion micro-benchmarks:
#
#   BENCH_scale.json — per grid point, a distribution (mean ± 95% CI,
#                      exact p50/p95/p99) over the seeds of TTIs/s, TTI
#                      latency p50/p99, the per-TTI phase split (serial
#                      front, phase A, coupling, phase B, merge),
#                      allocs/TTI and max_cells_at_budget, plus each
#                      seed's end-state digest
#
# The sweep runs on one worker: TTIs/s, latency and the phase split are
# wall-clock KPIs, and two runs side by side would share the cores.
#
# Usage: scripts/bench.sh [--quick]
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=()
for arg in "$@"; do
  case "$arg" in
    --quick) MODE=(--quick) ;;
    *) echo "unknown flag '$arg' (flags: --quick)" >&2; exit 2 ;;
  esac
done

OUT=target/experiments/sweep
cargo run --release -p flexran-campaign -- sweep --workers 1 "${MODE[@]}" --out "$OUT"
cp "$OUT/BENCH_scale.json" BENCH_scale.json

# Micro-benchmarks (median/p95 per op, JSON at target/criterion/).
cargo bench -p flexran-bench --bench micro

echo
echo "wrote $(pwd)/BENCH_scale.json"
