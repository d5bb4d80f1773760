#!/usr/bin/env bash
# Record the platform's perf baseline.
#
# Runs the `scale` experiment (one RIB shard vs per-agent shards,
# pinned seed, full durations) plus the criterion micro-benchmarks, and
# snapshots the machine-readable artifacts to the repository root:
#
#   BENCH_scale.json      — TTIs/s, per-phase wall-time, allocs/TTI,
#                           TTI latency percentiles (p50/p95/p99/worst)
#                           and max-cells-at-budget from the deadline
#                           monitor, one-shard and per-agent-shard
#                           series, steady-state zero-alloc probes,
#                           scheduler zero-alloc probe, determinism check
#
# With --sweep, additionally runs the multi-seed campaign sweep
# (`flexran-campaign sweep`): the same scale grid, every point measured
# under independent seeds, written to target/experiments/BENCH_scale_sweep.json
# with per-KPI distributions (mean ± 95% CI, exact p50/p95/p99) instead
# of single-run points. The sweep never replaces the committed
# single-run baseline — the two schemas are complementary.
#
# Usage: scripts/bench.sh [--quick] [--sweep]
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=()
SWEEP=0
for arg in "$@"; do
  case "$arg" in
    --quick) MODE=(--quick) ;;
    --sweep) SWEEP=1 ;;
    *) echo "unknown flag '$arg' (flags: --quick --sweep)" >&2; exit 2 ;;
  esac
done

OUT=target/experiments
cargo build --release -p flexran-bench
cargo run --release -p flexran-bench --bin experiments -- scale "${MODE[@]}" --out "$OUT"
cp "$OUT/BENCH_scale.json" BENCH_scale.json

# Micro-benchmarks (median/p95 per op, JSON at target/criterion/).
cargo bench -p flexran-bench --bench micro

# Optional seeded sweep: distribution-grade scale points (see
# EXPERIMENTS.md §"Campaign reports").
if [[ "$SWEEP" -eq 1 ]]; then
  SWEEP_OUT="$OUT/sweep"
  cargo run --release -p flexran-campaign -- sweep "${MODE[@]}" --out "$SWEEP_OUT"
  cp "$SWEEP_OUT/BENCH_scale.json" "$OUT/BENCH_scale_sweep.json"
  echo "wrote $(pwd)/$OUT/BENCH_scale_sweep.json (seeded distributions)"
fi

echo
echo "wrote $(pwd)/BENCH_scale.json"
