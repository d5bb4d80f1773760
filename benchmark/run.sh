#!/usr/bin/env bash
# The benchmark's single entry point. Builds offline, then:
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the result object the
#       driver of BENCHMARK.json reads.
#   run.sh [--seed N] [--workload W] [--smoke] [--repeat K]
#       the whole suite: every workload untraced, then traced, checked,
#       every metric printed, benchmark/out/results.json written.
#   run.sh compare BASE.json CHANGE.json
#       relative difference per (metric, workload) against the bounds.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

build_start=$(date +%s%N)
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
echo "build_ms $(( ($(date +%s%N) - build_start) / 1000000 )) (compile time, not part of any metric)" >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/flexran-benchmark"

if [[ "${1:-}" == compare ]]; then
    shift
    exec python3 benchmark/compare.py "$@"
fi
for arg in "$@"; do
    if [[ "$arg" == --trace ]]; then
        exec "$bin" "$@"
    fi
done
exec python3 benchmark/suite.py --bin "$bin" "$@"
