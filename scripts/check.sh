#!/usr/bin/env bash
# One-stop local CI: formatting, clippy, the workspace invariant checker,
# and the full test suite (including the determinism run with RIB
# single-writer/epoch assertions compiled in).
#
# Usage: scripts/check.sh          # from anywhere inside the repo
set -euo pipefail
cd "$(dirname "$0")/.."

# Our packages only — `--all` would also reformat the vendored deps,
# which we keep byte-identical to their upstream snapshots.
OWN_PKGS=()
for manifest in crates/*/Cargo.toml; do
    OWN_PKGS+=(-p "$(sed -n 's/^name = "\(.*\)"/\1/p' "$manifest" | head -n1)")
done

echo "==> benchmark lockfile (fails fast if a manifest edit would rewrite benchmark/Cargo.lock)"
cargo metadata --locked --offline --format-version 1 --manifest-path benchmark/Cargo.toml >/dev/null

echo "==> cargo fmt --check"
cargo fmt "${OWN_PKGS[@]}" -- --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "==> cargo doc (rustdoc warnings are errors, as in CI's Docs step)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> flexran-lint (gated against lint-baseline.toml)"
cargo run --quiet -p flexran-lint

echo "==> cargo test (workspace)"
cargo test --quiet --workspace

echo "==> determinism + master-recovery tests with debug-invariants assertions"
cargo test --quiet --release -p flexran --features debug-invariants --test determinism
cargo test --quiet --release -p flexran --features debug-invariants --test master_recovery

echo "==> scheduler differential oracle, deep run (4 096 cases per scheduler vs the naive references)"
cargo test --quiet --release -p flexran-stack --lib mac::scheduler::oracle -- --ignored

echo "==> envelope decoder differential oracle, deep run (4 096 well-formed, re-sealed mutated and corrupted envelopes vs the naive reference decoder)"
cargo test --quiet --release -p flexran-proto --lib messages::reference -- --ignored

echo "==> encoder differential oracle, deep run (4 096 runs of arbitrary messages through one reused writer, 4 096 writer programs, vs the textbook reference encoder)"
cargo test --quiet --release -p flexran-proto --lib messages::encode_reference -- --ignored

echo "==> envelope CRC kernels vs the bitwise reference, deep run (every kernel: 256 windows of every length 0-4 096, 4 096 arbitrary inputs)"
cargo test --quiet --release -p flexran-proto --lib wire:: -- --ignored

echo "==> journal recovery equivalence, deep run (1 024 journaled runs, recovered forest == live forest)"
cargo test --quiet --release -p flexran --test recovery_equivalence -- --ignored

echo "==> allocation-regression gate (scale grid 1x16..8x64 local: 0 allocs/TTI; 2x16 remote-scheduled, per-TTI full reports, journal on: 34 allocs/TTI; scheduler probe, 4 MAC schedulers: 0 allocs/call)"
cargo run --quiet --release -p flexran-bench --bin experiments -- \
    allocgate --out target/check-allocgate

echo "==> rollout smoke gate (8 agents, 1 canary, forced regression -> rollback, 2000 TTIs)"
cargo run --quiet --release -p flexran-bench --bin experiments -- \
    rollout --out target/check-rollout

echo "==> chaos campaign gate (8 seeds x 2000 TTIs, unsharded + 4-shard, rollouts under fire, parallel)"
# Every seed under both the single-shard and the 4-shard master, fanned
# over the campaign's run pool, failing on any violation (exit 1 pins each one).
cargo run --quiet --release -p flexran-campaign -- \
    chaos --seeds 8 --ttis 2000 --configs 1,4 --out target/check-chaos

echo "==> benchmark crate (out of the workspace, so nothing above compiles it) + its smoke run"
# --locked: an edit that would rewrite benchmark/Cargo.lock fails here
# instead of dirtying the tree.
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke

echo "All checks passed."
