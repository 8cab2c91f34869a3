#!/usr/bin/env bash
# Build the system under test and the benchmark from source, then run one
# benchmark measurement (or, with --selftest, the benchmark's own tests).
#
#   bash perfbench/run.sh --workload nexmark --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --selftest
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); span files of traced runs to its perfbench/.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet -p streamtune-cli
cargo build --release --quiet --manifest-path perfbench/Cargo.toml
target="$(cd "$CARGO_TARGET_DIR" && pwd)"
if [ "${1:-}" = "--selftest" ]; then
    STREAMTUNE_BIN="$target/release/streamtune" exec cargo test --release --quiet \
        --manifest-path perfbench/Cargo.toml
fi
exec "$target/release/perfbench" --streamtune "$target/release/streamtune" \
    --out "$target/perfbench" "$@"
