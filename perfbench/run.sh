#!/usr/bin/env bash
# Build `scoutctl` and the benchmark from source, then run one benchmark
# workload. Run from the repository root:
#   bash perfbench/run.sh --workload route-fresh --seed 42 --seconds 10 --trace 0
# Build outputs go to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p scoutctl >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" "$@" \
    --scoutctl "$target/release/scoutctl" --scratch "$target/perfbench-scratch"
