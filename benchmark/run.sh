#!/usr/bin/env bash
# Build the program's `shard_worker` and the benchmark, then run the
# benchmark from the repo root with the arguments given (see README.md).
# Both builds go to $CARGO_TARGET_DIR, or to the root `target/` without it,
# so the benchmark finds `shard_worker` beside its own executable.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --locked --quiet -p marketminer --bin shard_worker
cargo build --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/pairtrade-benchmark" "$@"
