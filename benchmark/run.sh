#!/usr/bin/env bash
# The benchmark's one command (named in BENCHMARK.json):
#
#   bash benchmark/run.sh                      # suite: every workload, timed + traced
#   bash benchmark/run.sh --workload tcp_duo   # suite for one workload
#   bash benchmark/run.sh --traced-only        # per-layer passes only
#   bash benchmark/run.sh --repeat 3           # run-to-run spread vs bounds
#   bash benchmark/run.sh --list
#   bash benchmark/run.sh --workload classroom8 --seed 7 --seconds 30 --trace 0
#                                              # one pass; last line is the result object
#
# Builds the benchmark crate offline from the repo's sources (path
# dependencies on ../crates/*), then runs it. Build output goes to stderr
# so stdout carries only the benchmark's own lines.
set -euo pipefail
HOME_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$HOME_DIR/Cargo.toml" >&2
TARGET_DIR="${CARGO_TARGET_DIR:-$HOME_DIR/target}"
exec "$TARGET_DIR/release/cvr-benchmark" --home "$HOME_DIR" "$@"
