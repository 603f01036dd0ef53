#!/usr/bin/env bash
# hsbench in one command: build, run, check correctness, print every metric.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
#   benchmark/run.sh --selftest [--runs N] [--workload W]
#
# Without --workload all five workloads run, each in a fresh process.
# The last line of standard output is the result as one JSON object.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
# Build output goes to standard error: standard output ends with the result.
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" 1>&2
exec "$target/release/hsbench" "$@"
