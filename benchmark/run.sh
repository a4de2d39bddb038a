#!/usr/bin/env bash
# The one command: build the harness offline, run every workload in its
# own process (untraced repeats, then the traced pass), merge the results
# into benchmark/out/results.json and print every metric as
# `name unit value`. Exits non-zero if any campaign failed.
#
#   benchmark/run.sh [--quick] [--seed N] [--seconds S]
#
# --quick is the smoke mode (measure / 10, 2 repeats, about 15 s in all); its
# numbers are not comparable with a full run's.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark"

for w in fig1_6x6 idle_6x6 heavy_6x6 max_16x16 checked_6x6; do
    echo "==> $w" >&2
    "$bin" --workload "$w" --trace 1 "$@" > /dev/null
done
"$bin" merge benchmark/out
