#!/usr/bin/env bash
# Kernel throughput benchmark: builds the harness and writes
# BENCH_kernel.json (schema soc-sim/bench_kernel/v8) in the repo root.
#
#   scripts/bench.sh [--quick] [--out FILE]
#
# --quick shrinks every cycle budget to the CI smoke configuration; the
# output schema is identical. Extra arguments are passed through to the
# bench_kernel binary.
#
# Regression gate: when BENCH_baseline.json exists in the repo root the
# run finishes with `simprof bench-check`, failing if any baseline row's
# cycles_per_sec dropped more than $BENCH_MAX_DROP percent (default 25).
# Set BENCH_SKIP_CHECK=1 to skip the gate (e.g. while refreshing the
# baseline on a different host class).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --bin bench_kernel --bin simprof

out=BENCH_kernel.json
prev=
for a in "$@"; do
    [[ $prev == "--out" ]] && out=$a
    prev=$a
done

./target/release/bench_kernel "$@"

if [[ -f BENCH_baseline.json && "${BENCH_SKIP_CHECK:-0}" != 1 ]]; then
    echo "==> regression gate: simprof bench-check vs BENCH_baseline.json"
    ./target/release/simprof bench-check BENCH_baseline.json "$out" \
        --max-drop "${BENCH_MAX_DROP:-25}"
fi
