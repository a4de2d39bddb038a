#!/usr/bin/env bash
# Local CI: exactly what .github/workflows/ci.yml runs.
# All checks are offline — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> speclint (zero error-severity diagnostics on built-in topologies)"
./target/release/speclint --all-topologies --format json --out target/speclint_report.json \
    --emit-program target/compiled_program.txt \
    --emit-bitflow target/bitflow_report.json

echo "==> compiled-kernel differential suite (bytecode engine vs the interpreters)"
cargo test -q -p noc compiled
cargo test -q --test compiled_program
cargo test -q --test snapshot compiled

echo "==> faulty differential suite (bit-identity under fault plans)"
cargo test -q --test differential_engines engines_agree_under_fault_plans

echo "==> resilience suite (checkpoint round-trips, kill-and-resume, supervisor)"
cargo test -q -p noc --test resilience

echo "==> chaos smoke (injected panic + hang + corrupt checkpoint)"
cargo run --release --bin chaos -- --dir target/chaos 2> /dev/null

echo "==> invariant-checker + profiler smoke (experiments --quick --check --faults --profile)"
cargo run --release --bin experiments -- --quick --check --faults 2007 \
    --metrics target/check_metrics.json --profile target/profile.json > /dev/null

echo "==> simprof reads its own artefacts back"
./target/release/simprof summary target/profile.json --top 5 > /dev/null
./target/release/simprof flame target/profile.json --out target/profile_check.folded
./target/release/simprof diff target/profile.json target/profile.json > /dev/null

echo "==> bench smoke (bench_kernel --quick)"
cargo build --release --bin bench_kernel
./target/release/bench_kernel --quick --out target/BENCH_kernel_smoke.json

if [[ -f BENCH_baseline.json && "${BENCH_SKIP_CHECK:-0}" != 1 ]]; then
    echo "==> bench regression gate (simprof bench-check vs BENCH_baseline.json)"
    # The committed baseline is a full (non-quick) run; the smoke run
    # above is --quick, so the gate warns about the mode mismatch and a
    # generous threshold absorbs the short-budget noise (same as CI).
    ./target/release/simprof bench-check BENCH_baseline.json \
        target/BENCH_kernel_smoke.json --max-drop "${BENCH_MAX_DROP:-60}"
fi

echo "==> campaign benchmark smoke (benchmark/run.sh --quick: builds offline, every digest == native's)"
benchmark/run.sh --quick > /dev/null

echo "All checks passed."
