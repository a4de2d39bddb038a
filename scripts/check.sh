#!/usr/bin/env bash
# The CI recipe: .github/workflows/ci.yml runs this script and uploads the
# artefacts it leaves under target/, nothing else.
# All checks are offline — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings, broken intra-doc links included, are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release

echo "==> zero-allocation hot loops on the release build (debug builds take the gated kernel's oracle arms)"
cargo test --release -q --test disabled_path_overhead

echo "==> cargo test -q (root package and every crate: unit, integration and doc tests)"
cargo test -q

echo "==> speclint (zero error-severity diagnostics on built-in topologies)"
./target/release/speclint --format json --out target/speclint_report.json \
    --emit-program target/compiled_program.txt
! ./target/release/speclint --no-such-flag 2>/dev/null
! ./target/release/speclint --emit-bitflow target/x.json 2>/dev/null

echo "==> invariant-checker + profiler smoke (experiments --quick --check --faults --profile)"
cargo run --release --bin experiments -- --quick --check --faults 2007 \
    --metrics target/check_metrics.json --profile target/profile.json > target/experiments_check.md

echo "==> simprof reads its own artefacts back"
./target/release/simprof summary target/profile.json --top 5 > /dev/null
./target/release/simprof flame target/profile.json --out target/profile_check.folded
./target/release/simprof diff target/profile.json target/profile.json > /dev/null
! ./target/release/simprof summary target/profile.json --tpo 3 2>/dev/null

echo "==> campaign benchmark smoke (benchmark/run.sh --quick: builds offline, every digest == native's)"
benchmark/run.sh --quick > /dev/null

echo "All checks passed."
