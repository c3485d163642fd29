#!/usr/bin/env sh
# Repo-wide static checks: lints as errors, formatting, and the test suite
# gate used by CI. Run from anywhere inside the repository.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> minos-xtask lint"
cargo run -q -p minos-xtask -- lint

echo "==> minos-xtask spec --check"
cargo run -q -p minos-xtask -- spec --check

echo "==> cargo test --workspace"
cargo test --workspace --quiet

# perfbench is its own workspace, so `cargo build --workspace` never
# compiles it; build it here so a library API change cannot break the
# benchmark silently.
echo "==> perfbench build"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> exp_pipeline --smoke"
cargo bench -p minos-bench --bench exp_pipeline -- --smoke

echo "==> exp_faults --smoke"
cargo bench -p minos-bench --bench exp_faults -- --smoke

echo "==> exp_overload --smoke"
cargo bench -p minos-bench --bench exp_overload -- --smoke

echo "==> exp_sched --smoke"
cargo bench -p minos-bench --bench exp_sched -- --smoke

echo "==> exp_fleet --smoke"
cargo bench -p minos-bench --bench exp_fleet -- --smoke

echo "==> exp_chaos --smoke"
cargo bench -p minos-bench --bench exp_chaos -- --smoke

echo "All checks passed."
