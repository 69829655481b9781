#!/usr/bin/env bash
# Everything a CI job needs to call for this crate: format, lints,
# tests, a one-second traced smoke of every workload, and `compare` of a
# result set with itself. Run from anywhere; builds offline.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release -q

out="out/check"
rm -rf "$out"
trap 'rm -rf "$out"' EXIT
for workload in lookup_mat analytic_mat lookup_rewrite live_churn; do
  for trace in 0 1; do
    cargo run --offline --release -q -- --workload "$workload" --seed 1 --seconds 1 \
      --trace "$trace" --scale tiny --out-dir "$out" | tail -n 1 | grep -q '"correct": true'
  done
done
cargo run --offline --release -q -- compare "$out" "$out" --benchmark-json ../BENCHMARK.json
echo "benchmark: all checks passed"
