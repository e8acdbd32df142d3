#!/usr/bin/env bash
# Smoke check of the benchmark itself, well under 20 s once built: every
# workload at 1% of its op count, both passes, then the self-test that
# proves the checker can fail. Not a measurement; nothing is appended to
# results/history.jsonl.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline --quiet
bin="${CARGO_TARGET_DIR:-target}/release/dista-benchmark"
"$bin" run --smoke
"$bin" selftest
