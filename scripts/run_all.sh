#!/usr/bin/env bash
# Reproduce everything: build, tests, all table/figure/ablation benches.
#
# Usage:
#   scripts/run_all.sh            # quick mode (10k/100k graphs)
#   DPRANK_FULL=1 scripts/run_all.sh   # the paper's full sweep
#
# Outputs land in test_output.txt and bench_output.txt at the repo root;
# set DPRANK_CSV_DIR to also collect machine-readable tables.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

# Static gate first: the determinism & concurrency checker is cheap and
# catches exactly the bugs the seeded reruns below would only surface as
# flaky digests. It prefers the libclang backend when the configure
# above produced compile_commands.json, and falls back to its
# self-contained scanner otherwise.
python3 scripts/dprank_analyze --backend auto \
  --compile-commands build/compile_commands.json

ctest --test-dir build 2>&1 | tee test_output.txt

: "${DPRANK_CACHE_DIR:=.graph_cache}"
export DPRANK_CACHE_DIR
mkdir -p "$DPRANK_CACHE_DIR"

{
  for b in build/bench/*; do
    [ -x "$b" ] || continue
    echo
    echo "##### $(basename "$b") #####"
    "$b"
  done
} 2>&1 | tee bench_output.txt
