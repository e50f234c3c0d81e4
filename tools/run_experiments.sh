#!/bin/sh
# Regenerates the experiment outputs recorded in EXPERIMENTS.md:
#   test_output.txt   — the full ctest run
#   bench_output.txt  — every experiment harness, in order (human tables)
#   bench/BENCH_<name>.json — the same scenarios, machine-readable (--json)
# Usage: tools/run_experiments.sh [build-dir]
# The build directory is relative to the current directory; the source
# tree is the one holding this script, whatever directory it runs from.
set -e
BUILD="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

# Default generator: an existing build directory keeps the generator it
# was configured with.
cmake -B "$BUILD" -S "$ROOT"
cmake --build "$BUILD" -j "$(nproc)"

ctest --test-dir "$BUILD" 2>&1 | tee "$ROOT/test_output.txt"

: > "$ROOT/bench_output.txt"
for b in "$BUILD"/bench/bench_*; do
  [ -x "$b" ] || continue
  name="$(basename "$b")"
  echo "===== $name =====" | tee -a "$ROOT/bench_output.txt"
  "$b" 2>&1 | tee -a "$ROOT/bench_output.txt"
  echo | tee -a "$ROOT/bench_output.txt"
  # Same scenarios again, as one JSON document per harness.
  "$b" --json > "$ROOT/bench/BENCH_${name#bench_}.json"
done
