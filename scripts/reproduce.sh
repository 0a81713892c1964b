#!/usr/bin/env bash
# One-command reproduction: configure, build, run the full test suite and
# every experiment bench, capturing outputs at the repo root.
#
# Always builds in its own out-of-source directory (build-reproduce) so it
# can neither clobber nor silently depend on any other build tree.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-reproduce

GENERATOR=()
if command -v ninja > /dev/null 2>&1; then
  GENERATOR=(-G Ninja)
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release "${GENERATOR[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"

ctest --test-dir "$BUILD_DIR" --output-on-failure 2>&1 | tee test_output.txt

# Benches run from inside the build tree, so any file a bench writes by
# default (bench_engine's BENCH_engine.json) lands there instead of over
# the committed copy at the repo root.
ROOT=$PWD
: > bench_output.txt
cd "$BUILD_DIR"
for b in bench/bench_*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  {
    echo "====================================================="
    echo "== $(basename "$b")"
    echo "====================================================="
    "./$b" 2>&1
  } | tee -a "$ROOT/bench_output.txt"
done

echo "Done: test_output.txt and bench_output.txt written."
