#!/usr/bin/env bash
# Build the release preset and refresh BENCH_engine.json in place.
#
# BENCH_engine.json (schema in docs/ENGINE.md) records encode
# throughput, roofline figures (payload bytes/trial, encode/decode MB/s,
# encode bytes/cycle), and global allocation counts for the round engine
# with and without a SketchArena. The run exits nonzero if the pooled
# steady state still allocates per vertex, its sketches diverge from the
# unpooled run, or — because the committed BENCH_engine.json is passed as
# --baseline — any case's encode MB/s drops below 80% of the committed
# figure (the no-regression gate; see docs/ENGINE.md "hot path").
#
# End-to-end throughput is measured by perfbench (BENCHMARK.json), not
# here.
#
# Usage:
#   scripts/bench.sh
#   DISTSKETCH_THREADS=4 scripts/bench.sh   # pin the pool width
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-release

# Never pass -G at a configured cache: CMake refuses to switch generators
# in place, so a cache configured with Make would make `-G Ninja` fail.
# Reconfigure with whatever generator the cache already has; only pick a
# generator (Ninja if present) on a fresh configure.
if [ -f "$BUILD_DIR/CMakeCache.txt" ]; then
  cmake --preset release
elif command -v ninja > /dev/null 2>&1; then
  cmake --preset release -G Ninja
else
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_engine

cp BENCH_engine.json "$BUILD_DIR/engine_baseline.json"
"$BUILD_DIR"/bench/bench_engine BENCH_engine.json \
  --baseline "$BUILD_DIR/engine_baseline.json"
