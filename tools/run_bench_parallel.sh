#!/usr/bin/env bash
# Builds bench_simcore in Release mode and refreshes the tracked shard-domain
# baseline (BENCH_parallel.json at the repo root). See docs/PARALLEL.md.
#
# Captures the sharded mini-fleet sweep (BM_MiniFleetSharded over
# shards x workers), the burst rounds of a known size on both the inline and
# the pooled branch (BM_BurstSharded), the pool dispatch cost rows
# (BM_PoolDispatch), plus the single-domain
# BM_MiniFleet reference the shards:1/workers:1 row must stay within
# noise of. The JSON's
# context.num_cpus records how many host cores the run had — multi-worker
# rows can only beat the 1-worker row when that is > 1.
#
# Usage: tools/run_bench_parallel.sh [extra --benchmark_* flags...]
# Note: the system google-benchmark wants --benchmark_min_time as a plain
# double (seconds); the "0.1s" suffix form is rejected.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build-rel}"

cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" --target bench_simcore -j >/dev/null

# Refuse to record a baseline from a non-Release build: a debug-build number
# silently invalidates the whole perf trajectory. The build dir is checked
# here; the binary additionally stamps context.rpcscope_build_type, verified
# below (the library's own "library_build_type" only describes how the system
# benchmark package was compiled, so it cannot be used for this check).
if ! grep -q '^CMAKE_BUILD_TYPE:[^=]*=Release$' "$BUILD/CMakeCache.txt"; then
  echo "ERROR: $BUILD is not a Release build; refusing to record a baseline." >&2
  exit 1
fi

"$BUILD/bench/bench_simcore" \
  --benchmark_filter='BM_MiniFleetSharded|BM_BurstSharded|BM_PoolDispatch|BM_MiniFleet$' \
  --benchmark_out="$ROOT/BENCH_parallel.json" \
  --benchmark_out_format=json \
  --benchmark_min_time=0.3 \
  "$@"

if ! grep -q '"rpcscope_build_type": "release"' "$ROOT/BENCH_parallel.json"; then
  rm -f "$ROOT/BENCH_parallel.json"
  echo "ERROR: benchmark binary was not built with NDEBUG; baseline discarded." >&2
  exit 1
fi

echo "Wrote $ROOT/BENCH_parallel.json"
