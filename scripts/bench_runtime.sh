#!/usr/bin/env bash
# Regenerate BENCH_runtime.json — the checked-in execution-engine baseline
# (ResNet-50 sweep over dtype {f32,int8} x batch {1,8} x dispatch
# {portable,SIMD} x threads {1,2,4}, both dtypes on the same BN-folded,
# activation-fused graph, with achieved GFLOPS and fraction-of-roofline
# against the measured per-level host roof, and each batch-8 point's
# per-lane speedup over batch 1; thread points beyond
# hardware_concurrency are recorded unmeasured).
#
# Usage: scripts/bench_runtime.sh [build-dir]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" --target bench_runtime -j"$(nproc)"

# The sweep runs inside the artifact pass; skip the google-benchmark
# microbenchmarks (they are not part of the checked-in baseline).
VEDLIOT_BENCH_RUNTIME_JSON="$REPO_ROOT/BENCH_runtime.json" \
  "$BUILD_DIR/bench/bench_runtime" --benchmark_filter='^$'

# The roofline fields are what downstream perf tracking keys on; a bench
# binary that silently stopped emitting them must fail the regeneration.
for field in achieved_gflops fraction_of_roofline hardware_concurrency; do
  grep -q "\"$field\"" "$REPO_ROOT/BENCH_runtime.json" || {
    echo "BENCH_runtime.json is missing \"$field\"" >&2
    exit 1
  }
done

echo "baseline written to $REPO_ROOT/BENCH_runtime.json"
