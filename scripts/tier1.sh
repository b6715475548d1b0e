#!/usr/bin/env bash
# Tier-1 verification: full build + complete test suite from a clean tree,
# a short seeded chaos soak of the serving layer, then an
# AddressSanitizer+UBSan build of the resilience-critical tests
# (including the runtime tests, which exercise activation-arena aliasing),
# then a ThreadSanitizer build of the parallel execution-engine tests.
#
# Usage: scripts/tier1.sh [-jN]

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:--j$(nproc)}"

echo "== tier-1: non-test source line count =="
scripts/loc.sh
echo

echo "== tier-1: build (warnings-as-errors) + full ctest =="
cmake -B build -S . -DVEDLIOT_WERROR=ON > /dev/null
cmake --build build "${JOBS}" > /dev/null
ctest --test-dir build --output-on-failure "${JOBS}"

echo
echo "== tier-1: kernel suite with SIMD force-disabled (portable dispatch) =="
VEDLIOT_FORCE_PORTABLE=1 ctest --test-dir build --output-on-failure "${JOBS}" \
  -R 'test_microkernel|test_runtime|test_qruntime'

echo
echo "== tier-1: kernel suite pinned to the AVX2 level (madd int8 tile on AVX-VNNI hosts) =="
VEDLIOT_SIMD=avx2 ctest --test-dir build --output-on-failure "${JOBS}" \
  -R 'test_microkernel|test_runtime|test_qruntime'

echo
echo "== tier-1: bench baseline carries the roofline fields =="
for field in achieved_gflops fraction_of_roofline hardware_concurrency cpu_model build_type \
             compiler commit; do
  grep -q "\"$field\"" BENCH_runtime.json || {
    echo "BENCH_runtime.json is missing \"$field\" (regenerate with scripts/bench_runtime.sh)" >&2
    exit 1
  }
done

echo
echo "== tier-1: static analysis (vedliot-lint) =="
build/src/apps/vedliot-lint --selftest
build/src/apps/vedliot-lint --zoo resnet50 --save build/resnet50.vmdl > /dev/null
build/src/apps/vedliot-lint --model build/resnet50.vmdl
scripts/lint.sh

echo
echo "== tier-1: wasm bytecode verifier (vedliot-lint --wasm) =="
build/src/apps/vedliot-lint --wasm --selftest
# The bundled example/bench modules: add is fully accepted; kv and spin are
# runnable (exit 0) but carry expected warnings (loops, unproven indexing).
build/src/apps/vedliot-lint --wasm --wmod add > /dev/null
build/src/apps/vedliot-lint --wasm --wmod kv > /dev/null
build/src/apps/vedliot-lint --wasm --wmod spin > /dev/null

echo
echo "== tier-1: serving-layer chaos soak (seeded, short) =="
build/bench/soak_serve --quick > /dev/null

echo
echo "== tier-1: fleet-scale serving soak (seeded, short) =="
build/bench/soak_fleet --quick > /dev/null

echo
echo "== tier-1: memory-fault integrity soak (seeded, short) =="
scripts/soak_integrity.sh --quick > /dev/null

echo
echo "== tier-1: fleet OTA rollout soak (seeded, short) =="
scripts/soak_ota.sh --quick > /dev/null
for field in '"converged":true' '"no_torn_install":true'; do
  grep -q "$field" BENCH_ota.json || {
    echo "BENCH_ota.json is missing $field (regenerate with scripts/soak_ota.sh)" >&2
    exit 1
  }
done

echo
echo "== tier-1: ASan+UBSan on the resilience/platform/observability/runtime/analysis/serve/safety tests =="
cmake -B build-asan -S . -DVEDLIOT_SANITIZE=ON > /dev/null
cmake --build build-asan "${JOBS}" --target test_resilience test_platform test_distributed test_util test_obs test_runtime test_qruntime test_microkernel test_analysis test_wasm_verifier test_serve test_fleet test_safety test_package test_rollout > /dev/null
ctest --test-dir build-asan --output-on-failure "${JOBS}" \
  -R 'test_resilience|test_platform|test_distributed|test_util|test_obs|test_runtime|test_qruntime|test_microkernel|test_analysis|test_wasm_verifier|test_serve|test_fleet|test_safety|test_package|test_rollout'

echo
echo "== tier-1: ASan+UBSan kernel suite with SIMD force-disabled (portable tiles, int16-pair packing) =="
VEDLIOT_FORCE_PORTABLE=1 ctest --test-dir build-asan --output-on-failure "${JOBS}" \
  -R 'test_microkernel|test_runtime|test_qruntime'

echo
echo "== tier-1: TSan on the parallel execution-engine + serve tests =="
cmake -B build-tsan -S . -DVEDLIOT_TSAN=ON > /dev/null
cmake --build build-tsan "${JOBS}" --target test_util test_runtime test_qruntime test_microkernel test_serve test_fleet > /dev/null
ctest --test-dir build-tsan --output-on-failure "${JOBS}" \
  -R 'test_util|test_runtime|test_qruntime|test_microkernel|test_serve|test_fleet'

echo
echo "tier-1 OK"
