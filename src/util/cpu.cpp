#include "util/cpu.hpp"

#include <cstdlib>
#include <cstring>
#include <string>

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#endif

namespace vedliot::util {

std::string_view simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAuto: return "auto";
    case SimdLevel::kPortable: return "portable";
    case SimdLevel::kAvx2: return "avx2";
    case SimdLevel::kAvxVnni: return "avxvnni";
    case SimdLevel::kNeon: return "neon";
  }
  return "unknown";
}

const CpuFeatures& cpu_features() {
  static const CpuFeatures features = [] {
    CpuFeatures f;
#if defined(__x86_64__) || defined(_M_X64)
    __builtin_cpu_init();
    f.avx2 = __builtin_cpu_supports("avx2") != 0;
    f.fma = __builtin_cpu_supports("fma") != 0;
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid_count(7, 1, &eax, &ebx, &ecx, &edx) != 0) f.avx_vnni = (eax & (1u << 4)) != 0;
#endif
#if defined(__ARM_NEON) || defined(__aarch64__)
    f.neon = true;  // NEON is architecturally guaranteed on aarch64
#endif
    return f;
  }();
  return features;
}

bool simd_supported(SimdLevel level) {
  const CpuFeatures& f = cpu_features();
  switch (level) {
    case SimdLevel::kAuto:
    case SimdLevel::kPortable: return true;
    case SimdLevel::kAvx2: return f.avx2 && f.fma;
    case SimdLevel::kAvxVnni: return f.avx2 && f.fma && f.avx_vnni;
    case SimdLevel::kNeon: return f.neon;
  }
  return false;
}

namespace {

/// Best concrete level the host supports.
SimdLevel best_level() {
  if (simd_supported(SimdLevel::kAvxVnni)) return SimdLevel::kAvxVnni;
  if (simd_supported(SimdLevel::kAvx2)) return SimdLevel::kAvx2;
  if (simd_supported(SimdLevel::kNeon)) return SimdLevel::kNeon;
  return SimdLevel::kPortable;
}

/// Parse a VEDLIOT_SIMD value; unknown strings request portable (the safe
/// direction for a typo'd override).
SimdLevel parse_level(const char* s) {
  if (std::strcmp(s, "auto") == 0) return SimdLevel::kAuto;
  if (std::strcmp(s, "avx2") == 0) return SimdLevel::kAvx2;
  if (std::strcmp(s, "avxvnni") == 0) return SimdLevel::kAvxVnni;
  if (std::strcmp(s, "neon") == 0) return SimdLevel::kNeon;
  return SimdLevel::kPortable;
}

}  // namespace

SimdLevel resolve_simd_level(SimdLevel requested) {
  // Env overrides are read per resolution (not cached) so tests can flip
  // them between sessions within one process.
  if (const char* force = std::getenv("VEDLIOT_FORCE_PORTABLE")) {
    if (force[0] != '\0' && force[0] != '0') return SimdLevel::kPortable;
  }
  if (const char* env = std::getenv("VEDLIOT_SIMD")) {
    if (env[0] != '\0') requested = parse_level(env);
  }
  if (requested == SimdLevel::kAuto) return best_level();
  return simd_supported(requested) ? requested : SimdLevel::kPortable;
}

}  // namespace vedliot::util
