#pragma once
/// \file cpu.hpp
/// \brief Host CPU SIMD capability detection and dispatch-level resolution.
///
/// The execution engine carries one portable scalar kernel set plus
/// architecture-specific microkernels (AVX2/FMA and AVX-VNNI on x86-64,
/// NEON on aarch64). Which set actually runs is decided *at runtime* from CPUID
/// feature bits — the VEDLIoT premise is one binary serving heterogeneous
/// devices, so the compiled artifact must never assume the build host's
/// ISA. Resolution order:
///
///   1. `VEDLIOT_FORCE_PORTABLE=1` (env) pins the portable scalar path —
///      the kill switch for field debugging and the reference half of
///      every SIMD-vs-scalar regression test.
///   2. `VEDLIOT_SIMD=portable|avx2|avxvnni|neon|auto` (env) requests a
///      specific level; an unavailable request falls back to portable,
///      never up. `avx2` pins the madd int8 tile on a VNNI host.
///   3. An explicit ExecConfig::simd request, same fallback rule.
///   4. kAuto picks the best level the CPU supports: avxvnni, then avx2,
///      then neon, then portable.

#include <string_view>

namespace vedliot::util {

/// Kernel dispatch level. kAuto is a *request* (resolve to the best
/// supported level); the other values are concrete kernel sets.
enum class SimdLevel {
  kAuto,      ///< request: pick the best available at runtime
  kPortable,  ///< scalar C++ kernels, available everywhere
  kAvx2,      ///< x86-64 AVX2+FMA microkernels
  kAvxVnni,   ///< kAvx2 plus the AVX-VNNI (vpdpbusd) int8 tile
  kNeon,      ///< aarch64 NEON microkernels
};

std::string_view simd_level_name(SimdLevel level);

/// CPUID-derived feature bits of the host (detected once, cached).
struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
  bool avx_vnni = false;  ///< CPUID.(EAX=7,ECX=1):EAX[4], VEX-encoded vpdpbusd
  bool neon = false;
};
const CpuFeatures& cpu_features();

/// True when the host can execute kernels at \p level (kAuto/kPortable
/// are always supported).
bool simd_supported(SimdLevel level);

/// Resolve a requested level to a concrete one: apply the env overrides,
/// then availability (unsupported requests degrade to portable). Never
/// returns kAuto.
SimdLevel resolve_simd_level(SimdLevel requested);

}  // namespace vedliot::util
