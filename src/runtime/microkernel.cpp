#include "runtime/microkernel.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>

#include "runtime/kernels.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define VEDLIOT_HAVE_X86 1
#define VEDLIOT_TARGET_AVX2 __attribute__((target("avx2,fma")))
#define VEDLIOT_TARGET_AVXVNNI __attribute__((target("avx2,fma,avxvnni")))
#endif

#if defined(__ARM_NEON)
#include <arm_neon.h>
#define VEDLIOT_HAVE_NEON 1
#endif

namespace vedliot::runtime_kernels {

namespace {

// Tile shapes per level. f32 AVX2 is the classic 6x16: 12 ymm accumulators
// + 2 B vectors + 1 broadcast leave one register spare. int8 AVX2 is 4x16:
// 8 ymm int32 accumulators fed by madd_epi16 k-pairs (the sign-extended B
// pair takes two more registers). int8 AVX-VNNI is 6x16 again: vpdpbusd
// reads the packed B bytes directly, so 12 accumulators fit. NEON f32 is
// 4x8 in q registers. The portable tiles are 4x8 so their accumulators fit
// the 16 registers of a baseline SSE2/NEON target once auto-vectorized.
constexpr MicrokernelTile kPortableF32{4, 8};
constexpr MicrokernelTile kPortableS8{4, 8, 2};
constexpr MicrokernelTile kAvx2F32{6, 16};
constexpr MicrokernelTile kAvx2S8{4, 16, 2};
constexpr MicrokernelTile kAvxVnniS8{6, 16, 4};
constexpr MicrokernelTile kNeonF32{4, 8};

/// Packed k groups of an int8 operand.
std::int64_t k_groups(std::int64_t k, const MicrokernelTile& t) {
  return (k + t.kgroup - 1) / t.kgroup;
}

/// Store the valid region of one f32 accumulator tile, applying the fused
/// activation scalar-wise — shared across levels so SIMD and portable
/// epilogues are the same math on every lane.
template <std::int64_t MR, std::int64_t NR>
void store_tile_f32(const float* tile, float* c, std::int64_t ldc, bool col_major,
                    std::int64_t m0, std::int64_t j0, std::int64_t mv, std::int64_t jv,
                    OpKind act, double alpha) {
  for (std::int64_t r = 0; r < mv; ++r) {
    const float* row = tile + r * NR;
    for (std::int64_t j = 0; j < jv; ++j) {
      const float v = act == OpKind::kIdentity ? row[j] : apply_activation(row[j], act, alpha);
      if (col_major) {
        c[(j0 + j) * ldc + (m0 + r)] = v;
      } else {
        c[(m0 + r) * ldc + (j0 + j)] = v;
      }
    }
  }
}

template <std::int64_t MR, std::int64_t NR>
std::uint64_t store_tile_s8(const std::int32_t* tile, std::int8_t* c, std::int64_t ldc,
                            bool col_major, std::int64_t m0, std::int64_t j0, std::int64_t mv,
                            std::int64_t jv, const double* mult, std::int32_t q_lo,
                            std::int32_t q_hi) {
  std::uint64_t saturations = 0;
  for (std::int64_t r = 0; r < mv; ++r) {
    const std::int32_t* row = tile + r * NR;
    const double m_mult = mult[m0 + r];
    for (std::int64_t j = 0; j < jv; ++j) {
      const std::int8_t q =
          requant_clamped(static_cast<double>(row[j]) * m_mult, q_lo, q_hi, saturations);
      if (col_major) {
        c[(j0 + j) * ldc + (m0 + r)] = q;
      } else {
        c[(m0 + r) * ldc + (j0 + j)] = q;
      }
    }
  }
  return saturations;
}

/// Portable f32 tile: the SIMD tiles' panel walk with scalar accumulators.
/// The product and the add are separate statements, so no compiler
/// contracts them into an FMA; each element sees its K products in
/// ascending k order from the bias.
template <std::int64_t MR, std::int64_t NR>
void gemm_f32_scalar(const float* pa, const float* pb, float* c, std::int64_t m, std::int64_t n,
                     std::int64_t k, std::int64_t ldc, bool col_major_store,
                     std::int64_t panel_lo, std::int64_t panel_hi, const float* bias, OpKind act,
                     double alpha) {
  const std::int64_t n_panels = panel_count(n, NR);
  for (std::int64_t p = panel_lo; p < panel_hi; ++p) {
    const std::int64_t m0 = p * MR;
    const std::int64_t mv = std::min<std::int64_t>(MR, m - m0);
    const float* pa_panel = pa + p * MR * k;
    for (std::int64_t q = 0; q < n_panels; ++q) {
      const std::int64_t j0 = q * NR;
      const std::int64_t jv = std::min<std::int64_t>(NR, n - j0);
      const float* pb_panel = pb + q * NR * k;
      float acc[MR * NR];
      for (std::int64_t r = 0; r < MR; ++r) {
        const float init = (bias != nullptr && r < mv) ? bias[m0 + r] : 0.0f;
        for (std::int64_t j = 0; j < NR; ++j) acc[r * NR + j] = init;
      }
      for (std::int64_t kp = 0; kp < k; ++kp) {
        const float* brow = pb_panel + kp * NR;
        const float* arow = pa_panel + kp * MR;
        for (std::int64_t r = 0; r < MR; ++r) {
          const float av = arow[r];
          for (std::int64_t j = 0; j < NR; ++j) {
            const float prod = av * brow[j];
            acc[r * NR + j] += prod;
          }
        }
      }
      store_tile_f32<MR, NR>(acc, c, ldc, col_major_store, m0, j0, mv, jv, act, alpha);
    }
  }
}

/// Portable int8 tile over the int16-pair A words and byte-interleaved B
/// k-pairs: per k pair, lane j gains a[2kp] * b[2kp][j] + a[2kp+1] *
/// b[2kp+1][j] in exact int32 — the arithmetic of one madd_epi16 step.
template <std::int64_t MR, std::int64_t NR>
std::uint64_t gemm_s8_scalar(const std::int32_t* pa, const std::int8_t* pb, std::int8_t* c,
                             std::int64_t m, std::int64_t n, std::int64_t k, std::int64_t ldc,
                             bool col_major_store, std::int64_t panel_lo, std::int64_t panel_hi,
                             const std::int32_t* bias, const double* mult, std::int32_t q_lo,
                             std::int32_t q_hi) {
  const std::int64_t n_panels = panel_count(n, NR);
  const std::int64_t k_pairs = (k + 1) / 2;
  std::uint64_t saturations = 0;
  for (std::int64_t p = panel_lo; p < panel_hi; ++p) {
    const std::int64_t m0 = p * MR;
    const std::int64_t mv = std::min<std::int64_t>(MR, m - m0);
    const std::int32_t* pa_panel = pa + p * MR * k_pairs;
    for (std::int64_t q = 0; q < n_panels; ++q) {
      const std::int64_t j0 = q * NR;
      const std::int64_t jv = std::min<std::int64_t>(NR, n - j0);
      const std::int8_t* pb_panel = pb + q * NR * 2 * k_pairs;
      std::int32_t acc[MR * NR];
      for (std::int64_t r = 0; r < MR; ++r) {
        const std::int32_t init = (bias != nullptr && r < mv) ? bias[m0 + r] : 0;
        for (std::int64_t j = 0; j < NR; ++j) acc[r * NR + j] = init;
      }
      for (std::int64_t kp = 0; kp < k_pairs; ++kp) {
        // Widen the k pair's interleaved bytes once for all MR rows.
        const std::int8_t* bpair = pb_panel + kp * NR * 2;
        std::int16_t bw[2 * NR];
        for (std::int64_t j = 0; j < 2 * NR; ++j) bw[j] = bpair[j];
        const std::int32_t* arow = pa_panel + kp * MR;
        for (std::int64_t r = 0; r < MR; ++r) {
          const auto word = static_cast<std::uint32_t>(arow[r]);
          const auto a0 = static_cast<std::int16_t>(word & 0xFFFFu);
          const auto a1 = static_cast<std::int16_t>(word >> 16);
          for (std::int64_t j = 0; j < NR; ++j) {
            acc[r * NR + j] += a0 * bw[2 * j] + a1 * bw[2 * j + 1];
          }
        }
      }
      saturations += store_tile_s8<MR, NR>(acc, c, ldc, col_major_store, m0, j0, mv, jv, mult,
                                           q_lo, q_hi);
    }
  }
  return saturations;
}

#if defined(VEDLIOT_HAVE_X86)

/// Requantize one full row-major row of 16 int32 accumulators: the vector
/// form of requant_clamped, lane for lane. The double product is the scalar
/// one, round_pd in the current rounding mode is nearbyint, lanes beyond
/// [-128, 127] are counted before the clamp, and clamping to the fused
/// window inside [-128, 127] equals clamping twice.
VEDLIOT_TARGET_AVX2 inline std::uint64_t store_row16(__m256i lo, __m256i hi, double mult,
                                                     std::int32_t q_lo, std::int32_t q_hi,
                                                     std::int8_t* dst) {
  const __m256d vmult = _mm256_set1_pd(mult);
  const __m256d top = _mm256_set1_pd(127.0), bottom = _mm256_set1_pd(-128.0);
  const __m256d win_lo = _mm256_set1_pd(std::max(q_lo, -128));
  const __m256d win_hi = _mm256_set1_pd(std::min(q_hi, 127));
  const __m128i parts[4] = {_mm256_castsi256_si128(lo), _mm256_extracti128_si256(lo, 1),
                            _mm256_castsi256_si128(hi), _mm256_extracti128_si256(hi, 1)};
  __m128i q[4];
  std::uint64_t saturations = 0;
  for (int i = 0; i < 4; ++i) {
    const __m256d r = _mm256_round_pd(_mm256_mul_pd(_mm256_cvtepi32_pd(parts[i]), vmult),
                                      _MM_FROUND_CUR_DIRECTION);
    const __m256d out = _mm256_or_pd(_mm256_cmp_pd(r, top, _CMP_GT_OQ),
                                     _mm256_cmp_pd(r, bottom, _CMP_LT_OQ));
    saturations += static_cast<unsigned>(
        std::popcount(static_cast<unsigned>(_mm256_movemask_pd(out))));
    q[i] = _mm256_cvtpd_epi32(_mm256_min_pd(_mm256_max_pd(r, win_lo), win_hi));
  }
  const __m128i bytes =
      _mm_packs_epi16(_mm_packs_epi32(q[0], q[1]), _mm_packs_epi32(q[2], q[3]));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), bytes);
  return saturations;
}

/// Epilogue of the x86 int8 tiles (MR x 16 accumulators in ymm pairs):
/// full row-major rows go through store_row16, column tails and the
/// col-major Dense store through the scalar store_tile_s8.
template <std::int64_t MR>
VEDLIOT_TARGET_AVX2 __attribute__((always_inline)) inline std::uint64_t store_acc_s8(
    const __m256i (&acc)[MR][2], std::int8_t* c, std::int64_t ldc, bool col_major,
    std::int64_t m0, std::int64_t j0, std::int64_t mv, std::int64_t jv, const double* mult,
    std::int32_t q_lo, std::int32_t q_hi) {
  if (!col_major && jv == 16) {
    std::uint64_t saturations = 0;
#pragma GCC unroll 8
    for (std::int64_t r = 0; r < MR; ++r) {
      if (r >= mv) break;
      saturations += store_row16(acc[r][0], acc[r][1], mult[m0 + r], q_lo, q_hi,
                                 c + (m0 + r) * ldc + j0);
    }
    return saturations;
  }
  alignas(32) std::int32_t tile[MR * 16];
#pragma GCC unroll 8
  for (std::int64_t r = 0; r < MR; ++r) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(tile + r * 16), acc[r][0]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(tile + r * 16 + 8), acc[r][1]);
  }
  return store_tile_s8<MR, 16>(tile, c, ldc, col_major, m0, j0, mv, jv, mult, q_lo, q_hi);
}

VEDLIOT_TARGET_AVX2 void gemm_f32_avx2(const float* pa, const float* pb, float* c,
                                       std::int64_t m, std::int64_t n, std::int64_t k,
                                       std::int64_t ldc, bool col_major_store,
                                       std::int64_t panel_lo, std::int64_t panel_hi,
                                       const float* bias, OpKind act, double alpha) {
  constexpr std::int64_t MR = 6, NR = 16;
  const std::int64_t n_panels = panel_count(n, NR);
  for (std::int64_t p = panel_lo; p < panel_hi; ++p) {
    const std::int64_t m0 = p * MR;
    const std::int64_t mv = std::min<std::int64_t>(MR, m - m0);
    const float* pa_panel = pa + p * MR * k;
    for (std::int64_t q = 0; q < n_panels; ++q) {
      const std::int64_t j0 = q * NR;
      const std::int64_t jv = std::min<std::int64_t>(NR, n - j0);
      const float* pb_panel = pb + q * NR * k;

      // Accumulator tile starts at the bias (zero for padded rows), then
      // adds the K products in ascending k — the scalar reference order.
      __m256 acc[MR][2];
#pragma GCC unroll 8
      for (std::int64_t r = 0; r < MR; ++r) {
        const float init = (bias != nullptr && r < mv) ? bias[m0 + r] : 0.0f;
        acc[r][0] = _mm256_set1_ps(init);
        acc[r][1] = _mm256_set1_ps(init);
      }
      for (std::int64_t kp = 0; kp < k; ++kp) {
        const __m256 b0 = _mm256_loadu_ps(pb_panel + kp * NR);
        const __m256 b1 = _mm256_loadu_ps(pb_panel + kp * NR + 8);
        const float* arow = pa_panel + kp * MR;
#pragma GCC unroll 8
        for (std::int64_t r = 0; r < MR; ++r) {
          const __m256 av = _mm256_broadcast_ss(arow + r);
          acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
          acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
        }
      }
      alignas(32) float tile[MR * NR];
#pragma GCC unroll 8
      for (std::int64_t r = 0; r < MR; ++r) {
        _mm256_store_ps(tile + r * NR, acc[r][0]);
        _mm256_store_ps(tile + r * NR + 8, acc[r][1]);
      }
      store_tile_f32<MR, NR>(tile, c, ldc, col_major_store, m0, j0, mv, jv, act, alpha);
    }
  }
}

VEDLIOT_TARGET_AVX2 std::uint64_t gemm_s8_avx2(const std::int32_t* pa, const std::int8_t* pb,
                                               std::int8_t* c, std::int64_t m, std::int64_t n,
                                               std::int64_t k, std::int64_t ldc,
                                               bool col_major_store, std::int64_t panel_lo,
                                               std::int64_t panel_hi, const std::int32_t* bias,
                                               const double* mult, std::int32_t q_lo,
                                               std::int32_t q_hi) {
  constexpr std::int64_t MR = 4, NR = 16;
  const std::int64_t n_panels = panel_count(n, NR);
  const std::int64_t k_pairs = (k + 1) / 2;
  std::uint64_t saturations = 0;
  for (std::int64_t p = panel_lo; p < panel_hi; ++p) {
    const std::int64_t m0 = p * MR;
    const std::int64_t mv = std::min<std::int64_t>(MR, m - m0);
    const std::int32_t* pa_panel = pa + p * MR * k_pairs;
    for (std::int64_t q = 0; q < n_panels; ++q) {
      const std::int64_t j0 = q * NR;
      const std::int64_t jv = std::min<std::int64_t>(NR, n - j0);
      const std::int8_t* pb_panel = pb + q * NR * 2 * k_pairs;

      __m256i acc[MR][2];
#pragma GCC unroll 8
      for (std::int64_t r = 0; r < MR; ++r) {
        const std::int32_t init = (bias != nullptr && r < mv) ? bias[m0 + r] : 0;
        acc[r][0] = _mm256_set1_epi32(init);
        acc[r][1] = _mm256_set1_epi32(init);
      }
      // madd_epi16 on sign-extended bytes: each int32 lane j gains
      // a[2kp] * b[2kp][j] + a[2kp+1] * b[2kp+1][j] — two exact k steps.
      for (std::int64_t kp = 0; kp < k_pairs; ++kp) {
        const __m256i braw =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb_panel + kp * 32));
        const __m256i blo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(braw));
        const __m256i bhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(braw, 1));
        const std::int32_t* arow = pa_panel + kp * MR;
#pragma GCC unroll 8
        for (std::int64_t r = 0; r < MR; ++r) {
          const __m256i av = _mm256_set1_epi32(arow[r]);
          acc[r][0] = _mm256_add_epi32(acc[r][0], _mm256_madd_epi16(av, blo));
          acc[r][1] = _mm256_add_epi32(acc[r][1], _mm256_madd_epi16(av, bhi));
        }
      }
      saturations += store_acc_s8<MR>(acc, c, ldc, col_major_store, m0, j0, mv, jv, mult, q_lo,
                                      q_hi);
    }
  }
  return saturations;
}

/// AVX-VNNI int8 tile over k-quads: vpdpbusd multiplies each u8 byte of B
/// (b + 128) with the matching s8 weight and adds the four products of a
/// quad to the int32 lane. Accumulators start at bias − 128·Σ_k a[r][k]
/// (the correction words after the panels), so the sum is bias + Σ a·b.
VEDLIOT_TARGET_AVXVNNI std::uint64_t gemm_s8_avxvnni(
    const std::int32_t* pa, const std::int8_t* pb, std::int8_t* c, std::int64_t m,
    std::int64_t n, std::int64_t k, std::int64_t ldc, bool col_major_store,
    std::int64_t panel_lo, std::int64_t panel_hi, const std::int32_t* bias, const double* mult,
    std::int32_t q_lo, std::int32_t q_hi) {
  constexpr std::int64_t MR = 6, NR = 16;
  const std::int64_t n_panels = panel_count(n, NR);
  const std::int64_t k_quads = (k + 3) / 4;
  const std::int32_t* corr = pa + panel_count(m, MR) * MR * k_quads;
  std::uint64_t saturations = 0;
  for (std::int64_t p = panel_lo; p < panel_hi; ++p) {
    const std::int64_t m0 = p * MR;
    const std::int64_t mv = std::min<std::int64_t>(MR, m - m0);
    const std::int32_t* pa_panel = pa + p * MR * k_quads;
    for (std::int64_t q = 0; q < n_panels; ++q) {
      const std::int64_t j0 = q * NR;
      const std::int64_t jv = std::min<std::int64_t>(NR, n - j0);
      const std::int8_t* pb_panel = pb + q * NR * 4 * k_quads;

      __m256i acc[MR][2];
#pragma GCC unroll 8
      for (std::int64_t r = 0; r < MR; ++r) {
        // Wrapping int32 subtraction: the final sum is exact modulo 2^32.
        const std::uint32_t start = (bias != nullptr && r < mv) ? bias[m0 + r] : 0;
        const auto init = static_cast<std::int32_t>(start - std::uint32_t(corr[m0 + r]));
        acc[r][0] = _mm256_set1_epi32(init);
        acc[r][1] = _mm256_set1_epi32(init);
      }
      for (std::int64_t kq = 0; kq < k_quads; ++kq) {
        const __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb_panel + kq * 64));
        const __m256i b1 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb_panel + kq * 64 + 32));
        const std::int32_t* arow = pa_panel + kq * MR;
#pragma GCC unroll 8
        for (std::int64_t r = 0; r < MR; ++r) {
          const __m256i av = _mm256_set1_epi32(arow[r]);
          acc[r][0] = _mm256_dpbusd_avx_epi32(acc[r][0], b0, av);
          acc[r][1] = _mm256_dpbusd_avx_epi32(acc[r][1], b1, av);
        }
      }
      saturations += store_acc_s8<MR>(acc, c, ldc, col_major_store, m0, j0, mv, jv, mult, q_lo,
                                      q_hi);
    }
  }
  return saturations;
}

/// Interleave 16 columns of kgroup (2 or 4) int8 rows into kgroup-byte
/// column runs, XORed with \p flip: SSE2 byte then word unpacks.
inline void interleave16(const std::int8_t* const* rows, std::int64_t kgroup, __m128i flip,
                         std::int8_t* out) {
  const auto row = [&](int i) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows[i]));
  };
  const __m128i lo01 = _mm_unpacklo_epi8(row(0), row(1)), hi01 = _mm_unpackhi_epi8(row(0), row(1));
  __m128i v[4] = {lo01, hi01, lo01, hi01};
  if (kgroup == 4) {
    const __m128i lo23 = _mm_unpacklo_epi8(row(2), row(3));
    const __m128i hi23 = _mm_unpackhi_epi8(row(2), row(3));
    v[0] = _mm_unpacklo_epi16(lo01, lo23);
    v[1] = _mm_unpackhi_epi16(lo01, lo23);
    v[2] = _mm_unpacklo_epi16(hi01, hi23);
    v[3] = _mm_unpackhi_epi16(hi01, hi23);
  }
  for (std::int64_t i = 0; i < kgroup; ++i) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16 * i), _mm_xor_si128(v[i], flip));
  }
}

#endif  // VEDLIOT_HAVE_X86

#if defined(VEDLIOT_HAVE_NEON)

void gemm_f32_neon(const float* pa, const float* pb, float* c, std::int64_t m, std::int64_t n,
                   std::int64_t k, std::int64_t ldc, bool col_major_store,
                   std::int64_t panel_lo, std::int64_t panel_hi, const float* bias, OpKind act,
                   double alpha) {
  constexpr std::int64_t MR = 4, NR = 8;
  const std::int64_t n_panels = panel_count(n, NR);
  for (std::int64_t p = panel_lo; p < panel_hi; ++p) {
    const std::int64_t m0 = p * MR;
    const std::int64_t mv = std::min<std::int64_t>(MR, m - m0);
    const float* pa_panel = pa + p * MR * k;
    for (std::int64_t q = 0; q < n_panels; ++q) {
      const std::int64_t j0 = q * NR;
      const std::int64_t jv = std::min<std::int64_t>(NR, n - j0);
      const float* pb_panel = pb + q * NR * k;
      float32x4_t acc[MR][2];
      for (std::int64_t r = 0; r < MR; ++r) {
        const float init = (bias != nullptr && r < mv) ? bias[m0 + r] : 0.0f;
        acc[r][0] = vdupq_n_f32(init);
        acc[r][1] = vdupq_n_f32(init);
      }
      for (std::int64_t kp = 0; kp < k; ++kp) {
        const float32x4_t b0 = vld1q_f32(pb_panel + kp * NR);
        const float32x4_t b1 = vld1q_f32(pb_panel + kp * NR + 4);
        const float* arow = pa_panel + kp * MR;
        for (std::int64_t r = 0; r < MR; ++r) {
          const float32x4_t av = vdupq_n_f32(arow[r]);
          acc[r][0] = vfmaq_f32(acc[r][0], av, b0);
          acc[r][1] = vfmaq_f32(acc[r][1], av, b1);
        }
      }
      float tile[MR * NR];
      for (std::int64_t r = 0; r < MR; ++r) {
        vst1q_f32(tile + r * NR, acc[r][0]);
        vst1q_f32(tile + r * NR + 4, acc[r][1]);
      }
      store_tile_f32<MR, NR>(tile, c, ldc, col_major_store, m0, j0, mv, jv, act, alpha);
    }
  }
}

#endif  // VEDLIOT_HAVE_NEON

}  // namespace

std::size_t packed_a_f32_elems(std::int64_t m, std::int64_t k, const MicrokernelTile& t) {
  return static_cast<std::size_t>(panel_count(m, t.mr) * t.mr * k);
}

std::size_t packed_b_f32_elems(std::int64_t k, std::int64_t n, const MicrokernelTile& t) {
  return static_cast<std::size_t>(panel_count(n, t.nr) * t.nr * k);
}

std::size_t packed_a_s8_words(std::int64_t m, std::int64_t k, const MicrokernelTile& t) {
  const std::int64_t corr_words = t.kgroup == 4 ? 1 : 0;
  return static_cast<std::size_t>(panel_count(m, t.mr) * t.mr * (k_groups(k, t) + corr_words));
}

std::size_t packed_b_s8_bytes(std::int64_t k, std::int64_t n, const MicrokernelTile& t) {
  return static_cast<std::size_t>(panel_count(n, t.nr) * t.nr * t.kgroup * k_groups(k, t));
}

void pack_a_f32(const float* a, std::int64_t m, std::int64_t k, const MicrokernelTile& t,
                float* packed) {
  const std::int64_t mr = t.mr;
  const std::int64_t m_panels = panel_count(m, mr);
  for (std::int64_t p = 0; p < m_panels; ++p) {
    float* dst = packed + p * mr * k;
    for (std::int64_t kp = 0; kp < k; ++kp) {
      for (std::int64_t r = 0; r < mr; ++r) {
        const std::int64_t row = p * mr + r;
        dst[kp * mr + r] = row < m ? a[row * k + kp] : 0.0f;
      }
    }
  }
}

void pack_b_f32(const float* b, std::int64_t k, std::int64_t n, const MicrokernelTile& t,
                std::int64_t panel_lo, std::int64_t panel_hi, float* packed) {
  const std::int64_t nr = t.nr;
  for (std::int64_t q = panel_lo; q < panel_hi; ++q) {
    float* dst = packed + q * nr * k;
    const std::int64_t j0 = q * nr;
    const std::int64_t jv = std::min<std::int64_t>(nr, n - j0);
    for (std::int64_t kp = 0; kp < k; ++kp) {
      const float* src = b + kp * n + j0;
      float* row = dst + kp * nr;
      std::memcpy(row, src, static_cast<std::size_t>(jv) * sizeof(float));
      for (std::int64_t j = jv; j < nr; ++j) row[j] = 0.0f;
    }
  }
}

void pack_a_s8(const std::int8_t* a, std::int64_t m, std::int64_t k, const MicrokernelTile& t,
               std::int32_t* packed) {
  const std::int64_t mr = t.mr, kg = t.kgroup;
  const std::int64_t rows = panel_count(m, mr) * mr;
  const std::int64_t groups = k_groups(k, t);
  const std::uint32_t lane_bits = 32 / static_cast<std::uint32_t>(kg);
  const std::uint32_t lane_mask = (1u << lane_bits) - 1;
  for (std::int64_t row = 0; row < rows; ++row) {
    std::int32_t* dst = packed + (row / mr) * mr * groups + row % mr;
    for (std::int64_t g = 0; g < groups; ++g) {
      std::uint32_t w = 0;
      for (std::int64_t i = 0; i < kg && row < m && g * kg + i < k; ++i) {
        const auto v = static_cast<std::uint32_t>(std::int32_t{a[row * k + g * kg + i]});
        w |= (v & lane_mask) << (static_cast<std::uint32_t>(i) * lane_bits);
      }
      dst[g * mr] = static_cast<std::int32_t>(w);
    }
  }
  if (kg != 4) return;
  std::int32_t* corr = packed + rows * groups;
  for (std::int64_t row = 0; row < rows; ++row) {
    std::int32_t sum = 0;
    for (std::int64_t kp = 0; row < m && kp < k; ++kp) sum += a[row * k + kp];
    corr[row] = 128 * sum;
  }
}

void pack_b_s8(const std::int8_t* b, std::int64_t k, std::int64_t n, const MicrokernelTile& t,
               std::int64_t panel_lo, std::int64_t panel_hi, std::int8_t* packed) {
  const std::int64_t nr = t.nr, kg = t.kgroup;
  const std::int64_t groups = k_groups(k, t);
  const std::uint8_t flip = kg == 4 ? 0x80 : 0;  // quads: u8 b + 128
  for (std::int64_t q = panel_lo; q < panel_hi; ++q) {
    const std::int64_t j0 = q * nr;
    const std::int64_t jv = std::min<std::int64_t>(nr, n - j0);
    for (std::int64_t g = 0; g < groups; ++g) {
      std::int8_t* out = packed + (q * groups + g) * nr * kg;
      const std::int8_t* rows[4] = {};
      for (std::int64_t i = 0; i < kg; ++i) {
        if (g * kg + i < k) rows[i] = b + (g * kg + i) * n + j0;
      }
#if defined(VEDLIOT_HAVE_X86)
      if (jv == nr && nr % 16 == 0 && (g + 1) * kg <= k) {
        for (std::int64_t c = 0; c < nr; c += 16) {
          const std::int8_t* chunk[4] = {rows[0] + c, rows[1] + c, rows[kg - 2] + c,
                                         rows[kg - 1] + c};
          interleave16(chunk, kg, _mm_set1_epi8(static_cast<char>(flip)), out + c * kg);
        }
        continue;
      }
#endif
      for (std::int64_t j = 0; j < nr; ++j) {
        for (std::int64_t i = 0; i < kg; ++i) {
          const std::int8_t v = (j < jv && rows[i] != nullptr) ? rows[i][j] : std::int8_t{0};
          out[j * kg + i] = static_cast<std::int8_t>(static_cast<std::uint8_t>(v) ^ flip);
        }
      }
    }
  }
}

const GemmMicrokernels& gemm_microkernels(util::SimdLevel resolved) {
  static const GemmMicrokernels portable{
      util::SimdLevel::kPortable, kPortableF32, kPortableS8,
      &gemm_f32_scalar<kPortableF32.mr, kPortableF32.nr>,
      &gemm_s8_scalar<kPortableS8.mr, kPortableS8.nr>};
#if defined(VEDLIOT_HAVE_X86)
  static const GemmMicrokernels avx2{util::SimdLevel::kAvx2, kAvx2F32, kAvx2S8, &gemm_f32_avx2,
                                     &gemm_s8_avx2};
  static const GemmMicrokernels avxvnni{util::SimdLevel::kAvxVnni, kAvx2F32, kAvxVnniS8,
                                        &gemm_f32_avx2, &gemm_s8_avxvnni};
  if (resolved == util::SimdLevel::kAvx2 && util::simd_supported(util::SimdLevel::kAvx2)) {
    return avx2;
  }
  if (resolved == util::SimdLevel::kAvxVnni && util::simd_supported(util::SimdLevel::kAvxVnni)) {
    return avxvnni;
  }
#endif
#if defined(VEDLIOT_HAVE_NEON)
  static const GemmMicrokernels neon{util::SimdLevel::kNeon, kNeonF32, kPortableS8,
                                     &gemm_f32_neon, portable.gemm_s8};
  if (resolved == util::SimdLevel::kNeon) return neon;
#endif
  (void)resolved;
  return portable;
}

// ---------------------------------------------------------------------------
// Peak probes: time a register-resident multiply-add chain long enough to
// amortize the clock, and report the achieved rate as the compute roof.
// The probe uses the same instruction the microkernel's inner loop leans on
// (FMA / madd_epi16 / vpdpbusd), so "fraction of roofline" compares like
// with like.

namespace {

// Twelve independent accumulator chains, the 6x16 tiles' accumulator count:
// c_i starts at INIT(i + 1), takes c_i = STEP(c_i) every iteration, and the
// chains are summed with ADD (the data dependence defeats dead-code
// elimination). Every chain must stay in a register: a chain through the
// stack times store-to-load forwarding instead of the instruction. An
// array of vectors is not reliably promoted to registers, and even named
// variables get spilled by GCC at -O2, so an empty asm takes all twelve in
// vector registers once per iteration.
#if defined(VEDLIOT_HAVE_X86)
#define VEDLIOT_VREG "+x"
#else
#define VEDLIOT_VREG "+w"  // aarch64 SIMD register
#endif
#define VEDLIOT_TWELVE_CHAINS(V, INIT, STEP, ADD)                                            \
  V c0 = INIT(1), c1 = INIT(2), c2 = INIT(3), c3 = INIT(4), c4 = INIT(5), c5 = INIT(6);       \
  V c6 = INIT(7), c7 = INIT(8), c8 = INIT(9), c9 = INIT(10), c10 = INIT(11), c11 = INIT(12);  \
  for (std::int64_t it = 0; it < iters; ++it) {                                              \
    c0 = STEP(c0), c1 = STEP(c1), c2 = STEP(c2), c3 = STEP(c3), c4 = STEP(c4), c5 = STEP(c5); \
    c6 = STEP(c6), c7 = STEP(c7), c8 = STEP(c8), c9 = STEP(c9), c10 = STEP(c10);             \
    c11 = STEP(c11);                                                                         \
    asm("" : VEDLIOT_VREG(c0), VEDLIOT_VREG(c1), VEDLIOT_VREG(c2), VEDLIOT_VREG(c3),          \
        VEDLIOT_VREG(c4), VEDLIOT_VREG(c5), VEDLIOT_VREG(c6), VEDLIOT_VREG(c7),               \
        VEDLIOT_VREG(c8), VEDLIOT_VREG(c9), VEDLIOT_VREG(c10), VEDLIOT_VREG(c11));            \
  }                                                                                          \
  const V sum = ADD(ADD(ADD(ADD(c0, c1), ADD(c2, c3)), ADD(ADD(c4, c5), ADD(c6, c7))),       \
                    ADD(ADD(c8, c9), ADD(c10, c11)))

#if defined(VEDLIOT_HAVE_X86)

VEDLIOT_TARGET_AVX2 inline __m256 fma_step(__m256 c) {
  return _mm256_fmadd_ps(c, _mm256_set1_ps(0.999999f), _mm256_set1_ps(1e-7f));
}

/// madd + add, as the AVX2 int8 tile: the madd reads its own chain, so it
/// cannot be hoisted out of the loop as a loop-invariant product.
VEDLIOT_TARGET_AVX2 inline __m256i madd_step(__m256i c) {
  return _mm256_add_epi32(c, _mm256_madd_epi16(c, _mm256_set1_epi16(5)));
}

VEDLIOT_TARGET_AVXVNNI inline __m256i dpbusd_step(__m256i c) {
  return _mm256_dpbusd_avx_epi32(c, _mm256_set1_epi8(3), _mm256_set1_epi8(-5));
}

VEDLIOT_TARGET_AVX2 double probe_f32_avx2(std::int64_t iters) {
  VEDLIOT_TWELVE_CHAINS(__m256, _mm256_set1_ps, fma_step, _mm256_add_ps);
  return static_cast<double>(_mm256_cvtss_f32(sum));
}

VEDLIOT_TARGET_AVX2 double probe_s8_avx2(std::int64_t iters) {
  VEDLIOT_TWELVE_CHAINS(__m256i, _mm256_set1_epi32, madd_step, _mm256_add_epi32);
  return static_cast<double>(_mm256_cvtsi256_si32(sum));
}

VEDLIOT_TARGET_AVXVNNI double probe_s8_avxvnni(std::int64_t iters) {
  VEDLIOT_TWELVE_CHAINS(__m256i, _mm256_set1_epi32, dpbusd_step, _mm256_add_epi32);
  return static_cast<double>(_mm256_cvtsi256_si32(sum));
}

#endif  // VEDLIOT_HAVE_X86

// Portable probes: 4-lane vectors of the baseline target, with a separate
// multiply and add per step as in the portable tiles (unsigned int8-path
// chains, so wraparound is defined).
using F32x4 = float __attribute__((vector_size(16)));
using U32x4 = std::uint32_t __attribute__((vector_size(16)));
F32x4 f32x4_of(int i) { return F32x4{} + (0.5f + 0.01f * static_cast<float>(i)); }
U32x4 u32x4_of(int i) { return U32x4{} + static_cast<std::uint32_t>(i); }
F32x4 mul_add(F32x4 c) { return c * 0.999999f + 1e-7f; }
U32x4 mul_add(U32x4 c) { return c * 3u + 7u; }
template <typename V>
V add(V a, V b) { return a + b; }

double probe_f32_portable(std::int64_t iters) {
  VEDLIOT_TWELVE_CHAINS(F32x4, f32x4_of, mul_add, add);
  return static_cast<double>(sum[0]);
}

double probe_s8_portable(std::int64_t iters) {
  VEDLIOT_TWELVE_CHAINS(U32x4, u32x4_of, mul_add, add);
  return static_cast<double>(sum[0]);
}

#undef VEDLIOT_TWELVE_CHAINS
#undef VEDLIOT_VREG

/// Iterations per second of \p fn: double the iteration count until one
/// run spans a quarter of \p min_seconds, then keep the best rate of four
/// such runs. A single timed run set a roof far too low whenever the host
/// stalled the thread inside it, which on a shared host happened to about
/// one probe in ten.
template <typename Fn>
double iters_per_second(Fn fn, double min_seconds) {
  volatile double sink = 0;
  double best = 0;
  int long_runs = 0;
  for (std::int64_t iters = 1 << 16; long_runs < 4 && iters < (std::int64_t{1} << 40);) {
    const auto t0 = std::chrono::steady_clock::now();
    sink = fn(iters);
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (s < min_seconds / 4) {
      iters *= 2;
    } else {
      best = std::max(best, static_cast<double>(iters) / s);
      ++long_runs;
    }
  }
  (void)sink;  // the volatile store keeps each probe's result, so the chains, alive
  return best;
}

}  // namespace

double peak_probe_f32(util::SimdLevel resolved, double min_seconds) {
#if defined(VEDLIOT_HAVE_X86)
  // AVX-VNNI carries the AVX2 f32 tile, so it has the AVX2 f32 roof.
  if ((resolved == util::SimdLevel::kAvx2 || resolved == util::SimdLevel::kAvxVnni) &&
      util::simd_supported(resolved)) {
    // 12 chains x 8 lanes x 2 flops per FMA per iteration.
    return iters_per_second(&probe_f32_avx2, min_seconds) * 12.0 * 8.0 * 2.0 / 1e9;
  }
#endif
  (void)resolved;
  // 12 chains x 4 lanes x 2 flops per multiply-add per iteration.
  return iters_per_second(&probe_f32_portable, min_seconds) * 12.0 * 4.0 * 2.0 / 1e9;
}

double peak_probe_s8(util::SimdLevel resolved, double min_seconds) {
#if defined(VEDLIOT_HAVE_X86)
  if (resolved == util::SimdLevel::kAvxVnni && util::simd_supported(resolved)) {
    // 12 chains x 32 MACs per vpdpbusd x 2 ops per MAC.
    return iters_per_second(&probe_s8_avxvnni, min_seconds) * 12.0 * 32.0 * 2.0 / 1e9;
  }
  if (resolved == util::SimdLevel::kAvx2 && util::simd_supported(resolved)) {
    // 12 chains x 16 MACs per madd+add x 2 ops per MAC.
    return iters_per_second(&probe_s8_avx2, min_seconds) * 12.0 * 16.0 * 2.0 / 1e9;
  }
#endif
  (void)resolved;
  // 12 chains x 4 lanes x 2 ops per multiply-add per iteration.
  return iters_per_second(&probe_s8_portable, min_seconds) * 12.0 * 4.0 * 2.0 / 1e9;
}

}  // namespace vedliot::runtime_kernels
