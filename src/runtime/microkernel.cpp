#include "runtime/microkernel.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <vector>

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

/// Output-map offsets of tile columns j0 .. j0 + jv − 1, walked with
/// counters (no division per column). Returns true, with only col[0] set,
/// when the tile lies inside one segment at unit column stride, so its
/// rows store contiguously.
bool tile_columns(const OutputMap& out, std::int64_t j0, std::int64_t jv, std::int64_t* col) {
  std::int64_t seg = j0 / out.seg, i = j0 % out.seg;
  col[0] = seg * out.seg_stride + i * out.col_stride;
  if (out.col_stride == 1 && i + jv <= out.seg) return true;
  for (std::int64_t j = 1; j < jv; ++j) {
    if (++i == out.seg) i = 0, ++seg;
    col[j] = seg * out.seg_stride + i * out.col_stride;
  }
  return false;
}

/// Store the valid region of one f32 accumulator tile, applying the fused
/// activation scalar-wise — shared across levels so SIMD and portable
/// epilogues are the same math on every lane.
template <std::int64_t MR, std::int64_t NR>
void store_tile_f32(const float* tile, float* c, const OutputMap& out, std::int64_t m0,
                    std::int64_t j0, std::int64_t mv, std::int64_t jv, OpKind act,
                    double alpha) {
  const auto value = [&](float v) {
    return act == OpKind::kIdentity ? v : apply_activation(v, act, alpha);
  };
  std::int64_t col[NR];
  const bool run = tile_columns(out, j0, jv, col);
  for (std::int64_t r = 0; r < mv; ++r) {
    const float* row = tile + r * NR;
    float* crow = c + (m0 + r) * out.row_stride;
    if (run) {
      for (std::int64_t j = 0; j < jv; ++j) crow[col[0] + j] = value(row[j]);
    } else {
      for (std::int64_t j = 0; j < jv; ++j) crow[col[j]] = value(row[j]);
    }
  }
}

template <std::int64_t MR, std::int64_t NR>
std::uint64_t store_tile_s8(const std::int32_t* tile, std::int8_t* c, const OutputMap& out,
                            std::int64_t m0, std::int64_t j0, std::int64_t mv, std::int64_t jv,
                            const double* mult, std::int32_t q_lo, std::int32_t q_hi) {
  std::uint64_t saturations = 0;
  std::int64_t col[NR];
  const bool run = tile_columns(out, j0, jv, col);
  for (std::int64_t r = 0; r < mv; ++r) {
    const std::int32_t* row = tile + r * NR;
    std::int8_t* crow = c + (m0 + r) * out.row_stride;
    const double m_mult = mult[m0 + r];
    for (std::int64_t j = 0; j < jv; ++j) {
      const std::int8_t q =
          requant_clamped(static_cast<double>(row[j]) * m_mult, q_lo, q_hi, saturations);
      crow[run ? col[0] + j : col[j]] = q;
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
                     std::int64_t k, const OutputMap& out, std::int64_t panel_lo,
                     std::int64_t panel_hi, const float* bias, OpKind act, double alpha) {
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
      store_tile_f32<MR, NR>(acc, c, out, m0, j0, mv, jv, act, alpha);
    }
  }
}

/// Portable int8 tile over the int16-pair A words and byte-interleaved B
/// k-pairs: per k pair, lane j gains a[2kp] * b[2kp][j] + a[2kp+1] *
/// b[2kp+1][j] in exact int32 — the arithmetic of one madd_epi16 step.
template <std::int64_t MR, std::int64_t NR>
std::uint64_t gemm_s8_scalar(const std::int32_t* pa, const std::int8_t* pb, std::int8_t* c,
                             std::int64_t m, std::int64_t n, std::int64_t k,
                             const OutputMap& out, std::int64_t panel_lo, std::int64_t panel_hi,
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
      saturations += store_tile_s8<MR, NR>(acc, c, out, m0, j0, mv, jv, mult, q_lo, q_hi);
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

/// Epilogue of the x86 int8 tiles (MR x 16 accumulators in ymm pairs): a
/// full tile inside one output segment with unit column stride stores its
/// rows through store_row16; column tails, tiles that cross a segment
/// (sample) boundary and strided maps take the scalar store_tile_s8.
template <std::int64_t MR>
VEDLIOT_TARGET_AVX2 __attribute__((always_inline)) inline std::uint64_t store_acc_s8(
    const __m256i (&acc)[MR][2], std::int8_t* c, const OutputMap& out, std::int64_t m0,
    std::int64_t j0, std::int64_t mv, std::int64_t jv, const double* mult, std::int32_t q_lo,
    std::int32_t q_hi) {
  std::int64_t col[16];
  if (jv == 16 && tile_columns(out, j0, jv, col)) {
    std::int8_t* base = c + col[0];
    std::uint64_t saturations = 0;
#pragma GCC unroll 8
    for (std::int64_t r = 0; r < MR; ++r) {
      if (r >= mv) break;
      saturations += store_row16(acc[r][0], acc[r][1], mult[m0 + r], q_lo, q_hi,
                                 base + (m0 + r) * out.row_stride);
    }
    return saturations;
  }
  alignas(32) std::int32_t tile[MR * 16];
#pragma GCC unroll 8
  for (std::int64_t r = 0; r < MR; ++r) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(tile + r * 16), acc[r][0]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(tile + r * 16 + 8), acc[r][1]);
  }
  _mm256_zeroupper();  // baseline scalar epilogue next, as in gemm_f32_avx2
  return store_tile_s8<MR, 16>(tile, c, out, m0, j0, mv, jv, mult, q_lo, q_hi);
}

VEDLIOT_TARGET_AVX2 void gemm_f32_avx2(const float* pa, const float* pb, float* c,
                                       std::int64_t m, std::int64_t n, std::int64_t k,
                                       const OutputMap& out, std::int64_t panel_lo,
                                       std::int64_t panel_hi, const float* bias, OpKind act,
                                       double alpha) {
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
      // The scalar epilogue is baseline (SSE) code that calls out per
      // element: clean the upper ymm state first rather than rely on the
      // compiler placing vzeroupper, or every SSE instruction there pays
      // the dirty-upper penalty (an f32 conv with a fused Relu ran 100x
      // slower when GCC left it out).
      _mm256_zeroupper();
      store_tile_f32<MR, NR>(tile, c, out, m0, j0, mv, jv, act, alpha);
    }
  }
}

VEDLIOT_TARGET_AVX2 std::uint64_t gemm_s8_avx2(const std::int32_t* pa, const std::int8_t* pb,
                                               std::int8_t* c, std::int64_t m, std::int64_t n,
                                               std::int64_t k, const OutputMap& out,
                                               std::int64_t panel_lo, std::int64_t panel_hi,
                                               const std::int32_t* bias, const double* mult,
                                               std::int32_t q_lo, std::int32_t q_hi) {
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
      saturations += store_acc_s8<MR>(acc, c, out, m0, j0, mv, jv, mult, q_lo, q_hi);
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
    std::int64_t n, std::int64_t k, const OutputMap& out, std::int64_t panel_lo,
    std::int64_t panel_hi, const std::int32_t* bias, const double* mult, std::int32_t q_lo,
    std::int32_t q_hi) {
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
      saturations += store_acc_s8<MR>(acc, c, out, m0, j0, mv, jv, mult, q_lo, q_hi);
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
                   std::int64_t k, const OutputMap& out, std::int64_t panel_lo,
                   std::int64_t panel_hi, const float* bias, OpKind act, double alpha) {
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
      store_tile_f32<MR, NR>(tile, c, out, m0, j0, mv, jv, act, alpha);
    }
  }
}

#endif  // VEDLIOT_HAVE_NEON

using U8x16 = std::uint8_t __attribute__((vector_size(16)));
inline U8x16 load16(const std::uint8_t* p) {
  U8x16 v;
  std::memcpy(&v, p, 16);
  return v;
}

/// Column plan of one B panel of a conv group, built once per panel so the
/// row walk does no division: each column's input offset at tap (ic 0,
/// kh 0, kw 0), the runs of columns whose inputs lie `stride` apart (one
/// output row, or several where they abut in the input), and per tap which
/// columns read inside the image. Panels are at most 16 columns wide.
class ConvPanel {
 public:
  static constexpr std::int64_t kMaxRuns = 8;

  ConvPanel(const Conv2dGeometry& g, std::int64_t group, std::int64_t nr)
      : g_(g), nr_(nr), plane_(g.in_h * g.in_w), total_(g.batch * g.in_c * plane_),
        base_(group * g.icg() * plane_), tap_off_(g.kernel * g.kernel),
        row_ok_(g.kernel * 16), col_ok_(g.kernel * 16), kind_(tap_off_.size()),
        lane_(tap_off_.size() * 16), mask_(tap_off_.size() * kMaxRuns * 16) {
    for (std::size_t t = 0; t < tap_off_.size(); ++t) {
      const auto kh = static_cast<std::int64_t>(t) / g.kernel;
      tap_off_[t] = kh * g.in_w + static_cast<std::int64_t>(t) % g.kernel;
    }
  }

  /// Lay out panel q: columns [q·nr, q·nr + nr) of the group's B operand.
  void build(std::int64_t q) {
    const std::int64_t cols = g_.cols(), j0 = q * nr_;
    const std::int64_t jv = std::min(nr_, g_.batch * cols - j0);
    std::int64_t b = j0 / cols, oh = j0 % cols / g_.out_w, ow = j0 % g_.out_w;
    std::int64_t ih0[16] = {}, iw0[16] = {}, run_of[16] = {};
    runs_ = 0;
    for (std::int64_t j = 0; j < jv; ++j) {
      ih0[j] = oh * g_.stride - g_.pad;
      iw0[j] = ow * g_.stride - g_.pad;
      off_[j] = base_ + (b * g_.in_c * g_.in_h + ih0[j]) * g_.in_w + iw0[j];
      if (j == 0 || off_[j] - off_[j - 1] != g_.stride) {
        if (runs_ < kMaxRuns) start_[runs_] = off_[j] - g_.stride * j;
        ++runs_;
      }
      run_of[j] = runs_ - 1;
      if (++ow == g_.out_w) {
        ow = 0;
        if (++oh == g_.out_h) oh = 0, ++b;
      }
    }
    // Lane j of run r's window reads start_[r] + stride·j, which is off_[j]
    // for the run's own columns.
    windowed_ = g_.stride <= 2 && runs_ <= kMaxRuns;
    if (windowed_) {
      win_lo_ = *std::min_element(start_, start_ + runs_);
      win_hi_ = *std::max_element(start_, start_ + runs_) + g_.stride * nr_;
    }
    const auto inside = [](std::int64_t v, std::int64_t extent) {
      return static_cast<std::uint64_t>(v) < static_cast<std::uint64_t>(extent);
    };
    // A tap's in-image columns are those of its kernel row and column.
    const std::int64_t k = g_.kernel;
    for (std::int64_t i = 0; i < k; ++i) {
      for (std::int64_t j = 0; j < 16; ++j) {
        row_ok_[i * 16 + j] = j < jv && inside(ih0[j] + i, g_.in_h) ? 0xFF : 0;
        col_ok_[i * 16 + j] = inside(iw0[j] + i, g_.in_w) ? 0xFF : 0;
      }
    }
    U8x16 run_mask[kMaxRuns] = {};
    for (std::int64_t j = 0; windowed_ && j < jv; ++j) run_mask[run_of[j]][j] = 0xFF;
    for (std::int64_t kh = 0, t = 0; kh < k; ++kh) {
      for (std::int64_t kw = 0; kw < k; ++kw, ++t) {
        const U8x16 lane = load16(row_ok_.data() + kh * 16) & load16(col_ok_.data() + kw * 16);
        std::memcpy(lane_.data() + t * 16, &lane, 16);
        std::uint64_t half[2];
        std::memcpy(half, &lane, 16);
        const bool all = nr_ == 16 ? (half[0] & half[1]) == ~0ull : half[0] == ~0ull;
        const bool none = (half[0] | half[1]) == 0;
        kind_[static_cast<std::size_t>(t)] = all ? kAll : none ? kNone : kSome;
        for (std::int64_t r = 0; windowed_ && runs_ > 1 && r < runs_; ++r) {
          const U8x16 m = lane & run_mask[r];
          std::memcpy(mask_.data() + (t * kMaxRuns + r) * 16, &m, 16);
        }
      }
    }
  }

  /// Row (ic, tap) of the panel: a pointer straight into \p in when its nr
  /// inputs are contiguous and in-image, else \p buf filled with the
  /// in-image inputs and zeros.
  template <typename T>
  const T* row(const T* in, std::int64_t ic, std::int64_t tap, T* buf) const {
    const auto t = static_cast<std::size_t>(tap);
    const std::uint8_t* lane = lane_.data() + t * 16;
    const std::int64_t row_off = ic * plane_ + tap_off_[t];
    if (kind_[t] == kNone) {
      std::fill_n(buf, nr_, T{0});
      return buf;
    }
    // Every run's window lies inside the input: load whole windows, keep
    // the in-image lanes of each run.
    const bool window = windowed_ && win_lo_ + row_off >= 0 && win_hi_ + row_off <= total_;
    if (window && runs_ == 1 && kind_[t] == kAll && g_.stride == 1) {
      return in + start_[0] + row_off;
    }
#if defined(VEDLIOT_HAVE_X86)
    if constexpr (sizeof(T) == 1) {
      if (window && nr_ == 16) {
        const __m128i even = _mm_set1_epi16(0x00FF);
        __m128i acc = _mm_setzero_si128();
        for (std::int64_t r = 0; r < runs_; ++r) {
          const auto* p = reinterpret_cast<const __m128i*>(in + start_[r] + row_off);
          __m128i v = _mm_loadu_si128(p);
          if (g_.stride == 2) {  // the even bytes of 32
            const __m128i hi = _mm_loadu_si128(p + 1);
            v = _mm_packus_epi16(_mm_and_si128(v, even), _mm_and_si128(hi, even));
          }
          const auto* m = reinterpret_cast<const __m128i*>(
              runs_ == 1 ? lane : mask_.data() + (tap * kMaxRuns + r) * 16);
          acc = _mm_or_si128(acc, _mm_and_si128(v, _mm_loadu_si128(m)));
        }
        _mm_storeu_si128(reinterpret_cast<__m128i*>(buf), acc);
        return buf;
      }
    }
#endif
    for (std::int64_t j = 0; j < nr_; ++j) buf[j] = lane[j] != 0 ? in[off_[j] + row_off] : T{0};
    return buf;
  }

 private:
  enum : std::uint8_t { kNone, kSome, kAll };  ///< in-image columns of a tap
  const Conv2dGeometry& g_;
  std::int64_t nr_, plane_, total_, base_;
  std::vector<std::int64_t> tap_off_;  ///< kh·in_w + kw per tap
  std::vector<std::uint8_t> row_ok_;   ///< [kh][16]: 0xFF where the column's row kh is in-image
  std::vector<std::uint8_t> col_ok_;   ///< [kw][16]: likewise for column kw
  std::vector<std::uint8_t> kind_;     ///< per tap
  std::vector<std::uint8_t> lane_;     ///< [tap][16]: 0xFF where the column reads in-image
  std::vector<std::uint8_t> mask_;     ///< [tap][run][16]: lane_ restricted to the run (runs > 1)
  std::int64_t off_[16] = {};          ///< input offset of each column at tap (0, 0, 0)
  std::int64_t start_[kMaxRuns] = {};  ///< window start of each run at tap (0, 0, 0)
  std::int64_t runs_ = 0, win_lo_ = 0, win_hi_ = 0;
  bool windowed_ = false;
};

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

void pack_conv_b_f32(const float* in, const Conv2dGeometry& g, std::int64_t group,
                     const MicrokernelTile& t, std::int64_t panel_lo, std::int64_t panel_hi,
                     float* packed) {
  const std::int64_t nr = t.nr, patch = g.patch(), taps = g.kernel * g.kernel;
  ConvPanel panel(g, group, nr);
  for (std::int64_t q = panel_lo; q < panel_hi; ++q) {
    panel.build(q);
    float* dst = packed + q * nr * patch;
    for (std::int64_t kp = 0, ic = 0, tap = 0; kp < patch; ++kp, dst += nr) {
      const float* src = panel.row(in, ic, tap, dst);
      if (src != dst) std::memcpy(dst, src, static_cast<std::size_t>(nr) * sizeof(float));
      if (++tap == taps) tap = 0, ++ic;
    }
  }
}

void pack_conv_b_s8(const std::int8_t* in, const Conv2dGeometry& g, std::int64_t group,
                    const MicrokernelTile& t, std::int64_t panel_lo, std::int64_t panel_hi,
                    std::int8_t* packed) {
  const std::int64_t nr = t.nr, kg = t.kgroup, patch = g.patch(), taps = g.kernel * g.kernel;
  const std::int64_t groups = k_groups(patch, t);
  const std::uint8_t flip = kg == 4 ? 0x80 : 0;  // quads: u8 b + 128
  ConvPanel panel(g, group, nr);
  alignas(16) std::int8_t buf[4][16];
  const std::int8_t zeros[16] = {};
  for (std::int64_t q = panel_lo; q < panel_hi; ++q) {
    panel.build(q);
    std::int8_t* out = packed + q * groups * nr * kg;
    for (std::int64_t kq = 0, ic = 0, tap = 0; kq < groups; ++kq, out += nr * kg) {
      const std::int8_t* rows[4] = {zeros, zeros, zeros, zeros};
      for (std::int64_t i = 0; i < kg && kq * kg + i < patch; ++i) {
        rows[i] = panel.row(in, ic, tap, buf[i]);
        if (++tap == taps) tap = 0, ++ic;
      }
#if defined(VEDLIOT_HAVE_X86)
      if (nr == 16) {
        interleave16(rows, kg, _mm_set1_epi8(static_cast<char>(flip)), out);
        continue;
      }
#endif
      for (std::int64_t j = 0; j < nr; ++j) {
        for (std::int64_t i = 0; i < kg; ++i) {
          out[j * kg + i] = static_cast<std::int8_t>(static_cast<std::uint8_t>(rows[i][j]) ^ flip);
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
