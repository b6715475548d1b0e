#pragma once
/// \file reference_kernels.hpp
/// \brief Numerical oracles for the runtime's GEMM and convolution routes,
/// and the list of dispatch tables to check against them.
///
/// The runtime has one route per op and dtype (B panels packed straight
/// from the NCHW input + the dispatch level's microkernel tile storing
/// straight into NCHW, or the direct depthwise kernel). These are the naive
/// loop nests the routes are checked against:
///  - the explicit lowering the packer and the mapped store replace: an
///    im2col matrix, the tile layouts' B packers over a row-major matrix,
///    and the scatter of a row-major GEMM result into NCHW;
///  - naive GEMMs in the microkernels' accumulation order (f32: ascending k
///    from the bias, a separate multiply and add per step; int8: exact
///    int32), so the portable f32 tile must match bit for bit and every
///    int8 tile must match bit for bit including saturation counts;
///  - direct 6-deep convolution loops (f32 with double accumulation, int8
///    with int32 accumulation) over NCHW tensors and [oc][ic/groups][k][k]
///    weights.

#include <cstdint>
#include <vector>

#include "graph/op.hpp"
#include "runtime/kernels.hpp"
#include "runtime/microkernel.hpp"
#include "util/cpu.hpp"

namespace vedliot::testref {

/// Every microkernel table this binary can run on this host, ignoring env
/// overrides: portable first, then each supported SIMD level.
inline std::vector<const runtime_kernels::GemmMicrokernels*> all_tables() {
  std::vector<const runtime_kernels::GemmMicrokernels*> out{
      &runtime_kernels::gemm_microkernels(util::SimdLevel::kPortable)};
  for (auto level : {util::SimdLevel::kAvx2, util::SimdLevel::kAvxVnni, util::SimdLevel::kNeon}) {
    const auto& t = runtime_kernels::gemm_microkernels(level);
    if (util::simd_supported(level) && t.level == level) out.push_back(&t);
  }
  return out;
}

using runtime_kernels::Conv2dGeometry;
using runtime_kernels::MicrokernelTile;
using runtime_kernels::OutputMap;

/// Row-major [M x N] store with leading dimension ldc, and its transpose
/// (c[j·ldc + r], the dense [batch x units] layout).
inline OutputMap row_major(std::int64_t ldc, std::int64_t n) { return {ldc, n, 0, 1}; }
inline OutputMap col_major(std::int64_t ldc, std::int64_t n) { return {1, n, 0, ldc}; }

/// Pack the row-major [K x N] matrix into the tile's f32 B layout: panel q
/// of nr columns is k-major [k][nr], tail columns zero.
inline void pack_b_f32(const float* b, std::int64_t k, std::int64_t n, const MicrokernelTile& t,
                       float* packed) {
  for (std::int64_t q = 0; q < runtime_kernels::panel_count(n, t.nr); ++q) {
    for (std::int64_t kp = 0; kp < k; ++kp) {
      for (std::int64_t j = 0; j < t.nr; ++j) {
        const std::int64_t col = q * t.nr + j;
        packed[(q * k + kp) * t.nr + j] = col < n ? b[kp * n + col] : 0.0f;
      }
    }
  }
}

/// Pack the row-major [K x N] int8 matrix into the tile's B layout: per
/// panel and k group, the kgroup bytes of each column stored together,
/// b ^ 0x80 for quads; K and column tails are zero before the flip.
inline void pack_b_s8(const std::int8_t* b, std::int64_t k, std::int64_t n,
                      const MicrokernelTile& t, std::int8_t* packed) {
  const std::int64_t kg = t.kgroup, groups = (k + kg - 1) / kg;
  const std::uint8_t flip = kg == 4 ? 0x80 : 0;
  for (std::int64_t q = 0; q < runtime_kernels::panel_count(n, t.nr); ++q) {
    for (std::int64_t g = 0; g < groups; ++g) {
      std::int8_t* out = packed + (q * groups + g) * t.nr * kg;
      for (std::int64_t j = 0; j < t.nr; ++j) {
        for (std::int64_t i = 0; i < kg; ++i) {
          const std::int64_t row = g * kg + i, col = q * t.nr + j;
          const std::int8_t v = row < k && col < n ? b[row * n + col] : std::int8_t{0};
          out[j * kg + i] = static_cast<std::int8_t>(static_cast<std::uint8_t>(v) ^ flip);
        }
      }
    }
  }
}

/// Group \p group's batch-folded im2col matrix: row-major [patch x
/// batch·cols], row (ic, kh, kw), column b·cols + oh·out_w + ow, zero for
/// out-of-image taps.
template <typename T>
std::vector<T> im2col(const T* in, const Conv2dGeometry& g, std::int64_t group) {
  const std::int64_t k = g.kernel, cols = g.cols(), n = g.batch * cols;
  std::vector<T> col(static_cast<std::size_t>(g.patch() * n), T{0});
  for (std::int64_t row = 0; row < g.patch(); ++row) {
    const std::int64_t ic = row / (k * k), kh = row / k % k, kw = row % k;
    for (std::int64_t b = 0; b < g.batch; ++b) {
      for (std::int64_t oh = 0; oh < g.out_h; ++oh) {
        for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
          const std::int64_t ih = oh * g.stride - g.pad + kh, iw = ow * g.stride - g.pad + kw;
          if (ih < 0 || ih >= g.in_h || iw < 0 || iw >= g.in_w) continue;
          col[static_cast<std::size_t>(row * n + b * cols + oh * g.out_w + ow)] =
              in[((b * g.in_c + group * g.icg() + ic) * g.in_h + ih) * g.in_w + iw];
        }
      }
    }
  }
  return col;
}

/// Scatter group \p group's row-major [ocg x batch·cols] GEMM result into
/// the NCHW output.
template <typename T>
void unfold(const T* folded, const Conv2dGeometry& g, std::int64_t group, T* out) {
  const std::int64_t cols = g.cols(), n = g.batch * cols;
  for (std::int64_t r = 0; r < g.ocg(); ++r) {
    for (std::int64_t j = 0; j < n; ++j) {
      out[(j / cols * g.out_c + group * g.ocg() + r) * cols + j % cols] = folded[r * n + j];
    }
  }
}

/// C[M x N] = A[M x K] · B[K x N] (+bias[m]) with fused activation; all
/// row-major. bias may be null.
inline void naive_gemm_f32(const float* a, const float* b, float* c, std::int64_t m,
                           std::int64_t n, std::int64_t k, const float* bias, OpKind act,
                           double alpha) {
  for (std::int64_t r = 0; r < m; ++r) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = bias != nullptr ? bias[r] : 0.0f;
      for (std::int64_t kp = 0; kp < k; ++kp) {
        const float prod = a[r * k + kp] * b[kp * n + j];
        acc += prod;
      }
      c[r * n + j] = act == OpKind::kIdentity
                         ? acc
                         : runtime_kernels::apply_activation(acc, act, alpha);
    }
  }
}

/// int8 GEMM with int32 accumulation from bias[m] and the runtime's
/// requantization epilogue; returns the saturation count.
inline std::uint64_t naive_gemm_s8(const std::int8_t* a, const std::int8_t* b, std::int8_t* c,
                                   std::int64_t m, std::int64_t n, std::int64_t k,
                                   const std::int32_t* bias, const double* mult,
                                   std::int32_t q_lo, std::int32_t q_hi) {
  std::uint64_t saturations = 0;
  for (std::int64_t r = 0; r < m; ++r) {
    for (std::int64_t j = 0; j < n; ++j) {
      std::int32_t acc = bias != nullptr ? bias[r] : 0;
      for (std::int64_t kp = 0; kp < k; ++kp) {
        acc += static_cast<std::int32_t>(a[r * k + kp]) *
               static_cast<std::int32_t>(b[kp * n + j]);
      }
      c[r * n + j] = runtime_kernels::requant_clamped(static_cast<double>(acc) * mult[r], q_lo,
                                                      q_hi, saturations);
    }
  }
  return saturations;
}

/// Visit every in-image tap of output (b, oc, oh, ow): fn(input index,
/// weight index).
template <typename Fn>
void for_each_tap(const runtime_kernels::Conv2dGeometry& g, std::int64_t b, std::int64_t oc,
                  std::int64_t oh, std::int64_t ow, Fn fn) {
  const std::int64_t icg = g.icg(), k = g.kernel;
  const std::int64_t group = oc / g.ocg();
  for (std::int64_t ic = 0; ic < icg; ++ic) {
    const std::int64_t in_c = group * icg + ic;
    for (std::int64_t kh = 0; kh < k; ++kh) {
      const std::int64_t ih = oh * g.stride - g.pad + kh;
      if (ih < 0 || ih >= g.in_h) continue;
      for (std::int64_t kw = 0; kw < k; ++kw) {
        const std::int64_t iw = ow * g.stride - g.pad + kw;
        if (iw < 0 || iw >= g.in_w) continue;
        fn(((b * g.in_c + in_c) * g.in_h + ih) * g.in_w + iw,
           ((oc * icg + ic) * k + kh) * k + kw);
      }
    }
  }
}

/// Direct f32 convolution with double accumulation (bias may be null).
inline void direct_conv_f32(const float* x, const float* w, const float* bias, float* y,
                            const runtime_kernels::Conv2dGeometry& g, OpKind act, double alpha) {
  for (std::int64_t b = 0; b < g.batch; ++b) {
    for (std::int64_t oc = 0; oc < g.out_c; ++oc) {
      for (std::int64_t oh = 0; oh < g.out_h; ++oh) {
        for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
          double acc = bias != nullptr ? bias[oc] : 0.0;
          for_each_tap(g, b, oc, oh, ow, [&](std::int64_t xi, std::int64_t wi) {
            acc += static_cast<double>(x[xi]) * static_cast<double>(w[wi]);
          });
          const float v = static_cast<float>(acc);
          y[((b * g.out_c + oc) * g.out_h + oh) * g.out_w + ow] =
              act == OpKind::kIdentity ? v : runtime_kernels::apply_activation(v, act, alpha);
        }
      }
    }
  }
}

/// Direct int8 convolution with int32 accumulation and the runtime's
/// requantization epilogue; returns the saturation count.
inline std::uint64_t direct_conv_s8(const std::int8_t* x, const std::int8_t* w,
                                    const std::int32_t* bias, std::int8_t* y,
                                    const runtime_kernels::Conv2dGeometry& g, const double* mult,
                                    std::int32_t q_lo, std::int32_t q_hi) {
  std::uint64_t saturations = 0;
  for (std::int64_t b = 0; b < g.batch; ++b) {
    for (std::int64_t oc = 0; oc < g.out_c; ++oc) {
      for (std::int64_t oh = 0; oh < g.out_h; ++oh) {
        for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
          std::int32_t acc = bias != nullptr ? bias[oc] : 0;
          for_each_tap(g, b, oc, oh, ow, [&](std::int64_t xi, std::int64_t wi) {
            acc += static_cast<std::int32_t>(x[xi]) * static_cast<std::int32_t>(w[wi]);
          });
          y[((b * g.out_c + oc) * g.out_h + oh) * g.out_w + ow] = runtime_kernels::requant_clamped(
              static_cast<double>(acc) * mult[oc], q_lo, q_hi, saturations);
        }
      }
    }
  }
  return saturations;
}

}  // namespace vedliot::testref
