#pragma once
/// \file reference_kernels.hpp
/// \brief Numerical oracles for the runtime's GEMM and convolution routes,
/// and the list of dispatch tables to check against them.
///
/// The runtime has one route per op and dtype (im2col + the dispatch
/// level's microkernel tile, or the direct depthwise kernel). These are the
/// naive loop nests the routes are checked against:
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
