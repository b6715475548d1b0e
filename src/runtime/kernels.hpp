#pragma once
/// \file kernels.hpp
/// \brief Compute kernels of the execution engine that sit around the GEMM
/// microkernels (microkernel.hpp): im2col packing, direct depthwise
/// convolution, the scalar activation epilogue and the int8 requantizer.
///
/// The kernel restructuring the FPGA co-design line of work (arXiv:2504.09151)
/// applies in hardware, applied to the host runtime: convolution becomes a
/// [patch x cols] packing step plus a dense matrix multiply over packed
/// panels, instead of a 6-deep scalar loop with per-element bounds checks.
///
/// Determinism contract: every kernel accumulates each output element over a
/// fixed order, so results are bitwise identical no matter how the channel
/// range is partitioned across threads.

#include <cmath>
#include <cstdint>

#include "graph/op.hpp"

namespace vedliot {
class Graph;
struct Node;
}  // namespace vedliot

namespace vedliot::runtime_kernels {

/// Scalar activation used by both executors' epilogues. kIdentity passes
/// through; alpha feeds LeakyRelu.
float apply_activation(float x, OpKind kind, double alpha);

/// Round to nearest and saturate to int8, counting the clamps — the one
/// int8 rounding rule of the runtime (weight/input quantization and every
/// requantization share it).
inline std::int8_t saturate_i8(double v, std::uint64_t& saturations) {
  const double r = std::nearbyint(v);
  if (r > 127.0) {
    ++saturations;
    return 127;
  }
  if (r < -128.0) {
    ++saturations;
    return -128;
  }
  return static_cast<std::int8_t>(r);
}

/// Requantize and apply the fused clamp window [q_lo, q_hi]; counts
/// requantization saturations only (the activation clamp is semantics, not
/// information loss).
inline std::int8_t requant_clamped(double scaled, std::int32_t q_lo, std::int32_t q_hi,
                                   std::uint64_t& saturations) {
  std::int8_t q = saturate_i8(scaled, saturations);
  if (q < q_lo) q = static_cast<std::int8_t>(q_lo);
  if (q > q_hi) q = static_cast<std::int8_t>(q_hi);
  return q;
}

/// Conv2D loop geometry, shared by the float and INT8 paths.
struct Conv2dGeometry {
  std::int64_t batch = 1;
  std::int64_t in_c = 0, in_h = 0, in_w = 0;
  std::int64_t out_c = 0, out_h = 0, out_w = 0;
  std::int64_t kernel = 1, stride = 1, pad = 0, groups = 1;

  /// Geometry of Conv2D node \p n from its attributes and input shape.
  static Conv2dGeometry of(const Graph& g, const Node& n);

  std::int64_t icg() const { return in_c / groups; }   ///< input channels / group
  std::int64_t ocg() const { return out_c / groups; }  ///< output channels / group
  std::int64_t patch() const { return icg() * kernel * kernel; }  ///< GEMM K
  std::int64_t cols() const { return out_h * out_w; }             ///< GEMM N
  bool depthwise() const { return groups == in_c && ocg() == 1; }
  /// Multiply-accumulates of the full convolution (all batches).
  double macs() const;
};

/// Pack one (batch, group) slice of an NCHW input into a row-major
/// [patch() x cols()] column matrix; out-of-image taps become zero.
/// Rows [row_lo, row_hi) only, so packing itself can be partitioned.
void im2col_f32(const float* in, const Conv2dGeometry& g, std::int64_t b, std::int64_t group,
                std::int64_t row_lo, std::int64_t row_hi, float* col);
void im2col_s8(const std::int8_t* in, const Conv2dGeometry& g, std::int64_t b,
               std::int64_t group, std::int64_t row_lo, std::int64_t row_hi, std::int8_t* col);

/// Direct depthwise convolution (groups == channels) for channel range
/// [c_lo, c_hi) of batch b: im2col degenerates to a k*k dot per pixel, so
/// packing overhead is pure loss — keep it direct. Float accumulation in
/// fixed tap order; bias may be null.
void depthwise_f32(const float* in, const float* w, const float* bias, float* out,
                   const Conv2dGeometry& g, std::int64_t b, std::int64_t c_lo,
                   std::int64_t c_hi, OpKind act, double alpha);

/// INT8 direct depthwise for channel range [c_lo, c_hi) of batch b, with
/// int32 accumulation and the requant_clamped epilogue of the int8 GEMM
/// microkernels. Returns the saturation count.
std::uint64_t depthwise_s8(const std::int8_t* in, const std::int8_t* w, const std::int32_t* bias,
                           std::int8_t* out, const Conv2dGeometry& g, std::int64_t b,
                           std::int64_t c_lo, std::int64_t c_hi, const double* mult,
                           std::int32_t q_lo, std::int32_t q_hi);

}  // namespace vedliot::runtime_kernels
