#pragma once
/// \file kernels.hpp
/// \brief Compute kernels of the execution engine that sit around the GEMM
/// microkernels (microkernel.hpp): im2col packing, direct depthwise
/// convolution, the scalar activation epilogue and the int8 requantizer.
///
/// The kernel restructuring the FPGA co-design line of work (arXiv:2504.09151)
/// applies in hardware, applied to the host runtime: convolution becomes a
/// packing step plus a dense matrix multiply over packed panels, instead of
/// a 6-deep scalar loop with per-element bounds checks.
///
/// Batch folding: per group, the whole batch packs into one column matrix
/// [patch x B·cols] (sample b owns column block b), so one GEMM with N =
/// B·H·W serves every sample; unfold_output scatters the result into NCHW
/// (at B = 1 it already is NCHW).
///
/// Determinism contract: every kernel accumulates each output element over a
/// fixed order, so results are bitwise identical no matter how the channel
/// range is partitioned across threads. Folding keeps each lane bitwise
/// equal to its sample run alone: a column's K products run in the same
/// ascending order from the same bias whichever tile slot it lands in, and
/// tile lanes never mix.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

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

/// Grow a reused scratch buffer to at least \p n elements; never shrinks, so
/// steady-state runs allocate nothing.
template <typename T>
void grow(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
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
  std::int64_t cols() const { return out_h * out_w; }  ///< pixels per sample; GEMM N = batch·cols
  bool depthwise() const { return groups == in_c && ocg() == 1; }
  /// Multiply-accumulates of the full convolution (all batches).
  double macs() const;
};

/// Pack rows [row_lo, row_hi) of group \p group's batch-folded column matrix:
/// row-major [patch() x batch·cols()], where sample b fills column block
/// [b·cols(), (b+1)·cols()); out-of-image taps become zero. Row-ranged so
/// packing itself can be partitioned.
void im2col_f32(const float* in, const Conv2dGeometry& g, std::int64_t group,
                std::int64_t row_lo, std::int64_t row_hi, float* col);
void im2col_s8(const std::int8_t* in, const Conv2dGeometry& g, std::int64_t group,
               std::int64_t row_lo, std::int64_t row_hi, std::int8_t* col);

/// Scatter rows [lo, hi) of group \p group's folded GEMM output [ocg() x
/// batch·cols()] into the NCHW output; row i is (sample i / ocg(), channel
/// i % ocg()). At batch 1 the folded block already is the NCHW slice, so the
/// executors store in place and skip this.
template <typename T>
void unfold_output(const T* folded, const Conv2dGeometry& g, std::int64_t group,
                   std::int64_t lo, std::int64_t hi, T* out) {
  const std::int64_t m = g.ocg(), cols = g.cols();
  for (std::int64_t i = lo; i < hi; ++i) {
    const std::int64_t b = i / m, r = i % m;
    std::memcpy(out + (b * g.out_c + group * m + r) * cols, folded + (r * g.batch + b) * cols,
                static_cast<std::size_t>(cols) * sizeof(T));
  }
}

/// Direct depthwise convolution (groups == channels) over the flattened
/// (sample, channel) range [bc_lo, bc_hi): im2col degenerates to a k*k dot
/// per pixel, so packing overhead is pure loss — keep it direct. Float
/// accumulation in fixed tap order; bias may be null.
void depthwise_f32(const float* in, const float* w, const float* bias, float* out,
                   const Conv2dGeometry& g, std::int64_t bc_lo, std::int64_t bc_hi, OpKind act,
                   double alpha);

/// INT8 direct depthwise over the (sample, channel) range [bc_lo, bc_hi),
/// with int32 accumulation and the requant_clamped epilogue of the int8 GEMM
/// microkernels. Returns the saturation count.
std::uint64_t depthwise_s8(const std::int8_t* in, const std::int8_t* w, const std::int32_t* bias,
                           std::int8_t* out, const Conv2dGeometry& g, std::int64_t bc_lo,
                           std::int64_t bc_hi, const double* mult, std::int32_t q_lo,
                           std::int32_t q_hi);

}  // namespace vedliot::runtime_kernels
