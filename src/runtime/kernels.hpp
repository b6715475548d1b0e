#pragma once
/// \file kernels.hpp
/// \brief Compute kernels of the execution engine that sit around the GEMM
/// microkernels (microkernel.hpp): the conv panel packer, direct depthwise
/// convolution, the scalar activation epilogue and the int8 requantizer.
///
/// The kernel restructuring the FPGA co-design line of work (arXiv:2504.09151)
/// applies in hardware, applied to the host runtime: convolution becomes a
/// packing step plus a dense matrix multiply over packed panels, instead of
/// a 6-deep scalar loop with per-element bounds checks.
///
/// Two steps per group, no intermediate matrix: pack_conv_b_* writes the
/// GEMM's B panels straight from the NCHW input (the bytes an im2col
/// matrix packed into the tile layout would give), and the GEMM stores its
/// tiles straight into NCHW through Conv2dGeometry::output_map. The batch
/// folds into N: sample b owns columns [b·cols, (b+1)·cols), so one GEMM
/// with N = B·H·W serves every sample.
///
/// Determinism contract: every kernel accumulates each output element over a
/// fixed order, so results are bitwise identical no matter how the channel
/// range is partitioned across threads. Folding keeps each lane bitwise
/// equal to its sample run alone: a column's K products run in the same
/// ascending order from the same bias whichever tile slot it lands in, and
/// tile lanes never mix.

#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/op.hpp"
#include "runtime/microkernel.hpp"

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

  /// Geometry of Conv2D node \p n from its attributes and input shape. A
  /// Dense node [N x F] -> [N x U] is the 1x1 conv of an [N, F, 1, 1] input
  /// with U output channels, so both ops share one GEMM route.
  static Conv2dGeometry of(const Graph& g, const Node& n);

  std::int64_t icg() const { return in_c / groups; }   ///< input channels / group
  std::int64_t ocg() const { return out_c / groups; }  ///< output channels / group
  std::int64_t patch() const { return icg() * kernel * kernel; }  ///< GEMM K
  std::int64_t cols() const { return out_h * out_w; }  ///< pixels per sample; GEMM N = batch·cols
  bool depthwise() const { return groups == in_c && ocg() == 1; }
  /// GEMM output map of one group's [ocg() x batch·cols()] product into the
  /// NCHW output, starting at the group's first channel.
  OutputMap output_map() const { return {cols(), cols(), out_c * cols(), 1}; }
  /// Multiply-accumulates of the full convolution (all batches).
  double macs() const;
};

/// Pack column panels [panel_lo, panel_hi) of group \p group's GEMM B
/// operand straight from the NCHW input: B is [patch() x batch·cols()], row
/// (ic, kh, kw) of the patch, column b·cols() + oh·out_w + ow, and
/// out-of-image taps are zero. Panel q holds columns [q·nr, q·nr + nr) in
/// the tile's layout: f32 k-major [k][nr], int8 one kgroup-byte run per
/// (k group, column), stored as b ^ 0x80 (u8 b + 128) for quads; K and
/// column tails pad with zero (0x80 for quads). Panel-ranged so packing
/// partitions over the thread pool.
void pack_conv_b_f32(const float* in, const Conv2dGeometry& g, std::int64_t group,
                     const MicrokernelTile& t, std::int64_t panel_lo, std::int64_t panel_hi,
                     float* packed);
void pack_conv_b_s8(const std::int8_t* in, const Conv2dGeometry& g, std::int64_t group,
                    const MicrokernelTile& t, std::int64_t panel_lo, std::int64_t panel_hi,
                    std::int8_t* packed);

/// Direct depthwise convolution (groups == channels) over the flattened
/// (sample, channel) range [bc_lo, bc_hi): the GEMM lowering degenerates to
/// a k*k dot per pixel, so packing overhead is pure loss — keep it direct.
/// Float accumulation in fixed tap order; bias may be null.
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
