#pragma once
/// \file microkernel.hpp
/// \brief Register-tiled GEMM microkernels with runtime SIMD dispatch.
///
/// The blocked-GEMM recipe from *Performance Analysis of Matrix
/// Multiplication for Deep Learning on the Edge*: the loop nest in the
/// executors keeps operands resident, and the inner
/// mr x nr tile is computed by an architecture-specific microkernel that
/// holds the whole accumulator tile in vector registers. Both operands are
/// repacked into panel layouts so the microkernel reads two contiguous
/// streams:
///
///   packed A (weights), panel p of mr rows:  [p][k][r]  (k-major, r minor)
///   packed B (activations), panel q of nr cols: [q][k][j]
///
/// B is packed straight from the NCHW activations (pack_conv_b_* in
/// kernels.hpp; Dense is a 1x1 conv), and the tile stores C through an
/// OutputMap straight into NCHW, so conv needs no im2col matrix and no
/// output scatter.
///
/// int8 packs group `kgroup` consecutive k steps into one int32 word per
/// (k group, row) of A and one kgroup-byte run per (k group, column) of B.
/// kgroup 2 holds sign-extended int16 pairs, so AVX2 `madd_epi16` adds two
/// k steps per instruction. kgroup 4 holds s8 weight quads against B bytes
/// stored as u8 b + 128, so AVX-VNNI `vpdpbusd` adds four; the +128 offset
/// adds 128·Σ_k a[r][k] to every output of row r, which packed A carries as
/// one correction word per row and the tile subtracts from its start value.
/// Both are exact int32 arithmetic (see pack_a_s8).
///
/// Every dispatch level has a full table. The portable level is one more
/// register tile over the same packed panels: plain scalar loops the
/// compiler may auto-vectorize, with a separate multiply and add per step.
///
/// Determinism contract (per dispatch level):
///  - every output element accumulates its K products in ascending k order
///    whatever the panel partition, so parallel-vs-serial runs are bitwise
///    identical at every level;
///  - every int8 tile performs exact int32 arithmetic and an exact
///    requantization epilogue (the SIMD tiles' vector row store is the
///    scalar one lane for lane), so outputs and saturation counts are
///    bitwise equal across levels at any K/M/N;
///  - the SIMD f32 tiles keep the portable k order but contract each
///    multiply-add to one FMA rounding, so SIMD-vs-portable agrees to a
///    tight ULP bound rather than bitwise (scalar epilogues are shared, so
///    activation math is identical).
///
/// Tail handling: partial row/column panels are zero-padded during packing
/// and the epilogue stores only the valid region, so every lane — including
/// a batch-1 dense column — executes the identical instruction sequence.
/// That is what keeps a lane of a batched run bitwise equal to the same
/// sample run alone (the fleet CRC contract) at SIMD levels too. Conv
/// folds the batch into N (kernels.hpp), so one tile may hold columns of
/// several samples, at other slots than at batch 1; tile lanes never mix
/// and each column's op sequence is the same in every slot, so the
/// contract holds for folded conv as well. Such a tile stores each lane
/// through the scalar epilogue at its own sample's address, which is the
/// vector row store's math lane for lane.

#include <cstdint>

#include "graph/op.hpp"
#include "util/cpu.hpp"

namespace vedliot::runtime_kernels {

/// Register tile of one microkernel: mr rows of A by nr columns of B. int8
/// tiles also fix the packed layout's k grouping (2: int16 pairs, 4: u8·s8
/// quads); f32 tiles pack single k steps.
struct MicrokernelTile {
  std::int64_t mr = 0;
  std::int64_t nr = 0;
  std::int64_t kgroup = 1;
};

inline std::int64_t panel_count(std::int64_t extent, std::int64_t tile) {
  return (extent + tile - 1) / tile;
}

/// Packed-buffer element counts (floats / int32 words / bytes).
std::size_t packed_a_f32_elems(std::int64_t m, std::int64_t k, const MicrokernelTile& t);
std::size_t packed_b_f32_elems(std::int64_t k, std::int64_t n, const MicrokernelTile& t);
std::size_t packed_a_s8_words(std::int64_t m, std::int64_t k, const MicrokernelTile& t);
std::size_t packed_b_s8_bytes(std::int64_t k, std::int64_t n, const MicrokernelTile& t);

/// Pack the row-major [M x K] weight matrix into mr-row panels (zero-padded
/// tail rows). Generic over the tile, so every dispatch level shares it.
void pack_a_f32(const float* a, std::int64_t m, std::int64_t k, const MicrokernelTile& t,
                float* packed);

/// int8 A: one int32 word per (k group g, row) holds a[m][g·kg ..] in
/// kgroup equal lanes (int16 lanes for pairs, bytes for quads); K tails pad
/// with zero. Quad packs append one word per padded row, 128·Σ_k a[m][k]:
/// the tile starts row m at bias − that word, and since B holds b + 128 the
/// int32 sum is bias + Σ a·b exactly (non-saturating, wrapping int32 adds
/// whose true result fits int32, so no intermediate can change it).
void pack_a_s8(const std::int8_t* a, std::int64_t m, std::int64_t k, const MicrokernelTile& t,
               std::int32_t* packed);

/// Where the GEMM stores element (r, j) of C = A·B:
///   c[r·row_stride + (j / seg)·seg_stride + (j % seg)·col_stride].
/// Row-major [M x N] with leading dimension ldc is {ldc, n, 0, 1}; a conv
/// group's NCHW output is {cols, cols, out_c·cols, 1}, one segment per
/// sample (Conv2dGeometry::output_map); the dense [batch x units] layout is
/// the conv map at cols = 1. A tile inside one segment with col_stride 1
/// stores whole rows; any other tile stores lane by lane.
struct OutputMap {
  std::int64_t row_stride = 0;
  std::int64_t seg = 1;
  std::int64_t seg_stride = 0;
  std::int64_t col_stride = 1;
};

/// Row-panel range [panel_lo, panel_hi) of C = A·B (+bias, fused act) over
/// packed operands, stored through \p out.
using GemmF32Fn = void (*)(const float* pa, const float* pb, float* c, std::int64_t m,
                           std::int64_t n, std::int64_t k, const OutputMap& out,
                           std::int64_t panel_lo, std::int64_t panel_hi, const float* bias,
                           OpKind act, double alpha);

/// int8 variant with int32 accumulation from bias[m] and the
/// requant_clamped epilogue (kernels.hpp): c = clamp(round(acc * mult[m]),
/// q_lo, q_hi). Returns the requantization saturation count for the panel
/// range (exact, so per-chunk sums are partition-independent).
using GemmS8Fn = std::uint64_t (*)(const std::int32_t* pa, const std::int8_t* pb,
                                   std::int8_t* c, std::int64_t m, std::int64_t n,
                                   std::int64_t k, const OutputMap& out, std::int64_t panel_lo,
                                   std::int64_t panel_hi, const std::int32_t* bias,
                                   const double* mult, std::int32_t q_lo, std::int32_t q_hi);

/// One dispatch level's kernel set; every entry is always present (a level
/// without its own tile carries another level's: NEON the portable int8
/// tile, AVX-VNNI the AVX2 f32 tile).
struct GemmMicrokernels {
  util::SimdLevel level = util::SimdLevel::kPortable;
  MicrokernelTile f32;
  MicrokernelTile s8;
  GemmF32Fn gemm_f32 = nullptr;
  GemmS8Fn gemm_s8 = nullptr;
};

/// Microkernel table for a *resolved* level (resolve_simd_level first). A
/// level this binary or host cannot run maps to the portable table.
const GemmMicrokernels& gemm_microkernels(util::SimdLevel resolved);

/// Measured compute roofs for the roofline model (hw/roofline.hpp): a
/// register-resident FMA / madd / vpdpbusd chain timed for at least \p min_seconds,
/// returning GFLOP/s (f32, 2 flops per FMA) or GOP/s (int8, 2 ops per MAC)
/// of one thread at the given resolved dispatch level.
double peak_probe_f32(util::SimdLevel resolved, double min_seconds);
double peak_probe_s8(util::SimdLevel resolved, double min_seconds);

}  // namespace vedliot::runtime_kernels
