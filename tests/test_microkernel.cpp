// Tests for the microkernel GEMM layer at every dispatch level the binary
// has, portable included: edge-tail correctness against the naive reference
// GEMMs, the per-level determinism contract (int8 bitwise, f32 tight
// tolerance, parallel-vs-serial bitwise, batch-lane bitwise),
// packed-weight cache lifecycle (steady-state reuse, version/tile
// invalidation, OTA-repair self-heal), env-override dispatch, and the
// roofline probes.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "exec_single.hpp"
#include "graph/zoo.hpp"
#include "reference_kernels.hpp"
#include "hw/roofline.hpp"
#include "opt/fusion.hpp"
#include "opt/quantize.hpp"
#include "runtime/executor.hpp"
#include "runtime/kernels.hpp"
#include "runtime/microkernel.hpp"
#include "runtime/packed_cache.hpp"
#include "runtime/session.hpp"
#include "safety/model_store.hpp"
#include "safety/scrub.hpp"
#include "util/cpu.hpp"
#include "util/rng.hpp"

namespace vedliot {
namespace {

using runtime_kernels::GemmMicrokernels;
using runtime_kernels::MicrokernelTile;
using runtime_kernels::OutputMap;
using runtime_kernels::panel_count;
using testref::all_tables;

/// Set an environment variable for one scope and restore the prior state on
/// exit, so dispatch-override tests cannot leak into other tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  bool had_old_ = false;
  std::string old_;
};

/// The best table this binary has on this host, ignoring env overrides.
const GemmMicrokernels& best_table() { return *all_tables().back(); }

/// Both requestable dispatch levels: kAuto resolves to best_table() unless
/// an env override forces portable.
const util::SimdLevel kLevels[] = {util::SimdLevel::kPortable, util::SimdLevel::kAuto};

// Edge-tail grid: values straddling the register tiles (mr ∈ {4, 6},
// nr ∈ {8, 16}) plus degenerate extents.
const std::int64_t kMs[] = {1, 5, 6, 7, 13};
const std::int64_t kNs[] = {1, 15, 16, 17, 33};
const std::int64_t kKs[] = {1, 2, 3, 64, 65};

std::vector<float> rand_f32(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return rng.normal_vector(n);
}

std::vector<std::int8_t> rand_s8(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int8_t> v(n);
  for (auto& x : v) {
    x = static_cast<std::int8_t>(static_cast<std::int32_t>(rng.uniform(-128.0, 128.0)));
  }
  return v;
}

/// Full-range microkernel f32 GEMM over freshly packed operands, stored
/// row-major unless \p map says otherwise.
void mk_gemm_f32(const GemmMicrokernels& t, const float* a, const float* b, float* c,
                 std::int64_t m, std::int64_t n, std::int64_t k, const float* bias,
                 OpKind act, double alpha, const OutputMap* map = nullptr) {
  std::vector<float> pa(runtime_kernels::packed_a_f32_elems(m, k, t.f32));
  std::vector<float> pb(runtime_kernels::packed_b_f32_elems(k, n, t.f32));
  runtime_kernels::pack_a_f32(a, m, k, t.f32, pa.data());
  testref::pack_b_f32(b, k, n, t.f32, pb.data());
  t.gemm_f32(pa.data(), pb.data(), c, m, n, k, map != nullptr ? *map : testref::row_major(n, n), 0,
             panel_count(m, t.f32.mr), bias, act, alpha);
}

/// Full-range microkernel int8 GEMM; returns the saturation count.
std::uint64_t mk_gemm_s8(const GemmMicrokernels& t, const std::int8_t* a,
                         const std::int8_t* b, std::int8_t* c, std::int64_t m,
                         std::int64_t n, std::int64_t k, const std::int32_t* bias,
                         const double* mult, std::int32_t q_lo, std::int32_t q_hi,
                         const OutputMap* map = nullptr) {
  std::vector<std::int32_t> pa(runtime_kernels::packed_a_s8_words(m, k, t.s8));
  std::vector<std::int8_t> pb(runtime_kernels::packed_b_s8_bytes(k, n, t.s8));
  runtime_kernels::pack_a_s8(a, m, k, t.s8, pa.data());
  testref::pack_b_s8(b, k, n, t.s8, pb.data());
  return t.gemm_s8(pa.data(), pb.data(), c, m, n, k,
                   map != nullptr ? *map : testref::row_major(n, n), 0, panel_count(m, t.s8.mr),
                   bias, mult, q_lo, q_hi);
}

// ---------------------------------------------------------------------------
// Edge tails vs the scalar reference
// ---------------------------------------------------------------------------

TEST(Microkernel, F32EdgeTailsMatchScalarReference) {
  for (const GemmMicrokernels* t : all_tables()) {
    SCOPED_TRACE(util::simd_level_name(t->level));
    const bool portable = t->level == util::SimdLevel::kPortable;
    std::uint64_t seed = 100;
    for (std::int64_t m : kMs) {
      for (std::int64_t n : kNs) {
        for (std::int64_t k : kKs) {
          const auto a = rand_f32(static_cast<std::size_t>(m * k), seed++);
          const auto b = rand_f32(static_cast<std::size_t>(k * n), seed++);
          const auto bias = rand_f32(static_cast<std::size_t>(m), seed++);
          // Exercise the fused-activation epilogue on half the grid.
          const OpKind act = ((m + n + k) % 2 == 0) ? OpKind::kRelu : OpKind::kIdentity;
          std::vector<float> ref(static_cast<std::size_t>(m * n));
          testref::naive_gemm_f32(a.data(), b.data(), ref.data(), m, n, k, bias.data(), act,
                                  0.0);
          std::vector<float> got(ref.size(), -777.0f);
          mk_gemm_f32(*t, a.data(), b.data(), got.data(), m, n, k, bias.data(), act, 0.0);
          for (std::size_t i = 0; i < ref.size(); ++i) {
            if (portable) {
              // Same k order, separate multiply and add: bit for bit.
              ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                        std::bit_cast<std::uint32_t>(ref[i]))
                  << "m=" << m << " n=" << n << " k=" << k << " i=" << i;
            } else {
              // FMA contraction changes rounding per product; with |a|,|b| ~
              // N(0,1) and K <= 65 the divergence stays far below this bound.
              ASSERT_NEAR(got[i], ref[i], 1e-4)
                  << "m=" << m << " n=" << n << " k=" << k << " i=" << i;
            }
          }
        }
      }
    }
  }
}

TEST(Microkernel, S8EdgeTailsBitwiseEqualScalarReference) {
  for (const GemmMicrokernels* t : all_tables()) {
    SCOPED_TRACE(util::simd_level_name(t->level));
    std::uint64_t seed = 500;
    for (std::int64_t m : kMs) {
      for (std::int64_t n : kNs) {
        for (std::int64_t k : kKs) {
          const auto a = rand_s8(static_cast<std::size_t>(m * k), seed++);
          const auto b = rand_s8(static_cast<std::size_t>(k * n), seed++);
          Rng rng(seed++);
          std::vector<std::int32_t> bias(static_cast<std::size_t>(m));
          std::vector<double> mult(static_cast<std::size_t>(m));
          for (std::size_t r = 0; r < bias.size(); ++r) {
            bias[r] = static_cast<std::int32_t>(rng.uniform(-500.0, 500.0));
            // Multiplier chosen so a fair share of outputs saturate — the
            // counts must match exactly, not just the clamped bytes.
            mult[r] = rng.uniform(0.0005, 0.02);
          }
          const std::int32_t q_lo = ((m + n) % 2 == 0) ? 0 : -128;
          std::vector<std::int8_t> ref(static_cast<std::size_t>(m * n));
          const std::uint64_t sat_ref = testref::naive_gemm_s8(
              a.data(), b.data(), ref.data(), m, n, k, bias.data(), mult.data(), q_lo, 127);
          std::vector<std::int8_t> got(ref.size(), 99);
          const std::uint64_t sat_got = mk_gemm_s8(*t, a.data(), b.data(), got.data(), m, n,
                                                   k, bias.data(), mult.data(), q_lo, 127);
          ASSERT_EQ(sat_got, sat_ref) << "m=" << m << " n=" << n << " k=" << k;
          for (std::size_t i = 0; i < ref.size(); ++i) {
            ASSERT_EQ(got[i], ref[i]) << "m=" << m << " n=" << n << " k=" << k << " i=" << i;
          }
        }
      }
    }
  }
}

TEST(Microkernel, S8ExtremeOperandsBitwiseEqualScalarReference) {
  // Operands at the int8 extremes push the u8 offset (b + 128 up to 255)
  // and the per-row correction 128·Σa to their largest magnitudes, and
  // K = 4608 is ResNet-50's deepest im2col patch; K tails 1, 3, 5 pad a
  // partial k group.
  const std::int64_t ks[] = {1, 3, 4, 5, 147, 4608};
  const std::int64_t ms[] = {7, 13};
  const std::int64_t ns[] = {17, 33};
  for (const GemmMicrokernels* t : all_tables()) {
    SCOPED_TRACE(util::simd_level_name(t->level));
    for (std::int64_t k : ks) {
      for (std::int64_t m : ms) {
        for (std::int64_t n : ns) {
          // Rows of all -128, all 127 and alternating signs; activations
          // -128 / 127 in a pattern that differs per column.
          std::vector<std::int8_t> a(static_cast<std::size_t>(m * k));
          for (std::int64_t r = 0; r < m; ++r) {
            for (std::int64_t kp = 0; kp < k; ++kp) {
              const bool lo = r % 3 == 0 || (r % 3 == 2 && kp % 2 == 0);
              a[static_cast<std::size_t>(r * k + kp)] = lo ? -128 : 127;
            }
          }
          std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
          for (std::int64_t kp = 0; kp < k; ++kp) {
            for (std::int64_t j = 0; j < n; ++j) {
              const bool lo = j % 4 == 0 || (kp + j) % 3 == 0;
              b[static_cast<std::size_t>(kp * n + j)] = lo ? -128 : 127;
            }
          }
          std::vector<std::int32_t> bias(static_cast<std::size_t>(m));
          std::vector<double> mult(static_cast<std::size_t>(m));
          for (std::int64_t r = 0; r < m; ++r) {
            bias[static_cast<std::size_t>(r)] = static_cast<std::int32_t>(r * 997 - 5000);
            // Fine and coarse scales: some rows saturate, some land in range.
            mult[static_cast<std::size_t>(r)] = (r % 2 == 0 ? 1e-6 : 1e-3) / static_cast<double>(k);
          }
          for (std::int32_t q_lo : {-128, 0}) {
            std::vector<std::int8_t> ref(static_cast<std::size_t>(m * n));
            const std::uint64_t sat_ref = testref::naive_gemm_s8(
                a.data(), b.data(), ref.data(), m, n, k, bias.data(), mult.data(), q_lo, 127);
            std::vector<std::int8_t> got(ref.size(), 99);
            const std::uint64_t sat_got = mk_gemm_s8(*t, a.data(), b.data(), got.data(), m, n, k,
                                                     bias.data(), mult.data(), q_lo, 127);
            ASSERT_EQ(sat_got, sat_ref) << "m=" << m << " n=" << n << " k=" << k;
            ASSERT_EQ(got, ref) << "m=" << m << " n=" << n << " k=" << k;
          }
        }
      }
    }
  }
}

TEST(Microkernel, S8VectorEpilogueMatchesScalarStore) {
  // Full row-major 16-wide rows take the SIMD tiles' vector requantizer;
  // the col-major store of the same GEMM takes the scalar store_tile_s8.
  // With K = 1 and a = 1, acc = bias + b, so the rows below put products on
  // ±127.5 and ±128.5, on x.5 ties of either parity, and far outside
  // [-128, 127], under the Identity, Relu and Relu6 clamp windows.
  constexpr std::int64_t m = 7, n = 256, k = 1;
  const std::vector<std::int8_t> a(m, 1);
  std::vector<std::int8_t> b(n);
  for (std::int64_t j = 0; j < n; ++j) {
    b[static_cast<std::size_t>(j)] = static_cast<std::int8_t>(j - 128);
  }
  const std::vector<std::int32_t> bias = {0, 128, -128, 255 - 127, -257 + 128, 1000, -1000};
  const std::vector<double> mult = {0.5, 0.5, 0.5, 0.5, 0.5, 0.25, 0.25};
  for (const GemmMicrokernels* t : all_tables()) {
    SCOPED_TRACE(util::simd_level_name(t->level));
    for (const auto& [q_lo, q_hi] : {std::pair{-128, 127}, std::pair{0, 127}, std::pair{0, 47}}) {
      std::vector<std::int8_t> ref(static_cast<std::size_t>(m * n));
      const std::uint64_t sat_ref = testref::naive_gemm_s8(a.data(), b.data(), ref.data(), m, n, k,
                                                           bias.data(), mult.data(), q_lo, q_hi);
      EXPECT_GT(sat_ref, 0u);
      std::vector<std::int8_t> row(ref.size()), col(ref.size());
      const std::uint64_t sat_row = mk_gemm_s8(*t, a.data(), b.data(), row.data(), m, n, k,
                                               bias.data(), mult.data(), q_lo, q_hi);
      const OutputMap cm = testref::col_major(m, n);
      const std::uint64_t sat_col = mk_gemm_s8(*t, a.data(), b.data(), col.data(), m, n, k,
                                               bias.data(), mult.data(), q_lo, q_hi, &cm);
      EXPECT_EQ(sat_row, sat_ref);
      EXPECT_EQ(sat_col, sat_ref);
      for (std::int64_t r = 0; r < m; ++r) {
        for (std::int64_t j = 0; j < n; ++j) {
          const auto i = static_cast<std::size_t>(r * n + j);
          ASSERT_EQ(row[i], ref[i]) << "r=" << r << " j=" << j << " window " << q_lo << ".."
                                    << q_hi;
          ASSERT_EQ(col[static_cast<std::size_t>(j * m + r)], ref[i]) << "r=" << r << " j=" << j;
        }
      }
    }
  }
}

TEST(Microkernel, ColMajorStoreIsBitwiseTransposeOfRowMajor) {
  for (const GemmMicrokernels* t : all_tables()) {
    SCOPED_TRACE(util::simd_level_name(t->level));
    const std::int64_t m = 7, n = 17, k = 33;
    const auto a = rand_f32(static_cast<std::size_t>(m * k), 1);
    const auto b = rand_f32(static_cast<std::size_t>(k * n), 2);
    std::vector<float> row(static_cast<std::size_t>(m * n)), col(row.size());
    mk_gemm_f32(*t, a.data(), b.data(), row.data(), m, n, k, nullptr, OpKind::kIdentity, 0.0);
    const OutputMap cm = testref::col_major(m, n);
    mk_gemm_f32(*t, a.data(), b.data(), col.data(), m, n, k, nullptr, OpKind::kIdentity, 0.0,
                &cm);
    // Same arithmetic, different store address: transposed layouts are bitwise.
    for (std::int64_t r = 0; r < m; ++r) {
      for (std::int64_t j = 0; j < n; ++j) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(row[static_cast<std::size_t>(r * n + j)]),
                  std::bit_cast<std::uint32_t>(col[static_cast<std::size_t>(j * m + r)]));
      }
    }

    const auto a8 = rand_s8(static_cast<std::size_t>(m * k), 3);
    const auto b8 = rand_s8(static_cast<std::size_t>(k * n), 4);
    std::vector<std::int32_t> bias(static_cast<std::size_t>(m), 11);
    std::vector<double> mult(static_cast<std::size_t>(m), 0.003);
    std::vector<std::int8_t> row8(static_cast<std::size_t>(m * n)), col8(row8.size());
    const auto s1 = mk_gemm_s8(*t, a8.data(), b8.data(), row8.data(), m, n, k, bias.data(),
                               mult.data(), -128, 127);
    const auto s2 = mk_gemm_s8(*t, a8.data(), b8.data(), col8.data(), m, n, k, bias.data(),
                               mult.data(), -128, 127, &cm);
    EXPECT_EQ(s1, s2);
    for (std::int64_t r = 0; r < m; ++r) {
      for (std::int64_t j = 0; j < n; ++j) {
        ASSERT_EQ(row8[static_cast<std::size_t>(r * n + j)],
                  col8[static_cast<std::size_t>(j * m + r)]);
      }
    }
  }
}

TEST(Microkernel, PanelPartitionIsBitwiseInvariant) {
  // The pfor over row panels may split anywhere; every split must produce
  // the same bits as one full-range call (the parallel-vs-serial contract
  // at the microkernel layer).
  for (const GemmMicrokernels* t : all_tables()) {
    SCOPED_TRACE(util::simd_level_name(t->level));
    const std::int64_t m = 13, n = 33, k = 65;
    const auto a = rand_f32(static_cast<std::size_t>(m * k), 10);
    const auto b = rand_f32(static_cast<std::size_t>(k * n), 11);

    std::vector<float> pa(runtime_kernels::packed_a_f32_elems(m, k, t->f32));
    std::vector<float> pb(runtime_kernels::packed_b_f32_elems(k, n, t->f32));
    runtime_kernels::pack_a_f32(a.data(), m, k, t->f32, pa.data());
    testref::pack_b_f32(b.data(), k, n, t->f32, pb.data());
    const std::int64_t panels = panel_count(m, t->f32.mr);
    std::vector<float> whole(static_cast<std::size_t>(m * n));
    const OutputMap rm = testref::row_major(n, n);
    t->gemm_f32(pa.data(), pb.data(), whole.data(), m, n, k, rm, 0, panels, nullptr,
                OpKind::kIdentity, 0.0);
    for (std::int64_t split = 1; split < panels; ++split) {
      std::vector<float> parts(whole.size(), -1.0f);
      t->gemm_f32(pa.data(), pb.data(), parts.data(), m, n, k, rm, 0, split, nullptr,
                  OpKind::kIdentity, 0.0);
      t->gemm_f32(pa.data(), pb.data(), parts.data(), m, n, k, rm, split, panels, nullptr,
                  OpKind::kIdentity, 0.0);
      for (std::size_t i = 0; i < whole.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(parts[i]),
                  std::bit_cast<std::uint32_t>(whole[i]))
            << "split=" << split << " i=" << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Conv lowering: panels packed from NCHW, tiles stored into NCHW
// ---------------------------------------------------------------------------

runtime_kernels::Conv2dGeometry conv_geo(std::int64_t batch, std::int64_t in_c, std::int64_t in_h,
                                         std::int64_t in_w, std::int64_t out_c,
                                         std::int64_t kernel, std::int64_t stride,
                                         std::int64_t pad, std::int64_t groups) {
  runtime_kernels::Conv2dGeometry g;
  g.batch = batch;
  g.in_c = in_c;
  g.in_h = in_h;
  g.in_w = in_w;
  g.out_c = out_c;
  g.kernel = kernel;
  g.stride = stride;
  g.pad = pad;
  g.groups = groups;
  g.out_h = (in_h + 2 * pad - kernel) / stride + 1;
  g.out_w = (in_w + 2 * pad - kernel) / stride + 1;
  return g;
}

/// Non-depthwise geometries at batch 1 and 3: the 9-case grid of
/// GemmConvMatchesDirectConv (11x9 input: border taps, strides 1 and 2,
/// groups), 7x7 and 2x2 outputs (cols % nr != 0, cols < nr, panels across
/// samples and output rows), a pad-0 3x3, the ResNet stem shape, and a
/// Dense layer as the 1x1 conv of an [N, F, 1, 1] input.
std::vector<runtime_kernels::Conv2dGeometry> packer_geometries() {
  std::vector<runtime_kernels::Conv2dGeometry> out;
  for (std::int64_t batch : {1, 3}) {
    for (const auto& c : std::vector<std::array<std::int64_t, 6>>{
             {3, 8, 3, 1, 1, 1}, {3, 8, 3, 2, 1, 1}, {4, 6, 1, 1, 0, 1}, {4, 6, 1, 2, 0, 1},
             {8, 8, 3, 1, 0, 2}, {8, 4, 5, 2, 2, 4}, {6, 6, 3, 1, 1, 6}, {6, 6, 3, 2, 1, 6},
             {5, 7, 7, 2, 3, 1}}) {
      if (c[5] == c[0] && c[1] == c[0]) continue;  // depthwise: the direct kernel, no B panels
      out.push_back(conv_geo(batch, c[0], 11, 9, c[1], c[2], c[3], c[4], c[5]));
    }
    out.push_back(conv_geo(batch, 5, 7, 7, 6, 3, 1, 1, 1));    // 7x7 output, 49 cols
    out.push_back(conv_geo(batch, 9, 2, 2, 4, 3, 1, 1, 1));    // 2x2 output, 4 cols
    out.push_back(conv_geo(batch, 6, 4, 4, 3, 1, 2, 0, 1));    // 2x2 output, stride 2
    out.push_back(conv_geo(batch, 4, 8, 8, 5, 3, 1, 0, 1));    // pad 0: 6x6 output
    out.push_back(conv_geo(batch, 3, 20, 20, 8, 7, 2, 3, 1));  // 7x7 stride-2 stem
    out.push_back(conv_geo(batch * 7, 37, 1, 1, 5, 1, 1, 0, 1));  // Dense 37 -> 5
  }
  return out;
}

std::string geo_name(const runtime_kernels::Conv2dGeometry& g) {
  return "b=" + std::to_string(g.batch) + " c=" + std::to_string(g.in_c) + " " +
         std::to_string(g.in_h) + "x" + std::to_string(g.in_w) + " k=" +
         std::to_string(g.kernel) + " s=" + std::to_string(g.stride) + " p=" +
         std::to_string(g.pad) + " groups=" + std::to_string(g.groups);
}

TEST(ConvPacker, PanelsEqualPackedIm2colAtEveryTable) {
  // pack_conv_b_* must write exactly the bytes the tile's B packer writes
  // over the im2col matrix, for every k grouping and tile width, however
  // the panel range is split across calls. The packed buffers start filled
  // with a sentinel, so a byte the packer skips shows up too.
  std::uint64_t seed = 700;
  for (const auto& geo : packer_geometries()) {
    SCOPED_TRACE(geo_name(geo));
    const std::int64_t in_elems = geo.batch * geo.in_c * geo.in_h * geo.in_w;
    const auto x = rand_f32(static_cast<std::size_t>(in_elems), seed++);
    const auto x8 = rand_s8(static_cast<std::size_t>(in_elems), seed++);
    const std::int64_t patch = geo.patch(), n = geo.batch * geo.cols();
    for (const GemmMicrokernels* t : all_tables()) {
      SCOPED_TRACE(util::simd_level_name(t->level));
      for (std::int64_t group = 0; group < geo.groups; ++group) {
        const auto col = testref::im2col(x.data(), geo, group);
        std::vector<float> want(runtime_kernels::packed_b_f32_elems(patch, n, t->f32));
        testref::pack_b_f32(col.data(), patch, n, t->f32, want.data());
        const auto col8 = testref::im2col(x8.data(), geo, group);
        std::vector<std::int8_t> want8(runtime_kernels::packed_b_s8_bytes(patch, n, t->s8));
        testref::pack_b_s8(col8.data(), patch, n, t->s8, want8.data());

        const std::int64_t panels = panel_count(n, t->f32.nr);
        const std::int64_t panels8 = panel_count(n, t->s8.nr);
        for (std::int64_t split : {std::int64_t{0}, std::int64_t{1}, panels / 2, panels - 1}) {
          std::vector<float> got(want.size(), -99.0f);
          runtime_kernels::pack_conv_b_f32(x.data(), geo, group, t->f32, 0, split, got.data());
          runtime_kernels::pack_conv_b_f32(x.data(), geo, group, t->f32, split, panels,
                                           got.data());
          ASSERT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)), 0)
              << "f32 group=" << group << " split=" << split;
        }
        for (std::int64_t split : {std::int64_t{0}, std::int64_t{1}, panels8 / 2, panels8 - 1}) {
          std::vector<std::int8_t> got8(want8.size(), 0x5A);
          runtime_kernels::pack_conv_b_s8(x8.data(), geo, group, t->s8, 0, split, got8.data());
          runtime_kernels::pack_conv_b_s8(x8.data(), geo, group, t->s8, split, panels8,
                                          got8.data());
          ASSERT_EQ(got8, want8) << "s8 group=" << group << " split=" << split;
        }
      }
    }
  }
}

TEST(MappedStore, NchwMapEqualsRowMajorStoreThenUnfold) {
  // Each group's GEMM stored through Conv2dGeometry::output_map must give
  // the bytes (f32: bits) and saturation counts of a row-major store into
  // the folded [ocg x batch·cols] matrix scattered into NCHW afterwards.
  // The grid has tiles that cross sample boundaries (49 and 4 columns per
  // sample) and the Dense geometry, whose map is the col-major store.
  std::uint64_t seed = 900, saturations = 0;
  for (const auto& geo : packer_geometries()) {
    SCOPED_TRACE(geo_name(geo));
    const std::int64_t in_elems = geo.batch * geo.in_c * geo.in_h * geo.in_w;
    const std::int64_t out_elems = geo.batch * geo.out_c * geo.cols();
    const std::int64_t patch = geo.patch(), m = geo.ocg(), n = geo.batch * geo.cols();
    const auto x = rand_f32(static_cast<std::size_t>(in_elems), seed++);
    const auto x8 = rand_s8(static_cast<std::size_t>(in_elems), seed++);
    const auto w = rand_f32(static_cast<std::size_t>(geo.out_c * patch), seed++);
    const auto w8 = rand_s8(static_cast<std::size_t>(geo.out_c * patch), seed++);
    const auto bias = rand_f32(static_cast<std::size_t>(geo.out_c), seed++);
    Rng rng(seed++);
    std::vector<std::int32_t> bias8(static_cast<std::size_t>(geo.out_c));
    std::vector<double> mult(bias8.size());
    for (std::size_t i = 0; i < bias8.size(); ++i) {
      bias8[i] = static_cast<std::int32_t>(rng.uniform(-500.0, 500.0));
      mult[i] = rng.uniform(0.0005, 0.01);  // a fair share of outputs saturate
    }
    for (const GemmMicrokernels* t : all_tables()) {
      SCOPED_TRACE(util::simd_level_name(t->level));
      std::vector<float> want(static_cast<std::size_t>(out_elems)), got(want.size(), -99.0f);
      std::vector<std::int8_t> want8(want.size()), got8(want.size(), 0x5A);
      std::uint64_t sat_want = 0, sat_got = 0;
      for (std::int64_t g = 0; g < geo.groups; ++g) {
        const auto col = testref::im2col(x.data(), geo, g);
        const auto col8 = testref::im2col(x8.data(), geo, g);
        const float* gb = bias.data() + g * m;
        std::vector<float> folded(static_cast<std::size_t>(m * n));
        mk_gemm_f32(*t, w.data() + g * m * patch, col.data(), folded.data(), m, n, patch, gb,
                    OpKind::kRelu, 0.0);
        testref::unfold(folded.data(), geo, g, want.data());
        const OutputMap map = geo.output_map();
        float* y = got.data() + g * m * geo.cols();
        mk_gemm_f32(*t, w.data() + g * m * patch, col.data(), y, m, n, patch, gb, OpKind::kRelu,
                    0.0, &map);

        std::vector<std::int8_t> folded8(folded.size());
        sat_want += mk_gemm_s8(*t, w8.data() + g * m * patch, col8.data(), folded8.data(), m, n,
                               patch, bias8.data() + g * m, mult.data() + g * m, -128, 127);
        testref::unfold(folded8.data(), geo, g, want8.data());
        sat_got += mk_gemm_s8(*t, w8.data() + g * m * patch, col8.data(),
                              got8.data() + g * m * geo.cols(), m, n, patch, bias8.data() + g * m,
                              mult.data() + g * m, -128, 127, &map);
      }
      ASSERT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)), 0);
      ASSERT_EQ(got8, want8);
      EXPECT_EQ(sat_got, sat_want);
      saturations += sat_want;
      if (geo.in_h == 1 && geo.kernel == 1) {  // Dense: the NCHW map is the col-major store
        std::vector<std::int8_t> cm8(want8.size());
        const OutputMap cm = testref::col_major(m, n);
        (void)mk_gemm_s8(*t, w8.data(), testref::im2col(x8.data(), geo, 0).data(), cm8.data(), m,
                         n, patch, bias8.data(), mult.data(), -128, 127, &cm);
        EXPECT_EQ(cm8, want8);
      }
    }
  }
  EXPECT_GT(saturations, 0u);  // the counts compared above are not all zero
}

// ---------------------------------------------------------------------------
// Dispatch resolution and env overrides
// ---------------------------------------------------------------------------

TEST(Dispatch, ForcePortableEnvWinsOverEverything) {
  ScopedEnv force("VEDLIOT_FORCE_PORTABLE", "1");
  EXPECT_EQ(util::resolve_simd_level(util::SimdLevel::kAuto), util::SimdLevel::kPortable);
  EXPECT_EQ(util::resolve_simd_level(util::SimdLevel::kAvx2), util::SimdLevel::kPortable);
}

TEST(Dispatch, ForcePortableZeroIsOff) {
  ScopedEnv force("VEDLIOT_FORCE_PORTABLE", "0");
  ScopedEnv no_pin("VEDLIOT_SIMD", "");  // tier1 also runs this suite under VEDLIOT_SIMD=avx2
  const auto resolved = util::resolve_simd_level(util::SimdLevel::kAuto);
  // "0" disables the kill switch: kAuto resolves to the host's best level.
  EXPECT_EQ(resolved, best_table().level);
}

TEST(Dispatch, SimdEnvSelectsLevel) {
  // Neutralize an ambient kill switch (tier1 runs this suite with
  // VEDLIOT_FORCE_PORTABLE=1); "0" means off.
  ScopedEnv off("VEDLIOT_FORCE_PORTABLE", "0");
  {
    ScopedEnv sel("VEDLIOT_SIMD", "portable");
    EXPECT_EQ(util::resolve_simd_level(util::SimdLevel::kAuto),
              util::SimdLevel::kPortable);
  }
  for (auto level : {util::SimdLevel::kAvx2, util::SimdLevel::kAvxVnni}) {
    ScopedEnv sel("VEDLIOT_SIMD", std::string(util::simd_level_name(level)).c_str());
    const auto resolved = util::resolve_simd_level(util::SimdLevel::kAuto);
    if (util::simd_supported(level)) {
      EXPECT_EQ(resolved, level);
    } else {
      // Unsupported request degrades to portable rather than crashing.
      EXPECT_EQ(resolved, util::SimdLevel::kPortable);
    }
  }
}

TEST(Dispatch, AutoPrefersAvxVnniThenAvx2) {
  ScopedEnv off("VEDLIOT_FORCE_PORTABLE", "0");
  ScopedEnv no_pin("VEDLIOT_SIMD", "");
  const util::CpuFeatures& f = util::cpu_features();
  // AVX-VNNI is an add-on to the AVX2 level, never a level of its own.
  EXPECT_EQ(util::simd_supported(util::SimdLevel::kAvxVnni), f.avx2 && f.fma && f.avx_vnni);
  const auto resolved = util::resolve_simd_level(util::SimdLevel::kAuto);
  if (util::simd_supported(util::SimdLevel::kAvxVnni)) {
    EXPECT_EQ(resolved, util::SimdLevel::kAvxVnni);
  } else if (util::simd_supported(util::SimdLevel::kAvx2)) {
    EXPECT_EQ(resolved, util::SimdLevel::kAvx2);  // exactly the pre-VNNI resolution
  }
  EXPECT_EQ(resolved, best_table().level);
  // An explicit avx2 request still gets the madd tile on a VNNI host.
  if (util::simd_supported(util::SimdLevel::kAvx2)) {
    EXPECT_EQ(util::resolve_simd_level(util::SimdLevel::kAvx2), util::SimdLevel::kAvx2);
    EXPECT_EQ(runtime_kernels::gemm_microkernels(util::SimdLevel::kAvx2).s8.kgroup, 2);
  }
}

TEST(Dispatch, PortableLevelHasFullTable) {
  const GemmMicrokernels& t = runtime_kernels::gemm_microkernels(util::SimdLevel::kPortable);
  EXPECT_EQ(t.level, util::SimdLevel::kPortable);
  EXPECT_NE(t.gemm_f32, nullptr);
  EXPECT_NE(t.gemm_s8, nullptr);
  EXPECT_GT(t.f32.mr * t.f32.nr, 0);
  EXPECT_GT(t.s8.mr * t.s8.nr, 0);
  // Every level's table is full, so no executor ever needs a fallback path.
  for (const GemmMicrokernels* level : all_tables()) {
    EXPECT_NE(level->gemm_f32, nullptr) << util::simd_level_name(level->level);
    EXPECT_NE(level->gemm_s8, nullptr) << util::simd_level_name(level->level);
  }
}

TEST(Dispatch, ExecutorReportsActiveLevel) {
  ScopedEnv off("VEDLIOT_FORCE_PORTABLE", "0");
  ScopedEnv no_pin("VEDLIOT_SIMD", "");
  Graph g = zoo::micro_mlp("m", 1, 16, {24, 12}, 4);
  Rng rng(3);
  g.materialize_weights(rng);
  const Tensor in(Shape{1, 16}, rand_f32(16, 42));

  Executor exec(g);
  exec.set_simd(util::SimdLevel::kPortable);
  (void)testutil::exec_single(exec, g, in);
  EXPECT_EQ(exec.active_simd(), util::SimdLevel::kPortable);

  exec.set_simd(util::SimdLevel::kAuto);
  (void)testutil::exec_single(exec, g, in);
  EXPECT_EQ(exec.active_simd(), best_table().level);

  // The kill switch overrides the per-run resolution too.
  ScopedEnv force("VEDLIOT_FORCE_PORTABLE", "1");  // shadows `off` until scope end
  (void)testutil::exec_single(exec, g, in);
  EXPECT_EQ(exec.active_simd(), util::SimdLevel::kPortable);
}

// ---------------------------------------------------------------------------
// Session-level agreement across dispatch levels
// ---------------------------------------------------------------------------

/// micro_cnn with grouped and depthwise convolutions spliced in, so one
/// graph covers the standard, grouped, and depthwise conv paths.
Graph conv_variants_graph(std::int64_t batch = 1) {
  Graph g("convs");
  const NodeId in = g.add_input("x", Shape{batch, 4, 10, 10});
  AttrMap a1;
  a1.set_int("out_channels", 8);
  a1.set_int("kernel", 3);
  a1.set_int("stride", 1);
  a1.set_int("pad", 1);
  a1.set_int("groups", 1);
  a1.set_int("bias", 1);
  const NodeId c1 = g.add(OpKind::kConv2d, "c1", {in}, std::move(a1));
  const NodeId r1 = g.add(OpKind::kRelu, "r1", {c1});
  AttrMap a2;  // grouped: 8 -> 8 with 2 groups
  a2.set_int("out_channels", 8);
  a2.set_int("kernel", 3);
  a2.set_int("stride", 1);
  a2.set_int("pad", 1);
  a2.set_int("groups", 2);
  a2.set_int("bias", 1);
  const NodeId c2 = g.add(OpKind::kConv2d, "c2_grouped", {r1}, std::move(a2));
  AttrMap a3;  // depthwise: groups == channels
  a3.set_int("out_channels", 8);
  a3.set_int("kernel", 3);
  a3.set_int("stride", 1);
  a3.set_int("pad", 1);
  a3.set_int("groups", 8);
  a3.set_int("bias", 1);
  const NodeId c3 = g.add(OpKind::kConv2d, "c3_dw", {c2}, std::move(a3));
  const NodeId r3 = g.add(OpKind::kRelu, "r3", {c3});
  const NodeId flat = g.add(OpKind::kFlatten, "flat", {r3});
  AttrMap ad;
  ad.set_int("units", 5);
  ad.set_int("bias", 1);
  g.add(OpKind::kDense, "head", {flat}, std::move(ad));
  return g;
}

Tensor run_at_level(const Graph& g, const Tensor& in, util::SimdLevel level,
                    unsigned threads = 1) {
  Executor exec(g);
  exec.set_simd(level);
  exec.set_threads(threads);
  return testutil::exec_single(exec, g, in);
}

TEST(SessionDispatch, F32ConvVariantsAgreeAcrossLevels) {
  Graph g = conv_variants_graph();
  Rng rng(5);
  g.materialize_weights(rng);
  const Tensor in(Shape{1, 4, 10, 10}, rand_f32(400, 77));
  const Tensor portable = run_at_level(g, in, util::SimdLevel::kPortable);
  const Tensor simd = run_at_level(g, in, util::SimdLevel::kAuto);
  // Standard + grouped convs ride the f32 microkernel (FMA contraction →
  // tight tolerance); depthwise stays on the direct kernel at every level.
  EXPECT_LT(max_abs_diff(portable, simd), 1e-4f);
}

/// Full int8 pre-deployment pipeline (mirrors test_qruntime's helper).
Graph deploy_ready_q(Graph g, std::uint64_t seed, const Shape& input_shape) {
  Rng rng(seed);
  g.materialize_weights(rng);
  opt::FuseBatchNormPass bn;
  bn.run(g);
  opt::FuseActivationPass act;
  act.run(g);
  std::vector<Tensor> samples;
  Rng data_rng(seed + 1);
  for (int i = 0; i < 8; ++i) {
    samples.emplace_back(input_shape,
                         data_rng.normal_vector(static_cast<std::size_t>(input_shape.numel())));
  }
  opt::calibrate_activations(g, samples, Calibration::kMinMax);
  return g;
}

TEST(SessionDispatch, Int8ConvVariantsBitwiseAcrossLevels) {
  const Shape in_shape{1, 4, 10, 10};
  Graph g = deploy_ready_q(conv_variants_graph(), 9, in_shape);
  const Tensor in(in_shape, rand_f32(400, 78));

  Executor portable(g, DType::kINT8);
  portable.set_simd(util::SimdLevel::kPortable);
  const QTensor qp = portable.run_quantized(in);

  Executor simd(g, DType::kINT8);
  simd.set_simd(util::SimdLevel::kAuto);
  const QTensor qs = simd.run_quantized(in);

  // Exact int32 arithmetic at every level: bytes and saturation counters
  // must be identical, not merely close.
  ASSERT_EQ(qp.data.size(), qs.data.size());
  for (std::size_t i = 0; i < qp.data.size(); ++i) ASSERT_EQ(qp.data[i], qs.data[i]);
  EXPECT_EQ(portable.saturations(), simd.saturations());
}

TEST(SessionDispatch, Int8SwitchingAvx2AndAvxVnniRepacksAndStaysBitwise) {
  // The two x86 int8 levels pack weights differently (int16 pairs vs u8·s8
  // quads with correction words). One executor flipped between them must
  // repack on every switch and keep every byte and saturation count.
  if (!util::simd_supported(util::SimdLevel::kAvxVnni)) GTEST_SKIP() << "no AVX-VNNI";
  ScopedEnv off("VEDLIOT_FORCE_PORTABLE", "0");
  ScopedEnv no_pin("VEDLIOT_SIMD", "");
  const Shape in_shape{2, 4, 10, 10};
  Graph g = deploy_ready_q(conv_variants_graph(2), 17, in_shape);
  const Tensor in(in_shape, rand_f32(800, 81));
  Executor portable(g, DType::kINT8);
  portable.set_simd(util::SimdLevel::kPortable);
  const QTensor ref = portable.run_quantized(in);

  Executor exec(g, DType::kINT8);
  std::size_t packs = 0;
  for (auto level : {util::SimdLevel::kAvx2, util::SimdLevel::kAvxVnni, util::SimdLevel::kAvx2,
                     util::SimdLevel::kAvxVnni}) {
    SCOPED_TRACE(util::simd_level_name(level));
    exec.set_simd(level);
    const std::uint64_t sat0 = exec.saturations();
    const QTensor got = exec.run_quantized(in);
    EXPECT_EQ(exec.active_simd(), level);
    EXPECT_GT(exec.weight_packs(), packs);  // the other level's panels are stale
    packs = exec.weight_packs();
    ASSERT_EQ(got.data, ref.data);
    EXPECT_EQ(exec.saturations() - sat0, portable.saturations());
  }
  (void)exec.run_quantized(in);
  EXPECT_EQ(exec.weight_packs(), packs);  // same level again: cache hits only
}

TEST(SessionDispatch, Int8DenseBatchedBitwiseAcrossLevels) {
  const Shape in_shape{4, 16};
  Graph g = deploy_ready_q(zoo::micro_mlp("m", 4, 16, {24, 12}, 4), 13, in_shape);
  const Tensor in(in_shape, rand_f32(64, 80));
  Executor portable(g, DType::kINT8);
  portable.set_simd(util::SimdLevel::kPortable);
  Executor simd(g, DType::kINT8);
  simd.set_simd(util::SimdLevel::kAuto);
  const QTensor qp = portable.run_quantized(in);
  const QTensor qs = simd.run_quantized(in);
  for (std::size_t i = 0; i < qp.data.size(); ++i) ASSERT_EQ(qp.data[i], qs.data[i]);
}

// ---------------------------------------------------------------------------
// Parallel-vs-serial and batch-lane determinism at the SIMD level
// ---------------------------------------------------------------------------

TEST(Determinism, ParallelVsSerialBitwiseAtSimdLevel) {
  Graph g = conv_variants_graph();
  Rng rng(21);
  g.materialize_weights(rng);
  const Tensor in(Shape{1, 4, 10, 10}, rand_f32(400, 90));
  const Tensor serial = run_at_level(g, in, util::SimdLevel::kAuto, 1);
  const Tensor parallel = run_at_level(g, in, util::SimdLevel::kAuto, 4);
  EXPECT_FLOAT_EQ(max_abs_diff(serial, parallel), 0.0f);

  const Tensor pserial = run_at_level(g, in, util::SimdLevel::kPortable, 1);
  const Tensor pparallel = run_at_level(g, in, util::SimdLevel::kPortable, 4);
  EXPECT_FLOAT_EQ(max_abs_diff(pserial, pparallel), 0.0f);
}

TEST(Determinism, Int8ParallelVsSerialBitwiseAtSimdLevel) {
  const Shape in_shape{1, 4, 10, 10};
  Graph g = deploy_ready_q(conv_variants_graph(), 31, in_shape);
  const Tensor in(in_shape, rand_f32(400, 91));
  Executor serial(g, DType::kINT8);
  serial.set_simd(util::SimdLevel::kAuto);
  serial.set_threads(1);
  Executor parallel(g, DType::kINT8);
  parallel.set_simd(util::SimdLevel::kAuto);
  parallel.set_threads(4);
  const QTensor a = serial.run_quantized(in);
  const QTensor b = parallel.run_quantized(in);
  for (std::size_t i = 0; i < a.data.size(); ++i) ASSERT_EQ(a.data[i], b.data[i]);
  EXPECT_EQ(serial.saturations(), parallel.saturations());
}

TEST(Determinism, BatchLanesBitwiseEqualSingletonAtEveryLevel) {
  // Zero-padded panel tails mean every lane of a batched dense executes the
  // identical multiply-add sequence: 8 copies of one sample must produce 8
  // output rows bitwise equal to the same sample run alone (the fleet CRC
  // contract) at the portable and the SIMD level.
  Graph g = zoo::micro_mlp("m", 8, 16, {24, 12}, 4);
  Rng rng(51);
  g.materialize_weights(rng);
  Graph g1 = zoo::micro_mlp("m", 1, 16, {24, 12}, 4);
  Rng rng1(51);
  g1.materialize_weights(rng1);
  const auto one = rand_f32(16, 93);
  std::vector<float> stacked;
  for (int i = 0; i < 8; ++i) stacked.insert(stacked.end(), one.begin(), one.end());
  for (auto level : kLevels) {
    Executor exec(g);
    exec.set_simd(level);
    const Tensor out = testutil::exec_single(exec, g, Tensor(Shape{8, 16}, stacked));
    Executor single(g1);
    single.set_simd(level);
    const Tensor alone = testutil::exec_single(single, g1, Tensor(Shape{1, 16}, one));
    const auto d = out.data();
    const auto s1 = alone.data();
    const std::size_t row = static_cast<std::size_t>(out.shape().dim(1));
    ASSERT_EQ(s1.size(), row);
    for (std::size_t lane = 0; lane < 8; ++lane) {
      for (std::size_t j = 0; j < row; ++j) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(d[lane * row + j]),
                  std::bit_cast<std::uint32_t>(s1[j]))
            << util::simd_level_name(level) << " lane=" << lane << " j=" << j;
      }
    }
  }
}

TEST(Determinism, ConvBatchLanesBitwiseEqualSingletonAtEveryLevel) {
  // Batch folding packs the samples' pixels side by side into one GEMM N.
  // Each sample has 10x10 = 100 output pixels, not a multiple of any nr, so
  // lanes of different samples share tiles. The graph also has a grouped
  // conv and a depthwise layer. Every lane must still be bitwise equal to
  // the same sample run alone, in f32 and int8, at portable and SIMD level.
  constexpr std::int64_t kBatch = 3;
  const Shape one_shape{1, 4, 10, 10};
  const Graph g1 = deploy_ready_q(conv_variants_graph(1), 71, one_shape);
  Graph g3 = conv_variants_graph(kBatch);  // same weights, fusion and scales
  Rng rng(71);
  g3.materialize_weights(rng);
  opt::FuseBatchNormPass bn;
  bn.run(g3);
  opt::FuseActivationPass act;
  act.run(g3);
  for (NodeId id : g1.topo_order()) {
    g3.node(id).attrs.set_float("act_scale", g1.node(id).attrs.get_float("act_scale"));
  }
  std::vector<Tensor> samples;
  std::vector<float> stacked;
  for (std::int64_t b = 0; b < kBatch; ++b) {
    const auto v = rand_f32(400, 101 + static_cast<std::uint64_t>(b));
    samples.emplace_back(one_shape, v);
    stacked.insert(stacked.end(), v.begin(), v.end());
  }
  const Tensor batch_in(Shape{kBatch, 4, 10, 10}, stacked);
  for (auto level : kLevels) {
    SCOPED_TRACE(util::simd_level_name(level));
    const Tensor out = run_at_level(g3, batch_in, level, 2);
    Executor q3(g3, DType::kINT8);
    q3.set_simd(level);
    const QTensor qout = q3.run_quantized(batch_in);
    std::uint64_t lane_saturations = 0;
    for (std::int64_t b = 0; b < kBatch; ++b) {
      const Tensor alone = run_at_level(g1, samples[static_cast<std::size_t>(b)], level);
      const auto row = static_cast<std::size_t>(alone.numel());
      for (std::size_t j = 0; j < row; ++j) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(out.data()[static_cast<std::size_t>(b) * row + j]),
                  std::bit_cast<std::uint32_t>(alone.data()[j]))
            << "f32 lane=" << b << " j=" << j;
      }
      Executor q1(g1, DType::kINT8);
      q1.set_simd(level);
      const QTensor qalone = q1.run_quantized(samples[static_cast<std::size_t>(b)]);
      lane_saturations += q1.saturations();
      for (std::size_t j = 0; j < row; ++j) {
        ASSERT_EQ(qout.data[static_cast<std::size_t>(b) * row + j], qalone.data[j])
            << "int8 lane=" << b << " j=" << j;
      }
    }
    EXPECT_EQ(q3.saturations(), lane_saturations);
  }
}

TEST(Determinism, OneSessionServesEveryWidthBitwiseEqualSingleton) {
  // Plans take the batch from the feed: one f32 and one int8 session over
  // batch-1 graphs run widths 1, 3, 5 and 8 interleaved (the arena grows
  // and is reused at narrower widths). Every lane must be bitwise equal to
  // the same sample run alone through that session, and an int8 run's
  // saturations must be the sum of its lanes', at both dispatch levels and
  // at 1 and 2 threads.
  struct Model {
    const char* name;
    Graph graph;
    Shape lane;
  };
  Model models[] = {
      {"conv_variants", deploy_ready_q(conv_variants_graph(1), 111, Shape{1, 4, 10, 10}),
       Shape{1, 4, 10, 10}},
      {"micro_mlp", deploy_ready_q(zoo::micro_mlp("m", 1, 16, {24, 12}, 4), 112, Shape{1, 16}),
       Shape{1, 16}},
  };
  constexpr std::int64_t kWidths[] = {5, 1, 8, 3, 8, 1, 5, 3};
  for (const Model& m : models) {
    const std::string feed = m.graph.node(m.graph.inputs().front()).name;
    std::vector<Tensor> samples;
    for (std::uint64_t i = 0; i < 8; ++i) {
      samples.emplace_back(m.lane, rand_f32(static_cast<std::size_t>(m.lane.numel()), 120 + i));
    }
    for (auto level : kLevels) {
      for (unsigned threads : {1u, 2u}) {
        for (bool quantized : {false, true}) {
          SCOPED_TRACE(std::string(m.name) + " " + std::string(util::simd_level_name(level)) +
                       " threads " + std::to_string(threads) + (quantized ? " int8" : " f32"));
          runtime::RunOptions o;
          o.exec.simd = level;
          o.exec.threads = threads;
          auto session = quantized ? runtime::make_quantized_session(m.graph, o)
                                   : runtime::make_session(m.graph, o);
          std::vector<Tensor> alone;
          std::vector<std::uint64_t> lane_sat;
          std::uint64_t sat = 0;
          for (const Tensor& x : samples) {
            const runtime::RunResult r = session->run({{feed, x}});
            alone.push_back(r.single());
            lane_sat.push_back(r.saturations - sat);
            sat = r.saturations;
          }
          for (const std::int64_t w : kWidths) {
            const auto lanes = static_cast<std::size_t>(w);
            const runtime::RunResult r =
                session->run({{feed, stack_batch(std::span<const Tensor>(samples.data(), lanes))}});
            const std::vector<Tensor> out = split_batch(r.single());
            ASSERT_EQ(out.size(), lanes);
            std::uint64_t want_sat = 0;
            for (std::size_t i = 0; i < lanes; ++i) {
              ASSERT_EQ(out[i].numel(), alone[i].numel());
              for (std::int64_t j = 0; j < out[i].numel(); ++j) {
                const auto k = static_cast<std::size_t>(j);
                ASSERT_EQ(std::bit_cast<std::uint32_t>(out[i].data()[k]),
                          std::bit_cast<std::uint32_t>(alone[i].data()[k]))
                    << "width " << w << " lane " << i << " j " << j;
              }
              want_sat += lane_sat[i];
            }
            EXPECT_EQ(r.saturations - sat, want_sat) << "width " << w;
            sat = r.saturations;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Packed-weight cache lifecycle
// ---------------------------------------------------------------------------

TEST(PackedWeightCache, SteadyStateReusesAndInvalidatesOnVersionOrTile) {
  runtime_kernels::PackedWeightCache cache;
  const MicrokernelTile tile{6, 16};
  std::size_t fills = 0;
  auto pack = [&](std::vector<float>& buf) {
    buf.assign(8, static_cast<float>(++fills));
  };
  (void)cache.get_f32(3, 0, /*graph_version=*/1, tile, pack);
  (void)cache.get_f32(3, 0, 1, tile, pack);  // steady state: no repack
  EXPECT_EQ(cache.packs(), 1u);
  (void)cache.get_f32(3, 1, 1, tile, pack);  // different group: own entry
  EXPECT_EQ(cache.packs(), 2u);
  (void)cache.get_f32(3, 0, /*graph_version=*/2, tile, pack);  // touch() moved
  EXPECT_EQ(cache.packs(), 3u);
  const MicrokernelTile other{4, 8};
  (void)cache.get_f32(3, 0, 2, other, pack);  // dispatch-level change
  EXPECT_EQ(cache.packs(), 4u);
  (void)cache.get_f32(3, 0, 2, other, pack);
  EXPECT_EQ(cache.packs(), 4u);
  cache.clear();
  (void)cache.get_f32(3, 0, 2, other, pack);
  EXPECT_EQ(cache.packs(), 5u);
  // Same tile shape, other int8 k grouping (int16 pairs vs VNNI quads).
  auto pack_s8 = [&](std::vector<std::int32_t>& buf) { buf.assign(8, 1); };
  (void)cache.get_s8(3, 0, 2, MicrokernelTile{6, 16, 2}, pack_s8);
  (void)cache.get_s8(3, 0, 2, MicrokernelTile{6, 16, 4}, pack_s8);
  (void)cache.get_s8(3, 0, 2, MicrokernelTile{6, 16, 4}, pack_s8);
  EXPECT_EQ(cache.packs(), 7u);
}

TEST(PackedWeightCache, ExecutorReusesPacksAcrossRuns) {
  Graph g = conv_variants_graph();
  Rng rng(61);
  g.materialize_weights(rng);
  const Tensor in(Shape{1, 4, 10, 10}, rand_f32(400, 94));
  for (auto level : kLevels) {
    SCOPED_TRACE(util::simd_level_name(level));
    Executor exec(g);
    exec.set_simd(level);
    (void)testutil::exec_single(exec, g, in);
    const std::size_t after_first = exec.weight_packs();
    EXPECT_GT(after_first, 0u);
    (void)testutil::exec_single(exec, g, in);
    (void)testutil::exec_single(exec, g, in);
    EXPECT_EQ(exec.weight_packs(), after_first);  // steady state: cache hits only
  }
}

// ---------------------------------------------------------------------------
// OTA-repair self-heal: corrupt → scrub → repair → bitwise-clean rerun
// ---------------------------------------------------------------------------

/// Flip one mantissa bit of the first parametric node's first weight tensor.
void flip_weight_bit(Graph& g) {
  for (NodeId id : g.topo_order()) {
    Node& n = g.node(id);
    if (n.weights.empty()) continue;
    float& w = n.weights.front().at(0);
    w = std::bit_cast<float>(std::bit_cast<std::uint32_t>(w) ^ (1u << 22));
    g.touch();
    return;
  }
  FAIL() << "graph has no parametric node";
}

TEST(SelfHeal, F32RepairInvalidatesPackedPanels) {
  for (auto level : kLevels) {
    SCOPED_TRACE(util::simd_level_name(level));
    Graph live = conv_variants_graph();
    Rng rng(71);
    live.materialize_weights(rng);
    safety::ModelStore store;
    store.install("net", live);
    const Tensor in(Shape{1, 4, 10, 10}, rand_f32(400, 95));

    Executor exec(live);
    exec.set_simd(level);
    const Tensor clean = testutil::exec_single(exec, live, in);
    const std::size_t packs0 = exec.weight_packs();

    safety::WeightScrubber scrub(live, {64});  // baselines the clean bits
    flip_weight_bit(live);
    (void)testutil::exec_single(exec, live, in);  // runs on corrupt weights
    EXPECT_GT(exec.weight_packs(), packs0);       // version bump → repack

    const auto hits = scrub.full_scan();
    ASSERT_FALSE(hits.empty());
    EXPECT_GE(store.repair("net", live, hits), 1u);

    const Tensor healed = testutil::exec_single(exec, live, in);
    // Healed weights + invalidated panels: output is bitwise the clean run.
    EXPECT_FLOAT_EQ(max_abs_diff(healed, clean), 0.0f);
  }
}

TEST(SelfHeal, Int8RepairTriggersRepreparationAndBitwiseCleanRerun) {
  const Shape in_shape{1, 4, 10, 10};
  for (auto level : kLevels) {
    SCOPED_TRACE(util::simd_level_name(level));
    Graph live = deploy_ready_q(conv_variants_graph(), 81, in_shape);
    safety::ModelStore store;
    store.install("net", live);
    const Tensor in(in_shape, rand_f32(400, 96));

    Executor exec(live, DType::kINT8);
    exec.set_simd(level);
    EXPECT_EQ(exec.preparations(), 1u);
    const QTensor clean = exec.run_quantized(in);

    safety::WeightScrubber scrub(live, {64});  // baselines the clean bits
    flip_weight_bit(live);
    (void)exec.run_quantized(in);  // self-heal re-quantizes from the corrupt bits
    EXPECT_EQ(exec.preparations(), 2u);

    const auto hits = scrub.full_scan();
    ASSERT_FALSE(hits.empty());
    EXPECT_GE(store.repair("net", live, hits), 1u);

    const QTensor healed = exec.run_quantized(in);
    EXPECT_EQ(exec.preparations(), 3u);  // repair touched the graph again
    ASSERT_EQ(healed.data.size(), clean.data.size());
    for (std::size_t i = 0; i < clean.data.size(); ++i) {
      ASSERT_EQ(healed.data[i], clean.data[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Roofline probes
// ---------------------------------------------------------------------------

TEST(Roofline, ProbesMeasurePositiveRoofs) {
  ScopedEnv no_pin("VEDLIOT_SIMD", "");
  const auto roof = hw::measure_host_roofline(util::SimdLevel::kPortable, 0.005);
  EXPECT_EQ(roof.level, util::SimdLevel::kPortable);
  EXPECT_GT(roof.f32_gflops, 0.0);
  EXPECT_GT(roof.s8_gops, 0.0);
}

TEST(Roofline, EachLevelsProbeIsAtLeastItsTilesRate) {
  // A roof below what the tile itself achieves makes every roof_fraction
  // meaningless. Each level's f32 and int8 tiles run an L2-resident GEMM.
  // Both sides are the best of many short samples, interleaved over ten
  // rounds, so a sample the scheduler preempts on a loaded host (tier-1
  // runs suites in parallel) sets neither number.
  constexpr std::int64_t m = 96, n = 192, k = 256;
  const double ops = 2.0 * m * n * k;
  const auto best_call_rate = [&](const auto& run) {  // best single call over >= 4 ms
    double best = 0;
    const auto start = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - start < std::chrono::milliseconds(4)) {
      const auto t0 = std::chrono::steady_clock::now();
      run();
      const std::chrono::duration<double> s = std::chrono::steady_clock::now() - t0;
      best = std::max(best, ops / s.count() / 1e9);
    }
    return best;
  };
  const auto a = rand_f32(m * k, 1), b = rand_f32(k * n, 2);
  const auto a8 = rand_s8(m * k, 3), b8 = rand_s8(k * n, 4);
  const std::vector<double> mult(m, 0.001);
  std::vector<float> c(m * n);
  std::vector<std::int8_t> c8(m * n);
  for (const GemmMicrokernels* t : all_tables()) {
    SCOPED_TRACE(util::simd_level_name(t->level));
    std::vector<float> pa(runtime_kernels::packed_a_f32_elems(m, k, t->f32));
    std::vector<float> pb(runtime_kernels::packed_b_f32_elems(k, n, t->f32));
    runtime_kernels::pack_a_f32(a.data(), m, k, t->f32, pa.data());
    testref::pack_b_f32(b.data(), k, n, t->f32, pb.data());
    std::vector<std::int32_t> pa8(runtime_kernels::packed_a_s8_words(m, k, t->s8));
    std::vector<std::int8_t> pb8(runtime_kernels::packed_b_s8_bytes(k, n, t->s8));
    runtime_kernels::pack_a_s8(a8.data(), m, k, t->s8, pa8.data());
    testref::pack_b_s8(b8.data(), k, n, t->s8, pb8.data());
    double f32_tile = 0, s8_tile = 0, f32_probe = 0, s8_probe = 0;
    for (int round = 0; round < 10; ++round) {
      f32_tile = std::max(f32_tile, best_call_rate([&] {
        t->gemm_f32(pa.data(), pb.data(), c.data(), m, n, k, testref::row_major(n, n), 0,
                    panel_count(m, t->f32.mr), nullptr, OpKind::kIdentity, 0.0);
      }));
      s8_tile = std::max(s8_tile, best_call_rate([&] {
        (void)t->gemm_s8(pa8.data(), pb8.data(), c8.data(), m, n, k, testref::row_major(n, n), 0,
                         panel_count(m, t->s8.mr), nullptr, mult.data(), -128, 127);
      }));
      f32_probe = std::max(f32_probe, runtime_kernels::peak_probe_f32(t->level, 0.004));
      s8_probe = std::max(s8_probe, runtime_kernels::peak_probe_s8(t->level, 0.004));
    }
    EXPECT_GE(f32_probe, f32_tile);
    EXPECT_GE(s8_probe, s8_tile);
    std::printf("%s: f32 tile %.1f probe %.1f GF/s, int8 tile %.1f probe %.1f Gop/s\n",
                std::string(util::simd_level_name(t->level)).c_str(), f32_tile, f32_probe,
                s8_tile, s8_probe);
  }
}

TEST(Roofline, FractionClampsAndDivides) {
  EXPECT_DOUBLE_EQ(hw::fraction_of_roofline(5.0, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(hw::fraction_of_roofline(0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(hw::fraction_of_roofline(5.0, 0.0), 0.0);
}

}  // namespace
}  // namespace vedliot
