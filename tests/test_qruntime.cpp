// Tests for the true-integer INT8 executor: agreement with the float
// reference (through the unified runtime::Session API), integer-domain
// invariants (through the executor directly, which exposes QTensor), and
// its preconditions.

#include <gtest/gtest.h>

#include <memory>

#include "graph/zoo.hpp"
#include "opt/fusion.hpp"
#include "opt/quantize.hpp"
#include "reference_kernels.hpp"
#include "runtime/qexecutor.hpp"
#include "runtime/session.hpp"
#include "util/rng.hpp"

namespace vedliot {
namespace {

/// Build, materialize, fold BN, fuse activations and calibrate — the full
/// pre-deployment pipeline the integer executor expects.
Graph deploy_ready(Graph g, std::uint64_t seed, const Shape& input_shape,
                   std::size_t calib_samples = 8) {
  Rng rng(seed);
  g.materialize_weights(rng);
  opt::FuseBatchNormPass bn;
  bn.run(g);
  opt::FuseActivationPass act;
  act.run(g);
  std::vector<Tensor> samples;
  Rng data_rng(seed + 1);
  for (std::size_t i = 0; i < calib_samples; ++i) {
    samples.emplace_back(input_shape,
                         data_rng.normal_vector(static_cast<std::size_t>(input_shape.numel())));
  }
  opt::calibrate_activations(g, samples, Calibration::kMinMax);
  return g;
}

/// Thread-count knob now lives in RunOptions::exec (ExecConfig).
runtime::RunOptions qs_threads(unsigned threads) {
  runtime::RunOptions o;
  o.exec.threads = threads;
  return o;
}

TEST(QTensor, QuantizeDequantizeRoundTrip) {
  Tensor t(Shape{4}, {0.5f, -0.25f, 1.0f, 0.0f});
  const QTensor q = quantize_fixed(t, 0.01);
  EXPECT_EQ(q.data[0], 50);
  EXPECT_EQ(q.data[1], -25);
  EXPECT_EQ(q.data[3], 0);
  const Tensor back = q.dequantize();
  EXPECT_LT(max_abs_diff(t, back), 0.01f);
}

TEST(QTensor, QuantizeSaturates) {
  Tensor t(Shape{2}, {100.0f, -100.0f});
  const QTensor q = quantize_fixed(t, 0.1);
  EXPECT_EQ(q.data[0], 127);
  EXPECT_EQ(q.data[1], -128);
}

TEST(QuantizedExecutor, MatchesFloatOnMicroMlp) {
  const Shape in_shape{1, 16};
  Graph g = deploy_ready(zoo::micro_mlp("m", 1, 16, {24, 12}, 4), 11, in_shape, 32);
  auto fsession = runtime::make_session(g);
  auto qsession = runtime::make_quantized_session(g);
  EXPECT_EQ(fsession->backend(), "float-reference");
  EXPECT_EQ(qsession->backend(), "int8");

  Rng rng(99);
  int agree = 0;
  double worst = 0;
  for (int i = 0; i < 32; ++i) {
    Tensor x(in_shape, rng.normal_vector(16));
    const Tensor fy = fsession->run_single(x);
    const Tensor qy = qsession->run_single(x);
    worst = std::max(worst, static_cast<double>(max_abs_diff(fy, qy)));
    // argmax agreement
    std::size_t fa = 0, qa = 0;
    for (std::int64_t j = 1; j < fy.numel(); ++j) {
      if (fy.at(static_cast<std::size_t>(j)) > fy.at(fa)) fa = static_cast<std::size_t>(j);
      if (qy.at(static_cast<std::size_t>(j)) > qy.at(qa)) qa = static_cast<std::size_t>(j);
    }
    if (fa == qa) ++agree;
  }
  EXPECT_GE(agree, 29);      // >=90% top-1 agreement
  EXPECT_LT(worst, 0.30);    // softmax outputs reasonably close (PTQ saturation
                             // on samples outside the calibration range is expected)
}

TEST(QuantizedExecutor, MatchesFloatOnMicroCnn) {
  const Shape in_shape{1, 1, 16, 16};
  Graph g = deploy_ready(zoo::micro_cnn("m", 1, 1, 16, 4), 21, in_shape);
  auto fsession = runtime::make_session(g);
  auto qsession = runtime::make_quantized_session(g);

  Rng rng(7);
  int agree = 0;
  for (int i = 0; i < 16; ++i) {
    Tensor x(in_shape, rng.normal_vector(256));
    const Tensor fy = fsession->run_single(x);
    const Tensor qy = qsession->run_single(x);
    std::size_t fa = 0, qa = 0;
    for (std::int64_t j = 1; j < fy.numel(); ++j) {
      if (fy.at(static_cast<std::size_t>(j)) > fy.at(fa)) fa = static_cast<std::size_t>(j);
      if (qy.at(static_cast<std::size_t>(j)) > qy.at(qa)) qa = static_cast<std::size_t>(j);
    }
    if (fa == qa) ++agree;
  }
  EXPECT_GE(agree, 14);
}

TEST(QuantizedExecutor, OutputScaleIsCalibrated) {
  const Shape in_shape{1, 8};
  Graph g = deploy_ready(zoo::micro_mlp("m", 1, 8, {8}, 3), 31, in_shape);
  QuantizedExecutor qexec(g);
  Rng rng(5);
  const QTensor q = qexec.run_single(Tensor(in_shape, rng.normal_vector(8)));
  // softmax outputs in [0,1] -> scale must be <= ~1/127
  EXPECT_LE(q.scale, 1.0 / 127.0 + 1e-9);
  for (std::int8_t v : q.data) EXPECT_GE(v, 0);  // probabilities are non-negative
}

TEST(QuantizedExecutor, FusedReluClampsNegative) {
  // Single conv with fused relu: a strongly negative accumulation must
  // land exactly at q=0.
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 1, 1, 1});
  AttrMap a;
  a.set_int("out_channels", 1);
  a.set_int("kernel", 1);
  a.set_int("stride", 1);
  a.set_int("pad", 0);
  a.set_int("groups", 1);
  a.set_int("bias", 0);
  a.set_str("fused_act", "Relu");
  const NodeId c = g.add(OpKind::kConv2d, "conv", {in}, a);
  g.node(c).weights = {Tensor(Shape{1, 1, 1, 1}, {-1.0f})};
  g.node(in).attrs.set_float("act_scale", 0.01);
  g.node(c).attrs.set_float("act_scale", 0.01);

  QuantizedExecutor qexec(g);
  const QTensor q = qexec.run_single(Tensor(Shape{1, 1, 1, 1}, {1.0f}));
  EXPECT_EQ(q.data[0], 0);  // relu(-1.0) == 0 in the integer domain
}

TEST(QuantizedExecutor, RequantTablesMatchPerElementRequant) {
  // Relu6 and Flatten run through a 256-entry table built at prepare(), the
  // residual Add through a 65536-entry table over (a, b) byte pairs; each
  // must give the bytes and saturation counts of requantizing every element
  // on its own in double. Hand-set scales make the Relu6 rescale and the
  // Add saturate on purpose.
  Graph g("requant");
  const NodeId in = g.add_input("x", Shape{2, 4, 8, 8});
  const NodeId r6 = g.add(OpKind::kRelu6, "r6", {in});
  const NodeId sum = g.add(OpKind::kAdd, "sum", {in, r6});
  const NodeId flat = g.add(OpKind::kFlatten, "flat", {sum});
  const double s_in = 0.05, s_r6 = 0.02, s_sum = 0.035, s_flat = 0.03;
  g.node(in).attrs.set_float("act_scale", s_in);
  g.node(r6).attrs.set_float("act_scale", s_r6);
  g.node(sum).attrs.set_float("act_scale", s_sum);
  g.node(flat).attrs.set_float("act_scale", s_flat);
  Rng rng(47);
  const Tensor x(Shape{2, 4, 8, 8}, rng.normal_vector(512));

  QuantizedExecutor exec(g);
  const QTensor got = exec.run_single(x);

  const QTensor qx = quantize_fixed(x, s_in);
  std::uint64_t sat = 0, add_sat = 0;
  std::vector<std::int8_t> want(qx.data.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const std::int8_t mid = runtime_kernels::requant_clamped(
        static_cast<double>(qx.data[i]) * (s_in / s_r6), 0, 127, sat);  // 6/0.02 > 127
    const std::int8_t added = runtime_kernels::requant_clamped(
        (static_cast<double>(qx.data[i]) * s_in + static_cast<double>(mid) * s_r6) / s_sum, -128,
        127, add_sat);
    want[i] = runtime_kernels::requant_clamped(static_cast<double>(added) * (s_sum / s_flat),
                                               -128, 127, sat);
  }
  EXPECT_EQ(got.data, want);
  EXPECT_GT(sat, 0u);
  EXPECT_GT(add_sat, 0u);
  EXPECT_EQ(exec.saturations(), sat + add_sat);
}

TEST(QuantizedExecutor, AddThenUnaryTableComposesExactly) {
  // A Relu, Relu6 or Identity that is the only consumer of an Add runs as
  // one lookup in the composed table, and the unary node forwards the Add's
  // buffer. Bytes and saturation counts must equal requantizing the Add and
  // then the unary node element by element; the node still counts as run.
  const double s_in = 0.05, s_r6 = 0.02, s_sum = 0.035, s_u = 0.03;
  for (OpKind unary : {OpKind::kRelu, OpKind::kRelu6, OpKind::kIdentity}) {
    SCOPED_TRACE(op_name(unary));
    Graph g("compose");
    const NodeId in = g.add_input("x", Shape{2, 4, 8, 8});
    const NodeId r6 = g.add(OpKind::kRelu6, "r6", {in});
    const NodeId sum = g.add(OpKind::kAdd, "sum", {in, r6});
    const NodeId u = g.add(unary, "u", {sum});
    const NodeId flat = g.add(OpKind::kFlatten, "flat", {u});
    g.node(in).attrs.set_float("act_scale", s_in);
    g.node(r6).attrs.set_float("act_scale", s_r6);
    g.node(sum).attrs.set_float("act_scale", s_sum);
    g.node(u).attrs.set_float("act_scale", s_u);
    g.node(flat).attrs.set_float("act_scale", s_u);
    Rng rng(48);
    const Tensor x(Shape{2, 4, 8, 8}, rng.normal_vector(512));

    QuantizedExecutor exec(g);
    const QTensor got = exec.run_single(x);
    EXPECT_EQ(exec.nodes_executed(), 4u);

    const std::int32_t u_lo = unary == OpKind::kIdentity ? -128 : 0;
    const std::int32_t u_hi = 127;  // Relu6 too: 6 / s_u = 200 is past the int8 range
    const QTensor qx = quantize_fixed(x, s_in);
    std::uint64_t sat = 0;
    std::vector<std::int8_t> want(qx.data.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      const auto a = static_cast<double>(qx.data[i]);
      const std::int8_t mid = runtime_kernels::requant_clamped(a * (s_in / s_r6), 0, 127, sat);
      const std::int8_t added = runtime_kernels::requant_clamped(
          (a * s_in + static_cast<double>(mid) * s_r6) / s_sum, -128, 127, sat);
      const std::int8_t out = runtime_kernels::requant_clamped(
          static_cast<double>(added) * (s_sum / s_u), u_lo, u_hi, sat);
      want[i] = runtime_kernels::requant_clamped(static_cast<double>(out), -128, 127, sat);
    }
    EXPECT_EQ(got.data, want);
    EXPECT_DOUBLE_EQ(got.scale, s_u);
    EXPECT_GT(sat, 0u);
    EXPECT_EQ(exec.saturations(), sat);
  }
}

TEST(QuantizedExecutor, UnfoldedBatchNormRejected) {
  Graph g = zoo::micro_cnn("m", 1, 1, 16, 4);  // contains BN
  Rng rng(1);
  g.materialize_weights(rng);
  EXPECT_THROW(QuantizedExecutor{g}, Unsupported);
}

TEST(QuantizedExecutor, MissingCalibrationRejected) {
  Graph g = zoo::micro_mlp("m", 1, 8, {8}, 3);  // no BN, but no act_scale either
  Rng rng(1);
  g.materialize_weights(rng);
  EXPECT_THROW(QuantizedExecutor{g}, Unsupported);
}

TEST(QuantizedExecutor, SaturationCounterTracksClipping) {
  // Force saturation: tiny output scale cannot represent the accumulation.
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 4});
  AttrMap a;
  a.set_int("units", 2);
  a.set_int("bias", 0);
  const NodeId fc = g.add(OpKind::kDense, "fc", {in}, a);
  g.node(fc).weights = {Tensor(Shape{2, 4}, {1, 1, 1, 1, 1, 1, 1, 1})};
  g.node(in).attrs.set_float("act_scale", 0.05);
  g.node(fc).attrs.set_float("act_scale", 1e-4);  // absurdly small
  QuantizedExecutor qexec(g);
  qexec.run_single(Tensor(Shape{1, 4}, {5, 5, 5, 5}));
  EXPECT_GT(qexec.saturations(), 0u);
}

TEST(QuantizedExecutor, DepthwiseConvSupported) {
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 2, 4, 4});
  AttrMap a;
  a.set_int("out_channels", 2);
  a.set_int("kernel", 3);
  a.set_int("stride", 1);
  a.set_int("pad", 1);
  a.set_int("groups", 2);
  a.set_int("bias", 1);
  const NodeId c = g.add(OpKind::kConv2d, "dw", {in}, a);
  Rng rng(3);
  g.materialize_weights(rng);
  std::vector<Tensor> samples;
  Rng data_rng(4);
  for (int i = 0; i < 4; ++i) samples.emplace_back(Shape{1, 2, 4, 4}, data_rng.normal_vector(32));
  opt::calibrate_activations(g, samples);

  auto fsession = runtime::make_session(g);
  auto qsession = runtime::make_quantized_session(g);
  Tensor x(Shape{1, 2, 4, 4}, data_rng.normal_vector(32));
  const Tensor fy = fsession->run_single(x);
  const Tensor qy = qsession->run_single(x);
  EXPECT_LT(rmse(fy, qy), 0.25);
  (void)c;
}

TEST(QuantizedExecutor, UnsupportedOpRejectedAtRun) {
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 2, 2, 2});
  g.add(OpKind::kMish, "mish", {in});
  Rng rng(1);
  g.materialize_weights(rng);
  std::vector<Tensor> samples{Tensor(Shape{1, 2, 2, 2}, rng.normal_vector(8))};
  opt::calibrate_activations(g, samples);
  QuantizedExecutor qexec(g);
  EXPECT_THROW((void)qexec.run_single(Tensor(Shape{1, 2, 2, 2}, rng.normal_vector(8))),
               Unsupported);
}

// ---------------------------------------------------------------------------
// Parallel execution: integer kernels must be exactly deterministic
// ---------------------------------------------------------------------------

TEST(QuantizedExecutor, ResNet50ParallelBitwiseIdenticalToSerial) {
  Graph g = deploy_ready(zoo::resnet50(1, 10, 32), 41, Shape{1, 3, 32, 32});
  Rng data_rng(42);
  Tensor x(Shape{1, 3, 32, 32}, data_rng.normal_vector(3 * 32 * 32));

  QuantizedExecutor serial(g);
  const QTensor qs = serial.run_single(x);

  QuantizedExecutor mt(g);
  mt.set_threads(4);
  const QTensor qm = mt.run_single(x);

  EXPECT_EQ(qs.data, qm.data);  // int8 payloads: bitwise
  EXPECT_DOUBLE_EQ(qs.scale, qm.scale);
  // The saturation diagnostic is a per-chunk sum, also thread-invariant.
  EXPECT_EQ(serial.saturations(), mt.saturations());
}

/// The int8 conv route of QuantizedExecutor at one dispatch table: the
/// direct depthwise kernel over (sample, channel), or per group B panels
/// packed straight from the NCHW input and the table's GEMM tile over N =
/// batch·cols storing straight into NCHW. Returns the saturation count.
std::uint64_t route_conv_s8(const runtime_kernels::GemmMicrokernels& mk,
                            const runtime_kernels::Conv2dGeometry& geo, const std::int8_t* x,
                            const std::int8_t* w, const std::int32_t* bias, const double* mult,
                            std::int32_t q_lo, std::int32_t q_hi, std::int8_t* y) {
  using namespace runtime_kernels;
  if (geo.depthwise()) {
    return depthwise_s8(x, w, bias, y, geo, 0, geo.batch * geo.out_c, mult, q_lo, q_hi);
  }
  const std::int64_t patch = geo.patch(), m = geo.ocg(), n = geo.batch * geo.cols();
  std::vector<std::int8_t> pb(packed_b_s8_bytes(patch, n, mk.s8));
  std::vector<std::int32_t> pa(packed_a_s8_words(m, patch, mk.s8));
  std::uint64_t sat = 0;
  for (std::int64_t g = 0; g < geo.groups; ++g) {
    pack_conv_b_s8(x, geo, g, mk.s8, 0, panel_count(n, mk.s8.nr), pb.data());
    pack_a_s8(w + g * m * patch, m, patch, mk.s8, pa.data());
    sat += mk.gemm_s8(pa.data(), pb.data(), y + g * m * geo.cols(), m, n, patch,
                      geo.output_map(), 0, panel_count(m, mk.s8.mr), bias + g * m, mult + g * m,
                      q_lo, q_hi);
  }
  return sat;
}

TEST(QuantizedExecutor, GemmConvBitwiseMatchesDirectConv) {
  // Unlike the float path, int8 GEMM accumulates in int32: integer addition
  // is associative, so the packed-panel microkernel route must agree with the
  // direct loop bit for bit, saturation counts included, over a geometry
  // grid covering kernel size, stride, padding and groups, at every
  // dispatch level this binary has.
  struct Case {
    std::int64_t in_c, out_c, kernel, stride, pad, groups;
  };
  const Case cases[] = {
      {3, 8, 3, 1, 1, 1}, {3, 8, 3, 2, 1, 1}, {4, 6, 1, 1, 0, 1}, {4, 6, 1, 2, 0, 1},
      {8, 8, 3, 1, 0, 2}, {8, 4, 5, 2, 2, 4}, {6, 6, 3, 1, 1, 6}, {6, 6, 3, 2, 1, 6},
      {5, 7, 7, 2, 3, 1},
  };
  Rng rng(43);
  const auto rand_s8 = [&](std::int64_t n) {
    std::vector<std::int8_t> v(static_cast<std::size_t>(n));
    for (auto& e : v) e = static_cast<std::int8_t>(static_cast<int>(rng.uniform(-128.0, 128.0)));
    return v;
  };
  for (const Case& c : cases) {
    runtime_kernels::Conv2dGeometry geo;
    geo.batch = 3;
    geo.in_c = c.in_c;
    geo.in_h = 11;
    geo.in_w = 9;
    geo.out_c = c.out_c;
    geo.kernel = c.kernel;
    geo.stride = c.stride;
    geo.pad = c.pad;
    geo.groups = c.groups;
    geo.out_h = (geo.in_h + 2 * c.pad - c.kernel) / c.stride + 1;
    geo.out_w = (geo.in_w + 2 * c.pad - c.kernel) / c.stride + 1;
    const auto x = rand_s8(geo.batch * geo.in_c * geo.in_h * geo.in_w);
    const auto w = rand_s8(geo.out_c * geo.patch());
    std::vector<std::int32_t> bias(static_cast<std::size_t>(geo.out_c));
    std::vector<double> mult(bias.size());
    for (std::size_t i = 0; i < bias.size(); ++i) {
      bias[i] = static_cast<std::int32_t>(rng.uniform(-500.0, 500.0));
      mult[i] = rng.uniform(0.0005, 0.01);  // a fair share of outputs saturate
    }
    const std::int32_t q_lo = c.kernel == 3 ? 0 : -128;  // fused Relu on half the grid
    const std::size_t out_elems = static_cast<std::size_t>(geo.batch * geo.out_c * geo.cols());
    std::vector<std::int8_t> ref(out_elems);
    const std::uint64_t sat_ref = testref::direct_conv_s8(x.data(), w.data(), bias.data(),
                                                          ref.data(), geo, mult.data(), q_lo, 127);
    for (const auto* t : testref::all_tables()) {
      std::vector<std::int8_t> got(out_elems, 99);
      const std::uint64_t sat = route_conv_s8(*t, geo, x.data(), w.data(), bias.data(),
                                              mult.data(), q_lo, 127, got.data());
      EXPECT_EQ(got, ref) << util::simd_level_name(t->level) << " k=" << c.kernel
                          << " s=" << c.stride << " p=" << c.pad << " groups=" << c.groups;
      EXPECT_EQ(sat, sat_ref) << util::simd_level_name(t->level);
    }
  }
}

TEST(QuantizedSession, ThreadsOptionPreservesOutputs) {
  Graph g = deploy_ready(zoo::micro_cnn("qs", 2, 3, 16, 4), 45, Shape{2, 3, 16, 16});
  Rng data_rng(46);
  Tensor x(Shape{2, 3, 16, 16}, data_rng.normal_vector(2 * 3 * 16 * 16));

  auto serial = runtime::make_quantized_session(g, qs_threads(1));
  auto mt = runtime::make_quantized_session(g, qs_threads(4));
  const Tensor ys = serial->run_single(x);
  const Tensor ym = mt->run_single(x);
  ASSERT_EQ(ys.shape(), ym.shape());
  for (std::int64_t i = 0; i < ys.numel(); ++i) {
    EXPECT_EQ(ys.at(static_cast<std::size_t>(i)), ym.at(static_cast<std::size_t>(i)));
  }
}

}  // namespace
}  // namespace vedliot
