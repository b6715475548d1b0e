// Tests for the reference executor (real arithmetic) and the memory planner.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "graph/cost.hpp"
#include "graph/zoo.hpp"
#include "reference_kernels.hpp"
#include "runtime/executor.hpp"
#include "runtime/memory_planner.hpp"
#include "runtime/session.hpp"
#include "util/rng.hpp"

namespace vedliot {
namespace {

AttrMap conv_attrs(std::int64_t oc, std::int64_t k, std::int64_t s, std::int64_t p,
                   std::int64_t groups = 1, std::int64_t bias = 1) {
  AttrMap a;
  a.set_int("out_channels", oc);
  a.set_int("kernel", k);
  a.set_int("stride", s);
  a.set_int("pad", p);
  a.set_int("groups", groups);
  a.set_int("bias", bias);
  return a;
}

/// Single-input convenience over Executor::run for tests that poke the
/// engine directly (introspection, arena stats); application code goes
/// through runtime::Session.
Tensor exec_single(Executor& exec, const Graph& g, const Tensor& input) {
  auto outs = exec.run({{g.node(g.inputs().front()).name, input}});
  return std::move(outs.begin()->second);
}

/// Build a single-op graph, set explicit weights, execute one input.
Tensor run_single_op(OpKind kind, const Shape& in_shape, AttrMap attrs,
                     std::vector<Tensor> weights, const Tensor& input) {
  Graph g("t");
  const NodeId in = g.add_input("x", in_shape);
  const NodeId op = g.add(kind, "op", {in}, std::move(attrs));
  g.node(op).weights = std::move(weights);
  Executor exec(g);
  return exec_single(exec, g, input);
}

TEST(Executor, Conv2dIdentityKernel) {
  // 1x1 conv with identity weights must copy the input.
  Tensor w(Shape{2, 2, 1, 1}, {1, 0, 0, 1});
  Tensor input(Shape{1, 2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  AttrMap a = conv_attrs(2, 1, 1, 0, 1, 0);
  const Tensor out = run_single_op(OpKind::kConv2d, input.shape(), a, {w}, input);
  EXPECT_FLOAT_EQ(max_abs_diff(out, input), 0.0f);
}

TEST(Executor, Conv2dHandComputed) {
  // 3x3 all-ones kernel, single channel, padding 1: each output = sum of the
  // 3x3 neighbourhood.
  Tensor w(Shape{1, 1, 3, 3});
  w.fill(1.0f);
  Tensor input(Shape{1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  AttrMap a = conv_attrs(1, 3, 1, 1, 1, 0);
  const Tensor out = run_single_op(OpKind::kConv2d, input.shape(), a, {w}, input);
  // center output: sum of all = 45; corner (0,0): 1+2+4+5 = 12
  EXPECT_FLOAT_EQ(out.at4(0, 0, 1, 1), 45.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 12.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 2, 2), 5.0f + 6.0f + 8.0f + 9.0f);
}

TEST(Executor, Conv2dBiasApplied) {
  Tensor w(Shape{1, 1, 1, 1}, {2.0f});
  Tensor b(Shape{1}, {10.0f});
  Tensor input(Shape{1, 1, 1, 1}, {3.0f});
  const Tensor out =
      run_single_op(OpKind::kConv2d, input.shape(), conv_attrs(1, 1, 1, 0), {w, b}, input);
  EXPECT_FLOAT_EQ(out.at(0), 16.0f);
}

TEST(Executor, Conv2dStrideSkips) {
  Tensor w(Shape{1, 1, 1, 1}, {1.0f});
  Tensor input(Shape{1, 1, 4, 4});
  for (std::int64_t i = 0; i < 16; ++i) input.at(static_cast<std::size_t>(i)) = static_cast<float>(i);
  const Tensor out =
      run_single_op(OpKind::kConv2d, input.shape(), conv_attrs(1, 1, 2, 0, 1, 0), {w}, input);
  EXPECT_EQ(out.shape(), Shape({1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 1), 2.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 1, 0), 8.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 1, 1), 10.0f);
}

TEST(Executor, DepthwiseConvIndependentChannels) {
  // groups == channels: each channel filtered independently.
  Tensor w(Shape{2, 1, 1, 1}, {2.0f, 3.0f});
  Tensor input(Shape{1, 2, 1, 1}, {10.0f, 10.0f});
  const Tensor out =
      run_single_op(OpKind::kConv2d, input.shape(), conv_attrs(2, 1, 1, 0, 2, 0), {w}, input);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 20.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 1, 0, 0), 30.0f);
}

TEST(Executor, DenseMatVec) {
  Tensor w(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b(Shape{2}, {0.5f, -0.5f});
  Tensor input(Shape{1, 3}, {1, 1, 1});
  AttrMap a;
  a.set_int("units", 2);
  a.set_int("bias", 1);
  const Tensor out = run_single_op(OpKind::kDense, input.shape(), a, {w, b}, input);
  EXPECT_FLOAT_EQ(out.at(0), 6.5f);
  EXPECT_FLOAT_EQ(out.at(1), 14.5f);
}

TEST(Executor, BatchNormFoldedFormula) {
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 1, 1, 2});
  AttrMap bn;
  bn.set_float("epsilon", 0.0);
  const NodeId b = g.add(OpKind::kBatchNorm, "bn", {in}, bn);
  g.node(b).weights = {Tensor(Shape{1}, {2.0f}),   // gamma
                       Tensor(Shape{1}, {1.0f}),   // beta
                       Tensor(Shape{1}, {3.0f}),   // mean
                       Tensor(Shape{1}, {4.0f})};  // var
  Executor exec(g);
  Tensor input(Shape{1, 1, 1, 2}, {3.0f, 5.0f});
  const Tensor out = exec_single(exec, g, input);
  // (x - 3)/2 * 2 + 1
  EXPECT_FLOAT_EQ(out.at(0), 1.0f);
  EXPECT_FLOAT_EQ(out.at(1), 3.0f);
}

struct ActCase {
  OpKind kind;
  float in;
  float expected;
};

class ActivationSweep : public ::testing::TestWithParam<ActCase> {};

TEST_P(ActivationSweep, PointwiseValue) {
  const auto& p = GetParam();
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1});
  AttrMap attrs;
  if (p.kind == OpKind::kLeakyRelu) attrs.set_float("alpha", 0.1);
  g.add(p.kind, "act", {in}, attrs);
  Executor exec(g);
  const Tensor out = exec_single(exec, g, Tensor(Shape{1}, {p.in}));
  EXPECT_NEAR(out.at(0), p.expected, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    Values, ActivationSweep,
    ::testing::Values(ActCase{OpKind::kRelu, -1.0f, 0.0f}, ActCase{OpKind::kRelu, 2.0f, 2.0f},
                      ActCase{OpKind::kRelu6, 8.0f, 6.0f}, ActCase{OpKind::kRelu6, -1.0f, 0.0f},
                      ActCase{OpKind::kLeakyRelu, -2.0f, -0.2f},
                      ActCase{OpKind::kLeakyRelu, 3.0f, 3.0f},
                      ActCase{OpKind::kSigmoid, 0.0f, 0.5f},
                      ActCase{OpKind::kHSigmoid, 0.0f, 0.5f},
                      ActCase{OpKind::kHSigmoid, 4.0f, 1.0f},
                      ActCase{OpKind::kHSwish, 3.0f, 3.0f},
                      ActCase{OpKind::kHSwish, -3.0f, 0.0f},
                      ActCase{OpKind::kTanh, 0.0f, 0.0f},
                      ActCase{OpKind::kMish, 0.0f, 0.0f}));

TEST(Executor, MishMatchesDefinition) {
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1});
  g.add(OpKind::kMish, "mish", {in});
  Executor exec(g);
  for (float x : {-2.0f, -0.5f, 0.7f, 2.5f}) {
    const Tensor out = exec_single(exec, g, Tensor(Shape{1}, {x}));
    const double expected = x * std::tanh(std::log1p(std::exp(static_cast<double>(x))));
    EXPECT_NEAR(out.at(0), expected, 1e-5) << x;
  }
}

TEST(Executor, AddAndMulBroadcast) {
  Graph g("t");
  const NodeId a = g.add_input("a", Shape{1, 2, 2, 2});
  const NodeId gap = g.add(OpKind::kGlobalAvgPool, "gap", {a});
  const NodeId m = g.add(OpKind::kMul, "mul", {a, gap});
  g.add(OpKind::kAdd, "add", {m, a});
  Executor exec(g);
  Tensor input(Shape{1, 2, 2, 2}, {1, 1, 1, 1, 2, 2, 2, 2});
  auto outs = exec.run({{"a", input}});
  const Tensor& out = outs.at("add");
  // channel 0 mean 1 -> mul gives 1, add gives 2; channel 1 mean 2 -> 4+2=6
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 2.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 1, 0, 0), 6.0f);
}

TEST(Executor, MaxPoolAndAvgPool) {
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 1, 2, 2});
  AttrMap p;
  p.set_int("kernel", 2);
  p.set_int("stride", 2);
  p.set_int("pad", 0);
  g.add(OpKind::kMaxPool, "max", {in}, p);
  AttrMap p2;
  p2.set_int("kernel", 2);
  p2.set_int("stride", 2);
  p2.set_int("pad", 0);
  g.add(OpKind::kAvgPool, "avg", {in}, p2);
  Executor exec(g);
  Tensor input(Shape{1, 1, 2, 2}, {1, 2, 3, 4});
  auto outs = exec.run({{"x", input}});
  EXPECT_FLOAT_EQ(outs.at("max").at(0), 4.0f);
  EXPECT_FLOAT_EQ(outs.at("avg").at(0), 2.5f);
}

TEST(Executor, AvgPoolPaddingCountsValidOnly) {
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 1, 2, 2});
  AttrMap p;
  p.set_int("kernel", 3);
  p.set_int("stride", 1);
  p.set_int("pad", 1);
  g.add(OpKind::kAvgPool, "avg", {in}, p);
  Executor exec(g);
  Tensor input(Shape{1, 1, 2, 2}, {4, 4, 4, 4});
  const Tensor out = exec_single(exec, g, input);
  // all windows average only valid elements -> always 4
  for (float v : out.data()) EXPECT_FLOAT_EQ(v, 4.0f);
}

TEST(Executor, ConcatChannels) {
  Graph g("t");
  const NodeId a = g.add_input("a", Shape{1, 1, 1, 2});
  const NodeId b = g.add_input("b", Shape{1, 2, 1, 2});
  AttrMap attrs;
  attrs.set_int("axis", 1);
  g.add(OpKind::kConcat, "cat", {b, a}, attrs);
  Executor exec(g);
  Tensor ta(Shape{1, 1, 1, 2}, {7, 8});
  Tensor tb(Shape{1, 2, 1, 2}, {1, 2, 3, 4});
  auto outs = exec.run({{"a", ta}, {"b", tb}});
  const Tensor& out = outs.at("cat");
  EXPECT_EQ(out.shape().c(), 3);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 2, 0, 1), 8.0f);
}

TEST(Executor, UpsampleNearest) {
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 1, 1, 2});
  AttrMap u;
  u.set_int("scale", 2);
  g.add(OpKind::kUpsample, "up", {in}, u);
  Executor exec(g);
  const Tensor out = exec_single(exec, g, Tensor(Shape{1, 1, 1, 2}, {5, 9}));
  EXPECT_EQ(out.shape(), Shape({1, 1, 2, 4}));
  EXPECT_FLOAT_EQ(out.at4(0, 0, 1, 0), 5.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 3), 9.0f);
}

TEST(Executor, SoftmaxNormalizesAndIsStable) {
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 3});
  g.add(OpKind::kSoftmax, "sm", {in});
  Executor exec(g);
  const Tensor out = exec_single(exec, g, Tensor(Shape{1, 3}, {1000.0f, 1001.0f, 1002.0f}));
  double sum = 0;
  for (float v : out.data()) {
    EXPECT_TRUE(std::isfinite(v));
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
  EXPECT_GT(out.at(2), out.at(1));
}

TEST(Executor, MissingFeedThrows) {
  Graph g = zoo::motor_net();
  Rng rng(1);
  g.materialize_weights(rng);
  Executor exec(g);
  EXPECT_THROW((void)exec.run({}), ExecError);
}

TEST(Executor, WrongFeedShapeThrows) {
  Graph g = zoo::motor_net();
  Rng rng(1);
  g.materialize_weights(rng);
  Executor exec(g);
  EXPECT_THROW((void)exec.run({{"features", Tensor(Shape{1, 3})}}), ExecError);
}

TEST(Executor, UnmaterializedWeightsRejected) {
  Graph g = zoo::motor_net();
  EXPECT_THROW(Executor{g}, ExecError);
}

TEST(Executor, EndToEndMicroCnnDeterministic) {
  Graph g = zoo::micro_cnn("m", 1, 1, 16, 4);
  Rng rng(7);
  g.materialize_weights(rng);
  Executor exec(g);
  Rng data_rng(8);
  Tensor input(Shape{1, 1, 16, 16}, data_rng.normal_vector(256));
  const Tensor a = exec_single(exec, g, input);
  const Tensor b = exec_single(exec, g, input);
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 0.0f);
  double sum = 0;
  for (float v : a.data()) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-5);  // softmax output
}

TEST(Executor, ActivationIntrospection) {
  Graph g = zoo::micro_mlp("m", 1, 4, {8}, 2);
  Rng rng(9);
  g.materialize_weights(rng);
  Executor exec(g);
  exec_single(exec, g, Tensor(Shape{1, 4}, {1, 2, 3, 4}));
  EXPECT_NO_THROW((void)exec.activation("fc0"));
  EXPECT_THROW((void)exec.activation("bogus"), NotFound);
}

// ---------------------------------------------------------------------------
// Memory planner
// ---------------------------------------------------------------------------

class PlannerOnZoo : public ::testing::TestWithParam<const char*> {};

TEST_P(PlannerOnZoo, ValidAndSavesMemory) {
  const std::string which = GetParam();
  Graph g = which == "resnet50" ? zoo::resnet50()
            : which == "mnv3"   ? zoo::mobilenet_v3_large()
            : which == "yolov4" ? zoo::yolov4()
                                : zoo::micro_cnn("m", 1, 3, 32, 10);
  const MemoryPlan plan = plan_memory(g, DType::kFP32);
  EXPECT_TRUE(plan_is_valid(plan));
  EXPECT_GT(plan.reuse_factor(), 2.0) << which;  // reuse must pay off
  EXPECT_EQ(plan.buffers.size(), g.size());
}

INSTANTIATE_TEST_SUITE_P(Models, PlannerOnZoo,
                         ::testing::Values("resnet50", "mnv3", "yolov4", "micro"));

TEST(Planner, ArenaAtLeastLargestTensor) {
  Graph g = zoo::mobilenet_v3_large();
  const MemoryPlan plan = plan_memory(g, DType::kFP32);
  const auto cost = graph_cost(g);
  EXPECT_GE(plan.arena_bytes, cost.peak_single_elems * 4);
}

TEST(Planner, Int8ArenaRoughlyQuarterOfFp32) {
  Graph g = zoo::micro_cnn("m", 1, 3, 32, 10);
  const auto p32 = plan_memory(g, DType::kFP32);
  const auto p8 = plan_memory(g, DType::kINT8);
  EXPECT_LT(p8.arena_bytes, p32.arena_bytes / 2);
}

TEST(Planner, AlignmentRespected) {
  Graph g = zoo::micro_mlp("m", 1, 10, {32, 16}, 4);
  const MemoryPlan plan = plan_memory(g, DType::kFP32, 128);
  for (const auto& b : plan.buffers) {
    EXPECT_EQ(b.offset % 128, 0);
    EXPECT_EQ(b.size % 128, 0);
  }
}

TEST(Planner, ResidualLifetimesDontOverlapInArena) {
  // ResNet blocks keep the shortcut alive across the body: the planner must
  // not alias those buffers. plan_is_valid covers it, but check explicitly
  // on a graph with a long-lived tensor.
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 8, 8, 8});
  NodeId cur = in;
  for (int i = 0; i < 4; ++i) {
    std::string name = "r";
    name += std::to_string(i);
    cur = g.add(OpKind::kRelu, name, {cur});
  }
  g.add(OpKind::kAdd, "res", {cur, in});  // input alive until the end
  const MemoryPlan plan = plan_memory(g, DType::kFP32);
  EXPECT_TRUE(plan_is_valid(plan));
  // the input buffer must not be reused by any of the relu chain
  const auto& input_buf = plan.buffers.front();
  EXPECT_EQ(input_buf.node, in);
  EXPECT_EQ(input_buf.last_use, plan.buffers.back().first_use);
}

TEST(Planner, ForwardingNodeSharesItsInputsBuffer) {
  // The int8 executor composes each residual Add's Relu into the Add's
  // table; the Relu then forwards the Add's buffer. The planner gives it no
  // buffer of its own and keeps the Add's alive through the Relu's last
  // consumer, so the plan stays valid.
  Graph g = zoo::resnet50(1, 10, 32);
  std::vector<NodeId> forwards;
  for (NodeId id : g.topo_order()) {
    const Node& n = g.node(id);
    if (n.kind == OpKind::kRelu && g.node(n.inputs.front()).kind == OpKind::kAdd) {
      forwards.push_back(id);
    }
  }
  ASSERT_EQ(forwards.size(), 16u);
  const auto order = g.topo_order();
  const MemoryPlan plain = plan_memory_with_order(g, order, DType::kINT8);
  const MemoryPlan plan = plan_memory_with_order(g, order, DType::kINT8, 64, forwards);
  EXPECT_TRUE(plan_is_valid(plan));
  EXPECT_EQ(plan.buffers.size() + forwards.size(), plain.buffers.size());
  EXPECT_LT(plan.naive_bytes, plain.naive_bytes);
  for (NodeId relu : forwards) {
    const NodeId add = g.node(relu).inputs.front();
    const auto buf = std::ranges::find(plan.buffers, add, &BufferPlan::node);
    const auto own = std::ranges::find(plain.buffers, relu, &BufferPlan::node);
    ASSERT_NE(buf, plan.buffers.end());
    ASSERT_NE(own, plain.buffers.end());
    EXPECT_EQ(std::ranges::count(plan.buffers, relu, &BufferPlan::node), 0);
    EXPECT_EQ(buf->last_use, own->last_use);  // lives as long as the Relu's output did
  }
}

// ---------------------------------------------------------------------------
// Execution engine: parallel determinism, GEMM conv, activation arena
// ---------------------------------------------------------------------------

/// Bitwise tensor equality: parallel partitioning must not change a single
/// bit, so plain float == (which conflates -0.0 and 0.0) is not enough.
void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(0, std::memcmp(a.data().data(), b.data().data(),
                           static_cast<std::size_t>(a.numel()) * sizeof(float)));
}

Tensor run_with_options(const Graph& g, const Tensor& x, const runtime::RunOptions& opts) {
  auto session = runtime::make_session(g, opts);
  return session->run_single(x);
}

/// Resource knobs moved into RunOptions::exec (ExecConfig); these builders
/// keep the matrix of engine configurations below readable.
runtime::RunOptions with_threads(unsigned threads) {
  runtime::RunOptions o;
  o.exec.threads = threads;
  return o;
}


TEST(ExecutionEngine, ResNet50ParallelBitwiseIdenticalToSerial) {
  Graph g = zoo::resnet50(/*batch=*/1, /*classes=*/10, /*image=*/32);
  Rng rng(21);
  g.materialize_weights(rng);
  Rng data_rng(22);
  Tensor x(Shape{1, 3, 32, 32}, data_rng.normal_vector(3 * 32 * 32));

  const Tensor serial = run_with_options(g, x, with_threads(1));
  const Tensor t2 = run_with_options(g, x, with_threads(2));
  const Tensor t4 = run_with_options(g, x, with_threads(4));
  expect_bitwise_equal(serial, t2);
  expect_bitwise_equal(serial, t4);
}

TEST(ExecutionEngine, MobileNetV3ParallelBitwiseIdenticalToSerial) {
  Graph g = zoo::mobilenet_v3_large(/*batch=*/1, /*classes=*/10, /*image=*/32);
  Rng rng(23);
  g.materialize_weights(rng);
  Rng data_rng(24);
  Tensor x(Shape{1, 3, 32, 32}, data_rng.normal_vector(3 * 32 * 32));

  const Tensor serial = run_with_options(g, x, with_threads(1));
  const Tensor t4 = run_with_options(g, x, with_threads(4));
  expect_bitwise_equal(serial, t4);
}

TEST(ExecutionEngine, GemmConvMatchesDirectConv) {
  // The batch-folded im2col + microkernel route (depthwise: the direct
  // depthwise kernel) against the direct loop nest over a geometry grid
  // covering kernel size, stride, padding, groups and the fused epilogue, at
  // batch 3 (folded N = 3·H·W, then scattered to NCHW), at the portable and
  // the SIMD level. The GEMM accumulates in float along the k-order the direct
  // loop walks, but the direct reference accumulates in double: close, not
  // bitwise.
  struct Case {
    std::int64_t in_c, out_c, kernel, stride, pad, groups;
    const char* act;
  };
  const Case cases[] = {
      {3, 8, 3, 1, 1, 1, ""},     {3, 8, 3, 2, 1, 1, "Relu"}, {4, 6, 1, 1, 0, 1, ""},
      {4, 6, 1, 2, 0, 1, "Relu6"}, {8, 8, 3, 1, 0, 2, ""},    {8, 4, 5, 2, 2, 4, "HSwish"},
      {6, 6, 3, 1, 1, 6, "Relu"},  {6, 6, 3, 2, 1, 6, ""},    {5, 7, 7, 2, 3, 1, ""},
  };
  std::uint64_t seed = 25;
  for (const Case& c : cases) {
    Graph g("conv");
    const NodeId in = g.add_input("x", Shape{3, c.in_c, 11, 9});
    AttrMap a = conv_attrs(c.out_c, c.kernel, c.stride, c.pad, c.groups);
    if (*c.act != '\0') a.set_str("fused_act", c.act);
    const NodeId conv = g.add(OpKind::kConv2d, "conv", {in}, std::move(a));
    Rng rng(seed++);
    g.materialize_weights(rng);
    Rng data_rng(seed++);
    const Tensor x(Shape{3, c.in_c, 11, 9}, data_rng.normal_vector(3 * c.in_c * 11 * 9));

    const Node& n = g.node(conv);
    const auto geo = runtime_kernels::Conv2dGeometry::of(g, n);
    Tensor direct(n.out_shape);
    testref::direct_conv_f32(x.data().data(), n.weights[0].data().data(),
                             n.weights[1].data().data(), direct.data().data(), geo,
                             *c.act != '\0' ? parse_op(c.act) : OpKind::kIdentity, 0.01);
    for (auto level : {util::SimdLevel::kPortable, util::SimdLevel::kAuto}) {
      runtime::RunOptions o;
      o.exec.simd = level;
      const Tensor gemm = run_with_options(g, x, o);
      EXPECT_LT(max_abs_diff(gemm, direct), 1e-4f)
          << util::simd_level_name(level) << " k=" << c.kernel << " s=" << c.stride
          << " p=" << c.pad << " groups=" << c.groups;
    }
  }
}

TEST(ExecutionEngine, ArenaOutputBitwiseIdenticalToHeap) {
  // Residual graphs are the aliasing stress case: a skip tensor must not be
  // overwritten while the main branch still reads it. The heap reference is
  // an executor in calibration mode (every activation an owned tensor).
  Graph g = zoo::resnet50(1, 10, 32);
  Rng rng(27);
  g.materialize_weights(rng);
  Rng data_rng(28);
  Tensor x(Shape{1, 3, 32, 32}, data_rng.normal_vector(3 * 32 * 32));

  Executor heap_exec(g);
  heap_exec.set_keep_activations(true);
  const Tensor heap = exec_single(heap_exec, g, x);
  EXPECT_FALSE(heap_exec.arena_stats().active);
  const Tensor arena = run_with_options(g, x, with_threads(1));
  expect_bitwise_equal(heap, arena);
  const Tensor arena_mt = run_with_options(g, x, with_threads(4));
  expect_bitwise_equal(heap, arena_mt);
}

TEST(ExecutionEngine, ArenaHalvesResNet50ActivationFootprint) {
  Graph g = zoo::resnet50(1, 10, 64);
  Rng rng(29);
  g.materialize_weights(rng);
  Rng data_rng(30);
  Tensor x(Shape{1, 3, 64, 64}, data_rng.normal_vector(3 * 64 * 64));

  Executor exec(g);
  exec.set_keep_activations(false);
  (void)exec_single(exec, g, x);
  const Executor::ArenaStats& stats = exec.arena_stats();
  ASSERT_TRUE(stats.active);
  EXPECT_GT(stats.arena_bytes, 0);
  // Liveness packing must reclaim at least half of the naive sum of all
  // activation buffers on ResNet-50 (ISSUE acceptance: arena <= 50% naive).
  EXPECT_LE(stats.arena_bytes * 2, stats.naive_bytes);
}

TEST(ExecutionEngine, ArenaDisabledWhileKeepingActivations) {
  Graph g = zoo::micro_cnn("mc", 1, 3, 16, 5);
  Rng rng(31);
  g.materialize_weights(rng);
  Rng data_rng(32);
  Tensor x(Shape{1, 3, 16, 16}, data_rng.normal_vector(3 * 16 * 16));

  Executor exec(g);
  exec.set_keep_activations(true);  // calibration mode: stable owned tensors
  (void)exec_single(exec, g, x);
  EXPECT_FALSE(exec.arena_stats().active);
  EXPECT_NO_THROW((void)exec.activation(g.node(g.topo_order()[1]).name));
}

TEST(ExecutionEngine, SessionOutputOwnsItsMemory) {
  // Outputs are cloned out of the arena: they must stay valid after the
  // session (and its slab) is gone.
  Graph g = zoo::micro_cnn("own", 1, 3, 16, 4);
  Rng rng(33);
  g.materialize_weights(rng);
  Rng data_rng(34);
  Tensor x(Shape{1, 3, 16, 16}, data_rng.normal_vector(3 * 16 * 16));

  Tensor y;
  {
    auto session = runtime::make_session(g, with_threads(2));
    y = session->run_single(x);
  }
  EXPECT_FALSE(y.is_view());
  EXPECT_EQ(y.numel(), 4);
  float sum = 0;
  for (float v : y.data()) sum += v;
  EXPECT_NEAR(sum, 1.0f, 1e-5f);  // softmax head
}

TEST(ExecutionEngine, SetMaxBatchAdjustsAdmissionOnLiveSession) {
  // Brownout controllers shrink the admission cap on a live session and
  // restore it without rebuilding the executor.
  Graph g = zoo::micro_mlp("mb", 4, 8, {8}, 3);
  Rng rng(41);
  g.materialize_weights(rng);
  auto session = runtime::make_session(g);
  Rng data_rng(42);
  const Tensor x(Shape{4, 8}, data_rng.normal_vector(32));

  EXPECT_EQ(session->max_batch(), 0);  // unlimited by default
  EXPECT_NO_THROW((void)session->run_single(x));

  session->set_max_batch(2);
  EXPECT_EQ(session->max_batch(), 2);
  EXPECT_THROW((void)session->run_single(x), ExecError);

  session->set_max_batch(0);
  EXPECT_NO_THROW((void)session->run_single(x));
}

}  // namespace
}  // namespace vedliot
