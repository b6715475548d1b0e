#include "runtime/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <type_traits>

#include "runtime/instrument.hpp"
#include "runtime/memory_planner.hpp"
#include "util/error.hpp"

namespace vedliot {

using runtime_kernels::apply_activation;
using runtime_kernels::Conv2dGeometry;
using runtime_kernels::requant_clamped;
using runtime_kernels::saturate_i8;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double act_scale_of(const Node& n) {
  if (!n.attrs.has("act_scale")) {
    throw Unsupported("node " + n.name +
                      " has no act_scale — run opt::calibrate_activations first");
  }
  const double s = n.attrs.get_float("act_scale");
  return s > 0 ? s : 1e-9;
}

void quantize_into(std::span<const float> x, double scale, std::int8_t* q) {
  std::uint64_t dummy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    q[i] = saturate_i8(static_cast<double>(x[i]) / scale, dummy);
  }
}

void dequantize_into(const std::int8_t* q, double scale, std::span<float> x) {
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(static_cast<double>(q[i]) * scale);
  }
}

/// Requant table entry: the per-element double requantization of \p scaled,
/// packed as output byte | saturation count << 8, so one lookup gives both.
std::uint16_t requant_entry(double scaled, std::int32_t q_lo, std::int32_t q_hi) {
  std::uint64_t s = 0;
  const std::int8_t q = requant_clamped(scaled, q_lo, q_hi, s);
  return static_cast<std::uint16_t>(static_cast<std::uint8_t>(q) | s << 8);
}

/// Look one int8 value up in a requant table; adds its saturations to \p s.
std::int8_t lookup(const std::uint16_t* table, std::size_t index, std::uint64_t& s) {
  const std::uint16_t e = table[index];
  s += e >> 8;
  return static_cast<std::int8_t>(e & 0xFF);
}

/// Softmax over \p rows rows of \p f: f32 directly, int8 over dequantized
/// rows (how int8 runtimes typically treat the final softmax).
void softmax_rows(const float* x, float* y, std::int64_t rows, std::int64_t f) {
  for (std::int64_t b = 0; b < rows; ++b) {
    const float* xr = x + b * f;
    float* yr = y + b * f;
    float mx = -std::numeric_limits<float>::infinity();
    for (std::int64_t i = 0; i < f; ++i) mx = std::max(mx, xr[i]);
    double sum = 0.0;
    for (std::int64_t i = 0; i < f; ++i) {
      const double e = std::exp(static_cast<double>(xr[i] - mx));
      yr[i] = static_cast<float>(e);
      sum += e;
    }
    for (std::int64_t i = 0; i < f; ++i) yr[i] = static_cast<float>(yr[i] / sum);
  }
}

/// The window walk of every pool kernel over (sample, channel) planes
/// [lo, hi): each output folds its in-image taps, row-major, into \p acc
/// from \p init and stores finish(acc, tap count).
template <typename T, typename Acc, typename Fold, typename Finish>
void pool_planes(const T* x, T* y, const Shape& in, const Shape& out, std::int64_t k,
                 std::int64_t stride, std::int64_t pad, std::int64_t lo, std::int64_t hi,
                 Acc init, Fold fold, Finish finish) {
  const std::int64_t IH = in.h(), IW = in.w(), OH = out.h(), OW = out.w();
  for (std::int64_t bc = lo; bc < hi; ++bc) {
    const T* plane = x + bc * IH * IW;
    T* oplane = y + bc * OH * OW;
    for (std::int64_t oh = 0; oh < OH; ++oh) {
      for (std::int64_t ow = 0; ow < OW; ++ow) {
        Acc acc = init;
        std::int64_t count = 0;
        for (std::int64_t kh = 0; kh < k; ++kh) {
          const std::int64_t ih = oh * stride - pad + kh;
          if (ih < 0 || ih >= IH) continue;
          for (std::int64_t kw = 0; kw < k; ++kw) {
            const std::int64_t iw = ow * stride - pad + kw;
            if (iw < 0 || iw >= IW) continue;
            acc = fold(acc, plane[ih * IW + iw]);
            ++count;
          }
        }
        oplane[oh * OW + ow] = finish(acc, count);
      }
    }
  }
}

}  // namespace

Tensor QTensor::dequantize() const {
  Tensor t(shape);
  dequantize_into(data.data(), scale, t.data());
  return t;
}

QTensor quantize_fixed(const Tensor& t, double scale) {
  QTensor q;
  q.shape = t.shape();
  q.scale = scale;
  q.data.resize(static_cast<std::size_t>(t.numel()));
  quantize_into(t.data(), scale, q.data.data());
  return q;
}

std::byte* Executor::Slab::grow(std::size_t n) {
  if (n > bytes) {
    data = std::make_unique<std::byte[]>(n);
    bytes = n;
  }
  return data.get();
}

Executor::Executor(const Graph& graph, DType dtype) : graph_(graph), dtype_(dtype) {
  VEDLIOT_CHECK(dtype_ == DType::kFP32 || dtype_ == DType::kINT8,
                "the executor runs f32 or int8 graphs");
  if (!graph_.weights_materialized()) {
    throw ExecError("graph " + graph.name() +
                    " has unmaterialized weights; call materialize_weights()");
  }
  prepare();
}

void Executor::prepare() {
  order_ = graph_.topo_order();
  plans_.assign(graph_.total_nodes(), NodePlan{});
  packed_.clear();
  std::vector<NodeId> forwards;
  for (NodeId id : order_) {
    const Node& n = graph_.node(id);
    NodePlan& plan = plans_[static_cast<std::size_t>(id)];
    plan.lane = n.out_shape.numel() / n.out_shape.dim(0);
    plan.alpha = n.attrs.get_float_or("alpha", 0.01);
    plan.bn_eps = n.attrs.get_float_or("epsilon", 1e-5);
    if (n.kind == OpKind::kConv2d || n.kind == OpKind::kDense) {
      plan.conv = Conv2dGeometry::of(graph_, n);
      const std::string fused = n.attrs.get_str_or("fused_act", "");
      plan.fused_act = fused.empty() ? OpKind::kIdentity : parse_op(fused);
      plan.fused_alpha = n.attrs.get_float_or("fused_alpha", 0.01);
    }
    if (n.kind == OpKind::kMaxPool || n.kind == OpKind::kAvgPool) {
      plan.pool_kernel = n.attrs.get_int("kernel");
      plan.pool_stride = n.attrs.get_int_or("stride", plan.pool_kernel);
      plan.pool_pad = n.attrs.get_int_or("pad", 0);
    }
    if (n.kind == OpKind::kGlobalAvgPool) {  // one window over the whole plane
      const Shape& s = graph_.node(n.inputs.at(0)).out_shape;
      plan.pool_kernel = std::max(s.h(), s.w());
    }
    if (n.kind == OpKind::kUpsample) plan.upsample_scale = n.attrs.get_int("scale");
    if (n.kind == OpKind::kConcat && n.attrs.get_int_or("axis", 1) != 1) {
      throw ExecError("Concat " + n.name + " runs along axis 1 only");
    }
    if (dtype_ == DType::kINT8) {
      prepare_int8(n, plan);
      if (plan.forward) forwards.push_back(id);
    }
  }

  // One liveness plan at the graph's built batch; a run at batch B scales
  // every offset by ceil(B / built batch). A forwarding node shares its
  // input's slot. keep_activations gives every buffer its own slot instead.
  const MemoryPlan mp = plan_memory_with_order(graph_, order_, dtype_, 64, forwards);
  std::int64_t naive = 0;
  for (const BufferPlan& b : mp.buffers) {
    NodePlan& plan = plans_[static_cast<std::size_t>(b.node)];
    plan.offset = b.offset;
    plan.naive_offset = naive;
    naive += b.size;
  }
  for (NodeId id : forwards) {
    NodePlan& plan = plans_[static_cast<std::size_t>(id)];
    const NodePlan& src = plans_[static_cast<std::size_t>(graph_.node(id).inputs.front())];
    plan.offset = src.offset;
    plan.naive_offset = src.naive_offset;
  }
  plan_bytes_ = mp.arena_bytes;
  naive_bytes_ = mp.naive_bytes;
  built_batch_ = graph_.node(order_.front()).out_shape.dim(0);
  prepared_version_ = graph_.version();
  ++preparations_;
}

void Executor::prepare_int8(const Node& n, NodePlan& plan) {
  if (n.kind == OpKind::kBatchNorm) {
    throw Unsupported("fold BatchNorm (opt::FuseBatchNormPass) before integer execution");
  }
  plan.scale = act_scale_of(n);
  const double so = plan.scale;
  const auto in_scale = [&](std::size_t i) {
    return plans_[static_cast<std::size_t>(n.inputs.at(i))].scale;
  };

  // Fused activation bounds in the *output* integer domain. Symmetric
  // quantization keeps zero at q=0, so ReLU is max(q, 0).
  const std::string fused = n.attrs.get_str_or("fused_act", "");
  if (fused == "Relu" || n.kind == OpKind::kRelu) plan.q_lo = 0;
  if (fused == "Relu6" || n.kind == OpKind::kRelu6) {
    plan.q_lo = 0;
    plan.q_hi = std::min<std::int32_t>(127, static_cast<std::int32_t>(std::nearbyint(6.0 / so)));
  }
  if (!fused.empty() && fused != "Relu" && fused != "Relu6") {
    plan.unsupported = "integer executor supports fused Relu/Relu6 only, got " + fused;
  }

  const bool unary = n.kind == OpKind::kRelu || n.kind == OpKind::kRelu6 ||
                     n.kind == OpKind::kIdentity;
  switch (n.kind) {
    case OpKind::kInput:
    case OpKind::kConv2d:
    case OpKind::kDense:
    case OpKind::kAvgPool:
    case OpKind::kGlobalAvgPool:
    case OpKind::kSoftmax:
      break;
    case OpKind::kRelu:
    case OpKind::kRelu6:
    case OpKind::kIdentity:
    case OpKind::kFlatten:
    case OpKind::kMaxPool:
    case OpKind::kAdd: {
      // The per-element double requantization of every input byte (Add:
      // every byte pair, indexed a << 8 | b). MaxPool takes the window max
      // first: max commutes with the monotone requantization.
      const bool add = n.kind == OpKind::kAdd;
      const double sa = in_scale(0), sb = add ? in_scale(1) : 0.0;
      const double rescale = sa / so;
      plan.lut.resize(add ? 65536 : 256);
      for (std::size_t u = 0; u < plan.lut.size(); ++u) {
        const auto a = static_cast<double>(static_cast<std::int8_t>(add ? u >> 8 : u));
        const auto b = static_cast<double>(static_cast<std::int8_t>(u));
        plan.lut[u] =
            requant_entry(add ? (a * sa + b * sb) / so : a * rescale, plan.q_lo, plan.q_hi);
      }
      break;
    }
    case OpKind::kConcat:
      // One 256-entry table per input, each at that input's scale.
      for (std::size_t i = 0; i < n.inputs.size(); ++i) {
        const double rescale = in_scale(i) / so;
        for (int u = 0; u < 256; ++u) {
          plan.lut.push_back(requant_entry(static_cast<std::int8_t>(u) * rescale, plan.q_lo,
                                           plan.q_hi));
        }
      }
      break;
    default:
      plan.unsupported =
          "integer executor does not support op " + std::string(op_name(n.kind));
  }

  // A unary node that is the only consumer of an Add (not a graph output)
  // folds its table into the Add's, lookup for lookup, and then passes the
  // Add's buffer on: the same bytes and saturations, one pass.
  const NodeId src = n.inputs.empty() ? n.id : n.inputs.front();
  if (unary && graph_.node(src).kind == OpKind::kAdd && graph_.consumers(src).size() == 1 &&
      std::ranges::count(graph_.outputs(), src) == 0) {
    for (std::uint16_t& e : plans_[static_cast<std::size_t>(src)].lut) {
      const std::uint16_t u = plan.lut[e & 0xFF];
      e = static_cast<std::uint16_t>((u & 0xFF) | ((e >> 8) + (u >> 8)) << 8);
    }
    plan.forward = true;
  }

  if ((n.kind != OpKind::kConv2d && n.kind != OpKind::kDense) || n.weights.empty()) return;

  // Per-output-channel weight scales; bias at in_scale * w_scale[c].
  const double si = in_scale(0);
  const Tensor& w = n.weights[0];
  const auto oc = static_cast<std::size_t>(w.shape().dim(0));
  const auto per = static_cast<std::size_t>(w.numel()) / oc;
  plan.weights.resize(static_cast<std::size_t>(w.numel()));
  plan.bias.assign(oc, 0);
  plan.mult.resize(oc);
  for (std::size_t c = 0; c < oc; ++c) {
    auto chan = w.data().subspan(c * per, per);
    double amax = 0;
    for (float v : chan) amax = std::max(amax, std::abs(static_cast<double>(v)));
    const double ws = amax > 0 ? amax / 127.0 : 1.0;
    plan.mult[c] = si * ws / so;
    std::uint64_t dummy = 0;
    for (std::size_t i = 0; i < per; ++i) {
      plan.weights[c * per + i] = saturate_i8(chan[i] / ws, dummy);
    }
    if (n.weights.size() > 1) {
      plan.bias[c] = static_cast<std::int32_t>(
          std::nearbyint(static_cast<double>(n.weights[1].at(c)) / (si * ws)));
    }
  }
}

void Executor::instrument(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  metrics_ = metrics;
}

void Executor::set_threads(unsigned threads) {
  if (threads == 0) threads = util::ThreadPool::hardware_threads();
  if (threads == threads_) return;
  threads_ = threads;
  pool_ = threads_ > 1 ? std::make_unique<util::ThreadPool>(threads_) : nullptr;
}

void Executor::pfor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    const util::ThreadPool::ChunkFn& fn) {
  if (pool_ == nullptr) {
    if (end > begin) fn(begin, end, 0);
    return;
  }
  const std::size_t chunks = pool_->parallel_for(begin, end, grain, fn);
  if (metrics_ != nullptr && chunks > 0) {
    runtime_detail::pool_utilization_histogram(*metrics_)
        .add(static_cast<double>(chunks) / static_cast<double>(threads_));
  }
}

template <typename T>
T* Executor::slot(NodeId id) const {
  const NodePlan& plan = plans_[static_cast<std::size_t>(id)];
  const std::int64_t offset = arena_stats_.active ? plan.offset : plan.naive_offset;
  return reinterpret_cast<T*>(arena_.data.get() + offset * arena_scale_);
}

Shape Executor::at_batch(const Shape& s) const {
  std::vector<std::int64_t> dims(s.dims().begin(), s.dims().end());
  dims[0] = batch_;
  return Shape(dims);
}

void Executor::walk(const std::map<std::string, Tensor>& feeds) {
  // Self-heal contract with the safety layer: ModelStore repair()/restore()
  // and OTA swaps touch() the live graph, so a version mismatch means the
  // plans (int8: quantized weights) were derived from bits that no longer
  // exist — prepare again before serving.
  if (prepared_version_ != graph_.version()) prepare();

  // The batch comes from the feeds: every feed must carry the input's lane
  // shape and all feeds one batch.
  batch_ = 0;
  for (NodeId id : graph_.inputs()) {
    const Node& n = graph_.node(id);
    const auto it = feeds.find(n.name);
    if (it == feeds.end()) throw ExecError("missing feed for input '" + n.name + "'");
    const Shape& s = it->second.shape();
    bool ok = s.rank() == n.out_shape.rank() && s.dim(0) >= 1 &&
              (batch_ == 0 || s.dim(0) == batch_);
    for (std::size_t d = 1; ok && d < s.rank(); ++d) ok = s.dim(d) == n.out_shape.dim(d);
    if (!ok) {
      throw ExecError("feed shape mismatch for '" + n.name + "': expected lanes of " +
                      n.out_shape.to_string() + " got " + s.to_string());
    }
    batch_ = s.dim(0);
  }
  arena_scale_ = (batch_ + built_batch_ - 1) / built_batch_;
  arena_stats_.active = !keep_activations_;
  arena_stats_.arena_bytes = plan_bytes_ * arena_scale_;
  arena_stats_.naive_bytes = naive_bytes_ * arena_scale_;
  arena_.grow(static_cast<std::size_t>(arena_stats_.active ? arena_stats_.arena_bytes
                                                           : arena_stats_.naive_bytes));

  // Dispatch level resolved per run (env overrides are live) — the whole
  // run executes at one level.
  active_simd_ = util::resolve_simd_level(simd_req_);
  mk_ = &runtime_kernels::gemm_microkernels(active_simd_);
  nodes_executed_ = 0;
  gemm_flops_ = gemm_seconds_ = 0;
  values_.clear();

  obs::ScopedSpan run_span;
  if (tracer_ != nullptr) {
    run_span = tracer_->span("session.run", "vedliot.runtime");
    run_span.attr("graph", graph_.name());
    run_span.attr("backend", dtype_ == DType::kINT8 ? "int8" : "float-reference");
    run_span.attr("threads", static_cast<double>(threads_));
    run_span.attr("simd", std::string(util::simd_level_name(active_simd_)));
  }

  for (NodeId id : order_) {
    const Node& n = graph_.node(id);
    const NodePlan& plan = plans_[static_cast<std::size_t>(id)];
    if (n.kind == OpKind::kInput) {
      const Tensor& x = feeds.at(n.name);
      if (dtype_ == DType::kFP32) {
        std::ranges::copy(x.data(), slot<float>(id));
      } else {
        quantize_into(x.data(), plan.scale, slot<std::int8_t>(id));
      }
      continue;
    }
    obs::ScopedSpan node_span;
    if (tracer_ != nullptr) node_span = tracer_->span(n.name, std::string(op_name(n.kind)));
    const auto t0 = Clock::now();
    if (dtype_ == DType::kFP32) {
      exec_f32(n, plan);
    } else {
      exec_s8(n, plan);
    }
    if (metrics_ != nullptr) {
      runtime_detail::op_histogram(*metrics_, n.kind).add(seconds_since(t0) * 1e6);
    }
    if (tracer_ != nullptr) {
      node_span.attr("out_elems", static_cast<double>(plan.lane * batch_));
      node_span.close();
    }
    ++nodes_executed_;
  }

  if (keep_activations_ && dtype_ == DType::kFP32) {
    values_.resize(graph_.total_nodes());
    for (NodeId id : order_) {
      const NodePlan& plan = plans_[static_cast<std::size_t>(id)];
      values_[static_cast<std::size_t>(id)] = Tensor::view(
          at_batch(graph_.node(id).out_shape),
          std::span<float>(slot<float>(id), static_cast<std::size_t>(plan.lane * batch_)));
    }
  }

  if (metrics_ != nullptr) {
    metrics_->counter(runtime_detail::kRunsCounter).inc();
    metrics_->counter(runtime_detail::kNodesCounter).inc(nodes_executed_);
    metrics_->gauge(runtime_detail::kThreadsGauge).set(static_cast<double>(threads_));
    if (gemm_seconds_ > 0) {
      metrics_->gauge(runtime_detail::kGemmGflopsGauge).set(gemm_flops_ / gemm_seconds_ / 1e9);
    }
    if (arena_stats_.active) {
      metrics_->gauge(runtime_detail::kArenaBytesGauge)
          .set(static_cast<double>(arena_stats_.arena_bytes));
      metrics_->gauge(runtime_detail::kArenaSavedGauge)
          .set(static_cast<double>(arena_stats_.naive_bytes - arena_stats_.arena_bytes));
    }
    if (dtype_ == DType::kINT8) {
      metrics_->gauge(runtime_detail::kSaturationsGauge).set(static_cast<double>(saturations_));
    }
  }
  if (tracer_ != nullptr) {
    run_span.attr("nodes_executed", static_cast<double>(nodes_executed_));
    run_span.close();
  }
}

std::map<std::string, Tensor> Executor::run(const std::map<std::string, Tensor>& feeds) {
  walk(feeds);
  std::map<std::string, Tensor> outs;
  for (NodeId id : graph_.outputs()) {
    const Node& n = graph_.node(id);
    Tensor t(at_batch(n.out_shape));
    if (dtype_ == DType::kFP32) {
      std::copy_n(slot<float>(id), t.numel(), t.data().begin());
    } else {
      dequantize_into(slot<std::int8_t>(id), plans_[static_cast<std::size_t>(id)].scale,
                      t.data());
    }
    outs[n.name] = std::move(t);
  }
  return outs;
}

QTensor Executor::run_quantized(const Tensor& input) {
  VEDLIOT_CHECK(dtype_ == DType::kINT8, "run_quantized needs an int8 executor");
  const auto ins = graph_.inputs();
  const auto outs = graph_.outputs();
  VEDLIOT_CHECK(ins.size() == 1 && outs.size() == 1,
                "run_quantized requires a single-input single-output graph");
  walk({{graph_.node(ins.front()).name, input}});
  QTensor q;
  q.shape = at_batch(graph_.node(outs.front()).out_shape);
  q.scale = plans_[static_cast<std::size_t>(outs.front())].scale;
  const std::int8_t* p = slot<std::int8_t>(outs.front());
  q.data.assign(p, p + q.shape.numel());
  return q;
}

const Tensor& Executor::activation(const std::string& node_name) const {
  for (NodeId id : order_) {
    const auto i = static_cast<std::size_t>(id);
    if (i < values_.size() && graph_.node(id).name == node_name) return values_[i];
  }
  throw NotFound("no recorded activation for node " + node_name);
}

template <typename T>
void Executor::conv(const Node& n, const NodePlan& plan) {
  using namespace runtime_kernels;
  constexpr bool f32 = std::is_same_v<T, float>;
  if (n.weights.empty()) {
    throw ExecError(std::string(op_name(n.kind)) + " " + n.name + " has no weights");
  }
  Conv2dGeometry geo = plan.conv;
  geo.batch = batch_;
  const T* x = in<T>(n, 0);
  T* y = slot<T>(n.id);
  const float* w = n.weights[0].data().data();
  const float* bias = n.weights.size() > 1 ? n.weights[1].data().data() : nullptr;
  const auto t0 = Clock::now();

  if (n.kind == OpKind::kConv2d && geo.depthwise()) {
    // Direct at every dispatch level: the k*k dot per pixel has no GEMM
    // shape, so portable and SIMD runs share these exact bits.
    pfor(0, geo.batch * geo.out_c, 1, [&](std::int64_t lo, std::int64_t hi, std::size_t chunk) {
      if constexpr (f32) {
        depthwise_f32(x, w, bias, y, geo, lo, hi, plan.fused_act, plan.fused_alpha);
      } else {
        sat_[chunk] += depthwise_s8(x, plan.weights.data(), plan.bias.data(), y, geo, lo, hi,
                                    plan.mult.data(), plan.q_lo, plan.q_hi);
      }
    });
  } else {
    // Per group: pack B panels straight from the NCHW input, then one GEMM
    // over N = B·cols that stores its tiles straight into NCHW (kernels.hpp).
    const GemmMicrokernels& mk = *mk_;
    const MicrokernelTile& tile = f32 ? mk.f32 : mk.s8;
    const std::int64_t patch = geo.patch(), m = geo.ocg(), n_cols = geo.batch * geo.cols();
    T* pb = reinterpret_cast<T*>(
        packed_b_.grow(f32 ? packed_b_f32_elems(patch, n_cols, tile) * sizeof(float)
                           : packed_b_s8_bytes(patch, n_cols, tile)));
    for (std::int64_t g = 0; g < geo.groups; ++g) {
      pfor(0, panel_count(n_cols, tile.nr), 1,
           [&](std::int64_t lo, std::int64_t hi, std::size_t) {
             if constexpr (f32) {
               pack_conv_b_f32(x, geo, g, tile, lo, hi, pb);
             } else {
               pack_conv_b_s8(x, geo, g, tile, lo, hi, pb);
             }
           });
      const std::int64_t base = g * m;
      T* yg = y + base * geo.cols();
      const std::int64_t panels = panel_count(m, tile.mr);
      if constexpr (f32) {
        const std::vector<float>& pa = packed_.get_f32(
            n.id, g, prepared_version_, tile, [&](std::vector<float>& v) {
              v.resize(packed_a_f32_elems(m, patch, tile));
              pack_a_f32(w + base * patch, m, patch, tile, v.data());
            });
        const float* gbias = bias != nullptr ? bias + base : nullptr;
        pfor(0, panels, 1, [&](std::int64_t lo, std::int64_t hi, std::size_t) {
          mk.gemm_f32(pa.data(), pb, yg, m, n_cols, patch, geo.output_map(), lo, hi, gbias,
                      plan.fused_act, plan.fused_alpha);
        });
      } else {
        const std::vector<std::int32_t>& pa = packed_.get_s8(
            n.id, g, prepared_version_, tile, [&](std::vector<std::int32_t>& v) {
              v.resize(packed_a_s8_words(m, patch, tile));
              pack_a_s8(plan.weights.data() + base * patch, m, patch, tile, v.data());
            });
        pfor(0, panels, 1, [&](std::int64_t lo, std::int64_t hi, std::size_t chunk) {
          sat_[chunk] += mk.gemm_s8(pa.data(), pb, yg, m, n_cols, patch, geo.output_map(), lo,
                                    hi, plan.bias.data() + base, plan.mult.data() + base,
                                    plan.q_lo, plan.q_hi);
        });
      }
    }
  }
  gemm_seconds_ += seconds_since(t0);
  gemm_flops_ += 2.0 * geo.macs();
}

void Executor::exec_f32(const Node& n, const NodePlan& plan) {
  float* y = slot<float>(n.id);
  const std::int64_t total = plan.lane * batch_;
  const Shape& in0 = graph_.node(n.inputs.at(0)).out_shape;
  switch (n.kind) {
    case OpKind::kConv2d:
    case OpKind::kDense:
      conv<float>(n, plan);
      break;
    case OpKind::kBatchNorm: {
      if (n.weights.size() != 4) throw ExecError("BatchNorm " + n.name + " needs 4 weight tensors");
      const std::int64_t C = in0.rank() == 4 ? in0.c() : in0.dim(1);
      const std::int64_t spatial = in0.rank() == 4 ? in0.h() * in0.w() : 1;
      // Per-channel scale/shift computed once, not once per batch element.
      std::vector<float> scale(static_cast<std::size_t>(C));
      std::vector<float> shift(static_cast<std::size_t>(C));
      const auto& gamma = n.weights[0];
      const auto& beta = n.weights[1];
      const auto& mean = n.weights[2];
      const auto& var = n.weights[3];
      for (std::int64_t c = 0; c < C; ++c) {
        const auto ci = static_cast<std::size_t>(c);
        scale[ci] = static_cast<float>(gamma.at(ci) / std::sqrt(var.at(ci) + plan.bn_eps));
        shift[ci] = static_cast<float>(beta.at(ci) - mean.at(ci) * scale[ci]);
      }
      const float* x = in<float>(n, 0);
      pfor(0, batch_ * C, 1, [&](std::int64_t lo, std::int64_t hi, std::size_t) {
        for (std::int64_t bc = lo; bc < hi; ++bc) {
          const auto ci = static_cast<std::size_t>(bc % C);
          const float* xr = x + bc * spatial;
          float* yr = y + bc * spatial;
          for (std::int64_t i = 0; i < spatial; ++i) yr[i] = xr[i] * scale[ci] + shift[ci];
        }
      });
      break;
    }
    case OpKind::kRelu:
    case OpKind::kRelu6:
    case OpKind::kLeakyRelu:
    case OpKind::kSigmoid:
    case OpKind::kHSigmoid:
    case OpKind::kHSwish:
    case OpKind::kMish:
    case OpKind::kTanh: {
      const float* x = in<float>(n, 0);
      pfor(0, total, 4096, [&](std::int64_t lo, std::int64_t hi, std::size_t) {
        for (std::int64_t i = lo; i < hi; ++i) y[i] = apply_activation(x[i], n.kind, plan.alpha);
      });
      break;
    }
    case OpKind::kAdd:
    case OpKind::kMul: {
      const bool mul = n.kind == OpKind::kMul;
      const Shape& in1 = graph_.node(n.inputs.at(1)).out_shape;
      if (in0 == in1) {
        const float* pa = in<float>(n, 0);
        const float* pb = in<float>(n, 1);
        pfor(0, total, 4096, [&](std::int64_t lo, std::int64_t hi, std::size_t) {
          if (mul) {
            for (std::int64_t i = lo; i < hi; ++i) y[i] = pa[i] * pb[i];
          } else {
            for (std::int64_t i = lo; i < hi; ++i) y[i] = pa[i] + pb[i];
          }
        });
        break;
      }
      // channelwise broadcast: one side is [N,C,1,1]
      const std::size_t big = in0.numel() >= in1.numel() ? 0 : 1;
      const Shape& s = big == 0 ? in0 : in1;
      const std::int64_t C = s.c(), spatial = s.h() * s.w();
      const float* px = in<float>(n, big);
      const float* pv = in<float>(n, 1 - big);
      pfor(0, batch_ * C, 1, [&](std::int64_t lo, std::int64_t hi, std::size_t) {
        for (std::int64_t bc = lo; bc < hi; ++bc) {
          const float v = pv[bc];
          const float* xr = px + bc * spatial;
          float* yr = y + bc * spatial;
          if (mul) {
            for (std::int64_t i = 0; i < spatial; ++i) yr[i] = xr[i] * v;
          } else {
            for (std::int64_t i = 0; i < spatial; ++i) yr[i] = xr[i] + v;
          }
        }
      });
      break;
    }
    case OpKind::kConcat: {
      // Along axis 1 (channels, or features): per sample, each input's lane.
      for (std::int64_t b = 0; b < batch_; ++b) {
        float* dst = y + b * plan.lane;
        for (std::size_t i = 0; i < n.inputs.size(); ++i) {
          const std::int64_t li = plans_[static_cast<std::size_t>(n.inputs[i])].lane;
          dst = std::copy_n(in<float>(n, i) + b * li, li, dst);
        }
      }
      break;
    }
    case OpKind::kMaxPool:
    case OpKind::kAvgPool:
    case OpKind::kGlobalAvgPool: {
      const bool is_max = n.kind == OpKind::kMaxPool;
      const float* x = in<float>(n, 0);
      const std::int64_t grain = n.kind == OpKind::kGlobalAvgPool ? 8 : 1;
      pfor(0, batch_ * n.out_shape.c(), grain,
           [&](std::int64_t lo, std::int64_t hi, std::size_t) {
             pool_planes(
                 x, y, in0, n.out_shape, plan.pool_kernel, plan.pool_stride, plan.pool_pad, lo,
                 hi, is_max ? -std::numeric_limits<double>::infinity() : 0.0,
                 [&](double acc, float v) {
                   return is_max ? std::max(acc, static_cast<double>(v)) : acc + v;
                 },
                 [&](double acc, std::int64_t count) {
                   return static_cast<float>(
                       is_max ? acc : (count > 0 ? acc / static_cast<double>(count) : 0.0));
                 });
           });
      break;
    }
    case OpKind::kUpsample: {
      const std::int64_t scale = plan.upsample_scale;
      const std::int64_t IH = in0.h(), IW = in0.w(), OH = n.out_shape.h(), OW = n.out_shape.w();
      const float* x = in<float>(n, 0);
      for (std::int64_t bc = 0; bc < batch_ * n.out_shape.c(); ++bc) {
        for (std::int64_t h = 0; h < OH; ++h) {
          for (std::int64_t w = 0; w < OW; ++w) {
            y[(bc * OH + h) * OW + w] = x[(bc * IH + h / scale) * IW + w / scale];
          }
        }
      }
      break;
    }
    case OpKind::kFlatten:
    case OpKind::kIdentity:
      std::copy_n(in<float>(n, 0), total, y);
      break;
    case OpKind::kSoftmax:
      softmax_rows(in<float>(n, 0), y, batch_, plan.lane);
      break;
    case OpKind::kInput:
      throw ExecError("Input node reached exec_f32");
  }
}

void Executor::exec_s8(const Node& n, const NodePlan& plan) {
  if (!plan.unsupported.empty()) throw Unsupported(plan.unsupported);
  if (plan.forward) return;  // the producing Add already applied this node's table
  std::int8_t* y = slot<std::int8_t>(n.id);
  const std::int64_t total = plan.lane * batch_;
  const Shape& in0 = graph_.node(n.inputs.at(0)).out_shape;
  const std::uint16_t* lut = plan.lut.data();
  // Every parallel region accumulates saturation events into a per-chunk
  // slot; the post-dispatch sum is order-independent, so saturations() is
  // identical for any thread count.
  sat_.assign(std::max(1u, threads_), 0);

  switch (n.kind) {
    case OpKind::kConv2d:
    case OpKind::kDense:
      conv<std::int8_t>(n, plan);
      break;

    case OpKind::kRelu:
    case OpKind::kRelu6:
    case OpKind::kIdentity:
    case OpKind::kFlatten:
    case OpKind::kAdd: {
      // Table lookup: prepare() requantized every input byte (Add: byte
      // pair) with this node's scales and clamp, so bytes and saturation
      // counts match per-element requantization exactly.
      const std::int8_t* px = in<std::int8_t>(n, 0);
      if (n.kind != OpKind::kAdd) {
        pfor(0, total, 4096, [&](std::int64_t lo, std::int64_t hi, std::size_t chunk) {
          std::uint64_t s = 0;
          for (std::int64_t i = lo; i < hi; ++i) {
            y[i] = lookup(lut, static_cast<std::uint8_t>(px[i]), s);
          }
          sat_[chunk] += s;
        });
        break;
      }
      VEDLIOT_CHECK(in0 == graph_.node(n.inputs.at(1)).out_shape,
                    "integer Add supports equal shapes only");
      const std::int8_t* pb = in<std::int8_t>(n, 1);
      pfor(0, total, 4096, [&](std::int64_t lo, std::int64_t hi, std::size_t chunk) {
        std::uint64_t s = 0;
        for (std::int64_t i = lo; i < hi; ++i) {
          const std::size_t u =
              static_cast<std::size_t>(static_cast<std::uint8_t>(px[i])) << 8 |
              static_cast<std::uint8_t>(pb[i]);
          y[i] = lookup(lut, u, s);
        }
        sat_[chunk] += s;
      });
      break;
    }

    case OpKind::kMaxPool:
    case OpKind::kAvgPool:
    case OpKind::kGlobalAvgPool: {
      const bool is_max = n.kind == OpKind::kMaxPool;
      const double rescale = plans_[static_cast<std::size_t>(n.inputs[0])].scale / plan.scale;
      const std::int8_t* x = in<std::int8_t>(n, 0);
      pfor(0, batch_ * n.out_shape.c(), 1,
           [&](std::int64_t lo, std::int64_t hi, std::size_t chunk) {
             std::uint64_t s = 0;
             if (is_max) {  // the window max, then one table lookup
               pool_planes(
                   x, y, in0, n.out_shape, plan.pool_kernel, plan.pool_stride, plan.pool_pad, lo,
                   hi, std::int8_t{-128},
                   [](std::int8_t acc, std::int8_t v) { return std::max(acc, v); },
                   [&](std::int8_t acc, std::int64_t) {
                     return lookup(lut, static_cast<std::uint8_t>(acc), s);
                   });
             } else {
               pool_planes(
                   x, y, in0, n.out_shape, plan.pool_kernel, plan.pool_stride, plan.pool_pad, lo,
                   hi, std::int64_t{0}, [](std::int64_t acc, std::int8_t v) { return acc + v; },
                   [&](std::int64_t acc, std::int64_t count) {
                     const double mean =
                         count > 0 ? static_cast<double>(acc) / static_cast<double>(count) : 0.0;
                     return requant_clamped(mean * rescale, plan.q_lo, plan.q_hi, s);
                   });
             }
             sat_[chunk] += s;
           });
      break;
    }

    case OpKind::kConcat: {
      // Along axis 1: per sample, each input's lane through that input's
      // 256-entry table.
      std::uint64_t s = 0;
      for (std::int64_t b = 0; b < batch_; ++b) {
        std::int8_t* dst = y + b * plan.lane;
        for (std::size_t i = 0; i < n.inputs.size(); ++i) {
          const std::int64_t li = plans_[static_cast<std::size_t>(n.inputs[i])].lane;
          const std::int8_t* src = in<std::int8_t>(n, i) + b * li;
          for (std::int64_t j = 0; j < li; ++j) {
            dst[j] = lookup(lut + 256 * i, static_cast<std::uint8_t>(src[j]), s);
          }
          dst += li;
        }
      }
      sat_[0] += s;
      break;
    }

    case OpKind::kSoftmax: {
      // Dequantize, float softmax, requantize (TFLite uses a LUT; float is
      // the reference).
      std::vector<float> f(static_cast<std::size_t>(total));
      dequantize_into(in<std::int8_t>(n, 0), plans_[static_cast<std::size_t>(n.inputs[0])].scale,
                      f);
      softmax_rows(f.data(), f.data(), batch_, plan.lane);
      for (std::int64_t i = 0; i < total; ++i) {
        y[i] = requant_clamped(static_cast<double>(f[static_cast<std::size_t>(i)]) / plan.scale,
                               plan.q_lo, plan.q_hi, sat_[0]);
      }
      break;
    }

    default:  // prepare() marked every other op unsupported
      break;
  }
  for (std::uint64_t s : sat_) saturations_ += s;
}

}  // namespace vedliot
