#include "runtime/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "runtime/instrument.hpp"
#include "runtime/memory_planner.hpp"

namespace vedliot {

using runtime_kernels::apply_activation;
using runtime_kernels::Conv2dGeometry;

namespace {

OpKind fused_act_kind(const Node& n) {
  const std::string name = n.attrs.get_str_or("fused_act", "");
  if (name.empty()) return OpKind::kIdentity;
  return parse_op(name);
}

}  // namespace

Executor::Executor(const Graph& graph) : graph_(graph) {
  if (!graph_.weights_materialized()) {
    throw ExecError("graph " + graph.name() + " has unmaterialized weights; call materialize_weights()");
  }
  // Resolve every per-node constant once: fused activation kind (string attr
  // -> OpKind), alphas, BN epsilon, pool/upsample geometry, conv geometry.
  plans_.resize(graph_.total_nodes());
  for (NodeId id : graph_.topo_order()) {
    const Node& n = graph_.node(id);
    NodePlan& plan = plans_[static_cast<std::size_t>(id)];
    plan.alpha = n.attrs.get_float_or("alpha", 0.01);
    plan.bn_eps = n.attrs.get_float_or("epsilon", 1e-5);
    if (n.kind == OpKind::kConv2d || n.kind == OpKind::kDense) {
      plan.fused_act = fused_act_kind(n);
      plan.fused_alpha = n.attrs.get_float_or("fused_alpha", 0.01);
    }
    if (n.kind == OpKind::kConv2d || n.kind == OpKind::kDense) {
      plan.conv = Conv2dGeometry::of(graph_, n);
    }
    if (n.kind == OpKind::kMaxPool || n.kind == OpKind::kAvgPool) {
      plan.pool_kernel = n.attrs.get_int("kernel");
      plan.pool_stride = n.attrs.get_int_or("stride", plan.pool_kernel);
      plan.pool_pad = n.attrs.get_int_or("pad", 0);
    }
    if (n.kind == OpKind::kUpsample) plan.upsample_scale = n.attrs.get_int("scale");
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

void Executor::prepare_arena() {
  if (!arena_offset_.empty()) return;
  const auto order = graph_.topo_order();
  const MemoryPlan plan = plan_memory_with_order(graph_, order, DType::kFP32);
  arena_.assign(static_cast<std::size_t>(plan.arena_bytes / 4), 0.0f);
  for (const BufferPlan& b : plan.buffers) {
    arena_offset_[b.node] = static_cast<std::size_t>(b.offset / 4);
  }
  arena_stats_.arena_bytes = plan.arena_bytes;
  arena_stats_.naive_bytes = plan.naive_bytes;
}

Tensor Executor::alloc_output(const Node& n) {
  if (arena_stats_.active) {
    const auto it = arena_offset_.find(n.id);
    if (it != arena_offset_.end()) {
      return Tensor::view(n.out_shape,
                          std::span<float>(arena_.data() + it->second,
                                           static_cast<std::size_t>(n.out_shape.numel())));
    }
  }
  return Tensor(n.out_shape);
}

void Executor::feed_input(const Node& n, const std::map<std::string, Tensor>& feeds) {
  auto it = feeds.find(n.name);
  if (it == feeds.end()) throw ExecError("missing feed for input '" + n.name + "'");
  if (it->second.shape() != n.out_shape) {
    throw ExecError("feed shape mismatch for '" + n.name + "': expected " +
                    n.out_shape.to_string() + " got " + it->second.shape().to_string());
  }
  values_[n.id] = it->second;
}

void Executor::exec_node(const Node& n) {
  std::vector<const Tensor*> ins;
  ins.reserve(n.inputs.size());
  for (NodeId in : n.inputs) ins.push_back(&values_.at(in));

  obs::ScopedSpan node_span;
  if (tracer_ != nullptr) {
    node_span = tracer_->span(n.name, std::string(op_name(n.kind)));
  }
  const NodePlan& plan = plans_[static_cast<std::size_t>(n.id)];
  Tensor out = alloc_output(n);
  if (metrics_ != nullptr) {
    const auto t0 = std::chrono::steady_clock::now();
    execute_node(n, plan, ins, out);
    const auto t1 = std::chrono::steady_clock::now();
    runtime_detail::op_histogram(*metrics_, n.kind)
        .add(std::chrono::duration<double>(t1 - t0).count() * 1e6);
  } else {
    execute_node(n, plan, ins, out);
  }
  values_[n.id] = std::move(out);
  if (tracer_ != nullptr) {
    node_span.attr("out_elems", static_cast<double>(n.out_shape.numel()));
    node_span.close();
  }
  ++nodes_executed_;
}

std::map<std::string, Tensor> Executor::run(const std::map<std::string, Tensor>& feeds) {
  values_.clear();
  nodes_executed_ = 0;
  {
    std::lock_guard<std::mutex> lock(gemm_stats_mutex_);
    gemm_flops_ = 0;
    gemm_seconds_ = 0;
  }
  // Dispatch level resolved per run (env overrides are live) — the whole
  // run executes at one level.
  active_simd_ = util::resolve_simd_level(simd_req_);
  mk_ = &runtime_kernels::gemm_microkernels(active_simd_);
  arena_stats_.active = !keep_activations_;
  if (arena_stats_.active) prepare_arena();

  obs::ScopedSpan run_span;
  if (tracer_ != nullptr) {
    run_span = tracer_->span("session.run", "vedliot.runtime");
    run_span.attr("graph", graph_.name());
    run_span.attr("backend", "float-reference");
    run_span.attr("threads", static_cast<double>(threads_));
    run_span.attr("simd", std::string(util::simd_level_name(active_simd_)));
  }

  for (NodeId id : graph_.topo_order()) {
    const Node& n = graph_.node(id);
    if (n.kind == OpKind::kInput) {
      feed_input(n, feeds);
      continue;
    }
    exec_node(n);
  }

  std::map<std::string, Tensor> outs;
  for (NodeId id : graph_.outputs()) {
    const Tensor& t = values_.at(id);
    outs[graph_.node(id).name] = t.is_view() ? t.clone() : t;
  }

  if (metrics_ != nullptr) {
    metrics_->counter(runtime_detail::kRunsCounter).inc();
    metrics_->counter(runtime_detail::kNodesCounter).inc(nodes_executed_);
    metrics_->gauge(runtime_detail::kThreadsGauge).set(static_cast<double>(threads_));
    {
      std::lock_guard<std::mutex> lock(gemm_stats_mutex_);
      if (gemm_seconds_ > 0) {
        metrics_->gauge(runtime_detail::kGemmGflopsGauge).set(gemm_flops_ / gemm_seconds_ / 1e9);
      }
    }
    if (arena_stats_.active) {
      metrics_->gauge(runtime_detail::kArenaBytesGauge)
          .set(static_cast<double>(arena_stats_.arena_bytes));
      metrics_->gauge(runtime_detail::kArenaSavedGauge)
          .set(static_cast<double>(arena_stats_.naive_bytes - arena_stats_.arena_bytes));
    }
  }
  if (tracer_ != nullptr) {
    run_span.attr("nodes_executed", static_cast<double>(nodes_executed_));
    run_span.close();
  }
  if (!keep_activations_) values_.clear();
  return outs;
}

const Tensor& Executor::activation(const std::string& node_name) const {
  for (const auto& [id, t] : values_) {
    if (graph_.node(id).name == node_name) return t;
  }
  throw NotFound("no recorded activation for node " + node_name);
}

void Executor::record_gemm(double seconds, double flops) {
  std::lock_guard<std::mutex> lock(gemm_stats_mutex_);
  gemm_seconds_ += seconds;
  gemm_flops_ += flops;
}

void Executor::conv2d(const Node& n, const NodePlan& plan, const Tensor& in, Tensor& out) {
  using namespace runtime_kernels;
  const Conv2dGeometry& geo = plan.conv;
  const float* x = in.data().data();
  const float* w = n.weights[0].data().data();
  const float* bias = n.weights.size() > 1 ? n.weights[1].data().data() : nullptr;
  float* y = out.data().data();
  const auto t0 = std::chrono::steady_clock::now();

  if (n.kind == OpKind::kConv2d && geo.depthwise()) {
    // Direct at every dispatch level: the k*k dot per pixel has no GEMM
    // shape, so portable and SIMD runs share these exact bits.
    pfor(0, geo.batch * geo.out_c, 1, [&](std::int64_t lo, std::int64_t hi, std::size_t) {
      depthwise_f32(x, w, bias, y, geo, lo, hi, plan.fused_act, plan.fused_alpha);
    });
  } else {
    // Per group: pack B panels straight from the NCHW input, then one GEMM
    // over N = B·cols that stores its tiles straight into NCHW (kernels.hpp).
    const GemmMicrokernels& mk = *mk_;
    const std::int64_t patch = geo.patch(), m = geo.ocg(), n_cols = geo.batch * geo.cols();
    grow(packed_b_, packed_b_f32_elems(patch, n_cols, mk.f32));
    for (std::int64_t g = 0; g < geo.groups; ++g) {
      pfor(0, panel_count(n_cols, mk.f32.nr), 1,
           [&](std::int64_t lo, std::int64_t hi, std::size_t) {
             pack_conv_b_f32(x, geo, g, mk.f32, lo, hi, packed_b_.data());
           });
      const std::vector<float>& pa =
          packed_.get_f32(n.id, g, graph_.version(), mk.f32, [&](std::vector<float>& v) {
            v.resize(packed_a_f32_elems(m, patch, mk.f32));
            pack_a_f32(w + g * m * patch, m, patch, mk.f32, v.data());
          });
      const float* gbias = bias != nullptr ? bias + g * m : nullptr;
      pfor(0, panel_count(m, mk.f32.mr), 1, [&](std::int64_t lo, std::int64_t hi, std::size_t) {
        mk.gemm_f32(pa.data(), packed_b_.data(), y + g * m * geo.cols(), m, n_cols, patch,
                    geo.output_map(), lo, hi, gbias, plan.fused_act, plan.fused_alpha);
      });
    }
  }

  const auto t1 = std::chrono::steady_clock::now();
  record_gemm(std::chrono::duration<double>(t1 - t0).count(), 2.0 * geo.macs());
}

void Executor::execute_node(const Node& n, const NodePlan& plan,
                            const std::vector<const Tensor*>& ins, Tensor& out) {
  switch (n.kind) {
    case OpKind::kConv2d:
    case OpKind::kDense: {
      if (n.weights.empty()) {
        throw ExecError(std::string(op_name(n.kind)) + " " + n.name + " has no weights");
      }
      conv2d(n, plan, *ins.at(0), out);
      break;
    }
    case OpKind::kBatchNorm: {
      if (n.weights.size() != 4) throw ExecError("BatchNorm " + n.name + " needs 4 weight tensors");
      const Tensor& in = *ins.at(0);
      const auto& s = in.shape();
      const std::int64_t C = s.rank() == 4 ? s.c() : s.dim(1);
      const std::int64_t spatial = s.rank() == 4 ? s.h() * s.w() : 1;
      const std::int64_t N = s.dim(0);
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
      const float* x = in.data().data();
      float* y = out.data().data();
      pfor(0, N * C, 1, [&](std::int64_t lo, std::int64_t hi, std::size_t) {
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
      const float* x = ins.at(0)->data().data();
      float* y = out.data().data();
      const OpKind kind = n.kind;
      const double alpha = plan.alpha;
      pfor(0, out.numel(), 4096, [&](std::int64_t lo, std::int64_t hi, std::size_t) {
        for (std::int64_t i = lo; i < hi; ++i) y[i] = apply_activation(x[i], kind, alpha);
      });
      break;
    }
    case OpKind::kAdd:
    case OpKind::kMul: {
      const Tensor& a = *ins.at(0);
      const Tensor& b = *ins.at(1);
      const bool mul = n.kind == OpKind::kMul;
      float* y = out.data().data();
      if (a.shape() == b.shape()) {
        const float* pa = a.data().data();
        const float* pb = b.data().data();
        pfor(0, out.numel(), 4096, [&](std::int64_t lo, std::int64_t hi, std::size_t) {
          if (mul) {
            for (std::int64_t i = lo; i < hi; ++i) y[i] = pa[i] * pb[i];
          } else {
            for (std::int64_t i = lo; i < hi; ++i) y[i] = pa[i] + pb[i];
          }
        });
        break;
      }
      // channelwise broadcast: one side is [N,C,1,1]
      const Tensor& big = a.numel() >= b.numel() ? a : b;
      const Tensor& vec = a.numel() >= b.numel() ? b : a;
      const auto& s = big.shape();
      const std::int64_t C = s.c(), spatial = s.h() * s.w();
      const float* px = big.data().data();
      const float* pv = vec.data().data();
      pfor(0, s.n() * C, 1, [&](std::int64_t lo, std::int64_t hi, std::size_t) {
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
      const auto& os = n.out_shape;
      if (os.rank() == 4) {
        std::int64_t c_off = 0;
        for (const Tensor* t : ins) {
          const auto& s = t->shape();
          for (std::int64_t b = 0; b < s.n(); ++b)
            for (std::int64_t c = 0; c < s.c(); ++c)
              for (std::int64_t h = 0; h < s.h(); ++h)
                for (std::int64_t w = 0; w < s.w(); ++w)
                  out.at4(b, c_off + c, h, w) = t->at4(b, c, h, w);
          c_off += s.c();
        }
      } else {
        std::int64_t f_off = 0;
        const auto F = os.dim(1);
        for (const Tensor* t : ins) {
          const auto& s = t->shape();
          for (std::int64_t b = 0; b < s.dim(0); ++b)
            for (std::int64_t f = 0; f < s.dim(1); ++f)
              out.at(static_cast<std::size_t>(b * F + f_off + f)) =
                  t->at(static_cast<std::size_t>(b * s.dim(1) + f));
          f_off += s.dim(1);
        }
      }
      break;
    }
    case OpKind::kMaxPool:
    case OpKind::kAvgPool: {
      const bool is_max = n.kind == OpKind::kMaxPool;
      const std::int64_t k = plan.pool_kernel, stride = plan.pool_stride, pad = plan.pool_pad;
      const Tensor& in = *ins.at(0);
      const auto& s = in.shape();
      const std::int64_t IH = s.h(), IW = s.w();
      const std::int64_t OC = n.out_shape.c(), OH = n.out_shape.h(), OW = n.out_shape.w();
      const float* x = in.data().data();
      float* y = out.data().data();
      pfor(0, n.out_shape.n() * OC, 1, [&](std::int64_t lo, std::int64_t hi, std::size_t) {
        for (std::int64_t bc = lo; bc < hi; ++bc) {
          const float* plane = x + bc * IH * IW;
          float* oplane = y + bc * OH * OW;
          for (std::int64_t oh = 0; oh < OH; ++oh) {
            for (std::int64_t ow = 0; ow < OW; ++ow) {
              double acc = is_max ? -std::numeric_limits<double>::infinity() : 0.0;
              std::int64_t count = 0;
              for (std::int64_t kh = 0; kh < k; ++kh) {
                const auto ih = oh * stride - pad + kh;
                if (ih < 0 || ih >= IH) continue;
                for (std::int64_t kw = 0; kw < k; ++kw) {
                  const auto iw = ow * stride - pad + kw;
                  if (iw < 0 || iw >= IW) continue;
                  const double v = plane[ih * IW + iw];
                  if (is_max) {
                    acc = std::max(acc, v);
                  } else {
                    acc += v;
                  }
                  ++count;
                }
              }
              oplane[oh * OW + ow] = static_cast<float>(
                  is_max ? acc : (count > 0 ? acc / static_cast<double>(count) : 0.0));
            }
          }
        }
      });
      break;
    }
    case OpKind::kGlobalAvgPool: {
      const Tensor& in = *ins.at(0);
      const auto& s = in.shape();
      const std::int64_t spatial = s.h() * s.w();
      const double denom = static_cast<double>(spatial);
      const float* x = in.data().data();
      float* y = out.data().data();
      pfor(0, s.n() * s.c(), 8, [&](std::int64_t lo, std::int64_t hi, std::size_t) {
        for (std::int64_t bc = lo; bc < hi; ++bc) {
          const float* plane = x + bc * spatial;
          double acc = 0.0;
          for (std::int64_t i = 0; i < spatial; ++i) acc += plane[i];
          y[bc] = static_cast<float>(acc / denom);
        }
      });
      break;
    }
    case OpKind::kUpsample: {
      const auto scale = plan.upsample_scale;
      const auto& os = n.out_shape;
      for (std::int64_t b = 0; b < os.n(); ++b)
        for (std::int64_t c = 0; c < os.c(); ++c)
          for (std::int64_t h = 0; h < os.h(); ++h)
            for (std::int64_t w = 0; w < os.w(); ++w)
              out.at4(b, c, h, w) = ins.at(0)->at4(b, c, h / scale, w / scale);
      break;
    }
    case OpKind::kFlatten:
    case OpKind::kIdentity: {
      const auto src = ins.at(0)->data();
      std::copy(src.begin(), src.end(), out.data().begin());
      break;
    }
    case OpKind::kSoftmax: {
      const Tensor& in = *ins.at(0);
      const auto& s = in.shape();
      const std::int64_t N = s.dim(0);
      const std::int64_t F = in.numel() / N;
      const float* x = in.data().data();
      float* y = out.data().data();
      for (std::int64_t b = 0; b < N; ++b) {
        const float* xr = x + b * F;
        float* yr = y + b * F;
        float mx = -std::numeric_limits<float>::infinity();
        for (std::int64_t f = 0; f < F; ++f) mx = std::max(mx, xr[f]);
        double sum = 0.0;
        for (std::int64_t f = 0; f < F; ++f) {
          const double e = std::exp(static_cast<double>(xr[f] - mx));
          yr[f] = static_cast<float>(e);
          sum += e;
        }
        for (std::int64_t f = 0; f < F; ++f) yr[f] = static_cast<float>(yr[f] / sum);
      }
      break;
    }
    case OpKind::kInput:
      throw ExecError("Input node reached execute_node");
  }
}

}  // namespace vedliot
