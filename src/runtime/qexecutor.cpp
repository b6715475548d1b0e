#include "runtime/qexecutor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "runtime/executor.hpp"
#include "runtime/instrument.hpp"
#include "util/error.hpp"

namespace vedliot {

using runtime_kernels::Conv2dGeometry;
using runtime_kernels::requant_clamped;
using runtime_kernels::saturate_i8;

namespace {

double act_scale_of(const Graph& g, NodeId id) {
  const Node& n = g.node(id);
  if (!n.attrs.has("act_scale")) {
    throw Unsupported("node " + n.name +
                      " has no act_scale — run opt::calibrate_activations first");
  }
  const double s = n.attrs.get_float("act_scale");
  return s > 0 ? s : 1e-9;
}

}  // namespace

Tensor QTensor::dequantize() const {
  Tensor t(shape);
  auto out = t.data();
  for (std::size_t i = 0; i < data.size(); ++i) {
    out[i] = static_cast<float>(static_cast<double>(data[i]) * scale);
  }
  return t;
}

QTensor quantize_fixed(const Tensor& t, double scale) {
  QTensor q;
  q.shape = t.shape();
  q.scale = scale;
  q.data.resize(static_cast<std::size_t>(t.numel()));
  std::uint64_t dummy = 0;
  for (std::size_t i = 0; i < q.data.size(); ++i) {
    q.data[i] = saturate_i8(static_cast<double>(t.data()[i]) / scale, dummy);
  }
  return q;
}

QuantizedExecutor::QuantizedExecutor(const Graph& graph) : graph_(graph) {
  VEDLIOT_CHECK(graph_.weights_materialized(),
                "QuantizedExecutor requires materialized weights");
  prepare();
}

void QuantizedExecutor::prepare() {
  prepared_.clear();
  out_scale_.clear();
  packed_.clear();
  qplans_.assign(graph_.total_nodes(), QNodePlan{});
  const std::vector<NodeId> outputs = graph_.outputs();
  for (NodeId id : graph_.topo_order()) {
    const Node& n = graph_.node(id);
    if (n.kind == OpKind::kBatchNorm) {
      throw Unsupported("fold BatchNorm (opt::FuseBatchNormPass) before integer execution");
    }
    out_scale_[id] = act_scale_of(graph_, id);
    const double so = out_scale_[id];

    // Fused activation bounds in the *output* integer domain. Symmetric
    // quantization keeps zero at q=0, so ReLU is max(q, 0). Resolved here,
    // once, instead of per node execution.
    QNodePlan& plan = qplans_[static_cast<std::size_t>(id)];
    const std::string fused = n.attrs.get_str_or("fused_act", "");
    if (fused == "Relu" || n.kind == OpKind::kRelu) plan.q_lo = 0;
    if (fused == "Relu6" || n.kind == OpKind::kRelu6) {
      plan.q_lo = 0;
      plan.q_hi = std::min<std::int32_t>(127, static_cast<std::int32_t>(std::nearbyint(6.0 / so)));
    }
    if (!fused.empty() && fused != "Relu" && fused != "Relu6") {
      plan.fused_unsupported = true;  // reported when the node actually runs
      plan.fused_name = fused;
    }
    if (n.kind == OpKind::kConv2d || n.kind == OpKind::kDense) {
      plan.conv = Conv2dGeometry::of(graph_, n);
    }
    const bool add = n.kind == OpKind::kAdd;
    if (add || n.kind == OpKind::kRelu || n.kind == OpKind::kRelu6 ||
        n.kind == OpKind::kIdentity || n.kind == OpKind::kFlatten) {
      // The per-element double requantization, for every input byte (Add:
      // every byte pair, indexed a << 8 | b).
      const double sa = out_scale_.at(n.inputs.at(0));
      const double sb = add ? out_scale_.at(n.inputs.at(1)) : 0.0;
      const double rescale = sa / so;
      plan.lut.resize(add ? 65536 : 256);
      plan.lut_sat.resize(plan.lut.size());
      for (std::size_t u = 0; u < plan.lut.size(); ++u) {
        const auto a = static_cast<double>(static_cast<std::int8_t>(add ? u >> 8 : u));
        const auto b = static_cast<double>(static_cast<std::int8_t>(u));
        std::uint64_t s = 0;
        plan.lut[u] = requant_clamped(add ? (a * sa + b * sb) / so : a * rescale, plan.q_lo,
                                      plan.q_hi, s);
        plan.lut_sat[u] = static_cast<std::uint8_t>(s);
      }
    }
    // A 256-entry node that is the only consumer of an Add (not a graph
    // output) folds its table into the Add's, lookup for lookup, and then
    // passes the Add's buffer on: the same bytes and saturations, one pass.
    const bool unary =
        n.kind == OpKind::kRelu || n.kind == OpKind::kRelu6 || n.kind == OpKind::kIdentity;
    const NodeId src = unary ? n.inputs.at(0) : id;
    if (unary && graph_.node(src).kind == OpKind::kAdd && graph_.consumers(src).size() == 1 &&
        std::ranges::count(outputs, src) == 0) {
      QNodePlan& add_plan = qplans_[static_cast<std::size_t>(src)];
      for (std::size_t u = 0; u < add_plan.lut.size(); ++u) {
        const auto mid = static_cast<std::uint8_t>(add_plan.lut[u]);
        add_plan.lut_sat[u] = static_cast<std::uint8_t>(add_plan.lut_sat[u] + plan.lut_sat[mid]);
        add_plan.lut[u] = plan.lut[mid];
      }
      plan.forward = true;
    }

    if ((n.kind != OpKind::kConv2d && n.kind != OpKind::kDense) || n.weights.empty()) continue;

    const double in_scale = out_scale_.at(n.inputs.at(0));
    const Tensor& w = n.weights[0];
    const auto oc = w.shape().dim(0);
    const auto per = static_cast<std::size_t>(w.numel() / oc);

    PreparedLayer layer;
    layer.weights.resize(static_cast<std::size_t>(w.numel()));
    layer.weight_scales.resize(static_cast<std::size_t>(oc));
    layer.bias.assign(static_cast<std::size_t>(oc), 0);
    layer.mult.resize(static_cast<std::size_t>(oc));

    for (std::int64_t c = 0; c < oc; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      auto chan = w.data().subspan(ci * per, per);
      double amax = 0;
      for (float v : chan) amax = std::max(amax, std::abs(static_cast<double>(v)));
      const double ws = amax > 0 ? amax / 127.0 : 1.0;
      layer.weight_scales[ci] = ws;
      layer.mult[ci] = in_scale * ws / so;
      std::uint64_t dummy = 0;
      for (std::size_t i = 0; i < per; ++i) {
        layer.weights[ci * per + i] = saturate_i8(chan[i] / ws, dummy);
      }
      if (n.weights.size() > 1) {
        layer.bias[ci] = static_cast<std::int32_t>(
            std::nearbyint(static_cast<double>(n.weights[1].at(ci)) / (in_scale * ws)));
      }
    }
    prepared_[id] = std::move(layer);
  }
  prepared_version_ = graph_.version();
  ++preparations_;
}

void QuantizedExecutor::instrument(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  metrics_ = metrics;
}

void QuantizedExecutor::set_threads(unsigned threads) {
  if (threads == 0) threads = util::ThreadPool::hardware_threads();
  if (threads == threads_) return;
  threads_ = threads;
  pool_ = threads_ > 1 ? std::make_unique<util::ThreadPool>(threads_) : nullptr;
}

void QuantizedExecutor::pfor(std::int64_t begin, std::int64_t end, std::int64_t grain,
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

QTensor QuantizedExecutor::run_single(const Tensor& input) {
  const auto ins = graph_.inputs();
  VEDLIOT_CHECK(ins.size() == 1, "run_single requires exactly one graph input");
  const auto outs = graph_.outputs();
  VEDLIOT_CHECK(outs.size() == 1, "run_single requires exactly one graph output");
  nodes_executed_ = 0;
  // Self-heal contract with the safety layer: ModelStore repair()/restore()
  // and OTA swaps touch() the live graph, so a version mismatch means our
  // quantized weights were derived from bits that no longer exist —
  // requantize and repack before serving.
  if (prepared_version_ != graph_.version()) prepare();
  active_simd_ = util::resolve_simd_level(simd_req_);
  mk_ = &runtime_kernels::gemm_microkernels(active_simd_);

  obs::ScopedSpan run_span;
  if (tracer_ != nullptr) {
    run_span = tracer_->span("session.run", "vedliot.runtime");
    run_span.attr("graph", graph_.name());
    run_span.attr("backend", "int8");
    run_span.attr("threads", static_cast<double>(threads_));
  }

  std::map<NodeId, QTensor> values;
  for (NodeId id : graph_.topo_order()) {
    const Node& n = graph_.node(id);
    if (n.kind == OpKind::kInput) {
      VEDLIOT_CHECK(input.shape() == n.out_shape, "input shape mismatch");
      values[id] = quantize_fixed(input, out_scale_.at(id));
      continue;
    }
    std::vector<QTensor*> node_ins;
    for (NodeId in : n.inputs) node_ins.push_back(&values.at(in));

    obs::ScopedSpan node_span;
    if (tracer_ != nullptr) {
      node_span = tracer_->span(n.name, std::string(op_name(n.kind)));
    }
    if (metrics_ != nullptr) {
      const auto t0 = std::chrono::steady_clock::now();
      values[id] = execute_node(n, node_ins);
      const auto t1 = std::chrono::steady_clock::now();
      runtime_detail::op_histogram(*metrics_, n.kind)
          .add(std::chrono::duration<double>(t1 - t0).count() * 1e6);
    } else {
      values[id] = execute_node(n, node_ins);
    }
    if (tracer_ != nullptr) {
      node_span.attr("out_elems", static_cast<double>(n.out_shape.numel()));
      node_span.close();
    }
    ++nodes_executed_;
  }

  if (metrics_ != nullptr) {
    metrics_->counter(runtime_detail::kRunsCounter).inc();
    metrics_->counter(runtime_detail::kNodesCounter).inc(nodes_executed_);
    metrics_->gauge(runtime_detail::kSaturationsGauge)
        .set(static_cast<double>(saturations_));
  }
  if (tracer_ != nullptr) {
    run_span.attr("nodes_executed", static_cast<double>(nodes_executed_));
    run_span.close();
  }
  return values.at(outs.front());
}

QTensor QuantizedExecutor::execute_node(const Node& n, const std::vector<QTensor*>& ins) {
  const double so = out_scale_.at(n.id);
  const QNodePlan& plan = qplans_[static_cast<std::size_t>(n.id)];
  if (plan.forward) {  // the producing Add already applied this node's table
    QTensor out = std::move(*ins.at(0));
    out.scale = so;
    return out;
  }
  if (plan.fused_unsupported) {
    throw Unsupported("integer executor supports fused Relu/Relu6 only, got " + plan.fused_name);
  }
  const std::int32_t q_lo = plan.q_lo, q_hi = plan.q_hi;

  QTensor out;
  out.shape = n.out_shape;
  out.scale = so;
  out.data.resize(static_cast<std::size_t>(n.out_shape.numel()));

  // Every parallel region accumulates saturation events into a per-chunk
  // slot; the post-dispatch sum is order-independent, so saturations() is
  // identical for any thread count.
  std::vector<std::uint64_t> sat(std::max(1u, threads_), 0);

  switch (n.kind) {
    case OpKind::kConv2d:
    case OpKind::kDense: {
      const QTensor& x = *ins.at(0);
      const PreparedLayer& layer = prepared_.at(n.id);
      const Conv2dGeometry& geo = plan.conv;
      const std::int8_t* px = x.data.data();
      std::int8_t* py = out.data.data();

      if (n.kind == OpKind::kConv2d && geo.depthwise()) {
        pfor(0, geo.batch * geo.out_c, 1,
             [&](std::int64_t lo, std::int64_t hi, std::size_t chunk) {
               sat[chunk] += runtime_kernels::depthwise_s8(
                   px, layer.weights.data(), layer.bias.data(), py, geo, lo, hi,
                   layer.mult.data(), q_lo, q_hi);
             });
        break;
      }
      // Per group: pack B panels straight from the NCHW input, then one GEMM
      // over N = B·cols that stores its tiles straight into NCHW
      // (kernels.hpp). Dense is the same route as a 1x1 conv.
      using namespace runtime_kernels;
      const GemmMicrokernels& mk = *mk_;
      const std::int64_t patch = geo.patch(), m = geo.ocg(), n_cols = geo.batch * geo.cols();
      grow(packed_b_, packed_b_s8_bytes(patch, n_cols, mk.s8));
      for (std::int64_t g = 0; g < geo.groups; ++g) {
        pfor(0, panel_count(n_cols, mk.s8.nr), 1,
             [&](std::int64_t lo, std::int64_t hi, std::size_t) {
               pack_conv_b_s8(px, geo, g, mk.s8, lo, hi, packed_b_.data());
             });
        const std::int64_t base = g * m;
        const std::vector<std::int32_t>& pa = packed_.get_s8(
            n.id, g, prepared_version_, mk.s8, [&](std::vector<std::int32_t>& v) {
              v.resize(packed_a_s8_words(m, patch, mk.s8));
              pack_a_s8(layer.weights.data() + base * patch, m, patch, mk.s8, v.data());
            });
        pfor(0, panel_count(m, mk.s8.mr), 1,
             [&](std::int64_t lo, std::int64_t hi, std::size_t chunk) {
               sat[chunk] += mk.gemm_s8(pa.data(), packed_b_.data(), py + base * geo.cols(), m,
                                        n_cols, patch, geo.output_map(), lo, hi,
                                        layer.bias.data() + base, layer.mult.data() + base,
                                        q_lo, q_hi);
             });
      }
      break;
    }

    case OpKind::kRelu:
    case OpKind::kRelu6:
    case OpKind::kIdentity:
    case OpKind::kFlatten:
    case OpKind::kAdd: {
      // Table lookup: prepare() requantized every input byte (Add: byte
      // pair) with this node's scales and clamp, so bytes and saturation
      // counts match per-element requantization exactly.
      const std::int8_t* px = ins.at(0)->data.data();
      const std::int8_t* pb = nullptr;
      if (n.kind == OpKind::kAdd) {
        VEDLIOT_CHECK(ins.at(0)->shape == ins.at(1)->shape,
                      "integer Add supports equal shapes only");
        pb = ins[1]->data.data();
      }
      std::int8_t* py = out.data.data();
      pfor(0, static_cast<std::int64_t>(out.data.size()), 4096,
           [&](std::int64_t lo, std::int64_t hi, std::size_t chunk) {
             std::uint64_t s = 0;
             for (std::int64_t i = lo; i < hi; ++i) {
               std::size_t u = static_cast<std::uint8_t>(px[i]);
               if (pb != nullptr) u = u << 8 | static_cast<std::uint8_t>(pb[i]);
               py[i] = plan.lut[u];
               s += plan.lut_sat[u];
             }
             sat[chunk] += s;
           });
      break;
    }

    case OpKind::kMaxPool: {
      const QTensor& x = *ins.at(0);
      const auto k = n.attrs.get_int("kernel");
      const auto stride = n.attrs.get_int_or("stride", k);
      const auto pad = n.attrs.get_int_or("pad", 0);
      const Shape& s = graph_.node(n.inputs[0]).out_shape;
      const std::int64_t IH = s.h(), IW = s.w();
      const std::int64_t OC = n.out_shape.c(), OH = n.out_shape.h(), OW = n.out_shape.w();
      const double rescale = x.scale / so;
      const std::int8_t* px = x.data.data();
      std::int8_t* py = out.data.data();
      pfor(0, n.out_shape.n() * OC, 1, [&](std::int64_t lo, std::int64_t hi, std::size_t chunk) {
        for (std::int64_t bc = lo; bc < hi; ++bc) {
          const std::int8_t* plane = px + bc * IH * IW;
          std::int8_t* oplane = py + bc * OH * OW;
          for (std::int64_t oh = 0; oh < OH; ++oh) {
            for (std::int64_t ow = 0; ow < OW; ++ow) {
              std::int32_t best = std::numeric_limits<std::int32_t>::min();
              for (std::int64_t kh = 0; kh < k; ++kh) {
                const auto ih = oh * stride - pad + kh;
                if (ih < 0 || ih >= IH) continue;
                for (std::int64_t kw = 0; kw < k; ++kw) {
                  const auto iw = ow * stride - pad + kw;
                  if (iw < 0 || iw >= IW) continue;
                  best = std::max(best, static_cast<std::int32_t>(plane[ih * IW + iw]));
                }
              }
              oplane[oh * OW + ow] =
                  requant_clamped(static_cast<double>(best) * rescale, q_lo, q_hi, sat[chunk]);
            }
          }
        }
      });
      break;
    }

    case OpKind::kAvgPool:
    case OpKind::kGlobalAvgPool: {
      const QTensor& x = *ins.at(0);
      const Shape& s = graph_.node(n.inputs[0]).out_shape;
      const bool global = n.kind == OpKind::kGlobalAvgPool;
      const auto k = global ? std::max(s.h(), s.w()) : n.attrs.get_int("kernel");
      const auto stride = global ? 1 : n.attrs.get_int_or("stride", k);
      const auto pad = global ? 0 : n.attrs.get_int_or("pad", 0);
      const std::int64_t IH = s.h(), IW = s.w();
      const std::int64_t OC = n.out_shape.c(), OH = n.out_shape.h(), OW = n.out_shape.w();
      const double rescale = x.scale / so;
      const std::int8_t* px = x.data.data();
      std::int8_t* py = out.data.data();
      pfor(0, n.out_shape.n() * OC, 1, [&](std::int64_t lo, std::int64_t hi, std::size_t chunk) {
        for (std::int64_t bc = lo; bc < hi; ++bc) {
          const std::int8_t* plane = px + bc * IH * IW;
          std::int8_t* oplane = py + bc * OH * OW;
          for (std::int64_t oh = 0; oh < OH; ++oh) {
            for (std::int64_t ow = 0; ow < OW; ++ow) {
              std::int64_t acc = 0;
              std::int64_t count = 0;
              for (std::int64_t kh = 0; kh < (global ? IH : k); ++kh) {
                const auto ih = oh * stride - pad + kh;
                if (ih < 0 || ih >= IH) continue;
                for (std::int64_t kw = 0; kw < (global ? IW : k); ++kw) {
                  const auto iw = ow * stride - pad + kw;
                  if (iw < 0 || iw >= IW) continue;
                  acc += plane[ih * IW + iw];
                  ++count;
                }
              }
              const double mean =
                  count > 0 ? static_cast<double>(acc) / static_cast<double>(count) : 0.0;
              oplane[oh * OW + ow] = requant_clamped(mean * rescale, q_lo, q_hi, sat[chunk]);
            }
          }
        }
      });
      break;
    }

    case OpKind::kConcat: {
      std::size_t off = 0;
      // channel-major layouts append contiguously only for axis 0 of the
      // flattened [N=1,...] case; restrict to batch 1 (deployment case).
      VEDLIOT_CHECK(n.out_shape.dim(0) == 1, "integer Concat supports batch 1");
      for (const QTensor* x : ins) {
        const double rescale = x->scale / so;
        for (std::size_t i = 0; i < x->data.size(); ++i) {
          out.data[off + i] =
              requant_clamped(static_cast<double>(x->data[i]) * rescale, q_lo, q_hi, sat[0]);
        }
        off += x->data.size();
      }
      break;
    }

    case OpKind::kSoftmax: {
      // Dequantize, float softmax, requantize: how int8 runtimes typically
      // treat the final softmax (TFLite uses a LUT; float is the reference).
      const Tensor f = ins.at(0)->dequantize();
      Tensor sm(f.shape());
      const auto N = f.shape().dim(0);
      const auto F = f.numel() / N;
      for (std::int64_t b = 0; b < N; ++b) {
        float mx = -std::numeric_limits<float>::infinity();
        for (std::int64_t i = 0; i < F; ++i) mx = std::max(mx, f.at(static_cast<std::size_t>(b * F + i)));
        double sum = 0;
        for (std::int64_t i = 0; i < F; ++i) {
          const double e = std::exp(static_cast<double>(f.at(static_cast<std::size_t>(b * F + i)) - mx));
          sm.at(static_cast<std::size_t>(b * F + i)) = static_cast<float>(e);
          sum += e;
        }
        for (std::int64_t i = 0; i < F; ++i) {
          auto& v = sm.at(static_cast<std::size_t>(b * F + i));
          v = static_cast<float>(v / sum);
        }
      }
      for (std::size_t i = 0; i < out.data.size(); ++i) {
        out.data[i] = requant_clamped(static_cast<double>(sm.at(i)) / so, q_lo, q_hi, sat[0]);
      }
      break;
    }

    default:
      throw Unsupported("integer executor does not support op " + std::string(op_name(n.kind)));
  }

  for (std::uint64_t s : sat) saturations_ += s;
  return out;
}

}  // namespace vedliot
