#include "safety/robustness.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/error.hpp"

namespace vedliot::safety {

RobustnessService::RobustnessService(const Graph& golden_model, Config config)
    : golden_(golden_model.clone()), cfg_(config) {
  VEDLIOT_CHECK(cfg_.check_period >= 1, "check period must be >= 1");
  session_ = runtime::make_session(golden_, {});
}

void RobustnessService::replace_golden(const Graph& new_golden) {
  session_.reset();  // the session holds a reference into the old golden graph
  golden_ = new_golden.clone();
  session_ = runtime::make_session(golden_, {});
}

std::string_view check_result_name(CheckResult r) {
  switch (r) {
    case CheckResult::kNotChecked: return "not-checked";
    case CheckResult::kCheckedOk: return "checked-ok";
    case CheckResult::kCheckedFaulty: return "checked-faulty";
  }
  throw InvalidArgument("unknown check result");
}

CheckResult RobustnessService::submit(const Tensor& input, const Tensor& output) {
  ++submissions_;
  if (submissions_ % cfg_.check_period != 0) return CheckResult::kNotChecked;
  ++checks_;
  const Tensor golden = session_->run_single(input);
  VEDLIOT_CHECK(golden.shape() == output.shape(),
                "robustness service: output shape mismatch");
  const float diff = max_abs_diff(golden, output);
  last_divergence_ = diff;
  CheckResult result = CheckResult::kCheckedOk;
  if (diff > cfg_.tolerance) {
    ++faults_;
    result = CheckResult::kCheckedFaulty;
  }
  if (cfg_.metrics) {
    cfg_.metrics->counter("vedliot.safety.checks").inc();
    if (result == CheckResult::kCheckedFaulty) {
      cfg_.metrics->counter("vedliot.safety.faults").inc();
    }
    cfg_.metrics->gauge("vedliot.safety.last_divergence").set(last_divergence_);
  }
  return result;
}

std::vector<NodeId> FaultInjector::parametric_nodes(const Graph& g) const {
  std::vector<NodeId> out;
  for (NodeId id : g.topo_order()) {
    const Node& n = g.node(id);
    if ((n.kind == OpKind::kConv2d || n.kind == OpKind::kDense) && !n.weights.empty()) {
      out.push_back(id);
    }
  }
  return out;
}

namespace {

/// Per-output-channel int8 scale, matching the int8 executor's
/// preparation convention (amax over the channel / 127, 1.0 for an
/// all-zero channel).
double int8_channel_scale(const Tensor& w, std::size_t idx) {
  const auto oc = w.shape().dim(0);
  const auto per = static_cast<std::size_t>(w.numel() / oc);
  const std::size_t chan = idx / per;
  const auto span = w.data().subspan(chan * per, per);
  double amax = 0;
  for (float v : span) amax = std::max(amax, std::abs(static_cast<double>(v)));
  return amax > 0 ? amax / 127.0 : 1.0;
}

}  // namespace

void FaultInjector::flip_weight_bits(Graph& g, std::size_t n_bits, bool include_bias) {
  const auto nodes = parametric_nodes(g);
  VEDLIOT_CHECK(!nodes.empty(), "graph has no parametric nodes to fault");
  for (std::size_t i = 0; i < n_bits; ++i) {
    const auto nid = nodes[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1))];
    Node& n = g.node(nid);
    std::size_t tensor = 0;
    if (include_bias && n.weights.size() > 1) {
      tensor = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(n.weights.size()) - 1));
    }
    Tensor& w = n.weights[tensor];
    const auto idx = static_cast<std::size_t>(rng_.uniform_int(0, w.numel() - 1));
    if (n.weight_dtype == DType::kINT8 && tensor == 0) {
      // Deployed int8 memory: flip one of the 8 bits of the per-channel
      // quantized code, then dequantize — the fault as the executor's
      // integer kernels would actually see it.
      const double ws = int8_channel_scale(w, idx);
      const auto q = static_cast<std::int32_t>(std::clamp(
          std::lround(static_cast<double>(w.at(idx)) / ws), long{-127}, long{127}));
      const int bit = static_cast<int>(rng_.uniform_int(0, 7));
      const auto flipped =
          static_cast<std::int8_t>(static_cast<std::uint8_t>(q) ^ (1u << bit));
      w.at(idx) = static_cast<float>(static_cast<double>(flipped) * ws);
    } else {
      // Flip within bits 20..29 (high mantissa / low exponent): visible but
      // rarely produces inf/nan, like real SEUs in practice.
      const int bit = static_cast<int>(rng_.uniform_int(20, 29));
      auto u = std::bit_cast<std::uint32_t>(w.at(idx));
      u ^= (1u << bit);
      w.at(idx) = std::bit_cast<float>(u);
    }
  }
}

void FaultInjector::zero_random_channel(Graph& g) {
  const auto nodes = parametric_nodes(g);
  VEDLIOT_CHECK(!nodes.empty(), "graph has no parametric nodes to fault");
  const auto nid = nodes[static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1))];
  Tensor& w = g.node(nid).weights[0];
  const auto oc = w.shape().dim(0);
  const auto per = static_cast<std::size_t>(w.numel() / oc);
  const auto c = static_cast<std::size_t>(rng_.uniform_int(0, oc - 1));
  auto chan = w.data().subspan(c * per, per);
  std::fill(chan.begin(), chan.end(), 0.0f);
}

void FaultInjector::scale_random_layer(Graph& g, float factor) {
  const auto nodes = parametric_nodes(g);
  VEDLIOT_CHECK(!nodes.empty(), "graph has no parametric nodes to fault");
  const auto nid = nodes[static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1))];
  for (float& v : g.node(nid).weights[0].data()) v *= factor;
}

}  // namespace vedliot::safety
