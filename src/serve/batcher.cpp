#include "serve/batcher.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace vedliot::serve {

DynamicBatcher::DynamicBatcher(const Graph& graph, Config config)
    : exec_(config.exec) {
  VEDLIOT_CHECK(config.max_batch >= 1, "batcher max_batch must be >= 1");
  VEDLIOT_CHECK(graph.inputs().size() == 1 && graph.outputs().size() == 1,
                "the batcher needs a single-input single-output graph");
  for (std::int64_t w = 1;; w *= 2) {
    widths_.push_back(w);
    if (w >= config.max_batch) break;
  }
  session_ = config.quantized ? runtime::make_quantized_session(graph)
                            : runtime::make_session(graph);
  set_exec_config(exec_);
}

void DynamicBatcher::set_exec_config(const runtime::ExecConfig& exec) {
  exec_ = exec;
  // The session admits exactly what the batcher may coalesce, so a feed
  // wider than a shrunken cap is refused by the Session itself.
  runtime::ExecConfig e = exec;
  e.max_batch = effective_max_batch();
  session_->set_exec_config(e);
}

std::int64_t DynamicBatcher::effective_max_batch() const {
  const std::int64_t cap = exec_.max_batch;
  std::int64_t widest = 0;
  for (const std::int64_t w : widths_) {
    if (cap > 0 && w > cap) break;
    widest = w;
  }
  // A cap below the narrowest bucket still serves singletons: shedding all
  // traffic because a controller said "1" on a 2-wide ladder would be a
  // brownout that browns fully out.
  return std::max<std::int64_t>(widest, 1);
}

runtime::Session& DynamicBatcher::bucket_session(std::int64_t width) const {
  if (std::find(widths_.begin(), widths_.end(), width) == widths_.end()) {
    throw NotFound("no bucket of width " + std::to_string(width));
  }
  return *session_;
}

std::vector<Tensor> DynamicBatcher::run(std::span<const Tensor> inputs) {
  VEDLIOT_CHECK(!inputs.empty(), "batcher run needs at least one input");
  // Exactly the group's lanes; the session refuses more than the live cap.
  std::vector<Tensor> out_lanes = session_->run_batch(inputs);
  ++batches_run_;
  lanes_run_ += out_lanes.size();

  // Reassemble per-input outputs at each input's own lane width.
  std::vector<Tensor> out;
  out.reserve(inputs.size());
  std::size_t at = 0;
  for (const Tensor& t : inputs) {
    const auto n = static_cast<std::size_t>(t.shape().dim(0));
    if (n == 1) {
      out.push_back(std::move(out_lanes[at]));
    } else {
      out.push_back(stack_batch(std::span<const Tensor>(out_lanes.data() + at, n)));
    }
    at += n;
  }
  return out;
}

}  // namespace vedliot::serve
