#include "runtime/session.hpp"

#include "runtime/executor.hpp"
#include "runtime/qexecutor.hpp"

namespace vedliot::runtime {

namespace {

void check_batch(const std::map<std::string, Tensor>& feeds, std::int64_t max_batch) {
  if (max_batch <= 0) return;
  for (const auto& [name, t] : feeds) {
    if (t.shape().rank() >= 1 && t.shape().dim(0) > max_batch) {
      throw ExecError("feed '" + name + "' batch " + std::to_string(t.shape().dim(0)) +
                      " exceeds session max_batch " + std::to_string(max_batch));
    }
  }
}

class FloatSession final : public Session {
 public:
  FloatSession(const Graph& graph, const RunOptions& options)
      : graph_(graph), options_(options), exec_(graph) {
    exec_.instrument(options_.trace, options_.metrics);
    exec_.set_keep_activations(false);
    exec_.set_threads(options_.exec.threads);
    exec_.set_simd(options_.exec.simd);
  }

  RunResult run(const std::map<std::string, Tensor>& feeds) override {
    check_batch(feeds, options_.exec.max_batch);
    RunResult result;
    result.outputs = exec_.run(feeds);
    result.nodes_executed = exec_.nodes_executed();
    return result;
  }

  const Graph& graph() const override { return graph_; }
  std::string backend() const override { return "float-reference"; }
  void set_exec_config(const ExecConfig& exec) override {
    options_.exec = exec;
    exec_.set_threads(exec.threads);
    exec_.set_simd(exec.simd);
  }
  const ExecConfig& exec_config() const override { return options_.exec; }

 private:
  const Graph& graph_;
  RunOptions options_;
  Executor exec_;
};

class QuantizedSession final : public Session {
 public:
  QuantizedSession(const Graph& graph, const RunOptions& options)
      : graph_(graph), options_(options), exec_(graph) {
    exec_.instrument(options_.trace, options_.metrics);
    exec_.set_threads(options_.exec.threads);
    exec_.set_simd(options_.exec.simd);
  }

  RunResult run(const std::map<std::string, Tensor>& feeds) override {
    check_batch(feeds, options_.exec.max_batch);
    const auto inputs = graph_.inputs();
    VEDLIOT_CHECK(inputs.size() == 1, "int8 session requires exactly one graph input");
    const std::string& input_name = graph_.node(inputs.front()).name;
    const auto it = feeds.find(input_name);
    if (it == feeds.end()) throw ExecError("missing feed for input '" + input_name + "'");
    if (feeds.size() != 1) {
      throw ExecError("int8 session takes exactly one feed, got " +
                      std::to_string(feeds.size()));
    }

    RunResult result;
    const QTensor q = exec_.run_single(it->second);
    result.outputs.emplace(graph_.node(graph_.outputs().front()).name, q.dequantize());
    result.nodes_executed = exec_.nodes_executed();
    result.saturations = exec_.saturations();
    return result;
  }

  const Graph& graph() const override { return graph_; }
  std::string backend() const override { return "int8"; }
  void set_exec_config(const ExecConfig& exec) override {
    options_.exec = exec;
    exec_.set_threads(exec.threads);
    exec_.set_simd(exec.simd);
  }
  const ExecConfig& exec_config() const override { return options_.exec; }

 private:
  const Graph& graph_;
  RunOptions options_;
  QuantizedExecutor exec_;
};

}  // namespace

const Tensor& RunResult::single() const {
  VEDLIOT_CHECK(outputs.size() == 1, "RunResult::single requires exactly one output");
  return outputs.begin()->second;
}

Tensor Session::run_single(const Tensor& input) {
  const auto inputs = graph().inputs();
  VEDLIOT_CHECK(inputs.size() == 1, "run_single requires exactly one graph input");
  RunResult result = run({{graph().node(inputs.front()).name, input}});
  VEDLIOT_CHECK(result.outputs.size() == 1, "run_single requires exactly one graph output");
  return std::move(result.outputs.begin()->second);
}

std::vector<Tensor> Session::run_batch(std::span<const Tensor> inputs) {
  const auto graph_inputs = graph().inputs();
  VEDLIOT_CHECK(graph_inputs.size() == 1, "run_batch requires exactly one graph input");
  VEDLIOT_CHECK(!inputs.empty(), "run_batch needs at least one input");
  const Node& in_node = graph().node(graph_inputs.front());
  const Tensor stacked = stack_batch(inputs);
  // The graph's input shape encodes its built batch; a mismatched stack is
  // a batcher bug (the batcher pads partial batches up to the built width).
  if (stacked.shape() != in_node.out_shape) {
    throw ExecError("run_batch stacked " + stacked.shape().to_string() +
                    " does not match graph input " + in_node.out_shape.to_string() +
                    " (pad partial batches to the built width)");
  }
  RunResult result = run({{in_node.name, stacked}});
  VEDLIOT_CHECK(result.outputs.size() == 1, "run_batch requires exactly one graph output");
  return split_batch(result.outputs.begin()->second);
}

void Session::set_max_batch(std::int64_t max_batch) {
  ExecConfig exec = exec_config();
  exec.max_batch = max_batch;
  set_exec_config(exec);
}

std::unique_ptr<Session> make_session(const Graph& graph, const RunOptions& options) {
  return std::make_unique<FloatSession>(graph, options);
}

std::unique_ptr<Session> make_quantized_session(const Graph& graph,
                                                const RunOptions& options) {
  return std::make_unique<QuantizedSession>(graph, options);
}

}  // namespace vedliot::runtime
