#pragma once
/// \file session.hpp
/// \brief Unified run-session API over the runtime backends.
///
/// A Session is the one way application code runs inference: the execution
/// core (executor.hpp) in f32 or true-integer INT8 sits behind the same
/// interface, and every run can be observed through the vedliot::obs
/// tracing/metrics sinks passed in RunOptions. Execution-resource knobs
/// (batch cap, thread count) travel as one runtime::ExecConfig so serving
/// controllers — the brownout ladder, the fleet batcher — adjust a live
/// session without rebuilding it.
///
///   obs::Tracer tracer;
///   obs::MetricsRegistry metrics;
///   runtime::RunOptions opts;
///   opts.trace = &tracer;
///   opts.metrics = &metrics;
///   auto session = runtime::make_session(graph, opts);
///   Tensor y = session->run_single(x);
///   obs::write_chrome_trace("trace.json", tracer.spans());

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/exec_config.hpp"
#include "tensor/tensor.hpp"

namespace vedliot::runtime {

/// Per-session knobs; the sink pointers may be null and must outlive the
/// session when set. Sessions always place intermediate activations in the
/// planner-packed arena and release them after each run.
struct RunOptions {
  obs::Tracer* trace = nullptr;            ///< span sink for run/node spans
  obs::MetricsRegistry* metrics = nullptr; ///< counter/histogram sink

  /// Execution-resource knobs (admission batch cap, intra-op threads,
  /// dispatch level). The one copy; serving-side rung caps reference the
  /// same struct.
  ExecConfig exec = {};
};

/// What one Session::run produced.
struct RunResult {
  std::map<std::string, Tensor> outputs;  ///< keyed by output node name
  std::size_t nodes_executed = 0;
  std::uint64_t saturations = 0;          ///< int8 backend only, cumulative

  /// The single output; throws Error unless exactly one output exists.
  const Tensor& single() const;
};

/// One deployed model instance, ready to serve. Implementations are not
/// thread-safe; use one session per worker.
class Session {
 public:
  virtual ~Session() = default;

  /// Run the graph on the given feeds (one tensor per Input node, keyed by
  /// node name).
  virtual RunResult run(const std::map<std::string, Tensor>& feeds) = 0;

  /// Convenience for single-input single-output graphs.
  Tensor run_single(const Tensor& input);

  /// Batched submit path for single-input single-output graphs: stack the
  /// per-request inputs along the leading dimension, run once, and split
  /// the output back into per-request tensors (in submission order). Plans
  /// take the batch from the feed, so any lane count up to max_batch() runs
  /// as is, whatever batch the graph was built at, as long as every lane has
  /// the graph input's lane shape. Per-lane outputs are bitwise identical to
  /// singleton runs of the same inputs: every kernel computes each batch
  /// lane independently with a fixed accumulation order.
  std::vector<Tensor> run_batch(std::span<const Tensor> inputs);

  virtual const Graph& graph() const = 0;

  /// Backend identifier: "float-reference" or "int8".
  virtual std::string backend() const = 0;

  /// Replace the live execution-resource knobs without rebuilding the
  /// executor: brownout controllers shrink the batch cap under overload
  /// (and restore it when headroom returns), autoscalers retune threads.
  virtual void set_exec_config(const ExecConfig& exec) = 0;
  virtual const ExecConfig& exec_config() const = 0;

  /// Batch-cap shorthands over {set_,}exec_config (see ExecConfig).
  void set_max_batch(std::int64_t max_batch);
  std::int64_t max_batch() const { return exec_config().max_batch; }
};

/// Float reference session (an f32 Executor). The graph must outlive the
/// session and have materialized weights.
std::unique_ptr<Session> make_session(const Graph& graph, const RunOptions& options = {});

/// True-integer INT8 session (an int8 Executor). The graph must outlive the
/// session and be deployment-ready: weights materialized, BatchNorm folded, activations
/// calibrated. Throws Unsupported otherwise.
std::unique_ptr<Session> make_quantized_session(const Graph& graph,
                                                const RunOptions& options = {});

}  // namespace vedliot::runtime
