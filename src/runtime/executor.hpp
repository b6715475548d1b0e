#pragma once
/// \file executor.hpp
/// \brief Reference CPU executor: actually computes every op in the IR.
///
/// This is the runtime the Kenning-analogue deploys to when the target is
/// "host CPU". Since PR 3 it is a real execution engine rather than a naive
/// interpreter:
///
///  - Conv2D runs as the dispatch level's GEMM microkernel (microkernel.hpp)
///    with a fused bias+activation epilogue: per group, B panels packed
///    straight from the NCHW input and one GEMM with the batch folded into
///    N that stores straight into NCHW (kernels.hpp); depthwise
///    convolutions run the direct depthwise kernel over (sample, channel).
///    Dense is the same route as a 1x1 conv. Every dispatch level, portable
///    included, has one such route per op.
///  - Conv/Dense/BatchNorm/pool/elementwise kernels partition their output
///    rows/channels over a util::ThreadPool. Accumulation order within each
///    output element is fixed, so results are bitwise identical for any
///    thread count.
///  - Intermediate activations live in a single arena slab laid out by the
///    liveness-based memory planner (memory_planner.hpp) instead of one heap
///    allocation per node; graph outputs are deep-copied out of the arena.

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/kernels.hpp"
#include "runtime/microkernel.hpp"
#include "util/thread_safety.hpp"
#include "runtime/packed_cache.hpp"
#include "tensor/tensor.hpp"
#include "util/cpu.hpp"
#include "util/thread_pool.hpp"

namespace vedliot {

/// Exception for execution-time failures (missing weights, bad feeds).
class ExecError : public Error {
 public:
  explicit ExecError(const std::string& message) : Error(message) {}
};

class Executor {
 public:
  /// The graph must outlive the executor and have materialized weights for
  /// every parametric node.
  explicit Executor(const Graph& graph);

  /// Run the graph on the given feeds (one tensor per Input node, keyed by
  /// node name). Returns the outputs of all graph output nodes by name.
  ///
  /// This is the engine entry runtime::Session wraps; application code goes
  /// through Session. Direct construction is reserved for calibration-style
  /// introspection (keep_activations + activation(), arena_stats) that the
  /// session API deliberately does not expose.
  std::map<std::string, Tensor> run(const std::map<std::string, Tensor>& feeds);

  /// Attach observability sinks (either may be null). When a tracer is set,
  /// run() emits one root span plus one child span per executed (non-input)
  /// node; when a registry is set, per-op-class latency histograms
  /// (`vedliot.runtime.op.<Op>`, microseconds), run/node counters, the GEMM
  /// throughput gauge, arena gauges and the pool-utilization histogram are
  /// recorded. The sinks must outlive the executor.
  void instrument(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  /// When false, intermediate activations live in the planner-packed arena
  /// and are released at the end of run() (activation() then throws
  /// NotFound). Default true, the calibration mode: every activation is an
  /// owned heap tensor that stays addressable after the run. Sessions run
  /// with it off.
  void set_keep_activations(bool keep) { keep_activations_ = keep; }

  /// Intra-op parallelism: kernels partition work over this many threads
  /// (including the calling thread). 0 selects the hardware concurrency;
  /// default 1 (fully serial). Output bits do not depend on this value.
  void set_threads(unsigned threads);

  /// Requested kernel dispatch level (default kAuto). Resolved per run —
  /// env overrides and CPU feature detection applied — so a test can flip
  /// VEDLIOT_FORCE_PORTABLE between runs of one live executor.
  void set_simd(util::SimdLevel level) { simd_req_ = level; }
  /// The concrete dispatch level the last run() executed at.
  util::SimdLevel active_simd() const { return active_simd_; }

  /// Total weight-pack operations of the packed-panel cache — stays flat
  /// across steady-state runs and grows when Graph::version() moves (OTA
  /// swap, scrubber repair) or the dispatch tile changes.
  std::size_t weight_packs() const { return packed_.packs(); }

  /// Arena accounting for the last run().
  struct ArenaStats {
    bool active = false;           ///< arena was used by the last run
    std::int64_t arena_bytes = 0;  ///< packed slab size
    std::int64_t naive_bytes = 0;  ///< sum of all activation buffers
  };
  const ArenaStats& arena_stats() const { return arena_stats_; }

  /// After run(): number of nodes executed (profiling hook).
  std::size_t nodes_executed() const { return nodes_executed_; }

  /// Retrieve any intermediate activation from the last run() by node name
  /// (used for quantization calibration). Throws NotFound if absent.
  const Tensor& activation(const std::string& node_name) const;

 private:
  /// Per-node execution plan resolved once at construction so the hot loop
  /// never re-parses string attributes or re-derives loop geometry.
  struct NodePlan {
    OpKind fused_act = OpKind::kIdentity;
    double fused_alpha = 0.01;
    double alpha = 0.01;  ///< standalone activation alpha
    double bn_eps = 1e-5;
    std::int64_t pool_kernel = 0, pool_stride = 0, pool_pad = 0;
    std::int64_t upsample_scale = 1;
    runtime_kernels::Conv2dGeometry conv;  ///< valid for kConv2d and kDense nodes
  };

  void execute_node(const Node& n, const NodePlan& plan,
                    const std::vector<const Tensor*>& ins, Tensor& out);
  /// Conv2D, and Dense as the 1x1 conv its plan's geometry describes.
  void conv2d(const Node& n, const NodePlan& plan, const Tensor& in, Tensor& out);
  Tensor alloc_output(const Node& n);
  void prepare_arena();
  void feed_input(const Node& n, const std::map<std::string, Tensor>& feeds);
  /// Per-node path: span + timing + alloc + execute + store.
  void exec_node(const Node& n);
  void record_gemm(double seconds, double flops);
  /// Dispatch over [begin, end) with the configured pool (inline when
  /// serial); records one pool-utilization sample when metrics are attached.
  void pfor(std::int64_t begin, std::int64_t end, std::int64_t grain,
            const util::ThreadPool::ChunkFn& fn);

  const Graph& graph_;
  std::vector<NodePlan> plans_;  ///< indexed by NodeId over all node slots
  std::map<NodeId, Tensor> values_;
  std::size_t nodes_executed_ = 0;
  bool keep_activations_ = true;

  unsigned threads_ = 1;
  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<float> arena_;  ///< one slab; node buffers are planner offsets
  std::map<NodeId, std::size_t> arena_offset_;  ///< float offset into arena_
  ArenaStats arena_stats_;
  std::vector<float> packed_b_;  ///< microkernel B panels, grown on demand

  // Runtime SIMD dispatch: requested level, the level the current run
  // resolved to, and that level's microkernel table.
  util::SimdLevel simd_req_ = util::SimdLevel::kAuto;
  util::SimdLevel active_simd_ = util::SimdLevel::kPortable;
  const runtime_kernels::GemmMicrokernels* mk_ = nullptr;
  runtime_kernels::PackedWeightCache packed_;

  // Per-run GEMM accounting feeding the GFLOP/s gauge.
  std::mutex gemm_stats_mutex_;
  double gemm_flops_ VEDLIOT_GUARDED_BY(gemm_stats_mutex_) = 0;
  double gemm_seconds_ VEDLIOT_GUARDED_BY(gemm_stats_mutex_) = 0;

  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace vedliot
