#pragma once
/// \file executor.hpp
/// \brief The CPU execution engine: one core that runs every graph of the IR
/// in f32 (the reference arithmetic) or in true int8 (Sec. III steps 5-6:
/// the kernels a deployment target actually runs after quantization).
///
/// This is the runtime the Kenning-analogue deploys to when the target is
/// "host CPU". One graph walk, one per-node plan, one thread-pool dispatch,
/// one span/metric path, one activation arena and one packed-weight cache
/// serve both dtypes; only the node kernels are per dtype:
///
///  - Conv2D runs as the dispatch level's GEMM microkernel (microkernel.hpp)
///    with a fused epilogue (f32: bias + activation; int8: int32
///    accumulation and requantization): per group, B panels packed straight
///    from the NCHW input and one GEMM with the batch folded into N that
///    stores straight into NCHW (kernels.hpp). Depthwise convolutions run
///    the direct depthwise kernel over (sample, channel). Dense is the same
///    route as a 1x1 conv.
///  - Kernels partition their output rows/channels over a util::ThreadPool.
///    Accumulation order within each output element is fixed, so results
///    (and int8 saturation counts) are bitwise identical for any thread
///    count.
///  - Plans are batch-polymorphic: no plan holds the batch. It comes from
///    the feeds at run time (a conv sees it only as its GEMM's N = B·H·W),
///    so one executor runs any batch whose lane shape matches the graph
///    input, and lane i of a batched run is bitwise equal to the same
///    sample run alone.
///  - Intermediate activations of both dtypes live in one arena slab laid
///    out by the liveness-based memory planner (memory_planner.hpp). The
///    offsets come from one plan at the graph's built batch and scale with
///    the run's batch; the slab grows to the widest batch seen. Graph
///    outputs are copied out of the arena.
///
/// int8 semantics (TFLite-style reference): int8 operands, int32
/// accumulation, per-output-channel weight scales and fixed activation
/// scales from calibration, with requantization between layers. The graph
/// must have materialized fp32 weights (quantized here), BatchNorm folded
/// (opt::FuseBatchNormPass) and `act_scale` attributes on every node
/// (opt::calibrate_activations).

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/kernels.hpp"
#include "runtime/microkernel.hpp"
#include "runtime/packed_cache.hpp"
#include "tensor/dtype.hpp"
#include "tensor/tensor.hpp"
#include "util/cpu.hpp"
#include "util/thread_pool.hpp"

namespace vedliot {

/// Exception for execution-time failures (missing weights, bad feeds).
class ExecError : public Error {
 public:
  explicit ExecError(const std::string& message) : Error(message) {}
};

/// Quantized activation tensor: symmetric int8 with one scale.
struct QTensor {
  Shape shape;
  std::vector<std::int8_t> data;
  double scale = 1.0;

  /// Dequantize to float for inspection / the final output.
  Tensor dequantize() const;
};

/// Quantize a float tensor at a fixed scale (round-to-nearest, saturate).
QTensor quantize_fixed(const Tensor& t, double scale);

class Executor {
 public:
  /// \p dtype kFP32 runs the reference arithmetic, kINT8 true integer
  /// execution (which quantizes the weights here and throws Unsupported for
  /// an unfolded BatchNorm or a missing act_scale). The graph must outlive
  /// the executor and have materialized weights for every parametric node.
  explicit Executor(const Graph& graph, DType dtype = DType::kFP32);

  /// Run the graph on the given feeds (one tensor per Input node, keyed by
  /// node name). Every feed has the graph input's lane shape (dims 1..) and
  /// one shared batch B >= 1 in dim 0. Returns the outputs of all graph
  /// output nodes by name at batch B (int8: dequantized).
  ///
  /// This is the engine entry runtime::Session wraps; application code goes
  /// through Session. Direct construction is reserved for introspection the
  /// session API deliberately does not expose (keep_activations +
  /// activation(), arena_stats, run_quantized's QTensor scales).
  std::map<std::string, Tensor> run(const std::map<std::string, Tensor>& feeds);

  /// int8 only: run a single-input single-output graph and return its
  /// quantized output (bytes and scale) without dequantizing.
  QTensor run_quantized(const Tensor& input);

  DType dtype() const { return dtype_; }

  /// Attach observability sinks (either may be null). When a tracer is set,
  /// a run emits one root span plus one child span per executed (non-input)
  /// node; when a registry is set, per-op-class latency histograms
  /// (`vedliot.runtime.op.<Op>`, microseconds), run/node counters, the GEMM
  /// throughput gauge, arena gauges, the pool-utilization histogram and
  /// (int8) the saturation gauge are recorded. The sinks must outlive the
  /// executor.
  void instrument(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  /// When false, intermediate activations share the liveness-packed arena
  /// and are dropped at the end of a run (activation() then throws
  /// NotFound). Default true, the f32 calibration mode: every activation
  /// gets its own arena slot and stays addressable after the run. Sessions
  /// run with it off.
  void set_keep_activations(bool keep) { keep_activations_ = keep; }

  /// Intra-op parallelism: kernels partition work over this many threads
  /// (including the calling thread). 0 selects the hardware concurrency;
  /// default 1 (fully serial). Output bits do not depend on this value.
  void set_threads(unsigned threads);

  /// Requested kernel dispatch level (default kAuto). Resolved per run —
  /// env overrides and CPU feature detection applied — so a test can flip
  /// VEDLIOT_FORCE_PORTABLE between runs of one live executor. Every int8
  /// tile performs exact int32 arithmetic, so int8 outputs are bitwise
  /// identical at every level.
  void set_simd(util::SimdLevel level) { simd_req_ = level; }
  /// The concrete dispatch level the last run executed at.
  util::SimdLevel active_simd() const { return active_simd_; }

  /// Total weight-pack operations of the packed-panel cache — stays flat
  /// across steady-state runs and grows when Graph::version() moves (OTA
  /// swap, scrubber repair) or the dispatch tile changes.
  std::size_t weight_packs() const { return packed_.packs(); }

  /// Times the plan preparation (int8: weight quantization too) has run:
  /// once at construction, plus once per detected Graph::version() change
  /// (OTA swap / scrubber repair self-heal).
  std::size_t preparations() const { return preparations_; }

  /// Accumulated int8 saturation events across all runs (requantization
  /// clamps) — a deployment health metric. Always 0 for f32.
  std::uint64_t saturations() const { return saturations_; }

  /// Arena accounting for the last run.
  struct ArenaStats {
    bool active = false;           ///< the last run shared the liveness-packed arena
    std::int64_t arena_bytes = 0;  ///< packed slab size at the last run's batch
    std::int64_t naive_bytes = 0;  ///< sum of all activation buffers at that batch
  };
  const ArenaStats& arena_stats() const { return arena_stats_; }

  /// After a run: number of non-input nodes executed.
  std::size_t nodes_executed() const { return nodes_executed_; }

  /// Retrieve any f32 activation of the last run by node name (used for
  /// quantization calibration; requires keep_activations). Throws NotFound
  /// if absent.
  const Tensor& activation(const std::string& node_name) const;

 private:
  /// Per-node constants resolved once at preparation, so the hot loop never
  /// re-parses string attributes; none of them depends on the batch.
  struct NodePlan {
    std::int64_t lane = 0;             ///< output elements per batch lane
    std::int64_t offset = 0;           ///< arena byte offset at the built batch
    std::int64_t naive_offset = 0;     ///< own-slot byte offset (keep_activations)
    runtime_kernels::Conv2dGeometry conv;  ///< kConv2d/kDense; batch set per run
    std::int64_t pool_kernel = 0, pool_stride = 1, pool_pad = 0;
    std::int64_t upsample_scale = 1;
    // f32
    OpKind fused_act = OpKind::kIdentity;
    double fused_alpha = 0.01;
    double alpha = 0.01;               ///< standalone activation alpha
    double bn_eps = 1e-5;
    // int8
    double scale = 1.0;                ///< calibrated output scale
    std::int32_t q_lo = -128, q_hi = 127;  ///< fused Relu/Relu6 output clamp
    std::string unsupported;           ///< non-empty: why int8 cannot run the node
    /// Requant table, one entry per input byte (Relu/Relu6/Identity/Flatten/
    /// MaxPool), per input byte pair indexed uint8(a) << 8 | uint8(b) (Add),
    /// or 256 per input (Concat): output byte | saturation count << 8.
    std::vector<std::uint16_t> lut;
    /// Relu/Relu6/Identity whose table prepare() composed into the sole
    /// producing Add's: its slot aliases the Add's and it does no work.
    bool forward = false;
    std::vector<std::int8_t> weights;  ///< quantized at per-channel scales
    std::vector<std::int32_t> bias;    ///< at in_scale * w_scale[c]
    std::vector<double> mult;          ///< in_scale * w_scale[c] / out_scale
  };

  /// Resolve every plan (int8: quantize weights and build tables) and the
  /// arena layout from the graph as it is now, and stamp prepared_version_.
  /// Rerun whenever Graph::version() moves: quantized copies and packed
  /// panels would otherwise serve stale — possibly corrupt — weights after
  /// a ModelStore repair/restore or OTA swap.
  void prepare();
  void prepare_int8(const Node& n, NodePlan& plan);
  /// The one graph walk: feed, execute every node, record metrics.
  void walk(const std::map<std::string, Tensor>& feeds);
  void exec_f32(const Node& n, const NodePlan& plan);
  void exec_s8(const Node& n, const NodePlan& plan);
  /// Conv2D, and Dense as the 1x1 conv its plan's geometry describes.
  template <typename T>
  void conv(const Node& n, const NodePlan& plan);
  /// Output of node \p id in the arena at the current batch.
  template <typename T>
  T* slot(NodeId id) const;
  template <typename T>
  const T* in(const Node& n, std::size_t i) const { return slot<T>(n.inputs.at(i)); }
  /// Shape \p s at the current run's batch.
  Shape at_batch(const Shape& s) const;
  /// Dispatch over [begin, end) with the configured pool (inline when
  /// serial); records one pool-utilization sample when metrics are attached.
  void pfor(std::int64_t begin, std::int64_t end, std::int64_t grain,
            const util::ThreadPool::ChunkFn& fn);

  const Graph& graph_;
  const DType dtype_;
  std::vector<NodeId> order_;
  std::vector<NodePlan> plans_;          ///< indexed by NodeId over all node slots
  std::uint64_t prepared_version_ = 0;   ///< Graph::version() at prepare()
  std::size_t preparations_ = 0;
  std::uint64_t saturations_ = 0;
  std::size_t nodes_executed_ = 0;
  bool keep_activations_ = true;

  // The current run: its batch, the arena scale (offsets at the built
  // batch times ceil(batch / built batch)) and each chunk's saturations.
  std::int64_t batch_ = 1, built_batch_ = 1, arena_scale_ = 1;
  std::vector<std::uint64_t> sat_;

  /// Raw storage that holds either dtype; grows on demand, never shrinks.
  struct Slab {
    std::unique_ptr<std::byte[]> data;
    std::size_t bytes = 0;
    std::byte* grow(std::size_t n);
  };
  std::int64_t plan_bytes_ = 0, naive_bytes_ = 0;  ///< layouts at the built batch
  Slab arena_;
  ArenaStats arena_stats_;
  std::vector<Tensor> values_;           ///< f32 views of the last run (keep_activations)
  Slab packed_b_;                        ///< microkernel B panels

  unsigned threads_ = 1;
  std::unique_ptr<util::ThreadPool> pool_;
  util::SimdLevel simd_req_ = util::SimdLevel::kAuto;
  util::SimdLevel active_simd_ = util::SimdLevel::kPortable;
  const runtime_kernels::GemmMicrokernels* mk_ = nullptr;  ///< table of the current run
  runtime_kernels::PackedWeightCache packed_;

  // Per-run GEMM accounting feeding the GFLOP/s gauge.
  double gemm_flops_ = 0, gemm_seconds_ = 0;

  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace vedliot
