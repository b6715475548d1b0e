#pragma once
/// \file qexecutor.hpp
/// \brief True integer INT8 executor (Sec. III steps 5-6: the kernels a
/// deployment target actually runs after quantization).
///
/// Unlike the fake-quant modelling in opt/quantize.hpp (which measures
/// accuracy impact in float), this executor performs integer arithmetic:
/// int8 operands, int32 accumulation, per-output-channel weight scales and
/// fixed activation scales from calibration, with requantization between
/// layers — the TFLite-style reference semantics.
///
/// Requirements on the graph:
///  - weights materialized (fp32 masters; quantization happens here),
///  - BatchNorm folded away (run opt::FuseBatchNormPass first),
///  - `act_scale` attributes present on every node (run
///    opt::calibrate_activations first).

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
#include "tensor/tensor.hpp"
#include "util/cpu.hpp"
#include "util/thread_pool.hpp"

namespace vedliot {

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

class QuantizedExecutor {
 public:
  explicit QuantizedExecutor(const Graph& graph);

  /// Run on a float input (quantized at the input node's calibrated scale);
  /// returns the quantized graph output.
  ///
  /// This is the engine entry runtime::Session wraps; application code goes
  /// through Session (which also dequantizes the output). Direct
  /// construction is reserved for integer-domain introspection (QTensor
  /// scales, saturation accounting) the session API does not expose.
  QTensor run_single(const Tensor& input);

  /// Attach observability sinks (either may be null); same span/metric
  /// taxonomy as Executor::instrument, with backend "int8". The sinks must
  /// outlive the executor.
  void instrument(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  /// Intra-op parallelism (including the calling thread); 0 selects the
  /// hardware concurrency, default 1. Integer kernels partition output
  /// channels/rows only and sum per-chunk saturation counts, so both the
  /// output bits and saturations() are independent of this value.
  void set_threads(unsigned threads);

  /// Requested kernel dispatch level (default kAuto); resolved per run with
  /// the env overrides applied. Every int8 microkernel tile performs exact
  /// int32 arithmetic, so outputs are bitwise identical at every level.
  void set_simd(util::SimdLevel level) { simd_req_ = level; }
  /// The concrete dispatch level the last run_single() executed at.
  util::SimdLevel active_simd() const { return active_simd_; }

  /// Total weight-pack operations of the packed-panel cache (test hook;
  /// see Executor::weight_packs).
  std::size_t weight_packs() const { return packed_.packs(); }

  /// Times the quantize-and-pack preparation has run: once at construction,
  /// plus once per detected Graph::version() change (OTA swap / scrubber
  /// repair self-heal).
  std::size_t preparations() const { return preparations_; }

  /// After run_single(): number of non-input nodes executed.
  std::size_t nodes_executed() const { return nodes_executed_; }

  /// Accumulated int8 saturation events across all runs (requantization
  /// clamps) — a deployment health metric.
  std::uint64_t saturations() const { return saturations_; }

 private:
  struct PreparedLayer {
    std::vector<std::int8_t> weights;       ///< quantized at per-channel scales
    std::vector<double> weight_scales;      ///< one per output channel
    std::vector<std::int32_t> bias;         ///< at in_scale * w_scale[c]
    std::vector<double> mult;               ///< in_scale * w_scale[c] / out_scale
  };

  /// Per-node integer-domain constants resolved once at construction (the
  /// fused-activation clamp window used to be re-parsed from string attrs on
  /// every node execution).
  struct QNodePlan {
    std::int32_t q_lo = -128, q_hi = 127;   ///< fused Relu/Relu6 output clamp
    bool fused_unsupported = false;         ///< fused act the int path can't run
    std::string fused_name;                 ///< for the error message only
    runtime_kernels::Conv2dGeometry conv;   ///< valid for kConv2d and kDense nodes
    /// Requant-only nodes: output byte and saturation flag per input byte,
    /// indexed by uint8(input) (Relu/Relu6/Identity/Flatten), or per input
    /// byte pair, indexed by uint8(a) << 8 | uint8(b) (Add).
    std::vector<std::int8_t> lut;
    std::vector<std::uint8_t> lut_sat;
    /// Relu/Relu6/Identity whose table prepare() composed into the sole
    /// producing Add's: the node forwards the Add's output unchanged.
    bool forward = false;
  };

  /// Runs node \p n; a forwarding node moves its input's buffer out.
  QTensor execute_node(const Node& n, const std::vector<QTensor*>& ins);
  /// Dispatch [begin, end) over the pool; each chunk accumulates saturation
  /// events into its own slot of \p sat (size >= threads).
  void pfor(std::int64_t begin, std::int64_t end, std::int64_t grain,
            const util::ThreadPool::ChunkFn& fn);
  /// (Re)quantize every parametric layer from the graph's current fp32
  /// weights and stamp prepared_version_. Run again whenever the live graph
  /// mutates (Graph::version() moved): the quantized copies and packed
  /// panels would otherwise serve stale — possibly corrupt — weights after
  /// a ModelStore repair/restore or OTA swap.
  void prepare();

  const Graph& graph_;
  std::map<NodeId, PreparedLayer> prepared_;
  std::map<NodeId, double> out_scale_;
  std::vector<QNodePlan> qplans_;           ///< indexed by NodeId over all slots
  std::uint64_t prepared_version_ = 0;      ///< Graph::version() at prepare()
  std::size_t preparations_ = 0;
  std::uint64_t saturations_ = 0;
  std::size_t nodes_executed_ = 0;
  unsigned threads_ = 1;
  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<std::int8_t> packed_b_;       ///< microkernel B panels
  util::SimdLevel simd_req_ = util::SimdLevel::kAuto;
  util::SimdLevel active_simd_ = util::SimdLevel::kPortable;
  const runtime_kernels::GemmMicrokernels* mk_ = nullptr;  ///< table of the current run
  runtime_kernels::PackedWeightCache packed_;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace vedliot
