#pragma once
/// \file instrument.hpp
/// \brief Observability conventions of the runtime executor: f32 and int8
/// runs report through the same metric names so dashboards and tests can
/// compare backends directly.

#include <string>

#include "graph/op.hpp"
#include "obs/metrics.hpp"

namespace vedliot::runtime_detail {

/// Name prefix of the per-op-class histograms; the op name follows it.
inline constexpr const char* kOpHistogramPrefix = "vedliot.runtime.op.";

/// Per-op-class node latency histogram, microseconds over [0, 10 ms).
/// One sample is added per executed (non-input) node, so the sample counts
/// across all op-class histograms sum to nodes_executed.
inline obs::Histogram& op_histogram(obs::MetricsRegistry& registry, OpKind kind) {
  return registry.histogram(kOpHistogramPrefix + std::string(op_name(kind)),
                            /*lo=*/0.0, /*hi=*/1e4, /*buckets=*/50);
}

/// Fraction of the configured thread budget a kernel dispatch actually used
/// (chunks issued / threads). One sample per parallel dispatch; a mass near
/// 1.0 means the partitioning keeps every worker busy, a mass near 1/threads
/// means the op was too small to split.
inline obs::Histogram& pool_utilization_histogram(obs::MetricsRegistry& registry) {
  return registry.histogram("vedliot.runtime.pool.utilization",
                            /*lo=*/0.0, /*hi=*/1.0 + 1e-9, /*buckets=*/20);
}

inline constexpr const char* kRunsCounter = "vedliot.runtime.runs";
inline constexpr const char* kNodesCounter = "vedliot.runtime.nodes_executed";
inline constexpr const char* kSaturationsGauge = "vedliot.runtime.saturations";
inline constexpr const char* kThreadsGauge = "vedliot.runtime.threads";
/// Sustained GEMM throughput of the last run (conv + dense kernels only).
inline constexpr const char* kGemmGflopsGauge = "vedliot.runtime.gemm.gflops";
/// Packed arena slab size and bytes saved vs per-node allocation.
inline constexpr const char* kArenaBytesGauge = "vedliot.runtime.arena.bytes";
inline constexpr const char* kArenaSavedGauge = "vedliot.runtime.arena.saved_bytes";

}  // namespace vedliot::runtime_detail
