#pragma once
/// \file bench.hpp
/// \brief Wall-clock serving benchmark of the deployed models: workload
/// runners, the deployment path, the output-correctness gate and the
/// statistics the result record is built from.
///
/// A workload deploys a model the way the toolchain does (zoo build ->
/// materialize_weights -> BN fold + activation fusion (+ calibration for
/// int8) -> serve::DynamicBatcher bucket sessions), serves seeded traffic
/// through serve::AdmissionQueue, serve::ResponseCache and
/// DynamicBatcher::run on a real clock, and checks every response's CRC
/// against a singleton reference. An untraced run yields the end-to-end
/// metrics; a traced run (benchmark spans around every public call plus the
/// runtime's own node spans) yields the per-layer metrics.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "hw/roofline.hpp"
#include "obs/trace.hpp"
#include "serve/batcher.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

using vedliot::Graph;
using vedliot::Tensor;

// -- statistics ---------------------------------------------------------------

/// A tail percentile chosen by the sample-count rule.
struct Tail {
  double value = 0;     ///< sample at the chosen rank (+inf when it is a miss)
  double quantile = 0;  ///< the percentile actually reported, in [0, 1]
  std::size_t beyond = 0;  ///< samples strictly after the chosen rank
  std::size_t n = 0;
};

/// Nearest-rank percentile \p q of \p samples (misses as +inf sort last).
/// Empty input gives 0.
double percentile(std::vector<double> samples, double q);

/// The highest percentile, at most \p q, with at least \p min_beyond
/// samples ranked after it. With fewer than min_beyond + 1 samples no
/// percentile qualifies; the median is reported and `beyond` says so.
Tail tail_percentile(std::vector<double> samples, double q = 0.99, std::size_t min_beyond = 10);

double median(std::vector<double> samples);

// -- host and build identity --------------------------------------------------

/// Roof probe repeated k times: the best (max) is the roof, the spread is
/// kept so a record explains itself when two hosts (or two runs) disagree.
struct RoofSpread {
  double min = 0, median = 0, max = 0;
};

struct HostIdentity {
  std::string cpu_model;
  unsigned nproc = 0;
  std::string simd;
  std::string build_type;
  std::string compiler;
  std::string commit;
  std::string source_digest;
  int roof_probes = 0;
  RoofSpread f32_gflops;  ///< one-thread roof at the resolved SIMD level
  RoofSpread s8_gops;
};

HostIdentity probe_host(const std::string& commit, const std::string& source_digest,
                        int probes);
std::string host_json(const HostIdentity& host);

// -- deployment ---------------------------------------------------------------

/// Times one phase with the steady clock and, when tracing, records it as
/// a span too.
class Phase {
 public:
  Phase(vedliot::obs::Tracer* trace, const char* name, double& out)
      : out_(out), t0_(std::chrono::steady_clock::now()) {
    if (trace != nullptr) span_ = trace->span(name, "perfbench");
  }
  ~Phase() {
    out_ = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  double& out_;
  std::chrono::steady_clock::time_point t0_;
  vedliot::obs::ScopedSpan span_;
};

struct ModelSpec {
  std::string model;     ///< "resnet50" | "mobilenet_v3_large" | "arc_net"
  bool quantized = false;
  std::int64_t max_batch = 1;
  unsigned threads = 1;
};

/// Wall time of each set-up phase of one deployment, in seconds.
struct SetupTimes {
  double build_s = 0;      ///< zoo build + materialize_weights
  double fuse_s = 0;       ///< BN fold + activation fusion
  double calibrate_s = 0;  ///< int8 activation calibration
  double prepare_s = 0;    ///< DynamicBatcher construction
  double warmup_s = 0;     ///< one run per bucket
  double total() const { return build_s + fuse_s + calibrate_s + prepare_s + warmup_s; }
};

/// One deployed model: the batch-1 deploy graph and its bucket ladder.
struct Deployment {
  ModelSpec spec;
  std::unique_ptr<Graph> graph;
  std::unique_ptr<vedliot::serve::DynamicBatcher> batcher;
  SetupTimes times;
};

/// Deploy \p spec. When \p trace is set, each phase is also a span.
Deployment deploy(const ModelSpec& spec, vedliot::obs::Tracer* trace = nullptr);

/// The input a request with payload handle \p handle and \p lanes lanes
/// carries (serve::synthesize_input over the deploy graph).
Tensor request_input(const Graph& graph, std::uint64_t input_seed, std::uint64_t handle,
                     std::int64_t lanes);

/// Golden output CRCs per (payload handle, lanes), each computed lane by
/// lane on a width-1 session built straight from the deploy graph: the
/// per-lane bitwise contract says a served response must equal them.
class GoldenCrcs {
 public:
  GoldenCrcs(const Deployment& dep, std::uint64_t input_seed,
             std::span<const std::pair<std::uint64_t, std::int64_t>> keys);

  /// True when \p crc is the reference CRC of (handle, lanes); an unknown
  /// key never matches.
  bool matches(std::uint64_t handle, std::int64_t lanes, std::uint32_t crc) const;
  std::size_t size() const { return crc_.size(); }

 private:
  std::map<std::pair<std::uint64_t, std::int64_t>, std::uint32_t> crc_;
};

// -- workloads ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct BenchOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  ///< Chrome trace output of a traced run ("" = none)
  HostIdentity host;       ///< roof used for roof fractions
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;     ///< end-to-end (untraced) or per-layer (traced)
  std::vector<std::string> notes;  ///< human-readable lines printed before the record
};

const std::vector<std::string>& workload_names();

/// Run one workload; throws on an unknown name or a failed deployment.
RunResult run_workload(const BenchOptions& options);

/// The result record: the last line the benchmark prints.
std::string result_json(const RunResult& result);

}  // namespace perfbench
