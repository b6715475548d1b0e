#include <chrono>

#include "bench.hpp"
#include "graph/zoo.hpp"
#include "opt/fusion.hpp"
#include "opt/quantize.hpp"
#include "runtime/session.hpp"
#include "serve/fleet.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace vs = vedliot::serve;

namespace {

// Weights and calibration data identify the deployed model, not the
// workload, so they come from fixed seeds; only the traffic and the
// request payloads follow --seed.
constexpr std::uint64_t kWeightSeed = 7;
constexpr std::uint64_t kCalibrationSeed = 9;
constexpr int kCalibrationSamples = 4;

Graph build_model(const std::string& model) {
  if (model == "resnet50") return vedliot::zoo::resnet50(1, 10, 64);
  if (model == "mobilenet_v3_large") return vedliot::zoo::mobilenet_v3_large(1, 1000, 96);
  if (model == "arc_net") return vedliot::zoo::arc_net(1);
  throw vedliot::InvalidArgument("unknown model " + model);
}

std::unique_ptr<vedliot::runtime::Session> singleton_session(const Deployment& dep) {
  vedliot::runtime::RunOptions opts;
  opts.exec = dep.batcher->exec_config();
  opts.exec.max_batch = 1;
  return dep.spec.quantized ? vedliot::runtime::make_quantized_session(*dep.graph, opts)
                            : vedliot::runtime::make_session(*dep.graph, opts);
}

}  // namespace

Deployment deploy(const ModelSpec& spec, vedliot::obs::Tracer* trace) {
  Deployment dep;
  dep.spec = spec;
  {
    Phase p(trace, "graph.build", dep.times.build_s);
    dep.graph = std::make_unique<Graph>(build_model(spec.model));
    vedliot::Rng rng(kWeightSeed);
    dep.graph->materialize_weights(rng);
  }
  {
    Phase p(trace, "opt.fuse", dep.times.fuse_s);
    vedliot::opt::FuseBatchNormPass bn;
    bn.run(*dep.graph);
    vedliot::opt::FuseActivationPass act;
    act.run(*dep.graph);
  }
  if (spec.quantized) {
    Phase p(trace, "opt.calibrate", dep.times.calibrate_s);
    const vedliot::Shape& in = dep.graph->node(dep.graph->inputs().front()).out_shape;
    vedliot::Rng rng(kCalibrationSeed);
    std::vector<Tensor> samples;
    for (int i = 0; i < kCalibrationSamples; ++i) {
      samples.emplace_back(in, rng.normal_vector(static_cast<std::size_t>(in.numel())));
    }
    vedliot::opt::calibrate_activations(*dep.graph, samples);
  }
  {
    Phase p(trace, "runtime.prepare", dep.times.prepare_s);
    vs::DynamicBatcher::Config cfg;
    cfg.max_batch = spec.max_batch;
    cfg.exec.threads = spec.threads;
    cfg.quantized = spec.quantized;
    dep.batcher = std::make_unique<vs::DynamicBatcher>(*dep.graph, cfg);
  }
  {
    Phase p(trace, "runtime.warmup", dep.times.warmup_s);
    for (const std::int64_t w : dep.batcher->bucket_widths()) {
      const vedliot::Shape& in = dep.graph->node(dep.graph->inputs().front()).out_shape;
      std::vector<std::int64_t> dims(in.dims().begin(), in.dims().end());
      dims[0] = w;
      const Tensor zeros{vedliot::Shape(dims)};
      (void)dep.batcher->run(std::span<const Tensor>(&zeros, 1));
    }
  }
  return dep;
}

Tensor request_input(const Graph& graph, std::uint64_t input_seed, std::uint64_t handle,
                     std::int64_t lanes) {
  vs::Request r;
  r.payload = handle;
  r.batch = lanes;
  return vs::synthesize_input(graph, input_seed, r);
}

GoldenCrcs::GoldenCrcs(const Deployment& dep, std::uint64_t input_seed,
                       std::span<const std::pair<std::uint64_t, std::int64_t>> keys) {
  const auto session = singleton_session(dep);
  for (const auto& key : keys) {
    if (crc_.count(key)) continue;
    const Tensor x = request_input(*dep.graph, input_seed, key.first, key.second);
    std::uint32_t crc = 0;
    for (const Tensor& lane : vedliot::split_batch(x)) {
      crc = vedliot::util::crc32(session->run_single(lane).data(), crc);
    }
    crc_.emplace(key, crc);
  }
}

bool GoldenCrcs::matches(std::uint64_t handle, std::int64_t lanes, std::uint32_t crc) const {
  const auto it = crc_.find({handle, lanes});
  return it != crc_.end() && it->second == crc;
}

}  // namespace perfbench
