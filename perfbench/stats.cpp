#include <algorithm>
#include <cmath>
#include <fstream>
#include <thread>

#include "bench.hpp"
#include "obs/json.hpp"
#include "util/cpu.hpp"

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return samples[std::min(rank, samples.size()) - 1];
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }

Tail tail_percentile(std::vector<double> samples, double q, std::size_t min_beyond) {
  Tail t;
  t.n = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(t.n);
  // Nearest rank of q, pulled down until min_beyond samples rank after it.
  std::size_t idx = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n))) - 1;
  if (t.n >= min_beyond + 1) {
    idx = std::min(idx, t.n - 1 - min_beyond);
  } else {
    idx = static_cast<std::size_t>(std::max(1.0, std::ceil(0.5 * n))) - 1;
  }
  t.value = samples[idx];
  t.quantile = static_cast<double>(idx + 1) / n;
  t.beyond = t.n - 1 - idx;
  return t;
}

namespace {

std::string cpu_model_name() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0 || line.rfind("Model", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

RoofSpread spread(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return {v.front(), median(v), v.back()};
}

std::string roof_json(const RoofSpread& r) {
  using vedliot::obs::json_number;
  return "{\"min\":" + json_number(r.min) +
         ",\"median\":" + json_number(r.median) + ",\"max\":" + json_number(r.max) + "}";
}

}  // namespace

HostIdentity probe_host(const std::string& commit, const std::string& source_digest,
                        int probes) {
  HostIdentity h;
  h.cpu_model = cpu_model_name();
  h.nproc = std::thread::hardware_concurrency();
  h.simd = std::string(vedliot::util::simd_level_name(
      vedliot::util::resolve_simd_level(vedliot::util::SimdLevel::kAuto)));
  h.build_type = PERFBENCH_BUILD_TYPE;
  h.compiler = PERFBENCH_COMPILER;
  h.commit = commit;
  h.source_digest = source_digest;
  h.roof_probes = probes;
  std::vector<double> f32, s8;
  for (int i = 0; i < probes; ++i) {
    const vedliot::hw::HostRoofline r = vedliot::hw::measure_host_roofline();
    f32.push_back(r.f32_gflops);
    s8.push_back(r.s8_gops);
  }
  h.f32_gflops = spread(f32);
  h.s8_gops = spread(s8);
  return h;
}

std::string host_json(const HostIdentity& h) {
  using vedliot::obs::json_escape;
  using vedliot::obs::json_number;
  std::string out = "{\"record\":\"host\"";
  out += ",\"cpu_model\":\"" + json_escape(h.cpu_model) + "\"";
  out += ",\"nproc\":" + json_number(h.nproc);
  out += ",\"simd\":\"" + json_escape(h.simd) + "\"";
  out += ",\"build_type\":\"" + json_escape(h.build_type) + "\"";
  out += ",\"compiler\":\"" + json_escape(h.compiler) + "\"";
  out += ",\"commit\":\"" + json_escape(h.commit) + "\"";
  out += ",\"source_digest\":\"" + json_escape(h.source_digest) + "\"";
  out += ",\"roof_probes\":" + json_number(h.roof_probes);
  out += ",\"roof_f32_gflops\":" + roof_json(h.f32_gflops);
  out += ",\"roof_s8_gops\":" + roof_json(h.s8_gops);
  return out + "}";
}

std::string result_json(const RunResult& r) {
  using vedliot::obs::json_escape;
  using vedliot::obs::json_number;
  std::string out = std::string("{\"correct\":") + (r.correct ? "true" : "false");
  out += ",\"attempted\":" + json_number(static_cast<double>(r.attempted));
  out += ",\"failed\":" + json_number(static_cast<double>(r.failed));
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) out += ",";
    out += "\"" + json_escape(m.name) + "\":{\"value\":" + json_number(m.value) +
           ",\"unit\":\"" + json_escape(m.unit) + "\"}";
  }
  return out + "}}";
}

}  // namespace perfbench
