// Tests of the benchmark's own logic: the percentile rule, the CRC gate,
// the closed loop's batch width, fleet count determinism and the metric
// names the result records carry. Run with: python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "bench.hpp"
#include "obs/json.hpp"
#include "util/hash.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(n + 1 - i));  // unsorted
  return v;
}

TEST(Percentile, TailKeepsTenSamplesBeyond) {
  const Tail t100 = tail_percentile(ramp(100));
  EXPECT_EQ(t100.value, 90.0);
  EXPECT_DOUBLE_EQ(t100.quantile, 0.90);
  EXPECT_EQ(t100.beyond, 10u);
  EXPECT_EQ(t100.n, 100u);

  const Tail t2000 = tail_percentile(ramp(2000));
  EXPECT_EQ(t2000.value, 1980.0);  // a true p99: 20 samples lie beyond it
  EXPECT_DOUBLE_EQ(t2000.quantile, 0.99);
  EXPECT_EQ(t2000.beyond, 20u);

  const Tail t11 = tail_percentile(ramp(11));
  EXPECT_EQ(t11.value, 1.0);
  EXPECT_EQ(t11.beyond, 10u);
}

TEST(Percentile, TooFewSamplesFallBackToTheMedian) {
  const Tail t = tail_percentile(ramp(5));
  EXPECT_EQ(t.value, 3.0);
  EXPECT_EQ(t.beyond, 2u);
  EXPECT_EQ(tail_percentile({}).n, 0u);
}

TEST(Percentile, MissesCountAsInfiniteLatency) {
  std::vector<double> v = ramp(90);
  v.insert(v.end(), 10, std::numeric_limits<double>::infinity());
  EXPECT_EQ(tail_percentile(v).value, 90.0);  // the 10 misses are exactly the samples beyond
  v.push_back(std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isinf(tail_percentile(v).value));
  EXPECT_EQ(percentile(ramp(100), 0.5), 50.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(CrcGate, CatchesOneCorruptedLane) {
  const Deployment dep = deploy({"arc_net", true, 8, 1});
  std::vector<std::pair<std::uint64_t, std::int64_t>> keys;
  std::vector<Tensor> inputs;
  for (std::uint64_t h = 1; h <= 5; ++h) {
    keys.emplace_back(h, 1);
    inputs.push_back(request_input(*dep.graph, 42, h, 1));
  }
  const GoldenCrcs golden(dep, 42, keys);
  ASSERT_EQ(golden.size(), 5u);

  std::vector<Tensor> outputs = dep.batcher->run(inputs);  // 5 lanes on the 8-wide bucket
  for (std::uint64_t h = 1; h <= 5; ++h) {
    EXPECT_TRUE(golden.matches(h, 1, vedliot::util::crc32(outputs[h - 1].data())));
  }
  outputs[2].data()[0] += 1.0f;
  for (std::uint64_t h = 1; h <= 5; ++h) {
    EXPECT_EQ(golden.matches(h, 1, vedliot::util::crc32(outputs[h - 1].data())), h != 3)
        << "lane " << h;
  }
  // A response checked against another payload's reference, or a key the
  // table does not hold, never passes.
  EXPECT_FALSE(golden.matches(2, 1, vedliot::util::crc32(outputs[0].data())));
  EXPECT_FALSE(golden.matches(1, 2, vedliot::util::crc32(outputs[0].data())));
}

double metric(const RunResult& r, const std::string& name) {
  for (const Metric& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "no metric " << name;
  return 0;
}

RunResult run(const std::string& workload, std::uint64_t seed, double seconds, bool trace) {
  BenchOptions o;
  o.workload = workload;
  o.seed = seed;
  o.seconds = seconds;
  o.trace = trace;
  return run_workload(o);
}

TEST(ClosedLoop, ResnetBatchesAreAlwaysEightWide) {
  const RunResult r = run("resnet50_int8_batched", 3, 1.0, true);
  EXPECT_TRUE(r.correct);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(metric(r, "serve.batch_lanes_mean"), 8.0);
  EXPECT_EQ(metric(r, "serve.pad_share"), 0.0);
  EXPECT_GT(metric(r, "runtime.batch_ms.w8"), 0.0);
  EXPECT_EQ(metric(r, "runtime.batch_ms.w1"), 0.0);
}

TEST(Fleet, CountsRepeatExactlyForAFixedSeed) {
  const RunResult a = run("fleet_sim_flash", 5, 0.2, true);
  const RunResult b = run("fleet_sim_flash", 5, 0.2, true);
  const RunResult other = run("fleet_sim_flash", 6, 0.2, true);
  EXPECT_TRUE(a.correct);
  EXPECT_EQ(a.failed, 0u);
  bool seed_matters = false;
  for (const char* name : {"fleet.events", "fleet.batches", "fleet.padded_lanes",
                           "fleet.cache_hits", "fleet.scale_ups", "fleet.max_replicas"}) {
    EXPECT_GT(metric(a, name), 0.0) << name;
    EXPECT_EQ(metric(a, name), metric(b, name)) << name;
    seed_matters = seed_matters || metric(a, name) != metric(other, name);
  }
  EXPECT_TRUE(seed_matters);
}

std::vector<std::string> spec_names(const std::string& section) {
  std::ifstream in(PERFBENCH_SPEC);
  std::stringstream text;
  text << in.rdbuf();
  const vedliot::obs::JsonValue spec = vedliot::obs::json_parse(text.str());
  std::vector<std::string> names;
  for (const auto& m : spec.at(section).array) {
    names.push_back(m.at("name").as_string());
  }
  return names;
}

std::vector<std::string> names(const RunResult& r) {
  std::vector<std::string> out;
  for (const Metric& m : r.metrics) out.push_back(m.name);
  return out;
}

TEST(Record, CarriesExactlyTheDeclaredMetrics) {
  EXPECT_EQ(names(run("fleet_sim_flash", 1, 0.2, false)), spec_names("end_to_end"));
  EXPECT_EQ(names(run("fleet_sim_flash", 1, 0.2, true)), spec_names("per_layer"));
  EXPECT_EQ(names(run("arc_int8_storm", 1, 0.3, false)), spec_names("end_to_end"));
  EXPECT_EQ(names(run("arc_int8_storm", 1, 0.3, true)), spec_names("per_layer"));
}

TEST(Record, ResultLineIsOneJsonObject) {
  RunResult r;
  r.attempted = 3;
  r.metrics.push_back({"latency_p50_ms", 1.25, "ms"});
  const auto v = vedliot::obs::json_parse(result_json(r));
  EXPECT_TRUE(v.at("correct").boolean);
  EXPECT_EQ(v.at("attempted").as_number(), 3.0);
  EXPECT_EQ(v.at("failed").as_number(), 0.0);
  EXPECT_EQ(v.at("metrics").at("latency_p50_ms").at("value").as_number(), 1.25);
  EXPECT_EQ(v.at("metrics").at("latency_p50_ms").at("unit").as_string(), "ms");
}

}  // namespace
}  // namespace perfbench
