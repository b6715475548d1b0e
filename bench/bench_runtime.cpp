// T-EXEC — toolchain substrate: the execution engine (thread-pool
// parallelism, im2col/GEMM convolution, activation arena) and the
// liveness-based memory planner (the "memory hierarchy study" of
// Sec. II-B applied to activation buffers).

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <string>

#include "bench_common.hpp"
#include "graph/cost.hpp"
#include "graph/zoo.hpp"
#include "hw/roofline.hpp"
#include "opt/fusion.hpp"
#include "opt/quantize.hpp"
#include "runtime/memory_planner.hpp"
#include "runtime/session.hpp"
#include "util/cpu.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace vedliot;

namespace {

/// One configuration of the ResNet-50 execution-engine sweep.
struct SweepPoint {
  std::string dtype = "f32";     ///< "f32" | "int8"
  std::int64_t batch = 1;
  std::string simd = "portable"; ///< resolved dispatch level of the point
  unsigned threads = 1;
  bool measured = true;          ///< false: threads exceed this host's cores
  double seconds = 0;            ///< median wall-clock of the timed runs
  double min_seconds = 0, max_seconds = 0;  ///< spread of the timed runs
  double speedup_vs_portable = 1;///< vs portable t1, same dtype and batch
  double achieved = 0;           ///< GFLOP/s (f32) or int8 GOP/s, end-to-end
  double roof_fraction = 0;      ///< achieved / (per-thread roof * usable threads)
  /// Batch > 1 only: median over the interleaved pairs of batch-1 seconds
  /// over this point's seconds per lane (0 = not applicable).
  double lane_speedup_vs_batch1 = 0;
};

/// The deployment graph of the sweep, shared by both dtypes so the f32 and
/// int8 rows compare the same model: BN folded, activations fused, and
/// calibrated (the f32 executor ignores the scales). Built at batch 1; one
/// session runs it at every batch of the sweep.
struct SweepModel {
  Graph graph;
  Tensor input[2];   ///< one feed per kBatches entry
  double ops = 0;    ///< 2 x MACs of one batch-1 pass
};

SweepModel sweep_model(std::span<const std::int64_t> batches, std::int64_t image) {
  Graph g = zoo::resnet50(1, 10, image);
  Rng rng(7);
  g.materialize_weights(rng);
  opt::FuseBatchNormPass bn;
  bn.run(g);
  opt::FuseActivationPass act;
  act.run(g);
  const Shape lane{1, 3, image, image};
  std::vector<Tensor> calib;
  Rng calib_rng(9);
  for (int i = 0; i < 2; ++i) {
    calib.emplace_back(lane, calib_rng.normal_vector(static_cast<std::size_t>(lane.numel())));
  }
  opt::calibrate_activations(g, calib, Calibration::kMinMax);
  const double ops = 2.0 * static_cast<double>(graph_cost(g).macs);
  SweepModel m{std::move(g), {}, ops};
  Rng data_rng(8);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const Shape in{batches[b], 3, image, image};
    m.input[b] = Tensor(in, data_rng.normal_vector(static_cast<std::size_t>(in.numel())));
  }
  return m;
}

double run_seconds(runtime::Session& session, const SweepModel& m, int b) {
  const std::string& feed = m.graph.node(m.graph.inputs().front()).name;
  const auto t0 = std::chrono::steady_clock::now();
  (void)session.run({{feed, m.input[b]}});
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// The CPU model string of this host ("unknown" where /proc/cpuinfo has none).
std::string cpu_model_name() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0 || line.rfind("Model", 0) == 0) {
      const auto colon = line.find(':');
      const auto start = line.find_first_not_of(' ', colon + 1);
      if (colon != std::string::npos && start != std::string::npos) return line.substr(start);
    }
  }
  return "unknown";
}

/// Fill the spread and median fields of \p p from its timed runs.
void set_times(SweepPoint& p, std::vector<double> times) {
  std::sort(times.begin(), times.end());
  p.min_seconds = times.front();
  p.seconds = times[times.size() / 2];
  p.max_seconds = times.back();
}

/// ResNet-50 engine sweep (dtype x batch x dispatch level x threads) against
/// the measured host roofline. Each configuration's one session times its
/// batch-1 and batch-8 runs in interleaved pairs, so host drift moves both
/// sides of the per-lane speedup alike. Writes the machine-readable baseline to
/// $VEDLIOT_BENCH_RUNTIME_JSON when set — the file checked in as
/// BENCH_runtime.json.
void engine_sweep() {
  constexpr std::int64_t kImage = 64;  // full 224 is impractical for the portable rows
  constexpr int kRepeats = 5;
  constexpr std::int64_t kBatches[2] = {1, 8};
  const unsigned hw_threads = util::ThreadPool::hardware_threads();

  // Per-thread compute roofs of this host at both dispatch levels; a
  // portable run must be judged against the portable roof.
  const hw::HostRoofline roof_portable =
      hw::measure_host_roofline(util::SimdLevel::kPortable);
  const hw::HostRoofline roof_simd = hw::measure_host_roofline(util::SimdLevel::kAuto);
  const auto roof_for = [&](const std::string& dtype, const std::string& simd,
                            unsigned threads) {
    const hw::HostRoofline& r =
        simd == util::simd_level_name(util::SimdLevel::kPortable) ? roof_portable
                                                                  : roof_simd;
    const double per_thread = dtype == "f32" ? r.f32_gflops : r.s8_gops;
    return per_thread * static_cast<double>(std::min(threads, hw_threads));
  };

  std::printf(
      "\nExecution engine: ResNet-50 (image %lld), dispatch level x threads:\n\n",
      static_cast<long long>(kImage));
  const std::string portable_name{util::simd_level_name(util::SimdLevel::kPortable)};
  const std::string simd_name{
      util::simd_level_name(util::resolve_simd_level(util::SimdLevel::kAuto))};
  const SweepModel model = sweep_model(kBatches, kImage);

  // points[b]: the rows of batch kBatches[b], in sweep order.
  std::vector<SweepPoint> points[2];
  for (const std::string dtype : {"f32", "int8"}) {
    const auto make = dtype == "f32" ? &runtime::make_session
                                     : &runtime::make_quantized_session;
    // Portable dispatch (the scalar microkernel tiles, one thread) is the
    // reference every SIMD point is a speedup over.
    for (unsigned threads : {0u, 1u, 2u, 4u}) {
      const bool portable = threads == 0;
      const unsigned t = portable ? 1 : threads;
      SweepPoint p[2];
      for (int b = 0; b < 2; ++b) {
        p[b] = SweepPoint{dtype, kBatches[b], portable ? portable_name : simd_name, t};
        // A point this host cannot time honestly: more workers than cores
        // just interleave on one core. Record it as unmeasured rather than
        // publishing a fake scaling number.
        p[b].measured = t <= hw_threads;
      }
      if (p[0].measured) {
        runtime::RunOptions o;
        o.exec.threads = t;
        if (portable) o.exec.simd = util::SimdLevel::kPortable;
        const std::unique_ptr<runtime::Session> s = make(model.graph, o);
        std::vector<double> times[2], lane_ratio;
        for (int b = 0; b < 2; ++b) (void)run_seconds(*s, model, b);  // warm-up
        for (int i = 0; i < kRepeats; ++i) {
          for (int b = 0; b < 2; ++b) times[b].push_back(run_seconds(*s, model, b));
          lane_ratio.push_back(times[0].back() /
                               (times[1].back() / static_cast<double>(kBatches[1])));
        }
        std::sort(lane_ratio.begin(), lane_ratio.end());
        p[1].lane_speedup_vs_batch1 = lane_ratio[lane_ratio.size() / 2];
        for (int b = 0; b < 2; ++b) {
          set_times(p[b], times[b]);
          const double ref = portable ? p[b].seconds : points[b].front().seconds;
          p[b].speedup_vs_portable = ref / p[b].seconds;
          p[b].achieved = model.ops * static_cast<double>(kBatches[b]) / p[b].seconds / 1e9;
          p[b].roof_fraction = p[b].achieved / roof_for(dtype, p[b].simd, t);
        }
      }
      for (int b = 0; b < 2; ++b) points[b].push_back(p[b]);
    }
  }

  Table t({"dtype", "batch", "simd", "threads", "median run", "min..max", "vs portable", "GF/s",
           "roofline", "lane vs b1"});
  std::vector<SweepPoint> all = points[0];
  all.insert(all.end(), points[1].begin(), points[1].end());
  for (const SweepPoint& p : all) {
    t.add_row({p.dtype, std::to_string(p.batch), p.simd, std::to_string(p.threads),
               p.measured ? fmt_fixed(p.seconds * 1e3, 1) + " ms" : "unmeasured",
               p.measured ? fmt_fixed(p.min_seconds * 1e3, 1) + ".." +
                                fmt_fixed(p.max_seconds * 1e3, 1)
                          : "-",
               p.measured ? fmt_ratio(p.speedup_vs_portable) : "-",
               p.measured ? fmt_fixed(p.achieved, 2) : "-",
               p.measured ? fmt_fixed(p.roof_fraction * 100.0, 1) + "%" : "-",
               p.lane_speedup_vs_batch1 > 0 ? fmt_ratio(p.lane_speedup_vs_batch1) : "-"});
  }
  t.print(std::cout);
  bench::note("GF/s is end-to-end model flops (int8: integer ops) over wall-clock;");
  bench::note("roofline is the measured per-level register-FMA roof of this host;");
  bench::note("thread points beyond hardware_concurrency are recorded unmeasured;");
  bench::note("batch-1 and batch-8 runs of a configuration alternate; lane vs b1 is the");
  bench::note("median over those pairs of batch-1 time over batch-8 time per lane.");

  if (const char* path = std::getenv("VEDLIOT_BENCH_RUNTIME_JSON")) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::printf("cannot write %s\n", path);
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"bench_runtime\",\n  \"model\": \"resnet50\",\n");
    std::fprintf(f, "  \"image\": %lld,\n  \"repeats\": %d,\n", static_cast<long long>(kImage),
                 kRepeats);
    std::fprintf(f, "  \"hardware_concurrency\": %u,\n", hw_threads);
    const char* commit = std::getenv("VEDLIOT_COMMIT");
    std::fprintf(f,
                 "  \"cpu_model\": \"%s\",\n  \"build_type\": \"%s\",\n  \"compiler\": \"%s\",\n"
                 "  \"commit\": \"%s\",\n",
                 obs::json_escape(cpu_model_name()).c_str(), VEDLIOT_BUILD_TYPE, VEDLIOT_COMPILER,
                 obs::json_escape(commit != nullptr ? commit : "unknown").c_str());
    std::fprintf(f, "  \"baseline\": \"portable dispatch, threads=1\",\n");
    std::fprintf(f, "  \"graph\": \"BN folded, activations fused, calibrated (f32 and int8)\",\n");
    std::fprintf(f,
                 "  \"timing\": \"batch-1 and batch-8 runs of each configuration alternate; "
                 "min/median/max over the runs; lane speedup is the median per-pair ratio\",\n");
    std::fprintf(f,
                 "  \"roofline\": {\"portable_f32_gflops\": %s, \"portable_s8_gops\": %s, "
                 "\"%s_f32_gflops\": %s, \"%s_s8_gops\": %s},\n",
                 obs::json_number(roof_portable.f32_gflops).c_str(),
                 obs::json_number(roof_portable.s8_gops).c_str(), simd_name.c_str(),
                 obs::json_number(roof_simd.f32_gflops).c_str(), simd_name.c_str(),
                 obs::json_number(roof_simd.s8_gops).c_str());
    std::fprintf(f, "  \"points\": [\n");
    for (std::size_t i = 0; i < all.size(); ++i) {
      const SweepPoint& p = all[i];
      std::fprintf(f,
                   "    {\"dtype\": \"%s\", \"batch\": %lld, \"simd\": \"%s\", \"threads\": %u, "
                   "\"hardware_concurrency\": %u, ",
                   p.dtype.c_str(), static_cast<long long>(p.batch), p.simd.c_str(), p.threads,
                   hw_threads);
      if (p.measured) {
        std::fprintf(f,
                     "\"unmeasured\": false, \"min_seconds\": %s, \"median_seconds\": %s, "
                     "\"max_seconds\": %s, \"achieved_gflops\": %s, "
                     "\"fraction_of_roofline\": %s, \"speedup_vs_portable\": %s%s}",
                     obs::json_number(p.min_seconds).c_str(),
                     obs::json_number(p.seconds).c_str(),
                     obs::json_number(p.max_seconds).c_str(),
                     obs::json_number(p.achieved).c_str(),
                     obs::json_number(p.roof_fraction).c_str(),
                     obs::json_number(p.speedup_vs_portable).c_str(),
                     p.lane_speedup_vs_batch1 > 0
                         ? (", \"lane_speedup_vs_batch1\": " +
                            obs::json_number(p.lane_speedup_vs_batch1))
                               .c_str()
                         : "");
      } else {
        std::fprintf(f, "\"unmeasured\": true, \"median_seconds\": null}");
      }
      std::fprintf(f, "%s\n", i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path);
  }
}

}  // namespace

void print_artifact() {
  bench::banner("T-EXEC", "memory planner: arena reuse vs naive allocation");
  bench::Section section("bench_runtime", "memory-planner");

  Table t({"model", "activations (naive)", "arena (planned)", "reuse", "weights fp32"});
  struct Entry {
    const char* name;
    Graph g;
  };
  for (auto& [name, g] : {Entry{"resnet50", zoo::resnet50()},
                          Entry{"mobilenet_v3", zoo::mobilenet_v3_large()},
                          Entry{"yolov4", zoo::yolov4()},
                          Entry{"gesture_net", zoo::gesture_net()},
                          Entry{"pedestrian_net", zoo::pedestrian_net()}}) {
    const MemoryPlan plan = plan_memory(g, DType::kFP32);
    if (!plan_is_valid(plan)) {
      std::printf("INVALID PLAN for %s!\n", name);
      continue;
    }
    t.add_row({name, fmt_fixed(static_cast<double>(plan.naive_bytes) / (1 << 20), 1) + " MiB",
               fmt_fixed(static_cast<double>(plan.arena_bytes) / (1 << 20), 1) + " MiB",
               fmt_ratio(plan.reuse_factor()),
               fmt_fixed(weight_bytes(g, DType::kFP32) / (1 << 20), 1) + " MiB"});
  }
  t.print(std::cout);

  std::printf("\nINT8 activations shrink the arena further:\n\n");
  Table q({"model", "fp32 arena", "int8 arena"});
  for (auto& [name, g] : {Entry{"mobilenet_v3", zoo::mobilenet_v3_large()},
                          Entry{"yolov4", zoo::yolov4()}}) {
    const auto p32 = plan_memory(g, DType::kFP32);
    const auto p8 = plan_memory(g, DType::kINT8);
    q.add_row({name, fmt_fixed(static_cast<double>(p32.arena_bytes) / (1 << 20), 1) + " MiB",
               fmt_fixed(static_cast<double>(p8.arena_bytes) / (1 << 20), 2) + " MiB"});
  }
  q.print(std::cout);
  bench::note("shape: liveness-based packing cuts activation memory by an order of magnitude,");
  bench::note("which is what makes MiB-class on-chip buffers viable for these models.");

  // True-integer INT8 deployment path: agreement with the float reference.
  std::printf("\nINT8 integer executor vs float reference (micro CNN, 32 samples):\n\n");
  Graph g = zoo::micro_cnn("deploy", 1, 1, 16, 4);
  Rng rng(12);
  g.materialize_weights(rng);
  opt::FuseBatchNormPass bn;
  bn.run(g);
  opt::FuseActivationPass act;
  act.run(g);
  std::vector<Tensor> calib;
  Rng data_rng(13);
  for (int i = 0; i < 16; ++i) calib.emplace_back(Shape{1, 1, 16, 16}, data_rng.normal_vector(256));
  opt::calibrate_activations(g, calib, Calibration::kMinMax);

  auto fsession = runtime::make_session(g);
  auto qsession = runtime::make_quantized_session(g);
  std::uint64_t saturations = 0;
  int agree = 0;
  double total_rmse = 0;
  for (int i = 0; i < 32; ++i) {
    Tensor x(Shape{1, 1, 16, 16}, data_rng.normal_vector(256));
    const Tensor fy = fsession->run_single(x);
    const auto qr = qsession->run({{g.node(g.inputs().front()).name, x}});
    const Tensor& qy = qr.single();
    saturations = qr.saturations;
    total_rmse += rmse(fy, qy);
    std::size_t fa = 0, qa = 0;
    for (std::int64_t j = 1; j < fy.numel(); ++j) {
      if (fy.at(static_cast<std::size_t>(j)) > fy.at(fa)) fa = static_cast<std::size_t>(j);
      if (qy.at(static_cast<std::size_t>(j)) > qy.at(qa)) qa = static_cast<std::size_t>(j);
    }
    if (fa == qa) ++agree;
  }
  std::printf("top-1 agreement %d/32, mean softmax RMSE %.4f, int8 saturations %llu\n", agree,
              total_rmse / 32.0, static_cast<unsigned long long>(saturations));

  engine_sweep();
}

static void BM_PlanMemoryMobileNet(benchmark::State& state) {
  Graph g = zoo::mobilenet_v3_large();
  for (auto _ : state) {
    auto plan = plan_memory(g, DType::kINT8);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanMemoryMobileNet)->Unit(benchmark::kMillisecond);

static void BM_ExecutorMicroCnn(benchmark::State& state) {
  Graph g = zoo::micro_cnn("m", 1, 1, 32, 10);
  Rng rng(1);
  g.materialize_weights(rng);
  auto session = runtime::make_session(g);
  Rng data_rng(2);
  Tensor input(Shape{1, 1, 32, 32}, data_rng.normal_vector(1024));
  for (auto _ : state) {
    benchmark::DoNotOptimize(session->run_single(input));
  }
  const auto c = graph_cost(g);
  state.counters["MACs/s"] = benchmark::Counter(
      static_cast<double>(c.macs) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExecutorMicroCnn)->Unit(benchmark::kMillisecond);

static void BM_ExecutorDense(benchmark::State& state) {
  Graph g = zoo::micro_mlp("m", 1, 1024, {1024}, 256);
  Rng rng(1);
  g.materialize_weights(rng);
  auto session = runtime::make_session(g);
  Rng data_rng(2);
  Tensor input(Shape{1, 1024}, data_rng.normal_vector(1024));
  for (auto _ : state) {
    benchmark::DoNotOptimize(session->run_single(input));
  }
}
BENCHMARK(BM_ExecutorDense)->Unit(benchmark::kMicrosecond);

static void BM_GraphValidateYolo(benchmark::State& state) {
  Graph g = zoo::yolov4();
  for (auto _ : state) {
    g.validate();
  }
}
BENCHMARK(BM_GraphValidateYolo)->Unit(benchmark::kMillisecond);

VEDLIOT_BENCH_MAIN()
