// Fleet soak driver (serve/fleet_soak.hpp): sweep fleet size over three
// traffic scenarios (diurnal, flash crowd, retry storm), check every fleet
// invariant plus cross-size goodput monotonicity and bitwise determinism,
// run one execute-mode soak (real tensors, batched-vs-singleton CRC
// equality), and measure the dynamic batcher's wall-clock speedup over the
// per-request path (must be >= 3x at batch 8). Prints a human summary
// table on stderr and one JSON-lines record per run on stdout
// (scripts/soak_fleet.sh appends those to BENCH_serve.json).
//
// Usage: soak_fleet [--seed N] [--duration S] [--base-hz H] [--quick]
// Exit status 1 when any invariant is violated, determinism breaks, or the
// batching speedup falls short.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "graph/zoo.hpp"
#include "serve/fleet_soak.hpp"
#include "util/rng.hpp"

namespace {

using vedliot::serve::FleetSoakConfig;
using vedliot::serve::FleetSoakResult;
using vedliot::serve::TrafficPattern;

void usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--seed N] [--duration S] [--base-hz H] [--quick]\n", argv0);
  std::exit(2);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Wall-clock throughput of the batched path vs the per-request path over
/// the same eight inputs (best of \p reps). Returns the speedup factor.
double batching_speedup(int reps) {
  using vedliot::Graph;
  using vedliot::Rng;
  using vedliot::Tensor;

  Graph mlp = vedliot::zoo::micro_mlp("fleet-throughput", 1, 1024, {1024, 1024}, 256);
  Rng rng(0x7EED);
  mlp.materialize_weights(rng);

  vedliot::serve::DynamicBatcher::Config bc;
  bc.max_batch = 8;
  vedliot::serve::DynamicBatcher batcher(mlp, bc);
  const auto single = vedliot::runtime::make_session(mlp, {});

  std::vector<Tensor> inputs;
  for (int i = 0; i < 8; ++i) {
    inputs.emplace_back(vedliot::Shape({1, 1024}), rng.normal_vector(1024));
  }

  double best_single = 1e9;
  double best_batched = 1e9;
  for (int r = 0; r < reps + 1; ++r) {  // first lap is warmup
    auto start = std::chrono::steady_clock::now();
    for (const Tensor& x : inputs) (void)single->run_single(x);
    const double t_single = seconds_since(start);

    start = std::chrono::steady_clock::now();
    (void)batcher.run(inputs);
    const double t_batched = seconds_since(start);

    if (r == 0) continue;
    best_single = std::min(best_single, t_single);
    best_batched = std::min(best_batched, t_batched);
  }
  return best_single / best_batched;
}

}  // namespace

int main(int argc, char** argv) {
  FleetSoakConfig base;
  bool quick = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--seed") {
      base.seed = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--duration") {
      base.duration_s = std::strtod(next(), nullptr);
    } else if (arg == "--base-hz") {
      base.base_hz = std::strtod(next(), nullptr);
    } else if (arg == "--quick") {
      quick = true;
      base.duration_s = 0.5;
    } else {
      usage(argv[0]);
    }
  }

  const std::vector<std::size_t> sizes = quick ? std::vector<std::size_t>{1, 4}
                                               : std::vector<std::size_t>{1, 4, 16};
  const std::vector<TrafficPattern> patterns = {
      TrafficPattern::kDiurnal, TrafficPattern::kFlashCrowd, TrafficPattern::kRetryStorm};

  bool ok = true;
  std::fprintf(stderr, "fleet soak: seed=0x%llx duration=%.2fs base=%.0f Hz\n",
               static_cast<unsigned long long>(base.seed), base.duration_s, base.base_hz);
  std::fprintf(stderr, "%-12s %5s %8s %9s %6s %9s %7s %6s %7s %8s\n", "pattern", "fleet",
               "offered", "completed", "shed", "cancelled", "cached", "scale", "batches",
               "goodput");

  std::vector<FleetSoakResult> first_pattern_sweep;
  for (const TrafficPattern pattern : patterns) {
    std::vector<FleetSoakResult> sweep;
    for (const std::size_t size : sizes) {
      FleetSoakConfig cfg = base;
      cfg.pattern = pattern;
      cfg.fleet_size = size;
      cfg.autoscale = false;  // capacity pinned, so the size sweep is honest
      FleetSoakResult r = vedliot::serve::run_fleet_soak(cfg);
      std::fprintf(stderr, "%-12s %5zu %8zu %9zu %6zu %9zu %7zu %2zu/%-3zu %7zu %8.4f\n",
                   traffic_pattern_name(pattern).data(), size, r.report.offered,
                   r.report.completed, r.report.shed, r.report.cancelled, r.report.cache_hits,
                   r.report.scale_ups, r.report.scale_downs, r.report.batches, r.goodput());
      for (const std::string& v : r.violations) {
        std::fprintf(stderr, "  INVARIANT VIOLATION: %s\n", v.c_str());
        ok = false;
      }
      std::printf("%s\n", r.to_json().c_str());
      sweep.push_back(std::move(r));
    }
    for (const std::string& v : vedliot::serve::check_fleet_goodput_monotone(sweep)) {
      std::fprintf(stderr, "  INVARIANT VIOLATION: %s\n", v.c_str());
      ok = false;
    }
    if (first_pattern_sweep.empty()) first_pattern_sweep = std::move(sweep);
  }

  // Autoscaling run: replicas must actually scale with a flash crowd.
  {
    FleetSoakConfig cfg = base;
    cfg.pattern = TrafficPattern::kFlashCrowd;
    cfg.fleet_size = 8;
    cfg.autoscale = true;
    const FleetSoakResult r = vedliot::serve::run_fleet_soak(cfg);
    std::fprintf(stderr, "%-12s %5s %8zu %9zu %6zu %9zu %7zu %2zu/%-3zu %7zu %8.4f\n",
                 "autoscale", "1..8", r.report.offered, r.report.completed, r.report.shed,
                 r.report.cancelled, r.report.cache_hits, r.report.scale_ups,
                 r.report.scale_downs, r.report.batches, r.goodput());
    for (const std::string& v : r.violations) {
      std::fprintf(stderr, "  INVARIANT VIOLATION: %s\n", v.c_str());
      ok = false;
    }
    std::printf("%s\n", r.to_json().c_str());
  }

  // Execute-mode soak: real tensors through the replicas' sessions, with the
  // batched-vs-singleton CRC equality check live.
  {
    FleetSoakConfig cfg = base;
    cfg.pattern = TrafficPattern::kRetryStorm;
    cfg.fleet_size = 2;
    cfg.autoscale = false;
    cfg.execute = true;
    cfg.duration_s = std::min(base.duration_s, 0.5);
    cfg.base_hz = std::min(base.base_hz, 400.0);
    const FleetSoakResult r = vedliot::serve::run_fleet_soak(cfg);
    std::fprintf(stderr, "%-12s %5zu %8zu %9zu %6zu %9zu %7zu %2zu/%-3zu %7zu %8.4f\n",
                 "execute", cfg.fleet_size, r.report.offered, r.report.completed, r.report.shed,
                 r.report.cancelled, r.report.cache_hits, r.report.scale_ups,
                 r.report.scale_downs, r.report.batches, r.goodput());
    for (const std::string& v : r.violations) {
      std::fprintf(stderr, "  INVARIANT VIOLATION: %s\n", v.c_str());
      ok = false;
    }
    std::printf("%s\n", r.to_json().c_str());
  }

  // Determinism: the same seed must reproduce the first run bit for bit.
  {
    FleetSoakConfig again = base;
    again.pattern = patterns.front();
    again.fleet_size = sizes.front();
    again.autoscale = false;
    const FleetSoakResult rerun = vedliot::serve::run_fleet_soak(again);
    if (rerun.to_json() != first_pattern_sweep.front().to_json()) {
      std::fprintf(stderr, "  INVARIANT VIOLATION: re-run of seed 0x%llx diverged\n",
                   static_cast<unsigned long long>(base.seed));
      ok = false;
    }
  }

  // Batched-vs-per-request wall clock: the whole point of the batcher.
  {
    const double speedup = batching_speedup(quick ? 2 : 4);
    std::fprintf(stderr, "batching speedup at batch 8: %.2fx (floor 3x)\n", speedup);
    if (speedup < 3.0) {
      std::fprintf(stderr,
                   "  INVARIANT VIOLATION: batched throughput %.2fx < 3x per-request path\n",
                   speedup);
      ok = false;
    }
  }

  std::fprintf(stderr, ok ? "fleet soak OK: all invariants hold\n" : "fleet soak FAILED\n");
  return ok ? 0 : 1;
}
