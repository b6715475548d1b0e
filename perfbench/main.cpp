// Serving benchmark: runs one workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>] [--commit <id>] [--source-digest <hex>]
//
// Prints human-readable lines, then a host/build identity record, then the
// result record as the last line. Exits 0 when every output was correct,
// 1 when the correctness gate failed, 2 on a usage or run error (no record).

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

constexpr int kRoofProbes = 5;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-dir <dir>] [--commit <id>] [--source-digest <hex>]\n"
               "workloads:",
               why.c_str());
  for (const std::string& w : perfbench::workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::BenchOptions opts;
  std::string trace_dir, commit = "unknown", digest = "unknown";
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) usage("missing value for " + arg);
      const std::string value = argv[++i];
      if (arg == "--workload") {
        opts.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        opts.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value);
        if (!(opts.seconds > 0)) usage("--seconds must be positive");
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opts.trace = value == "1";
      } else if (arg == "--trace-dir") {
        trace_dir = value;
      } else if (arg == "--commit") {
        commit = value;
      } else if (arg == "--source-digest") {
        digest = value;
      } else {
        usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception& e) {
    usage(std::string("bad argument value: ") + e.what());
  }
  if (!have_workload) usage("--workload is required");

  try {
    opts.host = perfbench::probe_host(commit, digest, kRoofProbes);
    if (opts.trace && !trace_dir.empty()) {
      opts.trace_path = trace_dir + "/" + opts.workload + ".trace.json";  // latest run only
    }
    const perfbench::RunResult r = perfbench::run_workload(opts);
    std::printf("workload %s seed %llu seconds %g trace %d\n", opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds, opts.trace ? 1 : 0);
    for (const perfbench::Metric& m : r.metrics) {
      std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    for (const std::string& line : r.notes) std::printf("  %s\n", line.c_str());
    if (!opts.trace_path.empty()) std::printf("  chrome trace: %s\n", opts.trace_path.c_str());
    std::printf("%s\n", perfbench::host_json(opts.host).c_str());
    std::printf("%s\n", perfbench::result_json(r).c_str());
    std::fflush(stdout);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(), e.what());
    return 2;
  }
}
