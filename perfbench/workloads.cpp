#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "graph/cost.hpp"
#include "graph/zoo.hpp"
#include "obs/export.hpp"
#include "opt/fusion.hpp"
#include "runtime/session.hpp"
#include "serve/cache.hpp"
#include "serve/fleet.hpp"
#include "serve/queue.hpp"
#include "serve/traffic.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace vs = vedliot::serve;
namespace obs = vedliot::obs;
using Clock = std::chrono::steady_clock;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// -- workload parameters --------------------------------------------------------
// Rates are fixed numbers, not measured at run time, so every commit is
// offered the same load. They were sized on a 4-vCPU x86-64 KVM guest (AVX2,
// RelWithDebInfo) whose speed drifts by up to 1.5x with host load. One mnv3
// f32 request takes 16-25 ms on one thread plus ~1 ms of input synthesis, so
// 10 req/s keeps that core 0.2-0.3 busy: at half a core the tail percentile
// of a 20 s Poisson run (~400 samples) moves 20-30% from seed to seed alone.
// arc int8 runs at 400 req/s: the serving thread then drains the backlog of a
// 20 ms host stall within a few batch windows, so its median latency is set
// by the 2 ms batch window. Its tail still follows the host's speed, which
// sets how fast a storm's burst drains (README.md, Steadiness). A storm's
// first request is answered ~2.5 ms into its 3.1 ms burst at this load, and
// most of its repeats are cache reads.

constexpr int kResnetClients = 16;
constexpr std::uint64_t kResnetPool = 32;

constexpr double kMnv3RateHz = 10.0;
constexpr double kMnv3DeadlineS = 0.100;
constexpr std::uint64_t kMnv3Pool = 64;

constexpr double kArcRateHz = 400.0;
/// Admission queue bound of every wall-clock workload. The host this was
/// sized on stalls the serving thread for 10-40 ms at times; a stall that
/// meets a storm queues its whole burst, which 256 tickets absorb as latency.
constexpr std::size_t kQueueCapacity = 256;
constexpr double kArcBatchWindowS = 2e-3;
constexpr std::size_t kArcCacheCapacity = 128;
constexpr std::uint64_t kArcPool = 1024;
constexpr std::size_t kArcStormsPerSecond = 5;

constexpr double kFleetBaseHz = 2000.0;
/// Each run replays kFleetSlices flash-crowd slices of kFleetSliceS simulated
/// seconds, each with its own traffic seed. One 8 s slice per run left a
/// run's throughput at the mercy of one traffic draw and of 60 ms host
/// quiet spells; eight 2 s slices average eight draws and need 15 ms ones.
constexpr double kFleetSliceS = 2.0;
constexpr std::size_t kFleetSlices = 8;
constexpr int kFleetMinRounds = 3;

// Set-up repeats: at least kMinSetups, more while they stay cheap.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 1000;
constexpr double kSetupBudgetS = 3.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

obs::ScopedSpan span(obs::Tracer* trace, const char* name) {
  return trace != nullptr ? trace->span(name, "perfbench") : obs::ScopedSpan{};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Sleep most of the way to \p deadline, then spin: sub-millisecond
/// arrivals need better than scheduler-wake precision.
void wait_until(Clock::time_point deadline) {
  const auto coarse = deadline - std::chrono::microseconds(500);
  if (Clock::now() < coarse) std::this_thread::sleep_until(coarse);
  while (Clock::now() < deadline) {
  }
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  return vedliot::util::fnv1a64(std::to_string(seed) + "/" + std::to_string(stream));
}

/// Moves the calling thread over the CPUs it may run on, one per step(), and
/// restores its affinity when destroyed. On a shared host each vCPU's speed
/// follows whatever its physical core's other tenants do, and an unpinned
/// thread tends to stay on one vCPU for a whole run.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void step() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t saved_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Per-layer accumulator over the benchmark's own spans, keyed by name.
struct SpanStats {
  std::size_t count = 0;
  double total_us = 0;
};

/// Also collects the runtime.batch durations (ms) by bucket width.
std::map<std::string, SpanStats> span_stats(std::span<const obs::Span> spans,
                                            std::map<std::int64_t, std::vector<double>>& batch_ms) {
  std::map<std::string, SpanStats> out;
  for (const obs::Span& s : spans) {
    if (s.category != "perfbench") continue;
    SpanStats& st = out[s.name];
    ++st.count;
    st.total_us += s.duration_us();
    if (s.name != "runtime.batch") continue;
    for (const auto& [k, v] : s.num_attrs) {
      if (k == "width") batch_ms[static_cast<std::int64_t>(v)].push_back(s.duration_us() / 1e3);
    }
  }
  return out;
}

double per_op_us(const std::map<std::string, SpanStats>& st, std::initializer_list<const char*> names) {
  double total = 0;
  std::size_t n = 0;
  for (const char* name : names) {
    const auto it = st.find(name);
    if (it == st.end()) continue;
    total += it->second.total_us;
    n += it->second.count;
  }
  return n == 0 ? 0 : total / static_cast<double>(n);
}

double share(double part, double whole) { return whole > 0 ? part / whole : 0; }

// -- set-up -------------------------------------------------------------------

struct SetupSeries {
  std::vector<double> total, build, fuse, calibrate, prepare, warmup, fleet_ctor;
};

/// Call \p once (which returns the seconds it took) kMinSetups times, and
/// more while the total stays under kSetupBudgetS.
template <class F>
void repeat_setup(F&& once) {
  double spent = 0;
  for (int i = 0; i < kMaxSetups && (i < kMinSetups || spent < kSetupBudgetS); ++i) spent += once();
}

/// Deploy repeatedly (the previous deployment freed first, so peak memory
/// is one deployment's) and keep the last one.
Deployment deploy_repeated(const ModelSpec& spec, obs::Tracer* trace, SetupSeries& series) {
  // A one-thread deployment starts no thread, so set-up can move over the
  // CPUs; a pool's workers would inherit the single CPU their creator was on.
  std::optional<CpuRotation> cpus;
  if (spec.threads == 1) cpus.emplace();
  Deployment dep;
  repeat_setup([&] {
    if (cpus) cpus->step();
    dep = Deployment{};
    dep = deploy(spec, trace);
    const SetupTimes& t = dep.times;
    series.total.push_back(t.total());
    series.build.push_back(t.build_s);
    series.fuse.push_back(t.fuse_s);
    series.calibrate.push_back(t.calibrate_s);
    series.prepare.push_back(t.prepare_s);
    series.warmup.push_back(t.warmup_s);
    return t.total();
  });
  return dep;
}

// -- the serving loop -----------------------------------------------------------

/// What the serving loop counted, plus the raw per-request samples.
struct Tally {
  std::uint64_t offered = 0;
  std::uint64_t answered = 0;      ///< responses with a correct CRC (cache hits included)
  std::uint64_t in_deadline = 0;
  std::uint64_t shed = 0;
  std::uint64_t crc_mismatch = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t batches = 0;
  std::uint64_t lanes = 0;         ///< real lanes executed
  std::uint64_t pad_lanes = 0;
  std::map<std::int64_t, std::uint64_t> batches_by_width;
  std::vector<double> latency_ms;  ///< due -> CRC-stamped response; misses are +inf
  std::vector<double> queue_wait_ms;  ///< due -> batch dispatch
  std::vector<double> admit_lag_ms;
  double last_stamp_s = 0;
};

/// One generated request: the wire request plus when it was due.
struct Arrival {
  vs::Request wire;  ///< payload = pool handle, batch = lanes, deadline run-relative
  double due_s = 0;
  std::uint64_t tag = 0;  ///< closed loop: the client that sent it
};

/// Single-threaded serving front end: admission (cache, then queue),
/// coalescing into the batcher, CRC stamping against the golden table.
class Server {
 public:
  Server(Deployment& dep, const GoldenCrcs& golden, std::uint64_t input_seed,
         double batch_window_s, std::size_t cache_capacity, obs::Tracer* trace)
      : dep_(dep),
        golden_(golden),
        input_seed_(input_seed),
        window_s_(batch_window_s),
        queue_(vs::QueueConfig{kQueueCapacity}),
        cache_(cache_capacity),
        trace_(trace),
        start_(Clock::now()) {}

  double now() const { return seconds_since(start_); }
  Clock::time_point at(double t) const {
    return start_ + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(t));
  }

  void admit(const Arrival& a) {
    const double t = now();
    ++tally.offered;
    tally.admit_lag_ms.push_back((t - a.due_s) * 1e3);
    if (!a.wire.idempotency_key.empty()) {
      std::optional<vs::Response> hit;
      {
        auto sp = span(trace_, "serve.cache.get");
        hit = cache_.get(a.wire.idempotency_key);
      }
      if (hit) {
        ++tally.cache_hits;
        answer(a, hit->output_crc32, now());
        return;
      }
    }
    if (queue_.full()) {
      ++tally.shed;
      tally.latency_ms.push_back(kInf);
      return;
    }
    const std::uint64_t id = next_id_++;
    {
      auto sp = span(trace_, "serve.queue.push");
      queue_.push({id, a.wire.priority(), a.wire.deadline_s, 0, t});
    }
    pending_.emplace(id, a);
    queued_lanes_ += a.wire.batch;
    if (!window_close_) window_close_ = t + window_s_;
  }

  bool empty() const { return queue_.empty(); }
  double next_launch_s() const { return window_close_.value_or(kInf); }
  bool ready(double t) const {
    return !queue_.empty() &&
           (queued_lanes_ >= dep_.batcher->effective_max_batch() || t >= next_launch_s());
  }

  /// Coalesce queued requests (EDF) into one batch, run it, stamp each
  /// response with its output CRC.
  void dispatch() {
    const double t = now();
    const std::int64_t cap = dep_.batcher->effective_max_batch();
    std::vector<Arrival> group;
    std::int64_t lanes = 0;
    while (true) {
      std::optional<vs::Ticket> tk;
      {
        auto sp = span(trace_, "serve.queue.pop");
        tk = queue_.pop(t);
      }
      if (!tk) break;
      const auto it = pending_.find(tk->id);
      const std::int64_t b = it->second.wire.batch;
      if (lanes + b > cap) {
        auto sp = span(trace_, "serve.queue.push");
        queue_.push(*tk);  // does not fit; heads the next batch
        break;
      }
      tally.queue_wait_ms.push_back((t - it->second.due_s) * 1e3);
      group.push_back(it->second);
      pending_.erase(it);
      lanes += b;
    }
    queued_lanes_ -= lanes;

    std::vector<Tensor> inputs;
    inputs.reserve(group.size());
    for (const Arrival& a : group) {
      auto sp = span(trace_, "serve.synth");
      inputs.push_back(request_input(*dep_.graph, input_seed_, a.wire.payload, a.wire.batch));
    }
    const auto& widths = dep_.batcher->bucket_widths();
    const std::int64_t width = *std::lower_bound(widths.begin(), widths.end(), lanes);
    std::vector<Tensor> outputs;
    {
      auto sp = span(trace_, "runtime.batch");
      sp.attr("width", static_cast<double>(width));
      outputs = dep_.batcher->run(inputs);
    }
    ++tally.batches;
    ++tally.batches_by_width[width];
    tally.lanes += static_cast<std::uint64_t>(lanes);
    tally.pad_lanes += static_cast<std::uint64_t>(width - lanes);

    for (std::size_t i = 0; i < group.size(); ++i) {
      std::uint32_t crc = 0;
      {
        auto sp = span(trace_, "serve.crc");
        crc = vedliot::util::crc32(outputs[i].data());
      }
      const double stamp = now();
      const Arrival& a = group[i];
      answer(a, crc, stamp);
      if (!a.wire.idempotency_key.empty()) {
        vs::Response resp;
        resp.request_id = a.wire.id;
        resp.status = stamp <= a.wire.deadline_s ? vs::ResponseStatus::kOk
                                                 : vs::ResponseStatus::kLate;
        resp.time_s = stamp;
        resp.latency_s = stamp - a.due_s;
        resp.output_crc32 = crc;
        auto sp = span(trace_, "serve.cache.put");
        cache_.put(a.wire.idempotency_key, resp);
      }
    }
    if (queue_.empty()) {
      window_close_.reset();
    } else {
      window_close_ = now();  // the next batch launches as soon as this one is done
    }
  }

  /// (client tag, response stamp) of every answer since the last call.
  std::vector<std::pair<std::uint64_t, double>> take_answered() {
    return std::exchange(answered_, {});
  }

  Tally tally;

 private:
  void answer(const Arrival& a, std::uint32_t crc, double stamp) {
    if (!golden_.matches(a.wire.payload, a.wire.batch, crc)) {
      ++tally.crc_mismatch;
      tally.latency_ms.push_back(kInf);
    } else {
      ++tally.answered;
      tally.latency_ms.push_back((stamp - a.due_s) * 1e3);
      if (stamp <= a.wire.deadline_s) ++tally.in_deadline;
    }
    tally.last_stamp_s = std::max(tally.last_stamp_s, stamp);
    answered_.emplace_back(a.tag, stamp);
  }

  Deployment& dep_;
  const GoldenCrcs& golden_;
  std::uint64_t input_seed_;
  double window_s_;
  vs::AdmissionQueue queue_;
  vs::ResponseCache cache_;
  obs::Tracer* trace_;
  Clock::time_point start_;
  std::map<std::uint64_t, Arrival> pending_;  ///< queued, by ticket id
  std::int64_t queued_lanes_ = 0;
  std::optional<double> window_close_;
  std::uint64_t next_id_ = 1;
  std::vector<std::pair<std::uint64_t, double>> answered_;
};

/// Open loop: admit each arrival at its due time, regardless of progress.
void run_open_loop(Server& server, const std::vector<Arrival>& arrivals) {
  std::size_t next = 0;
  while (true) {
    const double t = server.now();
    while (next < arrivals.size() && arrivals[next].due_s <= t) server.admit(arrivals[next++]);
    if (server.ready(t)) {
      server.dispatch();
      continue;
    }
    if (next == arrivals.size() && server.empty()) break;
    const double wake =
        std::min(next < arrivals.size() ? arrivals[next].due_s : kInf, server.next_launch_s());
    wait_until(server.at(wake));
  }
}

/// Closed loop: every client resubmits the moment its response is
/// stamped; after \p seconds nobody resubmits and the queue drains.
void run_closed_loop(Server& server, int clients, double seconds,
                     const std::function<Arrival(std::uint64_t client, double due)>& next) {
  for (int c = 0; c < clients; ++c) server.admit(next(static_cast<std::uint64_t>(c), 0.0));
  while (!server.empty()) {
    server.dispatch();
    const auto answered = server.take_answered();
    if (server.now() >= seconds) continue;
    for (const auto& [client, stamp] : answered) server.admit(next(client, stamp));
  }
}

// -- per-op profile (traced runs) -------------------------------------------------

struct OpProfile {
  double conv_s = 0, conv_ops = 0;
  double dw_s = 0, dw_ops = 0;
  double small_s = 0, small_ops = 0;  ///< convs with output H*W <= 16
  double other_s = 0;
  double run_s = 0;                   ///< session.run spans
  double nodes_s = 0;                 ///< node spans inside them
  double stack_split_s = 0;           ///< run_batch minus session.run
  double calls = 0;                   ///< weighted run_batch calls
  double traced_s = 0, untraced_s = 0;
};

/// Run every bucket width the workload used on sessions built with
/// BenchOptions::trace, and aggregate the node spans by op class, weighting
/// each width by the number of batches the serving loop ran at it. The
/// same run_batch calls on the (untraced) bucket session give the tracing
/// overhead.
OpProfile profile_ops(const Deployment& dep, const std::map<std::int64_t, std::uint64_t>& batches,
                      std::uint64_t input_seed, obs::Tracer& trace) {
  OpProfile p;
  for (const auto& [width, count] : batches) {
    const Graph gw = vedliot::rebatched(*dep.graph, width);
    vedliot::runtime::RunOptions opts;
    opts.trace = &trace;
    opts.exec = dep.batcher->exec_config();
    opts.exec.max_batch = width;
    auto traced = dep.spec.quantized ? vedliot::runtime::make_quantized_session(gw, opts)
                                     : vedliot::runtime::make_session(gw, opts);
    vedliot::runtime::Session& untraced = dep.batcher->bucket_session(width);
    std::vector<Tensor> lanes;
    for (std::int64_t i = 0; i < width; ++i) {
      lanes.push_back(request_input(*dep.graph, input_seed, static_cast<std::uint64_t>(i + 1), 1));
    }
    (void)traced->run_batch(lanes);  // warm both before timing
    (void)untraced.run_batch(lanes);
    const std::size_t mark = trace.spans().size();
    int runs = 0;
    double traced_s = 0, untraced_s = 0;
    const auto t_start = Clock::now();
    while (runs < 3 || (seconds_since(t_start) < 0.25 && runs < 100)) {
      auto t0 = Clock::now();
      {
        auto sp = span(&trace, "runtime.run_batch");
        sp.attr("width", static_cast<double>(width));
        (void)traced->run_batch(lanes);
      }
      traced_s += seconds_since(t0);
      t0 = Clock::now();
      (void)untraced.run_batch(lanes);
      untraced_s += seconds_since(t0);
      ++runs;
    }

    const double w = static_cast<double>(count) / runs;
    const std::span<const obs::Span> spans = trace.spans();
    std::size_t run_index = obs::Span::kNoParent;
    for (std::size_t i = mark; i < spans.size(); ++i) {
      const obs::Span& s = spans[i];
      const double sec = s.duration_us() / 1e6;
      if (s.name == "runtime.run_batch") {
        p.stack_split_s += w * sec;
        p.calls += w;
      } else if (s.name == "session.run") {
        run_index = i;
        p.run_s += w * sec;
        p.stack_split_s -= w * sec;
      } else if (s.parent == run_index) {
        p.nodes_s += w * sec;
        const vedliot::NodeId id = gw.find(s.name);
        const vedliot::Node& n = gw.node(id);
        if (n.kind != vedliot::OpKind::kConv2d) {
          p.other_s += w * sec;
          continue;
        }
        const double ops = static_cast<double>(vedliot::node_cost(gw, id).ops);
        if (n.attrs.get_int_or("groups", 1) > 1) {
          p.dw_s += w * sec;
          p.dw_ops += w * ops;
        } else {
          p.conv_s += w * sec;
          p.conv_ops += w * ops;
        }
        const auto& d = n.out_shape.dims();
        if (d.size() == 4 && d[2] * d[3] <= 16) {
          p.small_s += w * sec;
          p.small_ops += w * ops;
        }
      }
    }
    p.traced_s += w * traced_s;
    p.untraced_s += w * untraced_s;
  }
  return p;
}

// -- result assembly ------------------------------------------------------------------

struct Record {
  RunResult result;
  void metric(const std::string& name, double value, const std::string& unit) {
    result.metrics.push_back({name, value, unit});
  }
  void note(const std::string& line) { result.notes.push_back(line); }
};

std::string fmt(double v, int digits = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

/// A miss at the reported rank is written as 1e9 ms: the JSON record
/// cannot carry infinity.
double finite_ms(double v) { return std::isfinite(v) ? v : 1e9; }

/// The latency percentiles with their sample counts, as human lines. The
/// tail is not an end-to-end metric: on a shared host it follows the host's
/// speed (see README.md), so only the traced run carries it, per layer.
void latency_notes(Record& rec, const std::vector<double>& latency_ms) {
  const Tail tail = tail_percentile(latency_ms);
  rec.note("latency p50 " + fmt(finite_ms(median(latency_ms))) + " ms of n=" +
           std::to_string(latency_ms.size()));
  rec.note("latency p" + fmt(tail.quantile * 100, 2) + " " + fmt(finite_ms(tail.value)) +
           " ms of n=" + std::to_string(tail.n) + " (" + std::to_string(tail.beyond) +
           " samples beyond)");
}

void end_to_end(Record& rec, const std::vector<double>& latency_ms, double throughput_rps,
                double goodput, const SetupSeries& setup) {
  rec.metric("throughput_rps", throughput_rps, "1/s");
  rec.metric("latency_p50_ms", finite_ms(median(latency_ms)), "ms");
  rec.metric("goodput", goodput, "ratio");
  rec.metric("setup_s", median(setup.total), "s");
  rec.metric("peak_rss_mb", peak_rss_mb(), "MB");
  rec.note("setup_s: median of " + std::to_string(setup.total.size()) + " set-ups");
}

/// Every per-layer metric; a layer a workload does not exercise stays 0.
struct Layers {
  double batch_ms[4] = {};  ///< widths 1, 2, 4, 8
  double lane_ms = 0, gops = 0, busy_share = 0;
  double conv_share = 0, conv_gops = 0, conv_roof = 0;
  double dw_share = 0, dw_gops = 0, dw_roof = 0;
  double small_gops = 0, small_roof = 0, other_share = 0;
  double overhead_share = 0, stack_split_ms = 0;
  double queue_wait_p50 = 0, queue_wait_p99 = 0, admit_lag_p99 = 0;
  double batch_lanes_mean = 0, pad_share = 0;
  double synth_us = 0, crc_us = 0, queue_us = 0, cache_us = 0;
  double cache_hit_share = 0, shed_share = 0, cancelled_share = 0;
  double fleet_events = 0, fleet_batches = 0, fleet_padded = 0, fleet_cache_hits = 0,
         fleet_scale_ups = 0, fleet_max_replicas = 0;
  double trace_overhead_share = 0;
  double latency_p99_ms = 0;
};

void per_layer(Record& rec, const SetupSeries& s, const Layers& l) {
  const auto med = [](const std::vector<double>& v) { return v.empty() ? 0.0 : median(v); };
  rec.metric("graph.build_s", med(s.build), "s");
  rec.metric("opt.fuse_s", med(s.fuse), "s");
  rec.metric("opt.calibrate_s", med(s.calibrate), "s");
  rec.metric("runtime.prepare_s", med(s.prepare), "s");
  rec.metric("runtime.warmup_s", med(s.warmup), "s");
  rec.metric("fleet.ctor_s", med(s.fleet_ctor), "s");
  for (int i = 0; i < 4; ++i) {
    rec.metric("runtime.batch_ms.w" + std::to_string(1 << i), l.batch_ms[i], "ms");
  }
  rec.metric("runtime.lane_ms", l.lane_ms, "ms");
  rec.metric("runtime.gops", l.gops, "Gop/s");
  rec.metric("runtime.busy_share", l.busy_share, "ratio");
  rec.metric("runtime.op.conv.share", l.conv_share, "ratio");
  rec.metric("runtime.op.conv.gflops", l.conv_gops, "Gop/s");
  rec.metric("runtime.op.conv.roof_fraction", l.conv_roof, "ratio");
  rec.metric("runtime.op.conv_dw.share", l.dw_share, "ratio");
  rec.metric("runtime.op.conv_dw.gflops", l.dw_gops, "Gop/s");
  rec.metric("runtime.op.conv_dw.roof_fraction", l.dw_roof, "ratio");
  rec.metric("runtime.op.conv_hw_le16.gflops", l.small_gops, "Gop/s");
  rec.metric("runtime.op.conv_hw_le16.roof_fraction", l.small_roof, "ratio");
  rec.metric("runtime.op.other.share", l.other_share, "ratio");
  rec.metric("runtime.overhead_share", l.overhead_share, "ratio");
  rec.metric("runtime.stack_split_ms", l.stack_split_ms, "ms");
  rec.metric("serve.latency_p99_ms", l.latency_p99_ms, "ms");
  rec.metric("serve.queue_wait_ms.p50", l.queue_wait_p50, "ms");
  rec.metric("serve.queue_wait_ms.p99", l.queue_wait_p99, "ms");
  rec.metric("serve.admit_lag_ms.p99", l.admit_lag_p99, "ms");
  rec.metric("serve.batch_lanes_mean", l.batch_lanes_mean, "lanes");
  rec.metric("serve.pad_share", l.pad_share, "ratio");
  rec.metric("serve.synth_us_per_req", l.synth_us, "us");
  rec.metric("serve.crc_us_per_req", l.crc_us, "us");
  rec.metric("serve.queue_us_per_op", l.queue_us, "us");
  rec.metric("serve.cache_us_per_op", l.cache_us, "us");
  rec.metric("serve.cache_hit_share", l.cache_hit_share, "ratio");
  rec.metric("serve.shed_share", l.shed_share, "ratio");
  rec.metric("serve.cancelled_share", l.cancelled_share, "ratio");
  rec.metric("fleet.events", l.fleet_events, "count");
  rec.metric("fleet.batches", l.fleet_batches, "count");
  rec.metric("fleet.padded_lanes", l.fleet_padded, "count");
  rec.metric("fleet.cache_hits", l.fleet_cache_hits, "count");
  rec.metric("fleet.scale_ups", l.fleet_scale_ups, "count");
  rec.metric("fleet.max_replicas", l.fleet_max_replicas, "count");
  rec.metric("obs.trace_overhead_share", l.trace_overhead_share, "ratio");
}

/// Per-layer figures of a wall-clock workload's traced run: the benchmark's
/// spans of the serving loop, the loop's counts and the op profile.
Layers serving_layers(const Deployment& dep, const Tally& t, double window_s,
                      std::span<const obs::Span> serve_spans, const OpProfile& ops,
                      const HostIdentity& host) {
  Layers l;
  std::map<std::int64_t, std::vector<double>> batch_ms;
  const auto st = span_stats(serve_spans, batch_ms);
  for (int i = 0; i < 4; ++i) {
    const auto it = batch_ms.find(std::int64_t{1} << i);
    if (it != batch_ms.end()) l.batch_ms[i] = median(it->second);
  }
  const auto batch_it = st.find("runtime.batch");
  const double exec_s = batch_it == st.end() ? 0.0 : batch_it->second.total_us / 1e6;
  const auto lanes = static_cast<double>(t.lanes);
  const auto macs = static_cast<double>(vedliot::graph_cost(*dep.graph).macs);
  l.lane_ms = lanes > 0 ? exec_s * 1e3 / lanes : 0.0;
  l.gops = exec_s > 0 ? 2.0 * macs * lanes / exec_s / 1e9 : 0.0;
  l.busy_share = share(exec_s, window_s);

  const double roof = (dep.spec.quantized ? host.s8_gops.max : host.f32_gflops.max) *
                      std::min<double>(dep.spec.threads, std::max(1u, host.nproc));
  const auto rate = [](double op_count, double s) { return s > 0 ? op_count / s / 1e9 : 0.0; };
  l.conv_share = share(ops.conv_s, ops.nodes_s);
  l.conv_gops = rate(ops.conv_ops, ops.conv_s);
  l.conv_roof = share(l.conv_gops, roof);
  l.dw_share = share(ops.dw_s, ops.nodes_s);
  l.dw_gops = rate(ops.dw_ops, ops.dw_s);
  l.dw_roof = share(l.dw_gops, roof);
  l.small_gops = rate(ops.small_ops, ops.small_s);
  l.small_roof = share(l.small_gops, roof);
  l.other_share = share(ops.other_s, ops.nodes_s);
  l.overhead_share = share(ops.run_s - ops.nodes_s, ops.run_s);
  l.stack_split_ms = ops.calls > 0 ? ops.stack_split_s * 1e3 / ops.calls : 0.0;
  l.trace_overhead_share = ops.untraced_s > 0 ? ops.traced_s / ops.untraced_s - 1 : 0.0;

  const auto offered = static_cast<double>(t.offered);
  l.latency_p99_ms = finite_ms(tail_percentile(t.latency_ms).value);
  l.queue_wait_p50 = percentile(t.queue_wait_ms, 0.5);
  l.queue_wait_p99 = tail_percentile(t.queue_wait_ms).value;
  l.admit_lag_p99 = tail_percentile(t.admit_lag_ms).value;
  l.batch_lanes_mean = share(lanes, static_cast<double>(t.batches));
  l.pad_share = share(static_cast<double>(t.pad_lanes), lanes + static_cast<double>(t.pad_lanes));
  l.synth_us = per_op_us(st, {"serve.synth"});
  l.crc_us = per_op_us(st, {"serve.crc"});
  l.queue_us = per_op_us(st, {"serve.queue.push", "serve.queue.pop"});
  l.cache_us = per_op_us(st, {"serve.cache.get", "serve.cache.put"});
  l.cache_hit_share = share(static_cast<double>(t.cache_hits), offered);
  l.shed_share = share(static_cast<double>(t.shed), offered);
  return l;
}

/// Shared body of the three wall-clock workloads: deploy, compute the
/// golden CRCs (outside setup_s), serve, report.
RunResult serve_workload(const BenchOptions& o, const ModelSpec& spec, double batch_window_s,
                         std::size_t cache_capacity, const std::vector<Arrival>& open_arrivals,
                         const std::function<Arrival(std::uint64_t, double)>* closed_next,
                         const std::vector<std::pair<std::uint64_t, std::int64_t>>& golden_keys) {
  obs::Tracer tracer;
  obs::Tracer* trace = o.trace ? &tracer : nullptr;
  Record rec;
  SetupSeries setup;
  Deployment dep = deploy_repeated(spec, trace, setup);
  const std::uint64_t input_seed = derive(o.seed, 1);
  const GoldenCrcs golden(dep, input_seed, golden_keys);

  const std::size_t serve_mark = tracer.spans().size();
  Server server(dep, golden, input_seed, batch_window_s, cache_capacity, trace);
  if (closed_next != nullptr) {
    run_closed_loop(server, kResnetClients, o.seconds, *closed_next);
  } else {
    run_open_loop(server, open_arrivals);
  }
  const Tally& t = server.tally;
  const double window_s = t.last_stamp_s;

  if (!o.trace) {
    end_to_end(rec, t.latency_ms, share(static_cast<double>(t.answered), window_s),
               share(static_cast<double>(t.in_deadline), static_cast<double>(t.offered)), setup);
  } else {
    const std::size_t serve_end = tracer.spans().size();
    const OpProfile ops = profile_ops(dep, t.batches_by_width, input_seed, tracer);
    per_layer(rec, setup,
              serving_layers(dep, t, window_s,
                             tracer.spans().subspan(serve_mark, serve_end - serve_mark), ops,
                             o.host));
    if (!o.trace_path.empty()) obs::write_chrome_trace(o.trace_path, tracer.spans());
  }
  latency_notes(rec, t.latency_ms);
  rec.result.attempted = t.offered;
  rec.result.failed = t.shed + t.crc_mismatch;
  rec.result.correct = t.crc_mismatch == 0;
  rec.note("offered " + std::to_string(t.offered) + ", answered " + std::to_string(t.answered) +
           " (" + std::to_string(t.cache_hits) + " from cache), shed " + std::to_string(t.shed) +
           ", crc mismatches " + std::to_string(t.crc_mismatch) + ", failed_share " +
           fmt(share(static_cast<double>(rec.result.failed), static_cast<double>(t.offered)), 6));
  return rec.result;
}

std::vector<std::pair<std::uint64_t, std::int64_t>> pool_keys(std::uint64_t pool) {
  std::vector<std::pair<std::uint64_t, std::int64_t>> keys;
  for (std::uint64_t h = 1; h <= pool; ++h) keys.emplace_back(h, 1);
  return keys;
}

// -- the four workloads ---------------------------------------------------------------

RunResult resnet50_int8_batched(const BenchOptions& o) {
  vedliot::Rng rng(derive(o.seed, 2));
  std::uint64_t serial = 0;
  const std::function<Arrival(std::uint64_t, double)> next = [&](std::uint64_t client,
                                                                 double due) {
    Arrival a;
    a.wire.id = ++serial;
    a.wire.payload = 1 + static_cast<std::uint64_t>(rng.uniform_int(0, kResnetPool - 1));
    a.wire.batch = 1;
    a.wire.priority_class = vs::PriorityClass::kBatch;
    a.wire.deadline_s = kInf;  // throughput traffic: no deadline
    a.due_s = due;
    a.tag = client;
    return a;
  };
  return serve_workload(o, {"resnet50", true, 8, 2}, 0.0, 1, {}, &next, pool_keys(kResnetPool));
}

RunResult mnv3_f32_interactive(const BenchOptions& o) {
  // Poisson arrivals conditioned on their count: the offered load is exactly
  // rate x seconds, so throughput does not move with the seed.
  vedliot::Rng rng(derive(o.seed, 2));
  const auto n = static_cast<std::size_t>(std::llround(kMnv3RateHz * o.seconds));
  std::vector<double> due(n);
  for (double& d : due) d = rng.uniform(0.0, o.seconds);
  std::sort(due.begin(), due.end());
  std::vector<Arrival> arrivals;
  for (std::size_t i = 0; i < n; ++i) {
    Arrival a;
    a.wire.id = i + 1;
    a.wire.payload = 1 + static_cast<std::uint64_t>(rng.uniform_int(0, kMnv3Pool - 1));
    a.wire.batch = 1;
    a.wire.priority_class = vs::PriorityClass::kInteractive;
    a.wire.deadline_s = due[i] + kMnv3DeadlineS;
    a.due_s = due[i];
    arrivals.push_back(a);
  }
  return serve_workload(o, {"mobilenet_v3_large", false, 1, 1}, 0.0, 1, arrivals, nullptr,
                        pool_keys(kMnv3Pool));
}

RunResult arc_int8_storm(const BenchOptions& o) {
  vs::TrafficConfig tc;
  tc.pattern = vs::TrafficPattern::kRetryStorm;
  tc.duration_s = o.seconds;
  tc.base_hz = kArcRateHz;
  tc.storm_count = kArcStormsPerSecond * static_cast<std::size_t>(std::max(1.0, o.seconds));
  tc.seed = derive(o.seed, 2);
  std::vector<Arrival> arrivals;
  std::vector<std::pair<std::uint64_t, std::int64_t>> keys;
  for (vs::Request r : vs::generate_traffic(tc)) {
    Arrival a;
    // Payload handles fold onto a pool with precomputed golden CRCs; equal
    // handles still mean equal inputs.
    r.payload = 1 + r.payload % kArcPool;
    // The generator draws lanes independently of the idempotency key; a key
    // must name one piece of work, so a 2-lane request gets its own key.
    if (!r.idempotency_key.empty() && r.batch > 1) r.idempotency_key += "/x" + std::to_string(r.batch);
    r.id = arrivals.size() + 1;
    a.due_s = r.arrival_s;
    keys.emplace_back(r.payload, r.batch);
    a.wire = std::move(r);
    arrivals.push_back(std::move(a));
  }
  return serve_workload(o, {"arc_net", true, 8, 1}, kArcBatchWindowS, kArcCacheCapacity, arrivals,
                        nullptr, keys);
}

RunResult fleet_sim_flash(const BenchOptions& o) {
  obs::Tracer tracer;
  obs::Tracer* trace = o.trace ? &tracer : nullptr;
  Record rec;

  /// One traffic slice, replayed through a fresh fleet on every repetition.
  struct Slice {
    std::vector<vs::Request> traffic;
    std::string first_json;
    vs::FleetReport first;  ///< report of the first repetition
    double fastest_ms = kInf;
  };
  std::vector<Slice> slices(kFleetSlices);
  for (std::size_t k = 0; k < slices.size(); ++k) {
    vs::TrafficConfig tc;
    tc.pattern = vs::TrafficPattern::kFlashCrowd;
    tc.duration_s = kFleetSliceS;
    tc.base_hz = kFleetBaseHz;
    tc.seed = derive(o.seed, 2 + k);
    slices[k].traffic = vs::generate_traffic(tc);
  }

  const auto config_for = [&](const Graph& g) {
    vs::FleetConfig cfg;
    cfg.graph = &g;
    cfg.execute = false;
    cfg.max_batch = 8;
    cfg.min_replicas = 1;
    cfg.initial_replicas = 2;
    cfg.max_replicas = 16;
    cfg.seed = o.seed;
    return cfg;
  };

  // Set-up: the analytic deploy graph (no weights: execute = false never
  // runs it) and the fleet's perf tables. Nothing here or in the analytic
  // fleet starts a thread, so moving this one over the CPUs is safe.
  CpuRotation cpus;
  SetupSeries setup;
  std::unique_ptr<Graph> graph;
  repeat_setup([&] {
    cpus.step();
    double build = 0, fuse = 0, ctor = 0;
    {
      Phase p(trace, "graph.build", build);
      graph = std::make_unique<Graph>(vedliot::zoo::resnet50(1, 10, 64));
    }
    {
      Phase p(trace, "opt.fuse", fuse);
      vedliot::opt::FuseBatchNormPass bn;
      bn.run(*graph);
      vedliot::opt::FuseActivationPass act;
      act.run(*graph);
    }
    {
      Phase p(trace, "fleet.ctor", ctor);
      const vs::Fleet fleet(config_for(*graph));
    }
    setup.build.push_back(build);
    setup.fuse.push_back(fuse);
    setup.fleet_ctor.push_back(ctor);
    setup.total.push_back(build + fuse + ctor);
    return build + fuse + ctor;
  });

  // Measure: rounds over the slices, each slice through a fresh fleet. Every
  // repetition of a slice must produce the identical report (the engine is
  // deterministic) and account for every offered request.
  std::vector<double> run_ms;
  std::uint64_t bad_runs = 0;
  const auto t_start = Clock::now();
  for (int round = 0; round < kFleetMinRounds || seconds_since(t_start) < o.seconds; ++round) {
    cpus.step();
    for (Slice& sl : slices) {
      vs::FleetReport rep;
      {
        std::optional<vs::Fleet> fleet;
        {
          auto sp = span(trace, "fleet.ctor");
          fleet.emplace(config_for(*graph));
        }
        {
          auto sp = span(trace, "fleet.submit");
          for (const vs::Request& r : sl.traffic) fleet->submit(r);
        }
        double s = 0;
        {
          Phase p(trace, "fleet.run", s);
          rep = fleet->run(kFleetSliceS);
        }
        run_ms.push_back(s * 1e3);
        sl.fastest_ms = std::min(sl.fastest_ms, s * 1e3);
      }
      const std::size_t accounted =
          rep.completed + rep.deadline_missed + rep.shed + rep.cancelled;
      std::string json = rep.to_json();
      const bool ok = rep.offered == sl.traffic.size() && rep.responses.size() == rep.offered &&
                      accounted == rep.offered && (round == 0 || json == sl.first_json);
      if (!ok) ++bad_runs;
      if (round == 0) {
        sl.first_json = std::move(json);
        sl.first = std::move(rep);
      }
    }
  }

  rec.result.attempted = run_ms.size();
  rec.result.failed = bad_runs;
  rec.result.correct = bad_runs == 0;

  // The slices' reports summed. Latency is the simulated one: what a client
  // of the simulated fleet waits, fixed for a seed. Shed and cancelled
  // requests are misses.
  Layers l;
  double offered = 0, in_deadline = 0, resolved = 0, fastest_s = 0, lanes = 0, shed = 0,
         cancelled = 0;
  std::vector<double> latency_ms;
  for (const Slice& sl : slices) {
    const vs::FleetReport& r = sl.first;
    offered += static_cast<double>(r.offered);
    in_deadline += r.goodput() * static_cast<double>(r.offered);
    resolved += static_cast<double>(r.responses.size());
    fastest_s += sl.fastest_ms / 1e3;
    lanes += static_cast<double>(r.lanes);
    l.fleet_padded += static_cast<double>(r.padded_lanes);
    l.fleet_batches += static_cast<double>(r.batches);
    l.fleet_cache_hits += static_cast<double>(r.cache_hits);
    l.fleet_events += static_cast<double>(r.events.size());
    l.fleet_scale_ups += static_cast<double>(r.scale_ups);
    l.fleet_max_replicas = std::max(l.fleet_max_replicas, static_cast<double>(r.max_replicas));
    shed += static_cast<double>(r.shed);
    cancelled += static_cast<double>(r.cancelled);
    for (const vs::Response& resp : r.responses) {
      const bool delivered = resp.status == vs::ResponseStatus::kOk ||
                             resp.status == vs::ResponseStatus::kLate;
      latency_ms.push_back(delivered ? resp.latency_s * 1e3 : kInf);
    }
  }
  // Every repetition of a slice does the same work, so the engine's speed is
  // that of each slice's fastest repetition: on a shared host the median
  // repetition follows the other tenants' load (it drifted 1.5x between runs
  // of one seed), and short repetitions, interleaved over the whole run, are
  // the likeliest to find the host quiet.
  rec.note("Fleet::run: " + std::to_string(slices.size()) + " slices, fastest repetitions sum to " +
           fmt(fastest_s * 1e3) + " ms, median repetition " + fmt(median(run_ms)) + " ms of n=" +
           std::to_string(run_ms.size()));
  if (!o.trace) {
    end_to_end(rec, latency_ms, resolved / fastest_s, share(in_deadline, offered), setup);
  } else {
    l.batch_lanes_mean = share(lanes, l.fleet_batches);
    l.pad_share = share(l.fleet_padded, lanes + l.fleet_padded);
    l.cache_hit_share = share(l.fleet_cache_hits, offered);
    l.shed_share = share(shed, offered);
    l.cancelled_share = share(cancelled, offered);
    l.latency_p99_ms = finite_ms(tail_percentile(latency_ms).value);
    per_layer(rec, setup, l);
    if (!o.trace_path.empty()) obs::write_chrome_trace(o.trace_path, tracer.spans());
  }
  latency_notes(rec, latency_ms);
  rec.note("fleet: " + std::to_string(run_ms.size()) + " runs over " +
           fmt(offered, 0) + " simulated requests, " + std::to_string(bad_runs) +
           " inconsistent; simulated goodput " + fmt(share(in_deadline, offered), 4) +
           ", simulated shed + cancelled share " + fmt(share(shed + cancelled, offered), 4));
  return rec.result;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"resnet50_int8_batched", "mnv3_f32_interactive",
                                                 "arc_int8_storm", "fleet_sim_flash"};
  return names;
}

RunResult run_workload(const BenchOptions& o) {
  if (o.workload == "resnet50_int8_batched") return resnet50_int8_batched(o);
  if (o.workload == "mnv3_f32_interactive") return mnv3_f32_interactive(o);
  if (o.workload == "arc_int8_storm") return arc_int8_storm(o);
  if (o.workload == "fleet_sim_flash") return fleet_sim_flash(o);
  throw vedliot::InvalidArgument("unknown workload " + o.workload);
}

}  // namespace perfbench
