#include "serve/fleet_soak.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "graph/zoo.hpp"
#include "obs/json.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace vedliot::serve {

namespace {

/// Independent stream seeds (same scheme as soak.cpp): the traffic must be
/// identical across fleet sizes for the monotonicity check, and weight
/// materialization must not perturb it.
constexpr std::uint64_t kLoadStream = 0xA11CEull;
constexpr std::uint64_t kWeightStream = 0x3E16Dull;

void check_conservation(const FleetSoakConfig& cfg, const FleetReport& report,
                        const std::vector<std::uint64_t>& ids,
                        std::vector<std::string>& violations) {
  (void)cfg;
  if (report.responses.size() != report.offered) {
    violations.push_back("conservation: " + std::to_string(report.responses.size()) +
                         " responses for " + std::to_string(report.offered) + " offered");
    return;
  }
  const std::size_t accounted =
      report.completed + report.deadline_missed + report.shed + report.cancelled;
  if (accounted != report.offered) {
    violations.push_back("conservation: status counts sum to " + std::to_string(accounted) +
                         " != offered " + std::to_string(report.offered));
  }
  std::map<std::uint64_t, std::size_t> seen;
  for (const Response& r : report.responses) ++seen[r.request_id];
  for (const std::uint64_t id : ids) {
    const auto it = seen.find(id);
    if (it == seen.end() || it->second != 1) {
      violations.push_back("conservation: request " + std::to_string(id) + " has " +
                           std::to_string(it == seen.end() ? 0 : it->second) +
                           " terminal responses");
      return;  // one example is enough; the log would otherwise explode
    }
  }
}

void check_deadlines(const FleetReport& report,
                     const std::map<std::uint64_t, double>& deadline_of,
                     std::vector<std::string>& violations) {
  if (report.deadline_missed != 0) {
    violations.push_back("capacity honesty: " + std::to_string(report.deadline_missed) +
                         " responses delivered late (the fleet must cancel instead)");
  }
  for (const Response& r : report.responses) {
    if (r.status != ResponseStatus::kOk) continue;
    const double deadline = deadline_of.at(r.request_id);
    if (r.time_s > deadline + 1e-12) {
      violations.push_back("capacity honesty: request " + std::to_string(r.request_id) +
                           " marked ok at " + std::to_string(r.time_s) + "s past deadline " +
                           std::to_string(deadline) + "s");
      return;
    }
  }
}

void check_bounds(const FleetSoakConfig& cfg, const FleetReport& report,
                  std::vector<std::string>& violations) {
  if (report.max_queue_depth > cfg.queue_capacity) {
    violations.push_back("bounded queues: depth " + std::to_string(report.max_queue_depth) +
                         " exceeded capacity " + std::to_string(cfg.queue_capacity));
  }
  if (report.max_replicas > cfg.fleet_size) {
    violations.push_back("replica bound: " + std::to_string(report.max_replicas) +
                         " replicas exceeded fleet size " + std::to_string(cfg.fleet_size));
  }
}

void check_observability(const FleetReport& report, const obs::Tracer& tracer,
                         const obs::MetricsRegistry& metrics,
                         std::vector<std::string>& violations) {
  std::vector<const obs::Span*> mirrored;
  for (const obs::Span& sp : tracer.spans()) {
    if (sp.category == "vedliot.fleet") mirrored.push_back(&sp);
  }
  if (mirrored.size() != report.events.size()) {
    violations.push_back("tracer mirror count " + std::to_string(mirrored.size()) +
                         " != event count " + std::to_string(report.events.size()));
    return;
  }
  for (std::size_t i = 0; i < mirrored.size(); ++i) {
    const std::string expect(serve_event_name(report.events[i].kind));
    if (mirrored[i]->name != expect) {
      violations.push_back("tracer mirror out of order at event " + std::to_string(i) + ": " +
                           mirrored[i]->name + " != " + expect);
      return;
    }
  }
  std::map<std::string, std::uint64_t> counts;
  for (const ServeEvent& e : report.events) {
    ++counts["vedliot.fleet." + std::string(serve_event_name(e.kind))];
  }
  for (const auto& [name, count] : counts) {
    if (!metrics.has_counter(name) || metrics.counters().at(name).value() != count) {
      violations.push_back("counter " + name + " != event count " + std::to_string(count));
    }
  }
  for (const auto& [name, counter] : metrics.counters()) {
    if (name.rfind("vedliot.fleet.", 0) == 0 && !counts.count(name)) {
      violations.push_back("counter " + name + " has no matching events");
    }
  }
}

void check_power(const FleetReport& report, std::vector<std::string>& violations) {
  constexpr double kEps = 1e-9;
  for (const auto& sp : report.power) {
    if (sp.avg_power_w() > sp.budget_w + kEps) {
      violations.push_back("power honesty: " + sp.replica + " at " + sp.slot + " averaged " +
                           std::to_string(sp.avg_power_w()) + " W against slot budget " +
                           std::to_string(sp.budget_w) + " W");
    }
    if (sp.avg_power_w() > sp.module_cap_w + kEps) {
      violations.push_back("power honesty: " + sp.replica + " averaged " +
                           std::to_string(sp.avg_power_w()) + " W over its module envelope " +
                           std::to_string(sp.module_cap_w) + " W");
    }
  }
}

void check_batches(const FleetSoakConfig& cfg, const FleetReport& report,
                   std::vector<std::string>& violations) {
  for (const ServeEvent& e : report.events) {
    if (e.kind != ServeEventKind::kBatchExecuted) continue;
    if (e.value > static_cast<double>(cfg.max_batch)) {
      violations.push_back("batch honesty: " + std::to_string(e.value) + " lanes on " +
                           e.subject + " exceeded the configured cap " +
                           std::to_string(cfg.max_batch));
    }
  }
}

/// Execute-mode invariant 6b: a sample of batched outputs, re-run as
/// singleton sessions over the same synthesized inputs, must match
/// CRC-for-CRC — lane independence makes batching invisible bitwise.
void check_batched_equality(const FleetSoakConfig& cfg, const Graph& model,
                            const FleetReport& report,
                            const std::map<std::uint64_t, Request>& requests,
                            std::vector<std::string>& violations) {
  // One reference session runs every request at its own batch.
  const std::unique_ptr<runtime::Session> session = runtime::make_session(model, {});
  std::size_t checked = 0;
  for (const Response& r : report.responses) {
    if (checked >= cfg.equality_samples) break;
    if (r.status != ResponseStatus::kOk || r.cache_hit || r.served_by.empty()) continue;
    const Request& req = requests.at(r.request_id);
    const Tensor input = synthesize_input(model, cfg.seed, req);
    const Tensor output = session->run_single(input);
    const std::uint32_t crc = util::crc32(output.data());
    if (crc != r.output_crc32) {
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "batched-vs-singleton mismatch on request %llu: batched crc %08x != "
                    "singleton crc %08x",
                    static_cast<unsigned long long>(r.request_id), r.output_crc32, crc);
      violations.push_back(buf);
      return;
    }
    ++checked;
  }
}

}  // namespace

std::string FleetSoakResult::to_json() const {
  std::string out = "{\"record\":\"soak-fleet\"";
  out += ",\"seed\":" + obs::json_number(static_cast<double>(config.seed));
  out += ",\"pattern\":\"" + std::string(traffic_pattern_name(config.pattern)) + "\"";
  out += ",\"fleet_size\":" + obs::json_number(static_cast<double>(config.fleet_size));
  out += ",\"autoscale\":" + std::string(config.autoscale ? "true" : "false");
  out += ",\"execute\":" + std::string(config.execute ? "true" : "false");
  out += ",\"base_hz\":" + obs::json_number(config.base_hz);
  out += ",\"duration_s\":" + obs::json_number(config.duration_s);
  out += ",\"max_batch\":" + obs::json_number(static_cast<double>(config.max_batch));
  out += ",\"report\":" + report.to_json();
  out += ",\"violations\":[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i) out += ",";
    out += "\"";
    out += obs::json_escape(violations[i]);
    out += "\"";
  }
  out += "]}";
  return out;
}

FleetSoakResult run_fleet_soak(const FleetSoakConfig& cfg) {
  VEDLIOT_CHECK(cfg.duration_s > 0, "fleet soak duration must be positive");
  VEDLIOT_CHECK(cfg.fleet_size >= 1, "fleet soak needs at least one replica");
  VEDLIOT_CHECK(cfg.base_hz > 0, "offered rate must be positive");

  // Model: the analytic sweeps cost ResNet-50 through the roofline model
  // only; execute mode runs a micro CNN for real so the soak stays fast.
  Graph model = cfg.execute ? zoo::micro_cnn("fleet-exec", 1, 3, 16, 10, 8)
                            : zoo::resnet50(1, 100, 64);
  if (cfg.execute) {
    Rng weight_rng(cfg.seed ^ kWeightStream);
    model.materialize_weights(weight_rng);
  }

  TrafficConfig traffic;
  traffic.pattern = cfg.pattern;
  traffic.duration_s = cfg.duration_s;
  traffic.base_hz = cfg.base_hz;
  traffic.deadline_s = cfg.deadline_s;
  traffic.seed = cfg.seed ^ kLoadStream;
  const std::vector<Request> offered = generate_traffic(traffic);

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;

  FleetConfig fleet_cfg;
  fleet_cfg.graph = &model;
  fleet_cfg.execute = cfg.execute;
  fleet_cfg.max_batch = cfg.max_batch;
  fleet_cfg.queue_capacity = cfg.queue_capacity;
  fleet_cfg.max_replicas = cfg.fleet_size;
  fleet_cfg.min_replicas = cfg.autoscale ? 1 : cfg.fleet_size;
  fleet_cfg.initial_replicas =
      cfg.autoscale ? std::max<std::size_t>(1, cfg.fleet_size / 2) : cfg.fleet_size;
  fleet_cfg.seed = cfg.seed;
  fleet_cfg.trace = &tracer;
  fleet_cfg.metrics = &metrics;

  Fleet fleet(fleet_cfg);
  std::vector<std::uint64_t> ids;
  std::map<std::uint64_t, double> deadline_of;
  std::map<std::uint64_t, Request> by_id;
  ids.reserve(offered.size());
  for (const Request& r : offered) {
    const std::uint64_t id = fleet.submit(r);
    ids.push_back(id);
    deadline_of[id] = r.deadline_s;
    Request keyed = r;
    keyed.id = id;
    by_id.emplace(id, std::move(keyed));
  }

  FleetSoakResult result;
  result.config = cfg;
  result.report = fleet.run(cfg.duration_s);

  check_conservation(cfg, result.report, ids, result.violations);
  check_deadlines(result.report, deadline_of, result.violations);
  check_bounds(cfg, result.report, result.violations);
  check_observability(result.report, tracer, metrics, result.violations);
  check_power(result.report, result.violations);
  check_batches(cfg, result.report, result.violations);
  if (cfg.execute) {
    check_batched_equality(cfg, model, result.report, by_id, result.violations);
  }
  return result;
}

std::vector<std::string> check_fleet_goodput_monotone(
    const std::vector<FleetSoakResult>& sweep) {
  std::vector<std::string> violations;
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    VEDLIOT_CHECK(sweep[i].config.fleet_size >= sweep[i - 1].config.fleet_size,
                  "goodput sweep must be ordered by ascending fleet size");
    if (sweep[i].goodput() + 1e-9 < sweep[i - 1].goodput()) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "goodput not monotone in fleet size: %.4f at %zu replicas < %.4f at %zu",
                    sweep[i].goodput(), sweep[i].config.fleet_size, sweep[i - 1].goodput(),
                    sweep[i - 1].config.fleet_size);
      violations.push_back(buf);
    }
  }
  return violations;
}

}  // namespace vedliot::serve
