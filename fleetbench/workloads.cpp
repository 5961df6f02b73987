#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sys/resource.h>
#include <utility>

#include "cc/compiler.h"
#include "config/cpu_config.h"
#include "server/state_renderer.h"

namespace fleetbench {

using rvss::json::Json;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

namespace {

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

std::string Count(std::size_t n) { return "n=" + std::to_string(n); }

}  // namespace

Status RunSegments(const RunOptions& options, Trace* trace,
                   const std::function<Status(Fleet&)>& populate,
                   const std::function<Status(int segment)>& measure,
                   std::vector<double>* setupSeconds,
                   std::uint64_t* workerPeakKib) {
  for (int segment = 0; segment < kSegments; ++segment) {
    const Clock::time_point start = Clock::now();
    RVSS_ASSIGN_OR_RETURN(std::unique_ptr<Fleet> fleet,
                          Fleet::Start(options.runDir, segment, trace));
    RVSS_RETURN_IF_ERROR(populate(*fleet));
    setupSeconds->push_back(SecondsSince(start));
    RVSS_RETURN_IF_ERROR(measure(segment));
    *workerPeakKib = std::max(*workerPeakKib, fleet->Stop());
  }
  return Status::Ok();
}

Json CreateCSession(const std::string& source) {
  Json request = Json::MakeObject();
  request.Set("command", "createSession");
  request.Set("code", source);
  request.Set("isC", true);
  request.Set("optLevel", 2);
  return request;
}

std::string SessionRequest(const char* command, std::int64_t sessionId,
                           const char* extraKey, std::int64_t extraValue) {
  Json request = Json::MakeObject();
  request.Set("command", command);
  request.Set("sessionId", sessionId);
  if (extraKey != nullptr) request.Set(extraKey, extraValue);
  return request.Dump();
}

namespace {

Result<Json> FleetMetrics(rvss::net::Socket& socket) {
  Json request = Json::MakeObject();
  request.Set("command", "metrics");
  RVSS_ASSIGN_OR_RETURN(Json response,
                        Call(socket, request, kClientTimeoutMs));
  const Json* fleet = response.Find("fleet");
  if (Classify(response) != Outcome::kOk || fleet == nullptr) {
    return rvss::Error{rvss::ErrorKind::kInternal,
                       "metrics failed: " + response.Dump()};
  }
  return *fleet;
}

/// metrics[section][name], or its field `key`; 0 when absent.
double Field(const Json& metrics, const char* section, const char* name,
             const char* key = nullptr) {
  const Json* group = metrics.Find(section);
  const Json* node = group == nullptr ? nullptr : group->Find(name);
  if (node == nullptr) return 0.0;
  return key == nullptr ? node->AsDouble() : node->GetDouble(key, 0.0);
}

}  // namespace

void FleetDeltas::Add(const Json& before, const Json& after) {
  const auto counter = [&](const char* name) {
    return Field(after, "counters", name) - Field(before, "counters", name);
  };
  frames += counter("gateway.frames");
  gatewayShed += counter("gateway.shed");
  laneRequests += counter("shard.lane.requests");
  laneDirect += counter("shard.lane.directCalls");
  laneShed += counter("shard.lane.shed");
  queueWaitUs +=
      Field(after, "histograms", "shard.lane.queueWaitUs", "sum") -
      Field(before, "histograms", "shard.lane.queueWaitUs", "sum");
}

Status TracedWindow(rvss::net::Socket& control, Trace& trace,
                    FleetDeltas* deltas, const std::function<void()>& window) {
  RVSS_ASSIGN_OR_RETURN(const Json before, FleetMetrics(control));
  trace.enabled = true;
  window();
  trace.enabled = false;
  RVSS_ASSIGN_OR_RETURN(const Json after, FleetMetrics(control));
  deltas->Add(before, after);
  return Status::Ok();
}

std::uint64_t SelfPeakKib() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

Result<std::string> CompileC(const std::string& source) {
  rvss::cc::CompileOptions options;
  options.optLevel = 2;
  RVSS_ASSIGN_OR_RETURN(rvss::cc::CompileOutput compiled,
                        rvss::cc::Compile(source, options));
  return std::move(compiled.assembly);
}

Result<std::unique_ptr<rvss::core::Simulation>> CreateSimulation(
    const std::string& assembly) {
  rvss::core::Simulation::CreateOptions options;
  options.entryLabel = "main";
  return rvss::core::Simulation::Create(rvss::config::DefaultConfig(),
                                        assembly, options);
}

void ServerSplit::Add(const rvss::server::RequestTiming& timing) {
  ++count;
  parseUs += static_cast<double>(timing.parseNs) / 1e3;
  handleUs += static_cast<double>(timing.handleNs) / 1e3;
  serializeUs += static_cast<double>(timing.serializeNs) / 1e3;
  responseBytes += static_cast<double>(timing.responseBytes);
}

Result<std::unique_ptr<rvss::core::Simulation>> Probe::Add(
    const std::string& source, std::uint64_t ffInstructions, int steps,
    int stepBacks, std::uint64_t runCycles) {
  Clock::time_point start = Clock::now();
  RVSS_ASSIGN_OR_RETURN(const std::string assembly, CompileC(source));
  compileMs.push_back(MicrosSince(start) / 1e3);
  start = Clock::now();
  RVSS_ASSIGN_OR_RETURN(std::unique_ptr<rvss::core::Simulation> sim,
                        CreateSimulation(assembly));
  createMs.push_back(MicrosSince(start) / 1e3);

  start = Clock::now();
  RVSS_RETURN_IF_ERROR(sim->FastForwardTo(ffInstructions));
  ffMinstrPerS.push_back(
      static_cast<double>(sim->statistics().fastForwardedInstructions) /
      MicrosSince(start));

  if (steps > 0) {
    start = Clock::now();
    for (int i = 0; i < steps; ++i) sim->Step();
    stepUs.push_back(MicrosSince(start) / steps);
  }
  for (int i = 0; i < stepBacks && sim->cycle() > 0; ++i) {
    start = Clock::now();
    RVSS_RETURN_IF_ERROR(sim->StepBack());
    stepBackUs.push_back(MicrosSince(start));
    replayedCycles.push_back(
        static_cast<double>(sim->lastSeekReplayedCycles()));
  }

  const std::uint64_t before = sim->cycle();
  start = Clock::now();
  sim->Run(runCycles);
  runMcyclesPerS.push_back(static_cast<double>(sim->cycle() - before) /
                           MicrosSince(start));
  return sim;
}

void Probe::AddRender(const rvss::core::Simulation& sim) {
  Clock::time_point start = Clock::now();
  Json state = rvss::server::RenderJson(sim);
  renderUs.push_back(MicrosSince(start));
  start = Clock::now();
  const std::string text = state.Dump();
  dumpUs.push_back(MicrosSince(start));
  start = Clock::now();
  const bool parsed = rvss::json::Parse(text).ok();
  parseUs.push_back(parsed ? MicrosSince(start) : 0.0);
}

void ModelCounts::Add(const rvss::core::Simulation& sim) {
  const auto& stats = sim.statistics();
  cycles += static_cast<double>(stats.cycles);
  committed += static_cast<double>(stats.committedInstructions);
  fetched += static_cast<double>(stats.fetchedInstructions);
  mispredicts += static_cast<double>(stats.branchesMispredicted);
  l1Accesses += static_cast<double>(sim.memorySystem().stats().accesses);
  l1Misses += static_cast<double>(sim.memorySystem().stats().cacheMisses);
}

void ModelCounts::AddStatistics(const Json& statistics) {
  cycles += statistics.GetDouble("cycles", 0);
  committed += statistics.GetDouble("committedInstructions", 0);
  fetched += statistics.GetDouble("fetchedInstructions", 0);
  if (const Json* branches = statistics.Find("branchPrediction")) {
    mispredicts += branches->GetDouble("mispredicted", 0);
  }
  if (const Json* cache = statistics.Find("cache")) {
    l1Accesses += cache->GetDouble("accesses", 0);
    l1Misses += cache->GetDouble("misses", 0);
  }
}

void ModelCounts::Merge(const ModelCounts& other) {
  cycles += other.cycles;
  committed += other.committed;
  fetched += other.fetched;
  l1Accesses += other.l1Accesses;
  l1Misses += other.l1Misses;
  mispredicts += other.mispredicts;
}

std::vector<Metric> PerLayerMetrics(const LayerInputs& in,
                                    std::vector<std::string>* failures) {
  // Self time of a layer = its span minus the span of the layer below,
  // all means over the same requests of the traced window: client >
  // Handler (router) > transport call > worker SimServer (replayed).
  const double handlerUs = in.handler.MeanUs();
  const double transportUs = in.transport.MeanUs();
  const double serverUs = in.server.TotalUs();
  const double gatewaySelf = in.clientUs - handlerUs;
  const double routerSelf = handlerUs - transportUs;
  const double transportSelf = transportUs - serverUs;
  const double coverage =
      in.clientUs <= 0 ? 0.0
                       : (gatewaySelf + routerSelf + transportSelf + serverUs) /
                             in.clientUs * 100.0;
  if (in.handler.count != in.clientCount ||
      in.transport.count != in.clientCount) {
    failures->push_back(
        "attribution: span counts differ (client " +
        std::to_string(in.clientCount) + ", handler " +
        std::to_string(in.handler.count) + ", transport " +
        std::to_string(in.transport.count) + ")");
  }
  if (in.checkCoverage &&
      (gatewaySelf < 0 || routerSelf < 0 || transportSelf < 0)) {
    failures->push_back("attribution: a layer's span is longer than its "
                        "parent's (negative self time)");
  }
  if (in.checkCoverage && (coverage < 90.0 || coverage > 110.0)) {
    failures->push_back("attribution: layer self times cover " +
                        std::to_string(coverage) +
                        "% of the client latency, outside 90-110%");
  }

  const FleetDeltas& d = in.deltas;
  const auto ratio = [](double num, double den) {
    return den <= 0 ? 0.0 : num / den;
  };
  const std::string spans = Count(in.clientCount);
  const Probe& p = in.probe;
  const ModelCounts& m = in.model;
  return {
      {"gateway.self_us", gatewaySelf, "us", spans},
      {"gateway.frames", d.frames, "count", ""},
      {"gateway.shed", d.gatewayShed, "count", ""},
      {"shard.router.self_us", routerSelf, "us", spans},
      {"shard.lane.queue_wait_us", ratio(d.queueWaitUs, d.laneRequests), "us",
       "per lane request, " + Count(static_cast<std::size_t>(d.laneRequests))},
      {"shard.lane.direct_ratio", ratio(d.laneDirect, d.laneRequests), "ratio",
       ""},
      {"shard.lane.shed", d.laneShed, "count", ""},
      {"shard.transport.call_us", transportUs, "us", spans},
      {"shard.transport.self_us", transportSelf, "us", spans},
      {"shard.transport.response_kib",
       in.server.Mean(in.server.responseBytes) / 1024.0, "KiB",
       "replayed, " + Count(in.server.count)},
      {"server.parse_us", in.server.Mean(in.server.parseUs), "us",
       Count(in.server.count)},
      {"server.handle_us", in.server.Mean(in.server.handleUs), "us",
       Count(in.server.count)},
      {"server.serialize_us", in.server.Mean(in.server.serializeUs), "us",
       Count(in.server.count)},
      {"server.render_us", Mean(p.renderUs), "us", Count(p.renderUs.size())},
      {"json.dump_us", Mean(p.dumpUs), "us", Count(p.dumpUs.size())},
      {"json.parse_us", Mean(p.parseUs), "us", Count(p.parseUs.size())},
      {"core.step_us", Mean(p.stepUs), "us", Count(p.stepUs.size())},
      {"core.step_back_us", Mean(p.stepBackUs), "us",
       Count(p.stepBackUs.size())},
      {"core.replayed_cycles", Mean(p.replayedCycles), "cycles",
       "per stepBack, " + Count(p.replayedCycles.size())},
      {"core.run_mcycles_per_s", Mean(p.runMcyclesPerS), "Mcycles/s",
       Count(p.runMcyclesPerS.size())},
      {"core.cycles", m.cycles, "cycles", ""},
      {"core.committed", m.committed, "count", ""},
      {"core.commit_ratio", ratio(m.committed, m.fetched), "ratio",
       "committed / fetched"},
      {"ref.ff_minstr_per_s", Mean(p.ffMinstrPerS), "Minstr/s",
       Count(p.ffMinstrPerS.size())},
      {"cc.compile_ms", Mean(p.compileMs), "ms", Count(p.compileMs.size())},
      {"core.create_ms", Mean(p.createMs), "ms", Count(p.createMs.size())},
      {"memory.l1_accesses", m.l1Accesses, "count", ""},
      {"memory.l1_miss_ratio", ratio(m.l1Misses, m.l1Accesses), "ratio", ""},
      {"predictor.mispredicts", m.mispredicts, "count", ""},
      {"attribution_coverage_pct", coverage, "%", "mean self times / client"},
      {"trace_overhead_pct",
       in.untracedP50 <= 0 ? 0.0
                           : (in.tracedP50 / in.untracedP50 - 1.0) * 100.0,
       "%", "traced vs untraced p50"},
  };
}

Metric PercentileMetric(std::string name, const std::vector<double>& values,
                        double q, std::string unit,
                        std::vector<std::string>* failures) {
  const std::size_t n = values.size();
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (!PercentileSupported(n, q)) {
    failures->push_back(name + ": " + std::to_string(n) +
                        " samples leave fewer than ten beyond the percentile");
  }
  return {std::move(name), Percentile(values, q), std::move(unit),
          Count(n) + ", " + std::to_string(n - std::min(n, rank)) +
              " beyond"};
}

Metric SegmentPercentileMetric(std::string name,
                               const std::vector<std::vector<double>>& segments,
                               double q, std::string unit,
                               std::vector<std::string>* failures) {
  std::vector<double> values;
  std::size_t fewest = SIZE_MAX;
  std::size_t fewestBeyond = SIZE_MAX;
  for (const std::vector<double>& segment : segments) {
    const Metric one = PercentileMetric(name, segment, q, unit, failures);
    values.push_back(one.value);
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(segment.size())));
    fewest = std::min(fewest, segment.size());
    fewestBeyond = std::min(fewestBeyond, segment.size() - std::min(
                                                               segment.size(),
                                                               rank));
  }
  return {std::move(name), Median(values), std::move(unit),
          "median of " + std::to_string(segments.size()) +
              " segments; each n>=" + std::to_string(fewest) + ", >=" +
              std::to_string(fewestBeyond) + " beyond"};
}

std::vector<Metric> EndToEndMetrics(const EndToEndInputs& in,
                                    std::vector<std::string>* failures) {
  return {
      {"setup_s", Median(in.setupSeconds), "s",
       "median of " + std::to_string(in.setupSeconds.size()) + " set-ups"},
      {"peak_rss_mib", static_cast<double>(in.peakKib) / 1024.0, "MiB",
       "benchmark + one fleet's workers"},
      {"requests_per_s", Median(in.requestsPerS), "1/s",
       "median of " + std::to_string(in.requestsPerS.size()) + " segments"},
      SegmentPercentileMetric("latency_ms_p50", in.latencyMs, 0.5, "ms",
                              failures),
      {"response_kib", in.responseKib, "KiB", ""},
  };
}

}  // namespace fleetbench
