// The two workloads and the pieces they share: the repeated set-up, the
// fleet metrics deltas, and the in-process replay and probes that split a
// traced run's time by layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "fleet.h"
#include "harness.h"
#include "json/json.h"

namespace fleetbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string runDir;  ///< where the fleets' socket files live
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< sample count or source, printed beside the value
};

struct RunResult {
  /// Output-check failures; empty means every check passed.
  std::vector<std::string> failures;
  Tally tally;
  /// The BENCHMARK.json end_to_end set, reported by every workload.
  std::vector<Metric> endToEnd;
  /// The BENCHMARK.json per_layer set (traced runs only).
  std::vector<Metric> perLayer;
  /// Printed only: the workload's own request classes, named as NOTES.md
  /// names them (step_us_p50, job_ms_p90, ...).
  std::vector<Metric> report;
};

RunResult RunInteractive(const RunOptions& options);
RunResult RunBatch(const RunOptions& options);

// ---- shared by both workloads ---------------------------------------------

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);

/// Exchange timeout for every client request. Generous: a timeout is a
/// failed request, never a retried one.
inline constexpr int kClientTimeoutMs = 30'000;

/// Fleets a run measures on. Each segment of a run forks a fresh fleet,
/// times its set-up, runs its share of the timed work and its checks, and
/// stops the fleet. On a shared host a process runs at the speed of the
/// vCPUs its threads land on, which differed by up to 1.7x; spreading a
/// run over several fleets averages that out instead of reporting one
/// placement. In traced runs the odd segments are traced.
inline constexpr int kSegments = 8;

/// Runs the kSegments segments: fork (with no other thread alive), then
/// `populate` creates the sessions (timed, into `setupSeconds`), then
/// `measure` runs the segment's window and checks, then the fleet stops.
/// `workerPeakKib` receives the largest per-fleet sum of worker peaks.
Status RunSegments(const RunOptions& options, Trace* trace,
                   const std::function<Status(Fleet&)>& populate,
                   const std::function<Status(int segment)>& measure,
                   std::vector<double>* setupSeconds,
                   std::uint64_t* workerPeakKib);

inline bool TracedSegment(const RunOptions& options, int segment) {
  return options.trace && segment % 2 == 1;
}

/// obs counter deltas around traced windows, summed over segments.
struct FleetDeltas {
  double frames = 0, gatewayShed = 0, laneRequests = 0, laneDirect = 0,
         laneShed = 0, queueWaitUs = 0;
  void Add(const rvss::json::Json& before, const rvss::json::Json& after);
};

/// Runs `window` with `trace` enabled, between two reads of the fleet's
/// `metrics` over `control`, adding the counter deltas to `deltas`.
Status TracedWindow(rvss::net::Socket& control, Trace& trace,
                    FleetDeltas* deltas, const std::function<void()>& window);

/// createSession for a C program, compiled by the worker at optLevel 2.
rvss::json::Json CreateCSession(const std::string& source);

/// A request for one session, pre-serialized.
std::string SessionRequest(const char* command, std::int64_t sessionId,
                           const char* extraKey = nullptr,
                           std::int64_t extraValue = 0);

/// Peak resident set of this process so far, KiB.
std::uint64_t SelfPeakKib();

/// Compiles a C program the way the server does for isC sessions.
Result<std::string> CompileC(const std::string& source);
Result<std::unique_ptr<rvss::core::Simulation>> CreateSimulation(
    const std::string& assembly);

/// Server-side split of one command class, from SimServer::HandleRaw's
/// RequestTiming over an in-process replay.
struct ServerSplit {
  std::uint64_t count = 0;
  double parseUs = 0, handleUs = 0, serializeUs = 0, responseBytes = 0;
  void Add(const rvss::server::RequestTiming& timing);
  double Mean(double sum) const { return count == 0 ? 0.0 : sum / count; }
  double TotalUs() const {
    return Mean(parseUs) + Mean(handleUs) + Mean(serializeUs);
  }
};

/// Per-layer timings of the program's own functions on one input, taken
/// in-process: compile, create, ISS fast-forward, detailed Step, StepBack
/// and Run, and the state reply's render, Dump and Parse.
struct Probe {
  std::vector<double> compileMs, createMs, ffMinstrPerS, stepUs, stepBackUs,
      replayedCycles, runMcyclesPerS, renderUs, dumpUs, parseUs;
  /// Probes one program: compiles and creates it, fast-forwards
  /// `ffInstructions`, then times `steps` Step() calls, `stepBacks`
  /// StepBack() calls and a Run of `runCycles`. Returns the simulation.
  Result<std::unique_ptr<rvss::core::Simulation>> Add(
      const std::string& source, std::uint64_t ffInstructions, int steps,
      int stepBacks, std::uint64_t runCycles);
  /// Times RenderJson, Dump and Parse of `sim`'s state reply.
  void AddRender(const rvss::core::Simulation& sim);
};

/// Model outputs summed over a workload's simulations.
struct ModelCounts {
  double cycles = 0, committed = 0, fetched = 0, l1Accesses = 0,
         l1Misses = 0, mispredicts = 0;
  void Add(const rvss::core::Simulation& sim);
  /// The same counts from a `stats` reply's statistics document.
  void AddStatistics(const rvss::json::Json& statistics);
  void Merge(const ModelCounts& other);
};

/// Everything the per-layer table is computed from, for one workload's
/// primary command (step for interactive, run for batch).
struct LayerInputs {
  double clientUs = 0;          ///< mean client latency, traced window
  Spans::Total handler, transport;
  std::uint64_t clientCount = 0;
  ServerSplit server;
  FleetDeltas deltas;
  Probe probe;
  ModelCounts model;
  double untracedP50 = 0, tracedP50 = 0;  ///< the trace overhead pair
  /// Fail the run unless every self time is non-negative and they cover
  /// 90-110% of the client latency. Only where the self times dwarf the
  /// noise of comparing a worker's time with an in-process replay of it
  /// (interactive); a batch `run` slice is ~99.9% worker time.
  bool checkCoverage = false;
};

/// Builds the per_layer metric list (fixed names and order). Appends a
/// failure when the span counts differ from the client's request count,
/// and with `checkCoverage` when the self times do not add up.
std::vector<Metric> PerLayerMetrics(const LayerInputs& in,
                                    std::vector<std::string>* failures);

/// End-to-end inputs, one entry per untraced segment where noted: the
/// timings are medians over segments, so a burst of host load that hits
/// one segment of a run moves none of them.
struct EndToEndInputs {
  std::vector<double> setupSeconds;  ///< every segment
  std::uint64_t peakKib = 0;
  std::vector<double> requestsPerS;
  std::vector<std::vector<double>> latencyMs;  ///< the workload's timed unit
  double responseKib = 0;                      ///< pooled mean
};

/// A percentile as a metric whose note gives the sample count and how many
/// samples lie beyond it; fewer than ten beyond is a failure of the run.
Metric PercentileMetric(std::string name, const std::vector<double>& values,
                        double q, std::string unit,
                        std::vector<std::string>* failures);

/// The median over segments of each segment's percentile, each segment
/// held to the same ten-beyond rule.
Metric SegmentPercentileMetric(std::string name,
                               const std::vector<std::vector<double>>& segments,
                               double q, std::string unit,
                               std::vector<std::string>* failures);

/// Builds the end_to_end metric list (fixed names and order).
std::vector<Metric> EndToEndMetrics(const EndToEndInputs& in,
                                    std::vector<std::string>* failures);

}  // namespace fleetbench
