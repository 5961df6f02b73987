// Observability overhead: what the always-on metrics layer costs.
//
// Two kinds of numbers. The primitive rates (counter_mops, histogram_mops,
// span_kops) are the raw cost of one Record — they bound how densely a
// future subsystem may instrument itself. The overhead percentages are the
// ones CI pins: the same workload run with obs::SetEnabled(true) vs
// (false), interleaved in fine ~10 ms slices so host-load drift cannot
// manufacture a regression (see ReportOverhead). sim_overhead_pct covers
// the detailed simulation loop (bench_sim's hot path, instrumented at
// Run() granularity); shard_overhead_pct covers the routed step-request
// path (bench_shard's routing-tax shape, which crosses the lane and
// SimServer instrumentation on every request). Both are gated at < 2% in
// bench/baselines.json — the contract that lets the registry stay on in
// production.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "core/simulation.h"
#include "json/json.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "server/api.h"
#include "shard/router.h"

namespace rvss {
namespace {

// Same shape as bench_sim's loop. Long enough (~200 ms per side) that
// the sliced A/B gets hundreds of alternations to average over.
const char* kLoop = R"(
main:
    li t0, 300000
loop:
    addi t1, t1, 1
    xori t2, t1, 3
    addi t0, t0, -1
    bnez t0, loop
    ret
)";

json::Json Cmd(const char* command,
               std::initializer_list<std::pair<const char*, json::Json>>
                   fields = {}) {
  json::Json request = json::Json::MakeObject();
  request.Set("command", command);
  for (const auto& [key, value] : fields) request.Set(key, value);
  return request;
}

bool Ok(const json::Json& response, const char* what) {
  if (response.GetString("status", "") == "ok") return true;
  std::fprintf(stderr, "%s failed: %s\n", what,
               server::ErrorMessage(response, "?").c_str());
  return false;
}

// --- primitive rates --------------------------------------------------------

double CounterMops() {
  obs::Counter& counter =
      obs::Registry::Instance().GetCounter("bench.obs.counter");
  constexpr std::uint64_t kOps = 20'000'000;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) counter.Increment();
  const double seconds = bench::SecondsSince(start);
  return static_cast<double>(kOps) / seconds / 1e6;
}

double HistogramMops() {
  obs::Histogram& histogram =
      obs::Registry::Instance().GetHistogram("bench.obs.histogram");
  constexpr std::uint64_t kOps = 20'000'000;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) histogram.Record(i & 0xffff);
  const double seconds = bench::SecondsSince(start);
  return static_cast<double>(kOps) / seconds / 1e6;
}

double SpanKops() {
  // Spans take a mutex and two clock reads — they are for rare expensive
  // operations, and this rate documents why.
  constexpr std::uint64_t kOps = 200'000;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    obs::ScopedSpan span("bench", "span");
  }
  const double seconds = bench::SecondsSince(start);
  obs::TraceRing::Instance().Clear();
  return static_cast<double>(kOps) / seconds / 1e3;
}

// --- A/B overhead legs ------------------------------------------------------

/// One timed detailed-simulation run; returns seconds, < 0 on failure.
double SimRunSeconds() {
  auto sim = core::Simulation::Create(config::DefaultConfig(), kLoop,
                                      {{}, "main"});
  if (!sim.ok()) {
    std::fprintf(stderr, "create failed: %s\n", sim.error().ToText().c_str());
    return -1.0;
  }
  const auto start = std::chrono::steady_clock::now();
  sim.value()->Run(100'000'000);
  const double seconds = bench::SecondsSince(start);
  if (sim.value()->status() != core::SimStatus::kFinished) {
    std::fprintf(stderr, "sim leg did not finish\n");
    return -1.0;
  }
  return seconds;
}

/// One timed burst of routed single-step requests; seconds, < 0 on failure.
double RoutedStepSeconds(shard::ShardRouter& router,
                         const std::string& request, int count) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < count; ++i) {
    // HandleRaw includes parse + route + SimServer dispatch — the full
    // per-request path the instrumentation taxes.
    if (router.HandleRaw(request).find("\"ok\"") == std::string::npos) {
      std::fprintf(stderr, "routed step failed\n");
      return -1.0;
    }
  }
  return bench::SecondsSince(start);
}

/// The noise strategy shared by both A/B legs: alternate enabled and
/// disabled *slices* of ~10 ms, hundreds of them, and compare the summed
/// time per side. Coarse-grained designs (whole-run A/B with min- or
/// median-of-rounds) were tried first and are the wrong statistic on a
/// shared machine: host frequency/load shifts with a period near the
/// round length land entirely on one side and read as several percent of
/// phantom overhead. With fine slices in alternating order, any drift
/// slower than a slice-pair contributes equally to both sums. Negative
/// results are clamped to 0: the metrics code cannot make the workload
/// faster, a negative delta is measurement noise.
double ReportOverhead(double offSeconds, double onSeconds,
                      const char* label) {
  const double pct = std::max(0.0, (onSeconds / offSeconds - 1.0) * 100.0);
  std::printf("%-22s %10.3f ms off   %10.3f ms on   %+6.2f%%\n", label,
              offSeconds * 1e3, onSeconds * 1e3, pct);
  return pct;
}

/// Two identical simulations advanced in interleaved kSlice-cycle bursts.
/// Which sim is measured with obs enabled alternates every pair — the
/// workload is the same either way, so each instance contributes equally
/// to both sums and per-instance bias (page placement, cache layout of
/// the two allocations) cancels along with host-load drift. Returns the
/// overhead percentage, < 0 on failure.
double SimOverheadPct() {
  auto makeSim = [] {
    return core::Simulation::Create(config::DefaultConfig(), kLoop,
                                    {{}, "main"});
  };
  auto simA = makeSim();
  auto simB = makeSim();
  if (!simA.ok() || !simB.ok()) {
    std::fprintf(stderr, "sim leg create failed\n");
    return -1.0;
  }
  constexpr std::uint64_t kSlice = 10'000;
  double onSeconds = 0.0;
  double offSeconds = 0.0;
  int iteration = 0;
  while ((simA.value()->status() == core::SimStatus::kRunning ||
          simB.value()->status() == core::SimStatus::kRunning) &&
         iteration < 100'000) {
    const bool aEnabled = iteration++ % 2 == 1;
    for (int leg = 0; leg < 2; ++leg) {
      const bool isA = leg == 0;
      const bool enabled = isA == aEnabled;
      core::Simulation& sim = *(isA ? simA : simB).value();
      obs::SetEnabled(enabled);
      const auto start = std::chrono::steady_clock::now();
      sim.Run(kSlice);
      (enabled ? onSeconds : offSeconds) += bench::SecondsSince(start);
    }
  }
  obs::SetEnabled(true);
  if (simA.value()->status() != core::SimStatus::kFinished ||
      simB.value()->status() != core::SimStatus::kFinished) {
    std::fprintf(stderr, "sim leg did not finish\n");
    return -1.0;
  }
  return ReportOverhead(offSeconds, onSeconds, "detailed sim loop");
}

/// Routed single-step requests in interleaved bursts against one live
/// session (the session advances through both sides identically — a
/// step is a step). Returns the overhead percentage, < 0 on failure.
double ShardOverheadPct(shard::ShardRouter& router,
                        const std::string& request) {
  constexpr int kBurst = 50;
  constexpr int kPairs = 40;
  double onSeconds = 0.0;
  double offSeconds = 0.0;
  for (int pair = 0; pair < kPairs; ++pair) {
    const bool onFirst = pair % 2 == 1;
    for (int leg = 0; leg < 2; ++leg) {
      const bool enabled = onFirst == (leg == 0);
      obs::SetEnabled(enabled);
      const double seconds = RoutedStepSeconds(router, request, kBurst);
      if (seconds < 0) {
        obs::SetEnabled(true);
        return -1.0;
      }
      (enabled ? onSeconds : offSeconds) += seconds;
    }
  }
  obs::SetEnabled(true);
  return ReportOverhead(offSeconds, onSeconds, "routed step requests");
}

}  // namespace
}  // namespace rvss

int main(int argc, char** argv) {
  using namespace rvss;
  bench::JsonReport report("obs", argc, argv);

  std::printf("# observability primitives\n");
  const double counterMops = CounterMops();
  const double histogramMops = HistogramMops();
  const double spanKops = SpanKops();
  std::printf("%-22s %10.1f Mops/s\n", "counter add", counterMops);
  std::printf("%-22s %10.1f Mops/s\n", "histogram record", histogramMops);
  std::printf("%-22s %10.1f Kops/s\n", "scoped span", spanKops);
  report.Set("counter_mops", counterMops);
  report.Set("histogram_mops", histogramMops);
  report.Set("span_kops", spanKops);

  // Warm-up primes the allocator and decode caches before any timing.
  if (SimRunSeconds() < 0) return 1;

  // Each repeat is already drift-immune (sliced alternation); the min
  // across repeats additionally discards whole measurements a scheduler
  // burst landed on. A real regression raises every repeat, so the min
  // still catches it.
  constexpr int kRepeats = 3;
  std::printf("\n# end-to-end overhead, enabled vs disabled "
              "(summed over interleaved slices, min of %d repeats)\n",
              kRepeats);
  double simOverheadPct = -1.0;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    const double pct = SimOverheadPct();
    if (pct < 0) return 1;
    if (simOverheadPct < 0 || pct < simOverheadPct) simOverheadPct = pct;
  }
  report.Set("sim_overhead_pct", simOverheadPct);

  shard::ShardRouter::Options options;
  options.workerCount = 2;
  shard::ShardRouter router(options);
  json::Json created = router.Handle(
      Cmd("createSession",
          {{"code", json::Json(kLoop)}, {"entry", json::Json("main")}}));
  if (!Ok(created, "createSession")) return 1;
  const std::string stepRequest =
      Cmd("step", {{"sessionId", json::Json(created.GetInt("sessionId", -1))},
                   {"count", json::Json(1)}})
          .Dump();
  // Warm burst before timing: primes the dispatch lanes and the session's
  // decode caches.
  if (RoutedStepSeconds(router, stepRequest, 200) < 0) return 1;
  double shardOverheadPct = -1.0;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    const double pct = ShardOverheadPct(router, stepRequest);
    if (pct < 0) return 1;
    if (shardOverheadPct < 0 || pct < shardOverheadPct) shardOverheadPct = pct;
  }
  report.Set("shard_overhead_pct", shardOverheadPct);

  obs::SetEnabled(true);  // leave the process in the production state
  return 0;
}
