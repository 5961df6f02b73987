// Shard router benchmarks: drain throughput (how fast a worker's sessions
// evacuate to its peers) — over in-process workers and over real forked
// worker processes behind the socket transport — and the steady-state
// routing overhead a session pays for living behind the router instead of
// a bare SimServer.
//
// Drain is the operation that gates fleet maintenance (deploys, scale-in):
// its throughput in sessions/s and MiB/s bounds how quickly a worker can
// be taken out of rotation without dropping interactive sessions. The
// in-process number is the ceiling; the socket number adds the frame
// encode + syscall + process-switch cost of the real deployment shape.
// The routing overhead measures the per-request tax of the extra
// id-rewrite hop — it should be noise against the simulation work itself.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "json/json.h"
#include "server/api.h"
#include "shard/router.h"
#include "shard/transport.h"
#include "shard/worker.h"

namespace rvss {
namespace {

/// Long-running branchy loop with a real working set: sessions stay live
/// through the whole bench and their snapshots are not trivially empty.
const char* kWorkload = R"(
main:
    li s1, 1000000
outer:
    li t0, 16
    addi t1, sp, -256
fill:
    mul t2, t0, s1
    sw t2, 0(t1)
    addi t1, t1, 4
    addi t0, t0, -1
    bnez t0, fill
    addi s1, s1, -1
    bnez s1, outer
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

struct DrainResult {
  double sessionsPerSecond = 0.0;
  double mibPerSecond = 0.0;
  bool ok = false;
};

/// 24 sessions stepped to distinct mid-points across 3 workers; drains
/// whichever worker holds the most sessions and reports the throughput.
DrainResult RunDrainBench(shard::ShardRouter& router, const char* label) {
  DrainResult result;
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 24; ++i) {
    json::Json created = router.Handle(
        Cmd("createSession", {{"code", json::Json(kWorkload)},
                              {"entry", json::Json("main")}}));
    if (!Ok(created, "createSession")) return result;
    ids.push_back(created.GetInt("sessionId", -1));
    json::Json stepped = router.Handle(
        Cmd("step", {{"sessionId", json::Json(ids.back())},
                     {"count", json::Json(500 + 100 * i)}}));
    if (!Ok(stepped, "step")) return result;
  }

  std::int64_t victim = 0;
  std::int64_t victimSessions = 0;
  json::Json stats = router.Handle(Cmd("workerStats"));
  for (const json::Json& worker : stats.Find("workers")->AsArray()) {
    if (worker.GetInt("sessions", 0) > victimSessions) {
      victim = worker.GetInt("worker", -1);
      victimSessions = worker.GetInt("sessions", 0);
    }
  }

  auto start = std::chrono::steady_clock::now();
  json::Json drained =
      router.Handle(Cmd("drainWorker", {{"worker", json::Json(victim)}}));
  const double drainSeconds = bench::SecondsSince(start);
  if (!Ok(drained, "drainWorker")) return result;
  const double moved = static_cast<double>(drained.GetInt("moved", 0));
  const double movedMiB =
      static_cast<double>(drained.GetInt("movedBytes", 0)) / (1024.0 * 1024.0);
  result.sessionsPerSecond = moved / drainSeconds;
  result.mibPerSecond = movedMiB / drainSeconds;
  result.ok = true;
  std::printf("# drain throughput [%s] (%d sessions total, worker %lld held %.0f)\n",
              label, static_cast<int>(ids.size()),
              static_cast<long long>(victim), moved);
  std::printf("%-22s %10.2f ms\n", "drain wall time", drainSeconds * 1e3);
  std::printf("%-22s %10.1f sessions/s\n", "drain rate",
              result.sessionsPerSecond);
  std::printf("%-22s %10.1f MiB/s (%.2f MiB wire)\n", "drain bandwidth",
              result.mibPerSecond, movedMiB);
  return result;
}

struct ParallelRunResult {
  double serializedCyclesPerSecond = 0.0;
  double parallelCyclesPerSecond = 0.0;
  double speedup = 0.0;
  bool ok = false;
};

/// Aggregate simulated cycles/s across 4 socket-worker processes, driven
/// two ways over the *same* fleet: one client thread issuing `run`
/// requests session-by-session (the PR 4 serialized dispatch shape) and
/// 4 client threads driving one session each concurrently (the dispatch
/// lanes). The ratio is the fleet's parallel scaling; on a machine with
/// >= 4 cores it should approach 4x, and it is what the CI gate pins.
ParallelRunResult RunParallelBench(shard::ShardRouter& router) {
  ParallelRunResult result;
  constexpr int kWorkers = 4;
  constexpr std::int64_t kSliceCycles = 100'000;
  constexpr int kRounds = 6;

  // One driven session per worker. Placement is consistent-hash, so
  // create until every worker holds one (the response names the worker)
  // and delete the overflow — the fleet must be evenly busy, not
  // hash-lucky.
  std::vector<std::int64_t> perWorkerSession(kWorkers, -1);
  int covered = 0;
  for (int attempt = 0; attempt < 512 && covered < kWorkers; ++attempt) {
    json::Json created = router.Handle(
        Cmd("createSession", {{"code", json::Json(kWorkload)},
                              {"entry", json::Json("main")}}));
    if (!Ok(created, "parallel createSession")) return result;
    const std::int64_t worker = created.GetInt("worker", -1);
    const std::int64_t id = created.GetInt("sessionId", -1);
    if (worker >= 0 && worker < kWorkers && perWorkerSession[worker] < 0) {
      perWorkerSession[worker] = id;
      ++covered;
    } else {
      router.Handle(Cmd("deleteSession", {{"sessionId", json::Json(id)}}));
    }
  }
  if (covered < kWorkers) {
    std::fprintf(stderr, "parallel bench: only %d/%d workers covered\n",
                 covered, kWorkers);
    return result;
  }

  // A failed run must fail the bench loudly: a silently short leg would
  // report a bogus speedup and send CI debugging a phantom scaling
  // regression instead of the actual transport error.
  std::atomic<bool> driveFailed{false};
  auto driveSession = [&router, &driveFailed](std::int64_t id, int rounds,
                                              std::int64_t* cycles) {
    for (int round = 0; round < rounds; ++round) {
      json::Json report = router.Handle(
          Cmd("run", {{"sessionId", json::Json(id)},
                      {"maxCycles", json::Json(kSliceCycles)}}));
      if (!Ok(report, "parallel run")) {
        driveFailed.store(true);
        return;
      }
      *cycles += report.GetInt("ranCycles", 0);
    }
  };

  // Serialized shape: one thread, session after session.
  std::int64_t serializedCycles = 0;
  auto start = std::chrono::steady_clock::now();
  for (const std::int64_t id : perWorkerSession) {
    driveSession(id, kRounds, &serializedCycles);
  }
  const double serializedSeconds = bench::SecondsSince(start);

  // Parallel shape: one driver thread per worker, same total work.
  std::vector<std::int64_t> parallelCycles(kWorkers, 0);
  std::vector<std::thread> drivers;
  start = std::chrono::steady_clock::now();
  for (int i = 0; i < kWorkers; ++i) {
    drivers.emplace_back(driveSession, perWorkerSession[i], kRounds,
                         &parallelCycles[i]);
  }
  for (std::thread& driver : drivers) driver.join();
  const double parallelSeconds = bench::SecondsSince(start);
  std::int64_t parallelTotal = 0;
  for (const std::int64_t cycles : parallelCycles) parallelTotal += cycles;

  if (driveFailed.load()) {
    std::fprintf(stderr, "parallel bench: a run request failed (see above)\n");
    return result;
  }
  if (serializedCycles <= 0 || parallelTotal <= 0 || serializedSeconds <= 0 ||
      parallelSeconds <= 0) {
    std::fprintf(stderr, "parallel bench: a run leg reported no cycles\n");
    return result;
  }
  result.serializedCyclesPerSecond =
      static_cast<double>(serializedCycles) / serializedSeconds;
  result.parallelCyclesPerSecond =
      static_cast<double>(parallelTotal) / parallelSeconds;
  result.speedup =
      result.parallelCyclesPerSecond / result.serializedCyclesPerSecond;
  result.ok = true;

  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("\n# parallel run scaling (%d socket workers, %d x %lld-cycle"
              " slices, %u core(s))\n",
              kWorkers, kRounds, static_cast<long long>(kSliceCycles), cores);
  std::printf("%-22s %10.2f Mcycles/s\n", "serialized dispatch",
              result.serializedCyclesPerSecond / 1e6);
  std::printf("%-22s %10.2f Mcycles/s\n", "parallel lanes",
              result.parallelCyclesPerSecond / 1e6);
  std::printf("%-22s %10.2fx\n", "speedup", result.speedup);
  if (cores < static_cast<unsigned>(kWorkers)) {
    std::printf("(speedup is core-bound: %u core(s) cannot run %d workers "
                "concurrently — expect ~%ux here, ~%dx on a wide machine)\n",
                cores, kWorkers, cores > 0 ? cores : 1, kWorkers);
  }
  return result;
}

}  // namespace
}  // namespace rvss

int main(int argc, char** argv) {
  using namespace rvss;
  bench::JsonReport report("shard", argc, argv);

  // --- drain throughput, in-process workers (the PR 3 baseline) --------------
  // The throughput gates below were pinned on the full-image wire; delta
  // encoding shrinks movedBytes (the MiB/s numerator) by design, so the
  // legacy legs keep measuring the full path and the delta wins are gated
  // separately (drain_wire_bytes_per_session / drain_wire_reduction).
  shard::ShardRouter::Options options;
  options.workerCount = 3;
  options.deltaBlobs = false;
  shard::ShardRouter router(options);
  const DrainResult inProcess = RunDrainBench(router, "in-process");
  if (!inProcess.ok) return 1;
  report.Set("drain_sessions_per_s", inProcess.sessionsPerSecond);
  report.Set("drain_mib_s", inProcess.mibPerSecond);

  // --- drain throughput, forked processes over the socket transport ----------
  {
    shard::SpawnedFleet fleet;
    shard::ShardRouter::Options socketOptions;
    socketOptions.workerCount = 3;
    socketOptions.deltaBlobs = false;  // full-image wire, like the pin
    socketOptions.transportFactory =
        shard::MakeSpawningTransportFactory(&fleet, "bench");
    shard::ShardRouter socketRouter(socketOptions);
    std::printf("\n");
    const DrainResult socket = RunDrainBench(socketRouter, "socket");
    if (!socket.ok) return 1;  // same contract as the in-process leg
    report.Set("socket_drain_sessions_per_s", socket.sessionsPerSecond);
    report.Set("socket_drain_mib_s", socket.mibPerSecond);
    std::printf("%-22s %10.2fx of in-process\n", "socket drain ratio",
                socket.mibPerSecond / inProcess.mibPerSecond);
  }

  // --- parallel run scaling over the dispatch lanes ---------------------------
  {
    shard::SpawnedFleet parallelFleet;
    shard::ShardRouter::Options parallelOptions;
    parallelOptions.workerCount = 4;
    parallelOptions.transportFactory =
        shard::MakeSpawningTransportFactory(&parallelFleet, "bench-par");
    shard::ShardRouter parallelRouter(parallelOptions);
    const ParallelRunResult parallel = RunParallelBench(parallelRouter);
    if (!parallel.ok) return 1;
    report.Set("parallel_run_cycles_per_s", parallel.parallelCyclesPerSecond);
    report.Set("serialized_run_cycles_per_s",
               parallel.serializedCyclesPerSecond);
    report.Set("parallel_run_speedup", parallel.speedup);
    // The speedup gate is meaningless on a machine that cannot run the
    // workers concurrently; ci/check_bench.py reads this to skip it
    // (gates with "requires_cores" in bench/baselines.json).
    report.Set("hardware_cores",
               static_cast<double>(std::thread::hardware_concurrency()));
  }

  // --- delta vs full migration wire bytes -------------------------------------
  // Mostly-idle sessions with a 1 MiB memory whose base image is largely
  // incompressible pseudo-random array data — the honest case for delta
  // encoding: a full image must ship the whole megabyte, a delta ships
  // only the handful of pages the session actually dirtied. The A/B runs
  // the identical drain against two identical fleets, delta on vs off.
  {
    json::Json memoryConfig = json::Json::MakeObject();
    json::Json memorySection = json::Json::MakeObject();
    memorySection.Set("sizeBytes", static_cast<std::int64_t>(1024 * 1024));
    memoryConfig.Set("memory", std::move(memorySection));
    json::Json arrays = json::Json::MakeArray();
    json::Json noise = json::Json::MakeObject();
    noise.Set("name", "noise");
    noise.Set("type", "word");
    noise.Set("random", true);
    noise.Set("count", static_cast<std::int64_t>(192 * 1024));  // 768 KiB
    noise.Set("randomSeed", static_cast<std::int64_t>(7));
    arrays.Append(std::move(noise));

    auto drainWirePerSession = [&](bool delta, double* perSession) {
      shard::ShardRouter::Options abOptions;
      abOptions.workerCount = 2;
      abOptions.deltaBlobs = delta;
      shard::ShardRouter ab(abOptions);
      constexpr int kSessions = 8;
      for (int i = 0; i < kSessions; ++i) {
        json::Json created = ab.Handle(
            Cmd("createSession", {{"code", json::Json(kWorkload)},
                                  {"entry", json::Json("main")},
                                  {"config", memoryConfig},
                                  {"arrays", arrays}}));
        if (!Ok(created, "delta A/B createSession")) return false;
        // A short warm-up: the session is live but mostly idle, so only
        // a few stack pages are dirty against the base image.
        json::Json stepped = ab.Handle(
            Cmd("step", {{"sessionId", created.Find("sessionId") != nullptr
                                           ? *created.Find("sessionId")
                                           : json::Json(-1)},
                         {"count", json::Json(40 + 10 * i)}}));
        if (!Ok(stepped, "delta A/B step")) return false;
      }
      std::int64_t victim = 0;
      std::int64_t victimSessions = 0;
      json::Json stats = ab.Handle(Cmd("workerStats"));
      for (const json::Json& worker : stats.Find("workers")->AsArray()) {
        if (worker.GetInt("sessions", 0) > victimSessions) {
          victim = worker.GetInt("worker", -1);
          victimSessions = worker.GetInt("sessions", 0);
        }
      }
      json::Json drained =
          ab.Handle(Cmd("drainWorker", {{"worker", json::Json(victim)}}));
      if (!Ok(drained, "delta A/B drainWorker")) return false;
      const double moved = static_cast<double>(drained.GetInt("moved", 0));
      if (moved <= 0) {
        std::fprintf(stderr, "delta A/B: drain moved nothing\n");
        return false;
      }
      *perSession =
          static_cast<double>(drained.GetInt("movedBytes", 0)) / moved;
      return true;
    };

    double fullPerSession = 0.0;
    double deltaPerSession = 0.0;
    if (!drainWirePerSession(false, &fullPerSession)) return 1;
    if (!drainWirePerSession(true, &deltaPerSession)) return 1;
    const double reduction =
        deltaPerSession > 0 ? fullPerSession / deltaPerSession : 0.0;
    std::printf("\n# migration wire bytes, mostly-idle 1 MiB sessions\n");
    std::printf("%-22s %10.1f KiB/session\n", "full image",
                fullPerSession / 1024.0);
    std::printf("%-22s %10.1f KiB/session\n", "delta blob",
                deltaPerSession / 1024.0);
    std::printf("%-22s %10.2fx\n", "wire reduction", reduction);
    report.Set("drain_wire_bytes_per_session", deltaPerSession);
    report.Set("drain_wire_reduction", reduction);
  }

  // --- lane fast path: small-request dispatch latency A/B ----------------------
  // The dispatch machinery in isolation: one WorkerLane over a stub
  // transport that answers instantly, driven queued (Submit -> executor
  // wake -> promise -> future wake: two thread handoffs plus a
  // promise/future allocation per request) vs caller-runs
  // (TryBeginDirect -> Call on this thread -> EndDirect). The stub keeps
  // simulation cost out of the ratio — end to end, the saving is this
  // delta riding on top of whatever the worker itself costs (visible in
  // router_tax_us, where the fast path is on by default).
  {
    class StubTransport : public shard::WorkerTransport {
     public:
      Result<json::Json> Call(const json::Json&) override {
        json::Json response = json::Json::MakeObject();
        response.Set("status", "ok");
        return response;
      }
      std::string Describe() const override { return "stub"; }
    };
    auto stub = std::make_shared<StubTransport>();
    shard::WorkerLane lane(stub);
    const json::Json request = Cmd("stats", {{"sessionId", json::Json(1)}});
    constexpr int kWarmup = 500;
    constexpr int kTimed = 20000;

    for (int i = 0; i < kWarmup; ++i) (void)lane.Submit(request).get();
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kTimed; ++i) {
      if (!lane.Submit(request).get().ok()) {
        std::fprintf(stderr, "lane A/B: queued submit failed\n");
        return 1;
      }
    }
    const double queuedUs = bench::SecondsSince(start) * 1e6 / kTimed;

    auto direct = [&lane, &stub, &request]() -> bool {
      if (!lane.TryBeginDirect()) return false;
      const bool ok = stub->Call(request).ok();
      lane.EndDirect(0);
      return ok;
    };
    for (int i = 0; i < kWarmup; ++i) direct();
    start = std::chrono::steady_clock::now();
    for (int i = 0; i < kTimed; ++i) {
      if (!direct()) {
        std::fprintf(stderr, "lane A/B: direct claim failed\n");
        return 1;
      }
    }
    const double directUs = bench::SecondsSince(start) * 1e6 / kTimed;
    const double speedup = directUs > 0 ? queuedUs / directUs : 0.0;
    std::printf("\n# lane small-request dispatch latency (stub transport)\n");
    std::printf("%-22s %10.2f us/request\n", "queued executor path", queuedUs);
    std::printf("%-22s %10.2f us/request\n", "caller-runs fast path",
                directUs);
    std::printf("%-22s %10.2fx\n", "fast-path speedup", speedup);
    report.Set("lane_small_request_us", directUs);
    report.Set("lane_fastpath_speedup", speedup);
  }

  // --- steady-state routing overhead ------------------------------------------
  // The same step request stream against a routed session and a bare
  // SimServer session; the delta is the router's id-rewrite + forwarding.
  server::SimServer bare;
  json::Json bareCreated = bare.Handle(
      Cmd("createSession", {{"code", json::Json(kWorkload)},
                            {"entry", json::Json("main")}}));
  if (!Ok(bareCreated, "bare createSession")) return 1;
  const std::int64_t bareId = bareCreated.GetInt("sessionId", -1);
  json::Json routedCreated = router.Handle(
      Cmd("createSession", {{"code", json::Json(kWorkload)},
                            {"entry", json::Json("main")}}));
  if (!Ok(routedCreated, "routed createSession")) return 1;
  const std::int64_t routedId = routedCreated.GetInt("sessionId", -1);

  constexpr int kRequests = 2000;
  const std::string routedRequest =
      Cmd("step", {{"sessionId", json::Json(routedId)},
                   {"count", json::Json(1)}})
          .Dump();
  const std::string bareRequest =
      Cmd("step", {{"sessionId", json::Json(bareId)},
                   {"count", json::Json(1)}})
          .Dump();

  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kRequests; ++i) {
    router.HandleRaw(routedRequest);
  }
  const double routedSeconds = bench::SecondsSince(start) / kRequests;

  start = std::chrono::steady_clock::now();
  for (int i = 0; i < kRequests; ++i) {
    bare.HandleRaw(bareRequest);
  }
  const double bareSeconds = bench::SecondsSince(start) / kRequests;

  std::printf("\n# steady-state routing overhead (%d single-step requests)\n",
              kRequests);
  std::printf("%-22s %10.2f us/request\n", "bare SimServer",
              bareSeconds * 1e6);
  std::printf("%-22s %10.2f us/request\n", "via ShardRouter",
              routedSeconds * 1e6);
  std::printf("%-22s %10.2f us (%.1f%%)\n", "router tax",
              (routedSeconds - bareSeconds) * 1e6,
              bareSeconds > 0
                  ? (routedSeconds / bareSeconds - 1.0) * 100.0
                  : 0.0);
  report.Set("router_tax_us", (routedSeconds - bareSeconds) * 1e6);
  return 0;
}
