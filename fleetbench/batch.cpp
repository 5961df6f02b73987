// The batch workload: HPC and co-design runs. Two clients, one per
// worker, each work through the same seeded list of kernel jobs: skip
// about half of the program on the ISS, simulate the rest in detail in
// 100k-cycle slices, then collect statistics and the final state.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <thread>
#include <utility>

#include "server/api.h"
#include "workloads.h"

namespace fleetbench {
namespace {

using rvss::json::Json;

constexpr int kKernels = 64;
constexpr std::int64_t kRunSliceCycles = 100'000;
/// The gateway's createSession quota per connection.
constexpr int kCreatesPerConnection = 16;
/// Rounds of the kernel list per segment and second of --seconds, sized so
/// a run's jobs take about that long on a 4-core host; at least one round
/// per segment, so every segment holds at least 2 x 64 = 128 jobs (its p90
/// needs 100).
constexpr double kRoundsPerSegmentSecond = 0.025;

struct Job {
  int kernel = 0;
  std::int64_t sessionId = 0;
};

struct KernelPlan {
  Kernel kernel;
  std::uint64_t ffInstructions = 0;
};

struct Window {
  std::vector<double> jobMs, runUs;
  double frameBytes = 0;
  std::uint64_t completed = 0;
  Tally tally;
  ModelCounts model;
  double seconds = 0;

  void Merge(const Window& other) {
    jobMs.insert(jobMs.end(), other.jobMs.begin(), other.jobMs.end());
    runUs.insert(runUs.end(), other.runUs.begin(), other.runUs.end());
    frameBytes += other.frameBytes;
    completed += other.completed;
    tally.Merge(other.tally);
    model.Merge(other.model);
    seconds += other.seconds;
  }
};

struct Client {
  rvss::net::Socket socket;
  std::vector<Job> jobs;
  /// kernel -> the statistics its first repeat reported.
  std::map<int, std::string> signatures;
  std::vector<std::string> failures;
  bool broken = false;  ///< a transport failure ends the client's run
};

/// The simulated statistics that must repeat exactly for one kernel.
std::string Signature(const Json& statistics) {
  Json signature = Json::MakeObject();
  for (const char* key :
       {"cycles", "committedInstructions", "fetchedInstructions", "cache",
        "branchPrediction"}) {
    if (const Json* value = statistics.Find(key)) signature.Set(key, *value);
  }
  return signature.Dump();
}

/// One request of a job. On an ok reply, adds its latency to `jobUs` and
/// returns the reply (parsed after the clock stopped); otherwise records
/// the failure in the tally and returns false.
bool Send(Client& client, const std::string& request, Window& window,
          double* jobUs, Json* reply, double* latencyUs = nullptr) {
  Result<Reply> exchanged =
      Exchange(client.socket, request, kClientTimeoutMs);
  if (!exchanged.ok()) {
    window.tally.Count(Outcome::kTransport);
    client.broken = true;
    return false;
  }
  Result<Json> parsed = rvss::json::Parse(exchanged.value().text);
  const Outcome outcome =
      parsed.ok() ? Classify(parsed.value()) : Outcome::kErrorEnvelope;
  window.tally.Count(outcome);
  if (outcome != Outcome::kOk) return false;
  ++window.completed;
  window.frameBytes += static_cast<double>(exchanged.value().frameBytes);
  *jobUs += exchanged.value().latencyUs;
  if (latencyUs != nullptr) *latencyUs = exchanged.value().latencyUs;
  *reply = std::move(parsed).value();
  return true;
}

void RunJob(Client& client, const Job& job, const KernelPlan& plan,
            Window& window) {
  const auto fail = [&](const std::string& what) {
    client.failures.push_back(plan.kernel.name + " (session " +
                              std::to_string(job.sessionId) + "): " + what);
  };
  double jobUs = 0;
  Json reply;
  if (!Send(client,
            SessionRequest("fastForward", job.sessionId, "instructions",
                           static_cast<std::int64_t>(plan.ffInstructions)),
            window, &jobUs, &reply)) {
    return;
  }
  if (reply.GetInt("fastForwardedInstructions", -1) !=
      static_cast<std::int64_t>(plan.ffInstructions)) {
    return fail("fastForward skipped " +
                std::to_string(reply.GetInt("fastForwardedInstructions", -1)) +
                " instructions");
  }
  const std::string run =
      SessionRequest("run", job.sessionId, "maxCycles", kRunSliceCycles);
  for (int slice = 0;; ++slice) {
    double runUs = 0;
    if (!Send(client, run, window, &jobUs, &reply, &runUs)) return;
    window.runUs.push_back(runUs);
    if (reply.GetString("finishReason", "") != "none") break;
    if (slice > 10'000) return fail("did not finish");
  }
  if (reply.GetString("finishReason", "") != "main returned") {
    return fail("finished with " + reply.GetString("finishReason", ""));
  }
  if (!Send(client, SessionRequest("stats", job.sessionId), window, &jobUs,
            &reply)) {
    return;
  }
  const Json* statistics = reply.Find("statistics");
  if (statistics == nullptr) return fail("stats without statistics");
  window.model.AddStatistics(*statistics);
  const std::string signature = Signature(*statistics);
  auto [first, inserted] = client.signatures.emplace(job.kernel, signature);
  if (!inserted && first->second != signature) {
    fail("statistics differ between repeats");
  }
  if (!Send(client, SessionRequest("state", job.sessionId), window, &jobUs,
            &reply)) {
    return;
  }
  const Json* state = reply.Find("state");
  const Json* x = state == nullptr ? nullptr : state->Find("registers");
  x = x == nullptr ? nullptr : x->Find("x");
  if (x == nullptr || !x->IsArray() || x->AsArray().size() < 11) {
    return fail("state without registers");
  }
  const std::string a0 = x->AsArray()[10].GetString("value", "");
  const auto value =
      static_cast<std::uint32_t>(std::strtoull(a0.c_str(), nullptr, 16));
  if (value != plan.kernel.expectedA0) {
    fail("a0 = " + std::to_string(value) + ", native result " +
         std::to_string(plan.kernel.expectedA0));
  }
  if (!Send(client, SessionRequest("deleteSession", job.sessionId), window,
            &jobUs, &reply)) {
    return;
  }
  window.jobMs.push_back(jobUs / 1e3);
}

/// Both clients work through their job lists.
Window RunWindow(std::vector<Client>& clients,
                 const std::vector<KernelPlan>& plans) {
  std::vector<Window> perClient(clients.size());
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      for (const Job& job : clients[c].jobs) {
        if (clients[c].broken) break;
        RunJob(clients[c], job, plans[job.kernel], perClient[c]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  Window window;
  for (const Window& part : perClient) window.Merge(part);
  window.seconds = SecondsSince(start);
  return window;
}

}  // namespace

RunResult RunBatch(const RunOptions& options) {
  RunResult result;

  // Inputs: seeded kernels, each sized by running it to completion on the
  // ISS in-process, and per segment whole rounds over them, each round
  // shuffled. This is input generation, outside every timing.
  std::vector<KernelPlan> plans;
  for (Kernel& kernel : MakeKernels(options.seed, kKernels)) {
    Result<std::string> assembly = CompileC(kernel.source);
    auto sim = assembly.ok() ? CreateSimulation(assembly.value())
                             : Result<std::unique_ptr<rvss::core::Simulation>>(
                                   assembly.error());
    if (!sim.ok() || !sim.value()->FastForwardTo(UINT64_MAX).ok()) {
      result.failures.push_back(kernel.name + ": cannot size the kernel");
      return result;
    }
    const auto total = static_cast<double>(
        sim.value()->statistics().fastForwardedInstructions);
    const auto ff =
        static_cast<std::uint64_t>(total * kernel.fastForwardShare);
    plans.push_back(KernelPlan{std::move(kernel), ff});
  }
  const int rounds =
      std::max(1, static_cast<int>(std::lround(options.seconds *
                                               kRoundsPerSegmentSecond)));
  Rng order(SubSeed(options.seed, 0x3000));
  std::vector<std::vector<int>> lists(kSegments);
  for (std::vector<int>& list : lists) {
    for (int r = 0; r < rounds; ++r) {
      std::vector<int> round(kKernels);
      for (int k = 0; k < kKernels; ++k) round[k] = k;
      for (int k = kKernels - 1; k > 0; --k) {
        std::swap(round[k], round[order.Below(k + 1)]);
      }
      list.insert(list.end(), round.begin(), round.end());
    }
  }

  std::vector<Client> clients;
  int segmentIndex = 0;
  // Set-up: job sessions are created one after another, so placement is
  // the same in every run. Each lands on the worker the router picks; it
  // becomes that worker's client's job when it is the next job of the
  // segment's list that worker still lacks, and is deleted otherwise, so
  // both clients end with the same list. Creation rotates connections to
  // stay inside the per-connection session quota (sessions outlive the
  // connection that created them).
  auto populate = [&](Fleet& fleet) -> Status {
    const std::vector<int>& list = lists[segmentIndex];
    const std::size_t perClient = list.size();
    clients.clear();
    clients.resize(Fleet::kWorkers);
    for (Client& client : clients) {
      RVSS_ASSIGN_OR_RETURN(client.socket,
                            rvss::net::ConnectTo(fleet.address(), 10'000));
    }
    rvss::net::Socket creator;
    int creates = kCreatesPerConnection;
    while (clients[0].jobs.size() < perClient ||
           clients[1].jobs.size() < perClient) {
      const std::size_t next =
          std::min(clients[0].jobs.size(), clients[1].jobs.size());
      if (creates == kCreatesPerConnection) {
        RVSS_ASSIGN_OR_RETURN(creator,
                              rvss::net::ConnectTo(fleet.address(), 10'000));
        creates = 0;
      }
      ++creates;
      const int kernel = list[next];
      RVSS_ASSIGN_OR_RETURN(
          Json created,
          Call(creator, CreateCSession(plans[kernel].kernel.source),
               kClientTimeoutMs));
      const std::int64_t worker = created.GetInt("worker", -1);
      if (Classify(created) != Outcome::kOk || worker < 0 ||
          worker >= static_cast<std::int64_t>(Fleet::kWorkers)) {
        return rvss::Error{rvss::ErrorKind::kInternal,
                           "createSession failed: " + created.Dump()};
      }
      const std::int64_t id = created.GetInt("sessionId", -1);
      std::vector<Job>& jobs = clients[worker].jobs;
      if (jobs.size() == next) {
        jobs.push_back(Job{kernel, id});
        continue;
      }
      Json remove = Json::MakeObject();
      remove.Set("command", "deleteSession");
      remove.Set("sessionId", id);
      RVSS_ASSIGN_OR_RETURN(Json removed,
                            Call(creator, remove, kClientTimeoutMs));
      if (Classify(removed) != Outcome::kOk) {
        return rvss::Error{rvss::ErrorKind::kInternal,
                           "deleteSession failed: " + removed.Dump()};
      }
    }
    return Status::Ok();
  };

  Trace trace;
  LayerInputs layers;
  EndToEndInputs e2e;
  Window untraced, traced;
  std::map<int, std::string> signatures;  ///< kernel -> its statistics
  auto measure = [&](int segment) -> Status {
    if (TracedSegment(options, segment)) {
      RVSS_RETURN_IF_ERROR(
          TracedWindow(clients[0].socket, trace, &layers.deltas,
                       [&] { traced.Merge(RunWindow(clients, plans)); }));
    } else {
      const Window window = RunWindow(clients, plans);
      e2e.requestsPerS.push_back(window.completed / window.seconds);
      e2e.latencyMs.push_back(window.jobMs);
      untraced.Merge(window);
    }
    for (Client& client : clients) {
      for (std::string& failure : client.failures) {
        result.failures.push_back(std::move(failure));
      }
      for (const auto& [kernel, signature] : client.signatures) {
        auto [first, inserted] = signatures.emplace(kernel, signature);
        if (!inserted && first->second != signature) {
          result.failures.push_back(plans[kernel].kernel.name +
                                    ": statistics differ between repeats");
        }
      }
    }
    ++segmentIndex;
    return Status::Ok();
  };

  std::uint64_t workerPeakKib = 0;
  Status ran = RunSegments(options, options.trace ? &trace : nullptr, populate,
                           measure, &e2e.setupSeconds, &workerPeakKib);
  if (!ran.ok()) {
    result.failures.push_back(ran.error().ToText());
    return result;
  }

  Window all = untraced;
  all.Merge(traced);
  result.tally = all.tally;

  e2e.peakKib = SelfPeakKib() + workerPeakKib;
  e2e.responseKib =
      all.completed == 0 ? 0.0 : all.frameBytes / all.completed / 1024.0;
  result.endToEnd = EndToEndMetrics(e2e, &result.failures);
  result.report = {
      SegmentPercentileMetric("latency_ms_p90", e2e.latencyMs, 0.9, "ms",
                              &result.failures),
      {"sim_mcycles_per_s", all.model.cycles / all.seconds / 1e6, "Mcycles/s",
       "detailed cycles, both workers"},
      PercentileMetric("job_ms_p50", all.jobMs, 0.5, "ms", &result.failures),
      PercentileMetric("job_ms_p90", all.jobMs, 0.9, "ms", &result.failures),
  };

  if (options.trace) {
    // One job per kernel replayed through the byte-level entry point a
    // worker's frame loop calls, for the server split of `run`; then the
    // in-process probes of the layers below it on the same kernels.
    rvss::server::SimServer server;
    for (const KernelPlan& plan : plans) {
      const std::string created =
          server.HandleRaw(CreateCSession(plan.kernel.source).Dump());
      const std::int64_t id =
          rvss::json::Parse(created).value().GetInt("sessionId", -1);
      server.HandleRaw(SessionRequest(
          "fastForward", id, "instructions",
          static_cast<std::int64_t>(plan.ffInstructions)));
      const std::string run =
          SessionRequest("run", id, "maxCycles", kRunSliceCycles);
      while (true) {
        rvss::server::RequestTiming timing;
        const std::string reply = server.HandleRaw(run, false, &timing);
        layers.server.Add(timing);
        if (rvss::json::Parse(reply).value().GetString("finishReason", "") !=
            "none") {
          break;
        }
      }
      auto probed = layers.probe.Add(plan.kernel.source, plan.ffInstructions,
                                     1000, 10, UINT64_MAX);
      if (!probed.ok()) {
        result.failures.push_back(probed.error().ToText());
        continue;
      }
      layers.probe.AddRender(*probed.value());
    }
    layers.model = all.model;
    layers.clientUs = Mean(traced.runUs);
    layers.clientCount = traced.runUs.size();
    layers.handler = trace.handler.Get("run");
    layers.transport = trace.transport.Get("run");
    layers.untracedP50 = Percentile(untraced.jobMs, 0.5);
    layers.tracedP50 = Percentile(traced.jobMs, 0.5);
    result.perLayer = PerLayerMetrics(layers, &result.failures);
  }
  return result;
}

}  // namespace fleetbench
