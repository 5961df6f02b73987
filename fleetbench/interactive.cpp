// The interactive workload: a classroom clicking `step` in the paper's web
// GUI. Four client connections each drive four sessions in a closed loop
// (the next click is sent only after the previous reply arrived); every
// reply carries the full rendered machine state.
#include <thread>
#include <utility>

#include "server/api.h"
#include "server/state_renderer.h"
#include "workloads.h"

namespace fleetbench {
namespace {

using rvss::json::Json;

constexpr int kClients = 4;
constexpr int kSessionsPerClient = 4;

struct Session {
  int program = 0;  ///< 0: insertion sort, 1: FP dot product
  std::int64_t id = 0;
  std::uint64_t cycle = 0;  ///< the client's own count, checked per reply
  std::vector<Click> executed;
  std::string stepRequest, backRequest;
};

/// One timed window's client-side records.
struct Window {
  std::vector<double> stepUs, backUs;
  double stepFrameBytes = 0;
  double simulatedCycles = 0;  ///< steps plus stepBack replays
  std::uint64_t completed = 0;
  Tally tally;
  double seconds = 0;

  void Merge(const Window& other) {
    stepUs.insert(stepUs.end(), other.stepUs.begin(), other.stepUs.end());
    backUs.insert(backUs.end(), other.backUs.begin(), other.backUs.end());
    stepFrameBytes += other.stepFrameBytes;
    simulatedCycles += other.simulatedCycles;
    completed += other.completed;
    tally.Merge(other.tally);
    seconds += other.seconds;
  }
};

struct Client {
  rvss::net::Socket socket;
  std::vector<Session*> sessions;
  std::vector<ClickStream> streams;
  std::vector<std::string> failures;
  bool broken = false;  ///< a transport failure: session states unknown
};

/// Checks one ok reply against the client's own model of the session and
/// advances it. Returns an error message on mismatch.
std::string Apply(Session& session, Click click, const Json& reply,
                  Window& window) {
  const Json* state = reply.Find("state");
  const std::int64_t cycle = state == nullptr ? -1 : state->GetInt("cycle", -1);
  if (click == Click::kStep) {
    if (reply.GetInt("stepped", -1) != 1) {
      return "session " + std::to_string(session.id) + ": step reported " +
             std::to_string(reply.GetInt("stepped", -1)) + " steps, not 1";
    }
    ++session.cycle;
    window.simulatedCycles += 1;
  } else {
    --session.cycle;
    window.simulatedCycles += reply.GetDouble("replayedSteps", 0);
  }
  if (cycle != static_cast<std::int64_t>(session.cycle)) {
    return "session " + std::to_string(session.id) + ": state.cycle " +
           std::to_string(cycle) + ", expected " +
           std::to_string(session.cycle);
  }
  session.executed.push_back(click);
  return {};
}

void Drive(Client& client, Clock::time_point deadline, Window* window) {
  for (std::size_t turn = 0; Clock::now() < deadline; ++turn) {
    const std::size_t slot = turn % client.sessions.size();
    Session& session = *client.sessions[slot];
    const Click click = client.streams[slot].Next(session.cycle);
    const std::string& request = click == Click::kStep ? session.stepRequest
                                                       : session.backRequest;
    Result<Reply> reply = Exchange(client.socket, request, kClientTimeoutMs);
    if (!reply.ok()) {
      window->tally.Count(Outcome::kTransport);
      client.broken = true;
      return;
    }
    // The clock has stopped: parsing and checking are the client's cost.
    Result<Json> parsed = rvss::json::Parse(reply.value().text);
    if (!parsed.ok()) {
      client.failures.push_back("unparseable reply: " +
                                parsed.error().ToText());
      return;
    }
    const Outcome outcome = Classify(parsed.value());
    window->tally.Count(outcome);
    if (outcome != Outcome::kOk) continue;
    std::string mismatch = Apply(session, click, parsed.value(), *window);
    if (!mismatch.empty()) {
      client.failures.push_back(std::move(mismatch));
      return;
    }
    ++window->completed;
    if (click == Click::kStep) {
      window->stepUs.push_back(reply.value().latencyUs);
      window->stepFrameBytes += static_cast<double>(reply.value().frameBytes);
    } else {
      window->backUs.push_back(reply.value().latencyUs);
    }
  }
}

/// Runs every client for `seconds` and merges their records.
Window RunWindow(std::vector<Client>& clients, double seconds) {
  std::vector<Window> perClient(clients.size());
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back(Drive, std::ref(clients[c]), deadline, &perClient[c]);
  }
  for (std::thread& thread : threads) thread.join();
  Window window;
  for (const Window& part : perClient) window.Merge(part);
  window.seconds = SecondsSince(start);
  return window;
}

std::vector<double> ToMs(const std::vector<double>& us) {
  std::vector<double> ms;
  ms.reserve(us.size());
  for (const double value : us) ms.push_back(value / 1e3);
  return ms;
}

}  // namespace

RunResult RunInteractive(const RunOptions& options) {
  RunResult result;
  const std::string programs[2] = {SortProgram(), DotProgram()};
  std::string assembly[2];
  for (int p = 0; p < 2; ++p) {
    Result<std::string> compiled = CompileC(programs[p]);
    if (!compiled.ok()) {
      result.failures.push_back("compile: " + compiled.error().ToText());
      return result;
    }
    assembly[p] = std::move(compiled).value();
  }
  std::vector<Session> sessions(kClients * kSessionsPerClient);
  std::vector<Client> clients;
  Trace trace;
  LayerInputs layers;
  EndToEndInputs e2e;
  Window untraced, traced;

  // Sessions are created one after another so that ids, and therefore
  // worker placement, are the same in every segment and every run.
  auto populate = [&](Fleet& fleet) -> Status {
    clients.clear();
    clients.resize(kClients);
    for (int c = 0; c < kClients; ++c) {
      RVSS_ASSIGN_OR_RETURN(clients[c].socket,
                            rvss::net::ConnectTo(fleet.address(), 10'000));
    }
    for (int c = 0; c < kClients; ++c) {
      for (int j = 0; j < kSessionsPerClient; ++j) {
        const int index = c * kSessionsPerClient + j;
        Session& session = sessions[index];
        session = Session{};
        session.program = index % 2;
        RVSS_ASSIGN_OR_RETURN(
            Json created, Call(clients[c].socket,
                               CreateCSession(programs[session.program]),
                               kClientTimeoutMs));
        if (Classify(created) != Outcome::kOk) {
          return rvss::Error{rvss::ErrorKind::kInternal,
                             "createSession failed: " + created.Dump()};
        }
        session.id = created.GetInt("sessionId", -1);
        session.stepRequest = SessionRequest("step", session.id, "count", 1);
        session.backRequest = SessionRequest("stepBack", session.id);
        clients[c].sessions.push_back(&session);
        clients[c].streams.emplace_back(options.seed, index);
      }
    }
    return Status::Ok();
  };

  auto measure = [&](int segment) -> Status {
    const bool tracing = TracedSegment(options, segment);
    const double seconds = options.seconds / kSegments;
    if (tracing) {
      RVSS_RETURN_IF_ERROR(
          TracedWindow(clients[0].socket, trace, &layers.deltas,
                       [&] { traced.Merge(RunWindow(clients, seconds)); }));
    } else {
      const Window window = RunWindow(clients, seconds);
      e2e.requestsPerS.push_back(window.completed / window.seconds);
      e2e.latencyMs.push_back(ToMs(window.stepUs));
      untraced.Merge(window);
    }
    for (Client& client : clients) {
      for (std::string& failure : client.failures) {
        result.failures.push_back(std::move(failure));
      }
    }

    // Each session's final state must be byte-identical to the same clicks
    // driven through core::Simulation in-process and rendered with
    // server::RenderJson. Traced segments also time each Step/StepBack.
    for (Client& client : clients) {
      if (client.broken) continue;
      for (Session* session : client.sessions) {
        Json request = Json::MakeObject();
        request.Set("command", "state");
        request.Set("sessionId", session->id);
        Result<Json> reply = Call(client.socket, request, kClientTimeoutMs);
        const Json* state = reply.ok() ? reply.value().Find("state") : nullptr;
        if (state == nullptr) {
          result.failures.push_back("final state of session " +
                                    std::to_string(session->id) + " missing");
          continue;
        }
        RVSS_ASSIGN_OR_RETURN(std::unique_ptr<rvss::core::Simulation> model,
                              CreateSimulation(assembly[session->program]));
        for (const Click click : session->executed) {
          const Clock::time_point start = Clock::now();
          if (click == Click::kStep) {
            model->Step();
            if (tracing) {
              layers.probe.stepUs.push_back(SecondsSince(start) * 1e6);
            }
            continue;
          }
          RVSS_RETURN_IF_ERROR(model->StepBack());
          if (tracing) {
            layers.probe.stepBackUs.push_back(SecondsSince(start) * 1e6);
            layers.probe.replayedCycles.push_back(
                static_cast<double>(model->lastSeekReplayedCycles()));
          }
        }
        const std::string expected =
            rvss::json::Parse(rvss::server::RenderJson(*model).Dump())
                .value()
                .Dump();
        if (expected != state->Dump()) {
          result.failures.push_back(
              "session " + std::to_string(session->id) +
              ": final state differs from the in-process replay");
        }
        if (tracing) {
          layers.probe.AddRender(*model);
          layers.model.Add(*model);
        }
      }
    }
    if (!tracing) return Status::Ok();

    // The server split of the segment's step clicks, replayed through the
    // byte-level entry point a worker's frame loop calls.
    rvss::server::SimServer server;
    for (const Session& session : sessions) {
      const std::string created =
          server.HandleRaw(CreateCSession(programs[session.program]).Dump());
      RVSS_ASSIGN_OR_RETURN(const Json reply, rvss::json::Parse(created));
      const std::int64_t id = reply.GetInt("sessionId", -1);
      const std::string step = SessionRequest("step", id, "count", 1);
      const std::string back = SessionRequest("stepBack", id);
      for (const Click click : session.executed) {
        rvss::server::RequestTiming timing;
        server.HandleRaw(click == Click::kStep ? step : back, false, &timing);
        if (click == Click::kStep) layers.server.Add(timing);
      }
    }
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
  e2e.responseKib = all.stepUs.empty()
                        ? 0.0
                        : all.stepFrameBytes / all.stepUs.size() / 1024.0;
  result.endToEnd = EndToEndMetrics(e2e, &result.failures);

  result.report = {
      SegmentPercentileMetric("latency_ms_p90", e2e.latencyMs, 0.9, "ms",
                              &result.failures),
      PercentileMetric("step_us_p50", all.stepUs, 0.5, "us", &result.failures),
      PercentileMetric("step_us_p99", all.stepUs, 0.99, "us", &result.failures),
      PercentileMetric("step_back_us_p50", all.backUs, 0.5, "us",
                       &result.failures),
      PercentileMetric("step_back_us_p90", all.backUs, 0.9, "us",
                       &result.failures),
      {"step_response_kib", e2e.responseKib, "KiB", ""},
      {"sim_mcycles_per_s", all.simulatedCycles / all.seconds / 1e6,
       "Mcycles/s", "steps plus stepBack replays"},
  };

  if (options.trace) {
    for (int p = 0; p < 2; ++p) {
      auto probed = layers.probe.Add(programs[p], 200'000, 0, 0, 200'000);
      if (!probed.ok()) result.failures.push_back(probed.error().ToText());
    }
    layers.clientUs = Mean(traced.stepUs);
    layers.clientCount = traced.stepUs.size();
    layers.handler = trace.handler.Get("step");
    layers.transport = trace.transport.Get("step");
    layers.untracedP50 = Percentile(untraced.stepUs, 0.5);
    layers.tracedP50 = Percentile(traced.stepUs, 0.5);
    layers.checkCoverage = true;
    result.perLayer = PerLayerMetrics(layers, &result.failures);
  }
  return result;
}

}  // namespace fleetbench
