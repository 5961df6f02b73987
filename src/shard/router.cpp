#include "shard/router.h"

#include <algorithm>
#include <future>
#include <limits>
#include <utility>

#include "common/strings.h"
#include "obs/trace.h"
#include "server/wire.h"

namespace rvss::shard {

using server::Command;

namespace {

bool IsOk(const json::Json& response) {
  return response.GetString("status", "") == "ok";
}

json::Json RouterError(ErrorKind kind, std::string message) {
  return server::MakeErrorResponse(Error{kind, std::move(message)});
}

/// A lane call's answer as a response document: a transport failure
/// becomes an error response.
json::Json ResponseOf(Result<json::Json> result) {
  if (!result.ok()) return server::MakeErrorResponse(result.error());
  return std::move(result).value();
}

}  // namespace

Result<std::shared_ptr<WorkerTransport>> ShardRouter::MakeTransport(
    std::size_t worker, const server::SimServer::Limits& limits) {
  if (options_.transportFactory) {
    return options_.transportFactory(worker, limits);
  }
  return std::shared_ptr<WorkerTransport>(
      std::make_shared<InProcessTransport>(limits));
}

ShardRouter::ShardRouter(const Options& options)
    : options_(options),
      ring_(std::max<std::size_t>(options.workerCount, 1)) {
  const std::size_t count = std::max<std::size_t>(options.workerCount, 1);
  workers_.reserve(count);
  lanes_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto transport = MakeTransport(i, options_.workerLimits);
    if (transport.ok()) {
      workers_.push_back(std::move(transport).value());
      lanes_.push_back(std::make_shared<WorkerLane>(
          workers_.back(), options_.maxLaneQueueDepth));
    } else {
      // A slot whose transport could not be built is born removed: the
      // fleet still comes up, the hole is visible in workerStats, and
      // nothing ever routes there.
      workers_.push_back(nullptr);
      lanes_.push_back(nullptr);
      slotErrors_[i] = transport.error().message;
    }
  }
  drained_.assign(count, false);
  gated_.assign(count, false);
}

std::size_t ShardRouter::workerCount() const {
  MutexLock lock(fleetMutex_);
  return workers_.size();
}

std::size_t ShardRouter::sessionCount() const {
  MutexLock lock(fleetMutex_);
  return placements_.size();
}

server::SimServer* ShardRouter::workerServer(std::size_t index) {
  MutexLock lock(fleetMutex_);
  if (index >= workers_.size() || workers_[index] == nullptr) return nullptr;
  return workers_[index]->LocalServer();
}

std::string ShardRouter::HandleRaw(std::string_view requestBytes,
                                   bool compress,
                                   server::RequestTiming* timing) {
  return server::HandleRawVia(
      [this](const json::Json& request) { return Handle(request); },
      requestBytes, compress, timing);
}

json::Json ShardRouter::CallViaLane(std::size_t worker,
                                    const json::Json& request) {
  WorkerLane::Ticket ticket;
  {
    MutexLock lock(fleetMutex_);
    if (!IsLive(worker)) {
      return RouterError(ErrorKind::kUnavailable,
                         "worker " + std::to_string(worker) + " was removed");
    }
    ticket = lanes_[worker]->Join();
  }
  return ResponseOf(ticket.Call(request));
}

std::vector<std::future<Result<json::Json>>> ShardRouter::CallEach(
    std::vector<WorkerLane::Ticket> tickets, const json::Json& request) {
  std::vector<std::future<Result<json::Json>>> pending(tickets.size());
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    if (!tickets[i].valid()) continue;
    pending[i] = std::async(
        std::launch::async,
        [ticket = std::move(tickets[i]), request]() mutable {
          // The callable lives as long as its future; the ticket must go,
          // passing the turn on, as soon as the call returns.
          WorkerLane::Ticket held = std::move(ticket);
          return held.Call(request);
        });
  }
  return pending;
}

Result<WorkerLane::Ticket> ShardRouter::TakeOver(std::size_t index) {
  WorkerLane::Ticket owner;
  {
    // One section: no ticket joins between the closing gate and ours, so
    // once ours holds the turn every request that joined ahead of it has
    // finished and recorded its placement change, and none waits behind.
    MutexLock lock(fleetMutex_);
    gated_[index] = true;
    owner = lanes_[index]->Join();
  }
  Status turn;
  {
    // An in-flight `run` completes first; its client gets a normal
    // response. Requests for the worker's sessions wait at the gate.
    obs::ScopedSpan quiesceSpan("fleet", "quiesce");
    quiesceSpan.SetDetail(StrFormat("worker=%zu", index));
    turn = owner.Wait();
  }
  if (!turn.ok()) {
    // Refused at the depth cap like any other ticket: nothing has moved.
    OpenGate(index);
    return turn.error();
  }
  return owner;
}

void ShardRouter::OpenGate(std::size_t index) {
  {
    MutexLock lock(fleetMutex_);
    gated_[index] = false;
  }
  gateOpen_.NotifyAll();
}

json::Json ShardRouter::Handle(const json::Json& request) {
  using server::CommandClass;
  const Command command = server::CommandOf(request);
  obs::Registry& registry = obs::Registry::Instance();
  static obs::Counter& requests =
      registry.GetCounter("shard.router.requests");
  static obs::Histogram& handleUs =
      registry.GetHistogram("shard.router.handleUs");
  requests.Increment();
  if (obs::Enabled()) {
    registry
        .GetCounter("shard.router.cmd." +
                    std::string(server::CommandName(command)))
        .Increment();
  }
  obs::ScopedLatency timer(handleUs);

  switch (server::ClassOf(command)) {
    case CommandClass::kStateless: return StatelessCommand(request);
    case CommandClass::kAdmitting: return AdmitSession(request);
    case CommandClass::kSession: return RouteSessionCommand(command, request);
    case CommandClass::kFleetView: case CommandClass::kFleetOp:
      return FleetCommand(command, request);
    // Forwarding process control would let any API client stop a fleet
    // process; only removeWorker sends shutdownWorker, straight down the
    // transport.
    case CommandClass::kProcessControl: case CommandClass::kUnknown:
      break;
  }
  return server::MakeErrorResponse(server::NotServed(command, request));
}

json::Json ShardRouter::FleetCommand(Command command,
                                     const json::Json& request) {
  switch (command) {
    case Command::kHello:
      // The router's own fingerprint, which every worker matched at
      // connect time: a client (or an operator's curl) can verify build
      // compatibility without reaching into the fleet.
      return server::MakeHelloResponse();
    case Command::kListSessions: return ListSessions();
    case Command::kMetrics: return Metrics(request);
    case Command::kTraceDump: return TraceDump();
    case Command::kWorkerStats: return WorkerStats();
    case Command::kDrainWorker: return DrainWorker(request);
    case Command::kOpenWorker: return OpenWorker(request);
    case Command::kAddWorker: return AddWorker(request);
    case Command::kRemoveWorker: return RemoveWorker(request);
    case Command::kRebalance: return Rebalance();
    // Routed by class in Handle; never reach here.
    case Command::kCompile: case Command::kParseAsm:
    case Command::kCheckConfig: case Command::kCreateSession:
    case Command::kImportSession: case Command::kStep: case Command::kStepBack:
    case Command::kFastForward: case Command::kRun: case Command::kState:
    case Command::kStats: case Command::kSaveCheckpoint:
    case Command::kRestoreCheckpoint: case Command::kExportSession:
    case Command::kDeleteSession: case Command::kShutdownWorker:
    case Command::kShutdownGateway: case Command::kUnknown:
      break;
  }
  return server::MakeErrorResponse(server::NotServed(command, request));
}

json::Json ShardRouter::StatelessCommand(const json::Json& request) {
  // Stateless commands (compile, parseAsm, checkConfig) need no
  // placement; any live worker gives the right answer —
  // and they are side-effect-free, so a worker whose process is dead is
  // simply skipped for the next one instead of failing the request. A
  // gated worker (a fleet operation owns it) is skipped the same way
  // rather than waited for. The request takes its turn on each
  // candidate's lane (the fleet mutex is held only to join the line), so
  // a stateless command never races the worker's session traffic.
  json::Json lastError = RouterError(ErrorKind::kUnavailable,
                                     "every worker has been removed");
  for (std::size_t i = 0;; ++i) {
    WorkerLane::Ticket ticket;
    {
      MutexLock lock(fleetMutex_);
      if (i >= workers_.size()) break;
      if (!IsLive(i) || gated_[i]) continue;
      // Join *under* the mutex, after the gate check: no ticket may
      // join behind a fleet operation's closed gate. Only the wait for
      // the turn happens unlocked.
      ticket = lanes_[i]->Join();
    }
    auto response = ticket.Call(request);
    if (response.ok()) return std::move(response).value();
    lastError = server::MakeErrorResponse(response.error());
  }
  return lastError;
}

std::vector<bool> ShardRouter::Eligible() const {
  std::vector<bool> eligible(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    eligible[i] = IsLive(i) && !drained_[i];
  }
  return eligible;
}

Result<std::size_t> ShardRouter::PlaceNew(std::int64_t globalId) {
  auto worker = ring_.Pick(static_cast<std::uint64_t>(globalId), Eligible());
  if (!worker.has_value()) {
    return Error{ErrorKind::kUnavailable,
                 "all workers are drained; no worker accepts new sessions"};
  }
  return *worker;
}

json::Json ShardRouter::AdmitSession(const json::Json& request) {
  // createSession and importSession admit identically: allocate a global
  // id, place it on the ring, forward, and record where it landed. The
  // worker round trip runs *unlocked*, and the placement is recorded
  // before the ticket goes: a fleet operation taking the worker over
  // joins behind this ticket, so by the time it reads the placement map
  // this admission has either recorded its entry or failed. Admissions
  // therefore overlap with traffic, with each other, and with drains of
  // *other* workers.
  std::int64_t globalId = 0;
  std::size_t worker = 0;
  WorkerLane::Ticket ticket;
  {
    MutexLock lock(fleetMutex_);
    globalId = nextGlobalId_++;
    while (true) {
      auto placed = PlaceNew(globalId);
      if (!placed.ok()) return server::MakeErrorResponse(placed.error());
      worker = placed.value();
      if (!gated_[worker]) break;
      // The ring picked a worker a fleet operation currently owns; wait
      // for the gate and re-place (eligibility may have changed).
      gateOpen_.Wait(fleetMutex_);
    }
    ticket = lanes_[worker]->Join();
  }
  json::Json response = ResponseOf(ticket.Call(request));
  if (!IsOk(response)) return response;
  {
    MutexLock lock(fleetMutex_);
    placements_[globalId] =
        Placement{worker, response.GetInt("sessionId", -1)};
  }
  static obs::Counter& admissions =
      obs::Registry::Instance().GetCounter("shard.router.admissions");
  admissions.Increment();
  response.Set("sessionId", globalId);
  response.Set("worker", static_cast<std::int64_t>(worker));
  return response;
}

json::Json ShardRouter::RouteSessionCommand(Command command,
                                            const json::Json& request) {
  const std::int64_t globalId = request.GetInt("sessionId", -1);
  std::int64_t localId = 0;
  WorkerLane::Ticket ticket;
  {
    MutexLock lock(fleetMutex_);
    while (true) {
      auto it = placements_.find(globalId);
      if (it == placements_.end()) {
        return RouterError(ErrorKind::kInvalidArgument,
                           "unknown sessionId " + std::to_string(globalId));
      }
      const Placement placement = it->second;
      if (!IsLive(placement.worker)) {
        return RouterError(ErrorKind::kUnavailable,
                           "worker " + std::to_string(placement.worker) +
                               " was removed");
      }
      if (!gated_[placement.worker]) {
        // Session commands (step, run, stepBack, exportSession, ...)
        // release the mutex and wait for their turn on the lane: this is
        // where the fleet's parallelism comes from. Per-session ordering
        // holds because a session's requests all join the same FIFO
        // lane, in the order their dispatching threads held the mutex.
        localId = placement.localId;
        ticket = lanes_[placement.worker]->Join();
        break;
      }
      // A fleet operation owns this session's worker (drain, rebalance,
      // removal in progress): wait for the gate and re-resolve — the
      // session may have moved to a different worker meanwhile. Only
      // traffic aimed at the gated worker blocks here.
      gateOpen_.Wait(fleetMutex_);
    }
  }
  json::Json forwarded = request;
  forwarded.Set("sessionId", localId);
  json::Json response = ResponseOf(ticket.Call(forwarded));
  if (command == Command::kDeleteSession && IsOk(response)) {
    // Erased before the ticket goes, like an admission's placement: a
    // fleet operation that owns the worker next never sees the session.
    MutexLock lock(fleetMutex_);
    placements_.erase(globalId);
  }
  return response;
}

/// localId -> session node, for O(log n) joins against the placement map.
std::map<std::int64_t, const json::Json*> ShardRouter::IndexSessions(
    const json::Json& listResponse) {
  std::map<std::int64_t, const json::Json*> index;
  const json::Json* sessions = listResponse.Find("sessions");
  if (sessions == nullptr || !sessions->IsArray()) return index;
  for (const json::Json& session : sessions->AsArray()) {
    index[session.GetInt("sessionId", -1)] = &session;
  }
  return index;
}

json::Json ShardRouter::ListSessions() {
  // Join each worker's listSessions with the global id map, reporting in
  // global-id order so the output is stable across placements. Holds the
  // fleet-op mutex throughout: no drain or rebalance can interleave, so
  // the listing is a consistent fleet-topology snapshot — while routing
  // continues, so a concurrent admission or delete may or may not appear
  // (it would not have been part of any serial order either). Worker
  // queries fan out to every lane at once, so the fleet enumerates in
  // parallel.
  MutexLock opLock(fleetOpMutex_);
  std::size_t slots = 0;
  std::map<std::int64_t, Placement> placements;
  std::vector<WorkerLane::Ticket> tickets;
  {
    MutexLock lock(fleetMutex_);
    slots = workers_.size();
    placements = placements_;
    tickets = JoinLiveLanes();
  }
  std::vector<std::future<Result<json::Json>>> pending = CallEach(
      std::move(tickets), server::MakeRequest(Command::kListSessions));
  json::Json response = server::OkResponse();
  json::Json list = json::Json::MakeArray();
  json::Json unreachable = json::Json::MakeArray();
  std::int64_t totalBytes = 0;
  std::vector<json::Json> perWorker;
  perWorker.reserve(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    if (!pending[i].valid()) {
      perWorker.push_back(json::Json::MakeObject());
      continue;
    }
    perWorker.push_back(ResponseOf(pending[i].get()));
    // A live slot whose process is dead cannot enumerate its sessions;
    // flag it so the omissions below read as "unreachable", not
    // "deleted" — the sessions still exist and still route (to errors).
    if (!IsOk(perWorker.back())) {
      unreachable.Append(json::Json(static_cast<std::int64_t>(i)));
    }
  }
  std::vector<std::map<std::int64_t, const json::Json*>> perWorkerIndex;
  perWorkerIndex.reserve(perWorker.size());
  for (const json::Json& listed : perWorker) {
    perWorkerIndex.push_back(IndexSessions(listed));
  }
  for (const auto& [globalId, placement] : placements) {
    const auto& index = perWorkerIndex[placement.worker];
    auto found = index.find(placement.localId);
    if (found == index.end()) continue;
    json::Json entry = *found->second;
    entry.Set("sessionId", globalId);
    entry.Set("worker", static_cast<std::int64_t>(placement.worker));
    totalBytes += entry.GetInt("approxBytes", 0);
    list.Append(std::move(entry));
  }
  response.Set("sessions", std::move(list));
  response.Set("totalApproxBytes", totalBytes);
  response.Set("unreachableWorkers", std::move(unreachable));
  return response;
}

Result<ShardRouter::WorkerLoad> ShardRouter::ParseLoad(
    Result<json::Json> response) {
  if (!response.ok()) return response.error();
  if (!IsOk(response.value())) {
    return Error{ErrorKind::kInternal,
                 server::ErrorMessage(response.value(), "listSessions failed")};
  }
  WorkerLoad load;
  const json::Json* sessions = response.value().Find("sessions");
  if (sessions != nullptr && sessions->IsArray()) {
    load.sessions = sessions->AsArray().size();
  }
  load.approxBytes = static_cast<std::uint64_t>(
      response.value().GetInt("totalApproxBytes", 0));
  return load;
}

std::vector<WorkerLane::Ticket> ShardRouter::JoinLiveLanes(
    std::size_t skip) {
  std::vector<WorkerLane::Ticket> tickets(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (i == skip || !IsLive(i)) continue;
    tickets[i] = lanes_[i]->Join(/*pastCap=*/true);
  }
  return tickets;
}

ShardRouter::FleetLoads ShardRouter::ProbeLoads(std::size_t skip) {
  FleetLoads loads;
  std::vector<WorkerLane::Ticket> tickets;
  {
    MutexLock lock(fleetMutex_);
    loads.bytes.assign(workers_.size(), 0);
    loads.reachable.assign(workers_.size(), false);
    tickets = JoinLiveLanes(skip);
  }
  std::vector<std::future<Result<json::Json>>> pending = CallEach(
      std::move(tickets), server::MakeRequest(Command::kListSessions));
  for (std::size_t i = 0; i < pending.size(); ++i) {
    if (!pending[i].valid()) continue;
    auto load = ParseLoad(pending[i].get());
    if (!load.ok()) continue;
    loads.bytes[i] = load.value().approxBytes;
    loads.reachable[i] = true;
  }
  return loads;
}

json::Json ShardRouter::WorkerStats() {
  MutexLock opLock(fleetOpMutex_);
  // Everything a worker entry needs, snapshotted under the fleet mutex
  // so the probe responses can be awaited without it: stats must not
  // block routing behind a minute-long `run` occupying some lane.
  struct Slot {
    bool live = false;
    bool drained = false;
    std::string transport;
    std::string slotError;
    WorkerLane::Stats lane;
  };
  std::vector<Slot> slots;
  std::vector<WorkerLane::Ticket> tickets;
  {
    MutexLock lock(fleetMutex_);
    slots.resize(workers_.size());
    // Snapshot lane load *before* the listSessions probes join: they
    // take turns on the very lanes being measured, so sampling
    // afterwards would report every queue one deep.
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      slots[i].live = IsLive(i);
      if (!slots[i].live) {
        auto slotError = slotErrors_.find(i);
        if (slotError != slotErrors_.end()) {
          slots[i].slotError = slotError->second;
        }
        continue;
      }
      slots[i].drained = drained_[i];
      slots[i].transport = workers_[i]->Describe();
      slots[i].lane = lanes_[i]->stats();
    }
    tickets = JoinLiveLanes();
  }
  std::vector<std::future<Result<json::Json>>> pending = CallEach(
      std::move(tickets), server::MakeRequest(Command::kListSessions));
  json::Json response = server::OkResponse();
  json::Json list = json::Json::MakeArray();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    json::Json entry = json::Json::MakeObject();
    entry.Set("worker", static_cast<std::int64_t>(i));
    if (!slots[i].live) {
      entry.Set("removed", true);
      if (!slots[i].slotError.empty()) entry.Set("error", slots[i].slotError);
      list.Append(std::move(entry));
      continue;
    }
    entry.Set("transport", slots[i].transport);
    entry.Set("drained", slots[i].drained);
    entry.Set("removed", false);
    // Live lane load (the hot-shard tell): how many requests are queued
    // behind this worker, whether one is executing, and how long the last
    // one took — without the cost of a full metrics pull.
    entry.Set("queueDepth",
              static_cast<std::int64_t>(slots[i].lane.queueDepth));
    entry.Set("inFlight", slots[i].lane.inFlight);
    entry.Set("lastDispatchMs", slots[i].lane.lastDispatchMs);
    auto load = ParseLoad(pending[i].get());
    if (load.ok()) {
      entry.Set("sessions", static_cast<std::int64_t>(load.value().sessions));
      entry.Set("approxBytes",
                static_cast<std::int64_t>(load.value().approxBytes));
    } else {
      // A dead worker process: the slot exists, the sessions placed there
      // are unreachable until it restarts — report, don't hide.
      entry.Set("unreachable", true);
      entry.Set("error", load.error().message);
    }
    list.Append(std::move(entry));
  }
  response.Set("workers", std::move(list));
  return response;
}

json::Json ShardRouter::FanOutToProcesses(Command command,
                                          std::string_view field) {
  std::vector<json::Json> entries;
  std::vector<WorkerLane::Ticket> tickets;
  {
    MutexLock lock(fleetMutex_);
    tickets.resize(workers_.size());
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      json::Json entry = json::Json::MakeObject();
      entry.Set("worker", static_cast<std::int64_t>(i));
      if (!IsLive(i)) {
        entry.Set("removed", true);
      } else {
        entry.Set("transport", workers_[i]->Describe());
        if (workers_[i]->LocalServer() != nullptr) {
          // In-process: its numbers and spans are this process's own.
          entry.Set("sharedProcess", true);
        } else {
          tickets[i] = lanes_[i]->Join(/*pastCap=*/true);
        }
      }
      entries.push_back(std::move(entry));
    }
  }
  std::vector<std::future<Result<json::Json>>> pending =
      CallEach(std::move(tickets), server::MakeRequest(command));
  json::Json list = json::Json::MakeArray();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (pending[i].valid()) {
      json::Json answer = ResponseOf(pending[i].get());
      json::Json* value = answer.Find(field);
      if (!IsOk(answer) || value == nullptr) {
        entries[i].Set("unreachable", true);
        entries[i].Set("error", server::ErrorMessage(
                                    answer, "response carried no " +
                                                std::string(field)));
      } else {
        entries[i].Set(field, std::move(*value));
      }
    }
    list.Append(std::move(entries[i]));
  }
  return list;
}

json::Json ShardRouter::Metrics(const json::Json& request) {
  MutexLock opLock(fleetOpMutex_);
  // Start from this process's registry: router counters, lane and
  // transport histograms — and every in-process worker's server metrics,
  // which land in the same registry (the whole point of a process-wide
  // singleton). That is also why in-process workers are *not* fanned out
  // to: merging their `metrics` response would count this registry twice.
  json::Json fleet = obs::MetricsToJson();
  json::Json workers = FanOutToProcesses(Command::kMetrics, "metrics");
  for (const json::Json& entry : workers.AsArray()) {
    if (const json::Json* metrics = entry.Find("metrics")) {
      obs::MergeMetricsJson(fleet, *metrics);
    }
  }
  json::Json response = server::OkResponse();
  if (request.GetString("format", "json") == "text") {
    response.Set("text", obs::MetricsToPrometheusText(fleet));
  } else {
    response.Set("fleet", std::move(fleet));
  }
  response.Set("workers", std::move(workers));
  return response;
}

json::Json ShardRouter::TraceDump() {
  MutexLock opLock(fleetOpMutex_);
  json::Json workers = FanOutToProcesses(Command::kTraceDump, "trace");
  json::Json response = server::OkResponse();
  // The router's own ring holds the fleet-operation spans (drain,
  // rebalance, quiesce) plus anything in-process workers recorded.
  response.Set("trace", obs::TraceRing::Instance().ToJson());
  response.Set("workers", std::move(workers));
  return response;
}

Status ShardRouter::MoveSession(WorkerLane::Ticket& owner,
                                std::int64_t globalId, const Placement& source,
                                std::size_t destination,
                                std::uint64_t* movedBytes) {
  // Every peer decodes delta blobs: the hello handshake pins this
  // build's snapshot format, and every v3 decoder reads base-referenced
  // deltas. Options::deltaBlobs alone picks the wire form.
  const bool deltaExport = options_.deltaBlobs;

  // Source-side calls go through the owner's ticket, which holds the
  // source lane's turn behind its closed gate.
  auto exportFrom = [&](bool delta) {
    json::Json exportRequest = server::MakeRequest(Command::kExportSession);
    exportRequest.Set("sessionId", source.localId);
    if (delta) exportRequest.Set("encoding", "delta");
    return ResponseOf(owner.Call(exportRequest));
  };
  auto exportFailed = [&](const json::Json& exported) {
    // The session vanished from its worker (deleted behind the router's
    // back, export failed, or the worker process is dead). Nothing
    // moved; surface the worker's error.
    return Status::Fail(
        ErrorKind::kInternal,
        "export of session " + std::to_string(globalId) + " from worker " +
            std::to_string(source.worker) + " failed: " +
            server::ErrorMessage(exported, "unknown error"));
  };
  // Session blobs can be tens of MiB of base64; read by reference and
  // copy exactly once (into the import request). The import rides the
  // destination's lane so it cannot interleave with a response already
  // executing there — ordering on the destination is preserved exactly
  // as for client traffic.
  auto blobSizeOf = [](const json::Json& exported) -> std::uint64_t {
    const json::Json* blob = exported.Find("blob");
    return blob != nullptr && blob->IsString() ? blob->AsString().size() : 0;
  };
  auto importFrom = [&](const json::Json& exported) {
    static const std::string kNoBlob;
    const json::Json* blob = exported.Find("blob");
    const std::string& blobBytes =
        blob != nullptr && blob->IsString() ? blob->AsString() : kNoBlob;
    json::Json importRequest = server::MakeRequest(Command::kImportSession);
    importRequest.Set("blob", blobBytes);
    return CallViaLane(destination, importRequest);
  };

  json::Json exported = exportFrom(deltaExport);
  if (!IsOk(exported)) return exportFailed(exported);
  std::uint64_t wireBytes = blobSizeOf(exported);
  json::Json imported = importFrom(exported);
  if (!IsOk(imported) && deltaExport) {
    // Fail closed, not lossy: ANY delta import failure — base-epoch
    // mismatch, decode error, a blob over the destination's budget —
    // retries exactly once with a full image before the move is declared
    // failed. The source copy is still untouched either way.
    static obs::Counter& fallbacks = obs::Registry::Instance().GetCounter(
        "shard.router.deltaFallbacks");
    fallbacks.Increment();
    exported = exportFrom(false);
    if (!IsOk(exported)) return exportFailed(exported);
    wireBytes += blobSizeOf(exported);
    imported = importFrom(exported);
  }
  if (!IsOk(imported)) {
    // Destination refused (blob budget, decode failure) or is
    // unreachable. The source copy was never deleted, so the session is
    // still live where it was — the move aborts, nothing is lost.
    return Status::Fail(
        ErrorKind::kInternal,
        "worker " + std::to_string(destination) + " rejected session " +
            std::to_string(globalId) + ": " +
            server::ErrorMessage(imported, "unknown error"));
  }

  // Only now is it safe to drop the source copy.
  json::Json deleteRequest = server::MakeRequest(Command::kDeleteSession);
  deleteRequest.Set("sessionId", source.localId);
  json::Json deleted = ResponseOf(owner.Call(deleteRequest));
  if (!IsOk(deleted)) {
    // Failing to delete would leave two live copies; roll the import back
    // so the mapping stays unambiguous.
    json::Json rollback = server::MakeRequest(Command::kDeleteSession);
    rollback.Set("sessionId", imported.GetInt("sessionId", -1));
    CallViaLane(destination, rollback);
    return Status::Fail(
        ErrorKind::kInternal,
        "could not delete session " + std::to_string(globalId) +
            " from worker " + std::to_string(source.worker) +
            " after migration: " + server::ErrorMessage(deleted, ""));
  }

  {
    MutexLock lock(fleetMutex_);
    placements_[globalId] =
        Placement{destination, imported.GetInt("sessionId", -1)};
  }
  // wireBytes is what actually crossed the wire for this move — the
  // delta blob, plus the full image too when the fallback fired.
  if (movedBytes != nullptr) *movedBytes += wireBytes;
  static obs::Counter& migrations =
      obs::Registry::Instance().GetCounter("shard.router.migrations");
  static obs::Counter& migrationBytes =
      obs::Registry::Instance().GetCounter("shard.router.migrationBytes");
  migrations.Increment();
  migrationBytes.Add(wireBytes);
  return Status::Ok();
}

std::vector<std::int64_t> ShardRouter::DrainSessions(
    WorkerLane::Ticket& owner, std::size_t index, json::Json& response,
    bool* sourceReachable) {
  // Read while owning the worker, so the map is exact: every request
  // that joined the lane ahead of the owner has recorded its change.
  std::vector<std::pair<std::int64_t, Placement>> toMove;
  std::vector<bool> eligible;
  {
    MutexLock lock(fleetMutex_);
    for (const auto& [globalId, placement] : placements_) {
      if (placement.worker == index) toMove.emplace_back(globalId, placement);
    }
    eligible = Eligible();
  }

  // Per-session byte estimates for the drained worker, and one fleet-wide
  // load snapshot, both taken once: the loop below keeps the destination
  // loads current incrementally instead of re-walking every worker's
  // session table per move. The source is listed through the owner's
  // ticket; the peers are probed through their own lanes.
  std::map<std::int64_t, std::uint64_t> sessionBytes;
  {
    const json::Json listed = ResponseOf(
        owner.Call(server::MakeRequest(Command::kListSessions)));
    if (sourceReachable != nullptr) *sourceReachable = IsOk(listed);
    const auto localIndex = IndexSessions(listed);
    for (const auto& [globalId, placement] : toMove) {
      auto found = localIndex.find(placement.localId);
      if (found != localIndex.end()) {
        sessionBytes[globalId] = static_cast<std::uint64_t>(
            found->second->GetInt("approxBytes", 0));
      }
    }
  }
  FleetLoads fleet = ProbeLoads(/*skip=*/index);
  for (std::size_t i = 0; i < eligible.size(); ++i) {
    // Never pick an unreachable destination: the import would fail and
    // burn an export round-trip per session.
    eligible[i] = eligible[i] && fleet.reachable[i];
  }
  eligible[index] = false;

  std::int64_t moved = 0;
  std::uint64_t movedBytes = 0;
  std::vector<std::int64_t> failedIds;
  json::Json failed = json::Json::MakeArray();
  for (const auto& [globalId, placement] : toMove) {
    auto destination = LeastLoaded(fleet.bytes, eligible);
    Status status =
        destination.has_value()
            ? MoveSession(owner, globalId, placement, *destination,
                          &movedBytes)
            : Status::Fail(ErrorKind::kUnavailable,
                           "no eligible destination worker for session " +
                               std::to_string(globalId));
    if (status.ok()) {
      ++moved;
      fleet.bytes[*destination] += sessionBytes[globalId];
    } else {
      failedIds.push_back(globalId);
      json::Json failure = json::Json::MakeObject();
      failure.Set("sessionId", globalId);
      failure.Set("message", status.error().message);
      failed.Append(std::move(failure));
    }
  }

  response.Set("moved", moved);
  response.Set("movedBytes", static_cast<std::int64_t>(movedBytes));
  response.Set("failed", std::move(failed));
  return failedIds;
}

json::Json ShardRouter::DrainWorker(const json::Json& request) {
  MutexLock opLock(fleetOpMutex_);
  const std::int64_t worker = request.GetInt("worker", -1);
  std::size_t index = 0;
  {
    MutexLock lock(fleetMutex_);
    if (worker < 0 || worker >= static_cast<std::int64_t>(workers_.size()) ||
        !IsLive(static_cast<std::size_t>(worker))) {
      return RouterError(ErrorKind::kInvalidArgument,
                         "unknown worker " + std::to_string(worker));
    }
    index = static_cast<std::size_t>(worker);
    // Close the worker to new placements before touching its sessions, so
    // the drain cannot race its own imports back onto the source.
    // Draining an already-drained (empty) worker is a no-op success.
    drained_[index] = true;
  }
  obs::ScopedSpan span("fleet", "drainWorker");
  json::Json response = json::Json::MakeObject();
  std::vector<std::int64_t> failedIds;
  {
    // New requests for the worker's sessions wait at the gate and
    // execute after the drain, against the sessions' new homes — traffic
    // for every other worker flows the whole time.
    auto owner = TakeOver(index);
    if (!owner.ok()) return server::MakeErrorResponse(owner.error());
    failedIds = DrainSessions(owner.value(), index, response);
  }
  OpenGate(index);
  span.SetDetail(StrFormat("worker=%zu moved=%lld failed=%zu", index,
                           static_cast<long long>(response.GetInt("moved", 0)),
                           failedIds.size()));
  if (failedIds.empty()) {
    response.Set("status", "ok");
    return response;
  }
  // Error envelope with the drain tallies carried in its details.
  json::Json error = server::MakeErrorResponse(Error{
      ErrorKind::kInternal,
      "drain of worker " + std::to_string(worker) + " left " +
          std::to_string(failedIds.size()) +
          " session(s) on the worker (each is still live and retryable)"});
  server::AddErrorDetails(error, std::move(response));
  return error;
}

json::Json ShardRouter::OpenWorker(const json::Json& request) {
  MutexLock opLock(fleetOpMutex_);
  MutexLock lock(fleetMutex_);
  const std::int64_t worker = request.GetInt("worker", -1);
  if (worker < 0 || worker >= static_cast<std::int64_t>(workers_.size()) ||
      !IsLive(static_cast<std::size_t>(worker))) {
    return RouterError(ErrorKind::kInvalidArgument,
                       "unknown worker " + std::to_string(worker));
  }
  drained_[static_cast<std::size_t>(worker)] = false;
  return server::OkResponse();
}

json::Json ShardRouter::AddWorker(const json::Json& request) {
  MutexLock opLock(fleetOpMutex_);
  obs::ScopedSpan span("fleet", "addWorker");
  // The slot index cannot shift under us — only fleet operations grow the
  // vectors and they serialize on fleetOpMutex_ — but the read itself
  // still takes the fleet mutex (concurrent routing reads the vectors).
  std::size_t index = 0;
  {
    MutexLock lock(fleetMutex_);
    index = workers_.size();
  }
  Result<std::shared_ptr<WorkerTransport>> transport = [&]()
      -> Result<std::shared_ptr<WorkerTransport>> {
    const std::string address = request.GetString("address", "");
    if (!address.empty()) {
      return std::shared_ptr<WorkerTransport>(
          std::make_shared<SocketTransport>(address));
    }
    return MakeTransport(index, options_.workerLimits);
  }();
  if (!transport.ok()) {
    return server::MakeErrorResponse(transport.error());
  }

  // Probe before committing the slot: a bogus address or a worker that
  // died during spawn must not claim an arc of the ring. The transport
  // has no lane yet, so the call is direct.
  json::Json probe = server::MakeRequest(Command::kListSessions);
  auto probed = transport.value()->Call(probe);
  if (!probed.ok()) {
    return RouterError(ErrorKind::kUnavailable,
                       "new worker " + transport.value()->Describe() +
                           " failed its probe: " + probed.error().message);
  }

  std::string describe;
  {
    MutexLock lock(fleetMutex_);
    workers_.push_back(std::move(transport).value());
    lanes_.push_back(std::make_shared<WorkerLane>(
        workers_.back(), options_.maxLaneQueueDepth));
    drained_.push_back(false);
    gated_.push_back(false);
    ring_.AddWorker();
    describe = workers_[index]->Describe();
  }
  span.SetDetail(StrFormat("worker=%zu transport=%s", index,
                           describe.c_str()));

  json::Json response = server::OkResponse();
  response.Set("worker", static_cast<std::int64_t>(index));
  response.Set("transport", describe);
  return response;
}

json::Json ShardRouter::RemoveWorker(const json::Json& request) {
  MutexLock opLock(fleetOpMutex_);
  const std::int64_t worker = request.GetInt("worker", -1);
  const bool force = request.GetBool("force", false);
  std::size_t index = 0;
  bool processWorker = false;
  std::string address;
  {
    MutexLock lock(fleetMutex_);
    if (worker < 0 || worker >= static_cast<std::int64_t>(workers_.size()) ||
        !IsLive(static_cast<std::size_t>(worker))) {
      return RouterError(ErrorKind::kInvalidArgument,
                         "unknown worker " + std::to_string(worker));
    }
    index = static_cast<std::size_t>(worker);
    drained_[index] = true;
    processWorker = workers_[index]->LocalServer() == nullptr;
    address = workers_[index]->Describe();
  }
  obs::ScopedSpan span("fleet", "removeWorker");
  json::Json response = json::Json::MakeObject();
  std::vector<std::int64_t> failedIds;
  {
    auto owner = TakeOver(index);
    if (!owner.ok()) return server::MakeErrorResponse(owner.error());
    bool sourceReachable = true;
    failedIds = DrainSessions(owner.value(), index, response, &sourceReachable);
    // Graceful stop for process workers, once nothing will be stranded;
    // in-process workers just go away with their transport. A worker the
    // drain already proved dead gets no shutdown round trip — it could
    // only burn the connect timeout.
    if ((failedIds.empty() || force) && processWorker && sourceReachable) {
      (void)owner.value().Call(server::MakeRequest(Command::kShutdownWorker));
    }
  }
  span.SetDetail(StrFormat("worker=%zu moved=%lld lost=%zu", index,
                           static_cast<long long>(response.GetInt("moved", 0)),
                           failedIds.size()));

  json::Json lost = json::Json::MakeArray();
  if (!failedIds.empty() && !force) {
    // Fail closed: the worker stays (drained), every stranded session is
    // still addressed, and the caller can retry or force.
    OpenGate(index);
    json::Json error = server::MakeErrorResponse(Error{
        ErrorKind::kInternal,
        "removeWorker " + std::to_string(worker) + " would strand " +
            std::to_string(failedIds.size()) +
            " session(s); they remain on the (drained) worker — "
            "retry, or pass force to discard them"});
    response.Set("removed", false);
    response.Set("lost", std::move(lost));
    server::AddErrorDetails(error, std::move(response));
    return error;
  }

  {
    MutexLock lock(fleetMutex_);
    for (const std::int64_t globalId : failedIds) {
      // force: the operator accepted the loss (dead process, corrupt
      // session). Drop the placement so the id stops routing to a ghost,
      // and say so explicitly — lost-with-error, never silently.
      placements_.erase(globalId);
      lost.Append(json::Json(globalId));
    }
    ring_.RemoveWorker(index);
    // No ticket can have joined past the closed gate, so Stop() finds an
    // idle lane; it refuses whatever might still reach the dropped lane.
    lanes_[index]->Stop();
    lanes_[index] = nullptr;
    workers_[index] = nullptr;
    if (processWorker && options_.onWorkerShutdown) {
      // Let the process owner reap the worker now — whether it exited
      // gracefully just above or was already dead — instead of leaving a
      // zombie until fleet teardown.
      options_.onWorkerShutdown(address);
    }
  }
  // Waiters blocked on this worker's gate re-resolve: moved sessions
  // route to their new homes, stragglers get "worker was removed".
  OpenGate(index);

  response.Set("status", "ok");
  response.Set("removed", true);
  response.Set("lost", std::move(lost));
  return response;
}

json::Json ShardRouter::Rebalance() {
  MutexLock opLock(fleetOpMutex_);
  obs::ScopedSpan span("fleet", "rebalance");
  FleetLoads fleet = ProbeLoads();
  std::vector<bool> eligible;
  std::size_t maxMoves = 0;
  {
    MutexLock lock(fleetMutex_);
    eligible = Eligible();
    maxMoves = placements_.size();
  }
  for (std::size_t i = 0; i < eligible.size(); ++i) {
    eligible[i] = eligible[i] && fleet.reachable[i];
  }
  const std::size_t eligibleCount =
      static_cast<std::size_t>(
          std::count(eligible.begin(), eligible.end(), true));
  if (eligibleCount == 0) {
    return RouterError(ErrorKind::kUnavailable,
                       "all workers are drained; nothing to rebalance");
  }

  auto skewOf = [&](const std::vector<std::uint64_t>& loads) {
    std::uint64_t total = 0;
    std::uint64_t maxLoad = 0;
    for (std::size_t i = 0; i < loads.size(); ++i) {
      if (!eligible[i]) continue;
      total += loads[i];
      maxLoad = std::max(maxLoad, loads[i]);
    }
    const double mean =
        static_cast<double>(total) / static_cast<double>(eligibleCount);
    return mean > 0 ? static_cast<double>(maxLoad) / mean : 1.0;
  };

  const double skewBefore = skewOf(fleet.bytes);
  std::int64_t moved = 0;
  std::uint64_t movedBytes = 0;
  json::Json failed = json::Json::MakeArray();
  Status stop;  // why the loop stopped early, if it did

  // Move the smallest session off the most loaded worker onto the least
  // loaded one until the skew is within threshold. Bounded by the session
  // count so a pathological load shape cannot loop forever. Loads are
  // snapshotted once and maintained incrementally — a fleet-wide
  // re-estimate per move would walk every worker's session table each
  // iteration.
  std::vector<std::uint64_t> loads = fleet.bytes;
  for (std::size_t iteration = 0; iteration < maxMoves; ++iteration) {
    if (skewOf(loads) <= kRebalanceSkewThreshold) break;
    std::size_t most = 0;
    std::uint64_t mostLoad = 0;
    for (std::size_t i = 0; i < loads.size(); ++i) {
      if (eligible[i] && loads[i] > mostLoad) {
        most = i;
        mostLoad = loads[i];
      }
    }
    std::vector<bool> destinationEligible = eligible;
    destinationEligible[most] = false;
    auto least = LeastLoaded(loads, destinationEligible);
    if (!least.has_value()) break;  // single eligible worker: nothing to do

    std::int64_t candidate = -1;
    std::int64_t candidateBytes = std::numeric_limits<std::int64_t>::max();
    Status status;
    {
      // The source of this move is taken over before its sessions are
      // exported — the same takeover a drain makes, per iteration because
      // `most` changes as loads even out. Only traffic for `most` waits.
      auto owner = TakeOver(most);
      if (!owner.ok()) {
        json::Json failure = json::Json::MakeObject();
        failure.Set("worker", static_cast<std::int64_t>(most));
        failure.Set("message", owner.error().message);
        failed.Append(std::move(failure));
        stop = owner.error();
        break;
      }
      // Smallest session on the most loaded worker (ties -> lowest global
      // id): smallest first avoids overshooting the mean.
      const json::Json sessions = ResponseOf(
          owner.value().Call(server::MakeRequest(Command::kListSessions)));
      const auto localIndex = IndexSessions(sessions);
      Placement source;
      {
        MutexLock lock(fleetMutex_);
        for (const auto& [globalId, placement] : placements_) {
          if (placement.worker != most) continue;
          auto found = localIndex.find(placement.localId);
          if (found == localIndex.end()) continue;
          const std::int64_t bytes = found->second->GetInt("approxBytes", 0);
          if (bytes < candidateBytes) {
            candidate = globalId;
            candidateBytes = bytes;
            source = placement;
          }
        }
      }
      // Converge, don't churn: the move must strictly lower the peak. When
      // the skew is carried by one session bigger than the gap between the
      // heaviest and lightest worker, relocating it only moves the peak —
      // stop and report the honest skewAfter instead of shuffling blobs.
      if (candidate >= 0 &&
          loads[*least] + static_cast<std::uint64_t>(candidateBytes) >=
              mostLoad) {
        candidate = -1;
      }
      if (candidate >= 0) {
        status = MoveSession(owner.value(), candidate, source, *least,
                             &movedBytes);
      }
    }  // the owner's ticket goes: the turn passes on
    OpenGate(most);
    if (candidate < 0) break;
    if (!status.ok()) {
      json::Json failure = json::Json::MakeObject();
      failure.Set("sessionId", candidate);
      failure.Set("message", status.error().message);
      failed.Append(std::move(failure));
      stop = Status::Fail(ErrorKind::kInternal,
                          "rebalance stopped on a failed migration");
      break;  // a stuck session would repeat forever; report and stop
    }
    ++moved;
    const std::uint64_t bytes = static_cast<std::uint64_t>(candidateBytes);
    loads[most] -= std::min(loads[most], bytes);
    loads[*least] += bytes;
  }

  const double skewAfter = skewOf(ProbeLoads().bytes);
  span.SetDetail(StrFormat("moved=%lld skewBefore=%.3f skewAfter=%.3f",
                           static_cast<long long>(moved), skewBefore,
                           skewAfter));
  json::Json response = json::Json::MakeObject();
  response.Set("moved", moved);
  response.Set("movedBytes", static_cast<std::int64_t>(movedBytes));
  response.Set("skewBefore", skewBefore);
  response.Set("skewAfter", skewAfter);
  response.Set("failed", std::move(failed));
  if (stop.ok()) {
    response.Set("status", "ok");
    return response;
  }
  json::Json error = server::MakeErrorResponse(stop.error());
  server::AddErrorDetails(error, std::move(response));
  return error;
}

}  // namespace rvss::shard
