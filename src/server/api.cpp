#include "server/api.h"

#include <algorithm>

#include "assembler/assembler.h"
#include "cc/compiler.h"
#include "common/slz.h"
#include "common/strings.h"
#include "memory/memory_initializer.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "server/wire.h"

namespace rvss::server {
namespace {

/// Checkpoint-ring accounting for a session ({count, bytes, maxBytes,
/// intervalCycles}) — the per-session memory cap made visible to clients.
json::Json CheckpointInfo(const core::Simulation& sim) {
  const core::CheckpointRing& ring = sim.checkpoints();
  json::Json info = json::Json::MakeObject();
  info.Set("count", static_cast<std::int64_t>(ring.checkpointCount()));
  info.Set("bytes", static_cast<std::int64_t>(ring.totalBytes()));
  info.Set("maxBytes", static_cast<std::int64_t>(ring.maxTotalBytes()));
  info.Set("intervalCycles",
           static_cast<std::int64_t>(ring.intervalCycles()));
  return info;
}

/// The full statistics document a session reports — the one serialization
/// of SimulationStatistics, shared by the `run` and `stats` responses so
/// the two can never drift apart field-by-field again.
json::Json StatisticsJson(const core::Simulation& sim) {
  return sim.statistics().ToJson(sim.memorySystem().stats(),
                                 sim.config().coreClockHz);
}

/// Per-command request counters and handle-latency histograms. The
/// suffix comes from the command table, so a hostile client cannot grow
/// the registry; the per-command lookup is a map find, amortized to noise
/// by the simulation work behind any command worth counting.
void RecordCommandMetrics(Command command, std::uint64_t startNs) {
  if (!obs::Enabled()) return;
  obs::Registry& registry = obs::Registry::Instance();
  static obs::Counter& requests = registry.GetCounter("server.requests");
  static obs::Histogram& handleUs =
      registry.GetHistogram("server.handleUs");
  requests.Increment();
  const std::uint64_t elapsedUs = (obs::MonotonicNowNs() - startNs) / 1000;
  handleUs.Record(elapsedUs);
  const std::string suffix(CommandName(command));
  registry.GetCounter("server.cmd." + suffix).Increment();
  registry.GetHistogram("server.handleUs." + suffix).Record(elapsedUs);
}

/// One deep seek as a server-side loop of bounded SeekTo hops, instead of
/// rejecting (or silently clamping) anything deeper than `chunk`: each
/// hop replays at most `chunk` cycles, the checkpoint ring captures as
/// the replay advances, and the next hop starts from what it captured.
/// Honors the request's semantics — the loop ends at the target, when the
/// program finishes short of it (exactly what a single unbounded SeekTo
/// would do), or on the first real error. `chunk == 0` degenerates to the
/// single-shot SeekTo error, preserving a zero maxStepsPerRequest limit.
/// `*replayed` accumulates the cycles actually re-simulated.
Status ChunkedSeek(core::Simulation& sim, std::uint64_t target,
                   std::uint64_t chunk, std::uint64_t* replayed) {
  *replayed = 0;
  while (true) {
    const std::uint64_t cost = sim.SeekReplayCost(target);
    const std::uint64_t hop =
        chunk > 0 && cost > chunk ? target - (cost - chunk) : target;
    RVSS_RETURN_IF_ERROR(sim.SeekTo(hop, chunk));
    *replayed += sim.lastSeekReplayedCycles();
    // Short of the hop: the program finished mid-replay. Done — a
    // single-shot seek stops at the same cycle.
    if (sim.cycle() != hop || hop == target) return Status::Ok();
  }
}

}  // namespace

json::Json OkResponse() {
  json::Json response = json::Json::MakeObject();
  response.Set("status", "ok");
  return response;
}

json::Json MakeErrorResponse(const Error& error) {
  json::Json response = json::Json::MakeObject();
  response.Set("status", "error");
  json::Json envelope = json::Json::MakeObject();
  envelope.Set("kind", ToString(error.kind));
  envelope.Set("message", error.message);
  envelope.Set("retryable", ErrorIsRetryable(error.kind));
  json::Json details = json::Json::MakeObject();
  if (error.pos.line != 0) {
    details.Set("line", static_cast<std::int64_t>(error.pos.line));
    details.Set("column", static_cast<std::int64_t>(error.pos.column));
  }
  envelope.Set("details", std::move(details));
  response.Set("error", std::move(envelope));
  return response;
}

void AddErrorDetails(json::Json& response, json::Json fields) {
  json::Json* envelope = response.Find("error");
  json::Json* details =
      envelope == nullptr ? nullptr : envelope->Find("details");
  if (details == nullptr || !fields.IsObject()) return;
  for (auto& [key, value] : fields.AsObject()) {
    details->Set(key, std::move(value));
  }
}

std::string ErrorMessage(const json::Json& response,
                         std::string_view fallback) {
  const json::Json* error = response.Find("error");
  return error != nullptr ? error->GetString("message", fallback)
                          : std::string(fallback);
}

json::Json SimServer::Dispatch(Command command, const json::Json& request) {
  // Session-scoped commands resolve their session first; no other class
  // reads "sessionId".
  Session* session = nullptr;
  if (ClassOf(command) == CommandClass::kSession) {
    const std::int64_t id = request.GetInt("sessionId", -1);
    auto found = sessions_.find(id);
    if (found == sessions_.end()) {
      return MakeErrorResponse(Error{ErrorKind::kInvalidArgument,
                                     "unknown sessionId " +
                                         std::to_string(id)});
    }
    session = &found->second;
  }
  core::Simulation* sim = session == nullptr ? nullptr : session->sim.get();

  switch (command) {
    case Command::kHello:
      // The router answers hello from the same table entry; the bare
      // server matches it, so an embedder sees the same version and
      // capability fields without a wire in between.
      return MakeHelloResponse();

    case Command::kCompile: {
      cc::CompileOptions options;
      options.optLevel = static_cast<int>(request.GetInt("optLevel", 0));
      auto compiled = cc::Compile(request.GetString("code", ""), options);
      if (!compiled.ok()) return MakeErrorResponse(compiled.error());
      json::Json response = OkResponse();
      response.Set("assembly", compiled.value().assembly);
      return response;
    }

    case Command::kParseAsm: {
      assembler::Assembler asmArg;
      auto program = asmArg.Assemble(request.GetString("code", ""));
      if (!program.ok()) return MakeErrorResponse(program.error());
      json::Json response = OkResponse();
      response.Set("instructionCount",
                   static_cast<std::int64_t>(
                       program.value().instructions.size()));
      return response;
    }

    case Command::kCheckConfig: {
      const json::Json* configNode = request.Find("config");
      if (configNode == nullptr) {
        return MakeErrorResponse(
            Error{ErrorKind::kInvalidArgument, "missing 'config'"});
      }
      auto config = config::CpuConfigFromJson(*configNode);
      if (!config.ok()) return MakeErrorResponse(config.error());
      json::Json response = OkResponse();
      json::Json problems = json::Json::MakeArray();
      for (const Error& problem : config::Validate(config.value())) {
        problems.Append(problem.message);
      }
      response.Set("problems", std::move(problems));
      return response;
    }

    case Command::kCreateSession: {
      config::CpuConfig config = config::DefaultConfig();
      if (const json::Json* configNode = request.Find("config");
          configNode != nullptr) {
        auto parsed = config::CpuConfigFromJson(*configNode);
        if (!parsed.ok()) return MakeErrorResponse(parsed.error());
        config = std::move(parsed).value();
      }
      // Session configs are client-supplied; the server's own checkpoint
      // byte ceiling wins over whatever budget the session asked for.
      if (limits_.maxCheckpointBytesPerSession > 0) {
        config.checkpoint.maxTotalBytes = std::min(
            config.checkpoint.maxTotalBytes,
            static_cast<std::uint64_t>(limits_.maxCheckpointBytesPerSession));
      }
      core::Simulation::CreateOptions options;
      options.entryLabel = request.GetString("entry", "");
      json::Json arraysJson = json::Json::MakeArray();
      if (const json::Json* arrays = request.Find("arrays");
          arrays != nullptr && arrays->IsArray()) {
        for (const json::Json& arrayNode : arrays->AsArray()) {
          auto def = memory::ArrayDefinitionFromJson(arrayNode);
          if (!def.ok()) return MakeErrorResponse(def.error());
          arraysJson.Append(memory::ToJson(def.value()));
          options.arrays.push_back(std::move(def).value());
        }
      }
      std::string code = request.GetString("code", "");
      if (request.GetBool("isC", false)) {
        cc::CompileOptions ccOptions;
        ccOptions.optLevel = static_cast<int>(request.GetInt("optLevel", 0));
        auto compiled = cc::Compile(code, ccOptions);
        if (!compiled.ok()) return MakeErrorResponse(compiled.error());
        code = compiled.value().assembly;
        if (options.entryLabel.empty()) options.entryLabel = "main";
      }
      auto sim = core::Simulation::Create(config, code, options);
      if (!sim.ok()) return MakeErrorResponse(sim.error());
      const std::int64_t id = nextSessionId_++;
      Session created;
      created.identity = snapshot::MakeIdentity(
          *sim.value(), std::move(code), options.entryLabel,
          options.arrays.empty() ? std::string() : arraysJson.Dump());
      created.sim = std::move(sim).value();
      sessions_[id] = std::move(created);
      json::Json response = OkResponse();
      response.Set("sessionId", id);
      response.Set("apiVersion", kApiVersion);
      return response;
    }

    case Command::kImportSession: {
      obs::ScopedSpan span("session", "importSession");
      const json::Json* blobNode = request.Find("blob");
      static const std::string kNoBlob;
      const std::string& encoded = blobNode != nullptr && blobNode->IsString()
                                       ? blobNode->AsString()
                                       : kNoBlob;
      span.SetDetail(StrFormat("blobBytes=%zu", encoded.size()));
      auto blob = Base64Decode(encoded);
      if (!blob.has_value()) {
        return MakeErrorResponse(Error{ErrorKind::kInvalidArgument,
                                       "'blob' is not valid base64"});
      }
      if (limits_.maxSessionBlobBytes > 0 &&
          blob->size() >
              static_cast<std::size_t>(limits_.maxSessionBlobBytes)) {
        return MakeErrorResponse(Error{
            ErrorKind::kInvalidArgument,
            "session blob of " + std::to_string(blob->size()) +
                " bytes exceeds this server's budget of " +
                std::to_string(limits_.maxSessionBlobBytes) + " bytes"});
      }
      auto imported = snapshot::ImportSessionBlob(
          *blob, limits_.maxCheckpointBytesPerSession > 0
                     ? static_cast<std::uint64_t>(
                           limits_.maxCheckpointBytesPerSession)
                     : 0);
      if (!imported.ok()) return MakeErrorResponse(imported.error());
      const std::int64_t id = nextSessionId_++;
      Session created;
      created.sim = std::move(imported.value().sim);
      created.identity = std::move(imported.value().identity);
      json::Json response = OkResponse();
      response.Set("sessionId", id);
      response.Set("cycle", static_cast<std::int64_t>(created.sim->cycle()));
      sessions_[id] = std::move(created);
      return response;
    }

    case Command::kMetrics: {
      // This process's observability registry. Behind the shard router
      // the same command returns the *fleet* view (the router fans it out
      // to every worker and merges); a bare server answers for itself.
      json::Json response = OkResponse();
      response.Set("apiVersion", kApiVersion);
      if (request.GetString("format", "json") == "text") {
        response.Set("text",
                     obs::MetricsToPrometheusText(obs::MetricsToJson()));
      } else {
        response.Set("metrics", obs::MetricsToJson());
      }
      return response;
    }

    case Command::kTraceDump: {
      json::Json response = OkResponse();
      response.Set("trace", obs::TraceRing::Instance().ToJson());
      return response;
    }

    case Command::kListSessions: {
      json::Json response = OkResponse();
      json::Json list = json::Json::MakeArray();
      std::int64_t totalBytes = 0;
      for (const auto& [id, listed] : sessions_) {
        const std::size_t bytes = snapshot::EstimateSessionBlobBytes(
            *listed.sim, listed.identity);
        totalBytes += static_cast<std::int64_t>(bytes);
        json::Json entry = json::Json::MakeObject();
        entry.Set("sessionId", id);
        entry.Set("cycle", static_cast<std::int64_t>(listed.sim->cycle()));
        entry.Set("status", core::ToString(listed.sim->status()));
        entry.Set("approxBytes", static_cast<std::int64_t>(bytes));
        list.Append(std::move(entry));
      }
      response.Set("sessions", std::move(list));
      response.Set("totalApproxBytes", totalBytes);
      return response;
    }

    case Command::kDeleteSession:
      sessions_.erase(request.GetInt("sessionId", -1));
      return OkResponse();

    case Command::kStep: {
      const std::int64_t count = request.GetInt("count", 1);
      if (count < 0) {
        return MakeErrorResponse(Error{ErrorKind::kInvalidArgument,
                                       "'count' must be non-negative"});
      }
      // Clamp, and bail out as soon as the simulation stops running: a
      // huge count on a finished session must not spin the dispatch loop.
      const std::int64_t bounded = std::min(count, limits_.maxStepsPerRequest);
      std::int64_t stepped = 0;
      for (; stepped < bounded && sim->status() == core::SimStatus::kRunning;
           ++stepped) {
        sim->Step();
      }
      json::Json response = OkResponse();
      response.Set("stepped", stepped);
      RenderOptions options;
      options.includeMemoryDump = request.GetBool("memory", false);
      response.Set("state", RenderJson(*sim, options));
      return response;
    }

    case Command::kFastForward: {
      const std::int64_t instructions = request.GetInt("instructions", -1);
      if (instructions < 0) {
        return MakeErrorResponse(Error{ErrorKind::kInvalidArgument,
                                       "'instructions' must be non-negative"});
      }
      Status status =
          sim->FastForwardTo(static_cast<std::uint64_t>(instructions));
      if (!status.ok()) return MakeErrorResponse(status.error());
      json::Json response = OkResponse();
      response.Set("fastForwardedInstructions",
                   static_cast<std::int64_t>(
                       sim->statistics().fastForwardedInstructions));
      response.Set("state", RenderJson(*sim));
      return response;
    }

    case Command::kStepBack: {
      if (sim->cycle() == 0) {
        return MakeErrorResponse(Error{ErrorKind::kInvalidArgument,
                                       "already at cycle 0; cannot step back"});
      }
      // With checkpoints disabled (or evicted) a deep StepBack replays the
      // whole prefix; maxStepsPerRequest used to clamp that by *failing*
      // the request. Loop the replay server-side in bounded chunks instead
      // — the request means "one cycle back", however much replay that
      // costs, and each chunk keeps the dispatch loop's unit of work
      // bounded.
      std::uint64_t replayed = 0;
      Status status = ChunkedSeek(
          *sim, sim->cycle() - 1,
          static_cast<std::uint64_t>(limits_.maxStepsPerRequest), &replayed);
      if (!status.ok()) return MakeErrorResponse(status.error());
      json::Json response = OkResponse();
      response.Set("replayedSteps", static_cast<std::int64_t>(replayed));
      response.Set("state", RenderJson(*sim));
      return response;
    }

    case Command::kExportSession: {
      obs::ScopedSpan span("session", "exportSession");
      // encoding:"delta" ships only the pages that are not the session's
      // base image's — the router asks for it whenever its
      // Options::deltaBlobs is set. Default stays full (self-contained for
      // unknown readers, e.g. a file saved for a future process).
      const std::string encoding = request.GetString("encoding", "full");
      if (encoding != "full" && encoding != "delta") {
        return MakeErrorResponse(Error{
            ErrorKind::kInvalidArgument,
            "'encoding' must be \"full\" or \"delta\", got '" + encoding +
                "'"});
      }
      snapshot::SessionBlobOptions blobOptions;
      blobOptions.delta = encoding == "delta";
      json::Json response = OkResponse();
      std::string blob = Base64Encode(
          snapshot::EncodeSessionBlob(*sim, session->identity, blobOptions));
      span.SetDetail(StrFormat("cycle=%llu blobBytes=%zu",
                               static_cast<unsigned long long>(sim->cycle()),
                               blob.size()));
      response.Set("blob", std::move(blob));
      response.Set("cycle", static_cast<std::int64_t>(sim->cycle()));
      response.Set("encoding", encoding);
      return response;
    }

    case Command::kSaveCheckpoint: {
      obs::ScopedSpan span("session", "saveCheckpoint");
      sim->CaptureCheckpointNow();
      span.SetDetail(StrFormat(
          "cycle=%llu ringBytes=%zu",
          static_cast<unsigned long long>(sim->cycle()),
          static_cast<std::size_t>(sim->checkpoints().totalBytes())));
      json::Json response = OkResponse();
      response.Set("cycle", static_cast<std::int64_t>(sim->cycle()));
      response.Set("checkpoints", CheckpointInfo(*sim));
      return response;
    }

    case Command::kRestoreCheckpoint: {
      const std::int64_t cycle = request.GetInt("cycle", -1);
      if (cycle < 0) {
        return MakeErrorResponse(Error{
            ErrorKind::kInvalidArgument,
            "'cycle' must be a non-negative integer"});
      }
      obs::ScopedSpan span("session", "restoreCheckpoint");
      // Deep restores loop server-side in maxStepsPerRequest-sized hops
      // (see ChunkedSeek) rather than failing past the per-request bound.
      std::uint64_t replayed = 0;
      Status status = ChunkedSeek(
          *sim, static_cast<std::uint64_t>(cycle),
          static_cast<std::uint64_t>(limits_.maxStepsPerRequest), &replayed);
      if (!status.ok()) return MakeErrorResponse(status.error());
      span.SetDetail(StrFormat("cycle=%lld replayed=%llu",
                               static_cast<long long>(cycle),
                               static_cast<unsigned long long>(replayed)));
      json::Json response = OkResponse();
      response.Set("replayedSteps", static_cast<std::int64_t>(replayed));
      response.Set("state", RenderJson(*sim));
      return response;
    }

    case Command::kRun: {
      const std::int64_t maxCycles = request.GetInt("maxCycles", 10'000'000);
      if (maxCycles < 0) {
        return MakeErrorResponse(Error{ErrorKind::kInvalidArgument,
                                       "'maxCycles' must be non-negative"});
      }
      const std::uint64_t before = sim->cycle();
      sim->Run(static_cast<std::uint64_t>(
          std::min(maxCycles, limits_.maxRunCyclesPerRequest)));
      json::Json response = OkResponse();
      // Like step's "stepped": makes a clamped / truncated run visible.
      response.Set("ranCycles",
                   static_cast<std::int64_t>(sim->cycle() - before));
      response.Set("statistics", StatisticsJson(*sim));
      response.Set("finishReason", core::ToString(sim->finishReason()));
      if (sim->fault().has_value()) {
        response.Set("fault", sim->fault()->ToText());
      }
      return response;
    }

    case Command::kState: {
      json::Json response = OkResponse();
      RenderOptions options;
      options.includeMemoryDump = request.GetBool("memory", false);
      response.Set("state", RenderJson(*sim, options));
      return response;
    }

    case Command::kStats: {
      json::Json response = OkResponse();
      response.Set("statistics", StatisticsJson(*sim));
      response.Set("checkpoints", CheckpointInfo(*sim));
      return response;
    }

    case Command::kWorkerStats: case Command::kDrainWorker:
    case Command::kOpenWorker: case Command::kAddWorker:
    case Command::kRemoveWorker: case Command::kRebalance:
    case Command::kShutdownWorker: case Command::kShutdownGateway:
    case Command::kUnknown:
      break;
  }
  return MakeErrorResponse(NotServed(command, request));
}

std::vector<std::int64_t> SimServer::sessionIds() const {
  std::vector<std::int64_t> ids;
  ids.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) ids.push_back(id);
  return ids;
}

json::Json SimServer::Handle(const json::Json& request) {
  const std::uint64_t startNs = obs::MonotonicNowNs();
  const Command command = CommandOf(request);
  json::Json response = Dispatch(command, request);
  RecordCommandMetrics(command, startNs);
  return response;
}

std::string HandleRawVia(
    const std::function<json::Json(const json::Json&)>& handler,
    std::string_view requestBytes, bool compress, RequestTiming* timing) {
  RequestTiming local;
  std::uint64_t t0 = obs::MonotonicNowNs();
  auto request = json::Parse(requestBytes);
  std::uint64_t t1 = obs::MonotonicNowNs();
  local.parseNs = t1 - t0;

  json::Json response;
  if (!request.ok()) {
    response = MakeErrorResponse(request.error());
  } else {
    response = handler(request.value());
  }
  std::uint64_t t2 = obs::MonotonicNowNs();
  local.handleNs = t2 - t1;

  std::string serialized = response.Dump();
  std::uint64_t t3 = obs::MonotonicNowNs();
  local.serializeNs = t3 - t2;
  local.responseBytes = serialized.size();

  if (compress) {
    serialized = SlzCompress(serialized);
    std::uint64_t t4 = obs::MonotonicNowNs();
    local.compressNs = t4 - t3;
  }
  local.compressedBytes = serialized.size();

  if (timing != nullptr) *timing = local;
  return serialized;
}

std::string SimServer::HandleRaw(std::string_view requestBytes, bool compress,
                                 RequestTiming* timing) {
  return HandleRawVia(
      [this](const json::Json& request) {
        return Dispatch(CommandOf(request), request);
      },
      requestBytes, compress, timing);
}

}  // namespace rvss::server
