// The simulation server: sessions plus the JSON request router.
//
// Mirrors the paper's client-server split (§III): all simulation logic is
// server-side; clients (the web GUI, the CLI) send JSON commands and
// receive JSON state. The transport here is in-process — HandleRaw takes
// and returns serialized bytes, so the full parse -> simulate -> serialize
// -> compress path is exercised and measurable (experiments E1-E3).
//
// The commands, their parameters and their answers are listed once, in
// docs/api.md; server/commands.h declares their names and routing
// classes.
//
// exportSession serializes the session (configuration, source, arrays and
// the complete simulation state) into a base64 blob via the snapshot
// codec; importSession re-creates it — in this process or any other — and
// execution continues byte-identically. Together they are the session
// migration primitive: a load balancer can drain a server by exporting
// its sessions and importing them elsewhere.
//
// step rejects a negative count and clamps it to Limits::maxStepsPerRequest;
// run clamps maxCycles, and fastForward its instruction count, to
// Limits::maxRunCyclesPerRequest, so no single request can spin the
// dispatch loop unboundedly. stepBack and restoreCheckpoint ride the
// simulation's checkpoint ring (O(interval) instead of re-execution from
// reset); restoreCheckpoint scrubs to an arbitrary cycle, backward or
// forward. A seek that would replay more than maxRunCyclesPerRequest
// cycles (checkpoints disabled or evicted) is refused and leaves the
// session untouched; both commands report the cycles actually
// re-simulated as "replayedSteps".
// Per-session checkpoint memory is capped by the session's
// config.checkpoint.maxTotalBytes and reported in the "checkpoints" object
// ({count, bytes, maxBytes, intervalCycles}).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/simulation.h"
#include "json/json.h"
#include "server/commands.h"
#include "server/state_renderer.h"
#include "snapshot/session.h"

namespace rvss::server {

/// Wall-clock split of one request, for the E2 profiling experiment.
struct RequestTiming {
  std::uint64_t parseNs = 0;
  std::uint64_t handleNs = 0;     ///< simulation + session work
  std::uint64_t serializeNs = 0;
  std::uint64_t compressNs = 0;
  std::size_t responseBytes = 0;
  std::size_t compressedBytes = 0;

  std::uint64_t TotalNs() const {
    return parseNs + handleNs + serializeNs + compressNs;
  }
};

/// Version of the JSON API surface: the error envelope, field naming and
/// negotiation fields. Advertised as "apiVersion" in the hello handshake
/// and in createSession/metrics responses; bumped on incompatible changes.
/// v1: uniform error envelope, camelCase field names, delta-blob hello
/// negotiation. v2: the envelope only (the flat error-field mirror is
/// gone), and an unknown command is answered "unknown command '<name>'".
/// The hello's deltaBlobs field has since gone without a bump: the
/// snapshot-format pin implies it, and readers defaulted it to false.
/// v3: the rendered state is normalized (each in-flight instruction once,
/// in `instructions`; containers hold `seq`s, see state_renderer.h), and
/// restoreCheckpoint answers `replayedSteps` only.
inline constexpr std::int64_t kApiVersion = 3;

/// True exactly for the error kinds a client may retry verbatim (load
/// shed / backpressure, not a fault in the request itself).
inline bool ErrorIsRetryable(ErrorKind kind) {
  return kind == ErrorKind::kUnavailable;
}

/// {"status":"ok"}: the start of every successful response.
json::Json OkResponse();

/// The standard "status: error" JSON response for an Error: a nested
/// {"status":"error","error":{"kind","message","retryable","details":{}}}
/// envelope.
json::Json MakeErrorResponse(const Error& error);

/// Moves every field of the object `fields` into the "error"."details"
/// object of an error response built by MakeErrorResponse.
void AddErrorDetails(json::Json& response, json::Json fields);

/// The "error"."message" of an error response; `fallback` when the
/// response carries none.
std::string ErrorMessage(const json::Json& response,
                         std::string_view fallback);

/// Byte-level request pipeline shared by SimServer and the shard router:
/// parses `requestBytes`, dispatches through `handler`, serializes and
/// optionally compresses the response, filling `timing` when provided.
std::string HandleRawVia(
    const std::function<json::Json(const json::Json&)>& handler,
    std::string_view requestBytes, bool compress = false,
    RequestTiming* timing = nullptr);

class SimServer {
 public:
  /// Per-request work bounds (a public server must not let one request
  /// monopolize the dispatch loop).
  struct Limits {
    std::int64_t maxStepsPerRequest = 1'000'000;
    /// Bounds run's cycles, fastForward's instructions and the replay of
    /// a stepBack or restoreCheckpoint.
    std::int64_t maxRunCyclesPerRequest = 1'000'000'000;
    /// Per-session checkpoint-ring byte budget ceiling. Session configs are
    /// client-supplied, so a shared server clamps them here instead of
    /// trusting them; 0 leaves session budgets untouched.
    std::int64_t maxCheckpointBytesPerSession = 0;
    /// Hard ceiling on an importSession blob (decoded bytes). Unlike the
    /// checkpoint clamp this *rejects* rather than shrinks: a migration
    /// destination refuses sessions it has no budget for, and the router
    /// must keep them where they are. 0 = unlimited.
    std::int64_t maxSessionBlobBytes = 0;
  };

  SimServer() = default;
  explicit SimServer(const Limits& limits) : limits_(limits) {}

  const Limits& limits() const { return limits_; }

  /// Structured entry point (no request parse or reply dump). A reply's
  /// rendered "state" is a raw node (server/state_renderer.h), as on the
  /// wire: Dump gives its bytes, and a reader that looks inside it calls
  /// json::Parse(state.Dump()).
  json::Json Handle(const json::Json& request);

  /// Byte-level entry point: parses, dispatches, serializes, optionally
  /// compresses; fills `timing` when provided.
  std::string HandleRaw(std::string_view requestBytes, bool compress = false,
                        RequestTiming* timing = nullptr);

  std::size_t sessionCount() const { return sessions_.size(); }

  /// Ids of all live sessions, ascending. A direct accessor for embedders
  /// and tests; the JSON surface for the same data is `listSessions`.
  std::vector<std::int64_t> sessionIds() const;

 private:
  struct Session {
    std::unique_ptr<core::Simulation> sim;
    /// Creation inputs retained for exportSession (the simulation itself
    /// does not keep its source text or array definitions).
    snapshot::SessionIdentity identity;
  };

  json::Json Dispatch(Command command, const json::Json& request);

  Limits limits_;
  std::map<std::int64_t, Session> sessions_;
  std::int64_t nextSessionId_ = 1;
};

}  // namespace rvss::server
