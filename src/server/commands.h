// The command table: every JSON API command, its wire name and its
// routing class, declared once. docs/api.md is its prose form.
//
// Each layer keeps its own handlers — SimServer the simulator commands,
// shard::ShardRouter the fleet, the gateway and the worker frame loop
// process control — but no layer compares command strings. A layer looks
// the request's command up here once and decides by the enum or by its
// class, in switches without a `default:`, so a command added to the
// table fails the build (-Wswitch) in every layer that has not decided
// what to do with it.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "common/status.h"
#include "json/json.h"

namespace rvss::server {

/// How a command is routed through the layers.
enum class CommandClass : std::uint8_t {
  /// Needs no session; any server gives the same answer.
  kStateless,
  /// Creates a session: the router places it, the gateway charges it to
  /// the connection's session quota.
  kAdmitting,
  /// Acts on the session named by the request's "sessionId".
  kSession,
  /// Answered by each layer for what it fronts: a bare server for
  /// itself, the router for the whole fleet.
  kFleetView,
  /// Fleet operations; only a router serves them.
  kFleetOp,
  /// Out-of-band: stops the process serving the connection. Answered by
  /// the frame loop or the gateway, never forwarded.
  kProcessControl,
  /// Not a command.
  kUnknown,
};

// Grouped by class, in the order of CommandClass.
enum class Command : std::uint8_t {
  kCompile, kParseAsm, kCheckConfig,
  kCreateSession, kImportSession,
  kStep, kStepBack, kFastForward, kRun, kState, kStats, kSaveCheckpoint,
  kRestoreCheckpoint, kExportSession, kDeleteSession,
  kHello, kListSessions, kMetrics, kTraceDump,
  kWorkerStats, kDrainWorker, kOpenWorker, kAddWorker, kRemoveWorker,
  kRebalance,
  kShutdownWorker, kShutdownGateway,
  kUnknown
};

struct CommandInfo {
  Command command;
  std::string_view name;
  CommandClass commandClass;
};

/// Every command except kUnknown, in enum order.
std::span<const CommandInfo> Commands();

/// The command a wire name denotes; kUnknown for any other string.
Command LookupCommand(std::string_view name);

/// LookupCommand of the request's "command" field (kUnknown when it is
/// missing or not a string).
Command CommandOf(const json::Json& request);

/// The wire name; "other" for kUnknown. Doubles as the per-command
/// metric suffix: a client-supplied string never becomes a metric name,
/// so the registry cannot grow without bound.
std::string_view CommandName(Command command);

CommandClass ClassOf(Command command);

/// {"command": <name>}: the start of every request a layer sends itself.
json::Json MakeRequest(Command command);

/// The answer of a layer that does not serve `command`: process control
/// is answered only by the process serving the connection and never
/// forwarded; anything else (a fleet operation at a bare server, a name
/// outside the table) is "unknown command '<name>'", naming the
/// request's raw string.
Error NotServed(Command command, const json::Json& request);

}  // namespace rvss::server
