#include "server/commands.h"

#include <array>
#include <cstddef>
#include <string>

namespace rvss::server {
namespace {

using enum Command;

// Indexed by Command; the kUnknown entry closes the table.
constexpr std::array<CommandInfo, static_cast<std::size_t>(kUnknown) + 1>
    kCommands = {{
        {kCompile, "compile", CommandClass::kStateless},
        {kParseAsm, "parseAsm", CommandClass::kStateless},
        {kCheckConfig, "checkConfig", CommandClass::kStateless},
        {kCreateSession, "createSession", CommandClass::kAdmitting},
        {kImportSession, "importSession", CommandClass::kAdmitting},
        {kStep, "step", CommandClass::kSession},
        {kStepBack, "stepBack", CommandClass::kSession},
        {kFastForward, "fastForward", CommandClass::kSession},
        {kRun, "run", CommandClass::kSession},
        {kState, "state", CommandClass::kSession},
        {kStats, "stats", CommandClass::kSession},
        {kSaveCheckpoint, "saveCheckpoint", CommandClass::kSession},
        {kRestoreCheckpoint, "restoreCheckpoint", CommandClass::kSession},
        {kExportSession, "exportSession", CommandClass::kSession},
        {kDeleteSession, "deleteSession", CommandClass::kSession},
        {kHello, "hello", CommandClass::kFleetView},
        {kListSessions, "listSessions", CommandClass::kFleetView},
        {kMetrics, "metrics", CommandClass::kFleetView},
        {kTraceDump, "traceDump", CommandClass::kFleetView},
        {kWorkerStats, "workerStats", CommandClass::kFleetOp},
        {kDrainWorker, "drainWorker", CommandClass::kFleetOp},
        {kOpenWorker, "openWorker", CommandClass::kFleetOp},
        {kAddWorker, "addWorker", CommandClass::kFleetOp},
        {kRemoveWorker, "removeWorker", CommandClass::kFleetOp},
        {kRebalance, "rebalance", CommandClass::kFleetOp},
        {kShutdownWorker, "shutdownWorker", CommandClass::kProcessControl},
        {kShutdownGateway, "shutdownGateway", CommandClass::kProcessControl},
        {kUnknown, "other", CommandClass::kUnknown},
    }};

constexpr bool InEnumOrder() {
  for (std::size_t i = 0; i < kCommands.size(); ++i) {
    if (kCommands[i].command != static_cast<Command>(i)) return false;
  }
  return true;
}
static_assert(InEnumOrder(), "kCommands must list every Command in order");

const CommandInfo& Info(Command command) {
  return kCommands[static_cast<std::size_t>(command)];
}

}  // namespace

std::span<const CommandInfo> Commands() {
  return std::span(kCommands).first(kCommands.size() - 1);
}

Command LookupCommand(std::string_view name) {
  for (const CommandInfo& info : Commands()) {
    if (info.name == name) return info.command;
  }
  return kUnknown;
}

Command CommandOf(const json::Json& request) {
  const json::Json* command = request.Find("command");
  return command != nullptr && command->IsString()
             ? LookupCommand(command->AsString())
             : kUnknown;
}

std::string_view CommandName(Command command) { return Info(command).name; }

CommandClass ClassOf(Command command) { return Info(command).commandClass; }

json::Json MakeRequest(Command command) {
  json::Json request = json::Json::MakeObject();
  request.Set("command", CommandName(command));
  return request;
}

Error NotServed(Command command, const json::Json& request) {
  if (ClassOf(command) == CommandClass::kProcessControl) {
    const std::string name(CommandName(command));
    return Error{ErrorKind::kInvalidArgument,
                 "'" + name + "' is process control: only the process "
                 "serving the connection answers it, and nothing forwards "
                 "it (to stop a worker use removeWorker)"};
  }
  return Error{ErrorKind::kInvalidArgument,
               "unknown command '" + request.GetString("command", "") + "'"};
}

}  // namespace rvss::server
