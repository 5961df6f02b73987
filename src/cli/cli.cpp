#include "cli/cli.h"

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>

#include "cc/compiler.h"
#include "common/strings.h"
#include "config/cpu_config.h"
#include "core/simulation.h"
#include "gateway/gateway.h"
#include "memory/dump.h"
#include "memory/memory_initializer.h"
#include "obs/registry.h"
#include "server/commands.h"
#include "server/state_renderer.h"
#include "shard/router.h"
#include "shard/transport.h"
#include "shard/worker.h"
#include "snapshot/session.h"

namespace rvss::cli {

using server::Command;

namespace {

std::string UsageText() {
  return R"(rvss-cli — batch superscalar RISC-V simulation

Usage: rvss-cli --asm FILE | --c FILE [options]

Inputs:
  --asm FILE          RISC-V assembly source (RV32IMFD subset)
  --c FILE            C source, compiled with the built-in rvcc compiler
  --opt N             rvcc optimization level 0..3 (default 0)
  --config FILE       architecture description JSON (default: built-in)
  --memory FILE       memory settings JSON (array definitions)
  --entry LABEL       entry point label (default: first instruction, or
                      'main' for C inputs)

Execution:
  --max-cycles N      cycle budget (default 100000000)
  --fast-forward-to N execute the first N instructions on the reference
                      ISS (no pipeline modelling), then hand the
                      architectural state to the detailed model; the
                      detailed window starts at cycle 0. Incompatible
                      with --workers/--load-snapshot.
  --workers N         route the run through an in-process shard router of
                      N SimServer workers; with N > 1 the session is
                      live-migrated to another worker mid-run (the
                      statistics are identical either way — migration is
                      invisible). Incompatible with --trace/--verbose/
                      --dump/--dump-csv/--load-snapshot.
  --spawn-workers N   like --workers, but each worker is a real forked
                      process reached over a unix-domain socket
                      (length-prefixed JSON+blob frames); with N > 1 the
                      run additionally survives an addWorker/removeWorker
                      cycle mid-run (a new process joins the fleet, the
                      session's original worker is drained and removed).
  --sessions M        with --workers/--spawn-workers: run M identical
                      copies of the program as M sessions, driven in
                      parallel from M client threads — sessions on
                      different workers simulate concurrently. Every
                      session must produce byte-identical statistics
                      (determinism + concurrent dispatch must be
                      invisible); the run fails loudly if they diverge.

Worker mode:
  --worker ADDR       run as a fleet worker: serve the JSON command API
                      as frames on ADDR (unix:/path or tcp:HOST:PORT)
                      until a shutdownWorker command arrives. Used by
                      orchestrators; --spawn-workers forks these
                      automatically.

Gateway mode:
  --gateway ADDR      serve the fleet to many concurrent clients: listen
                      on ADDR (unix:/path or tcp:HOST:PORT; tcp port 0
                      picks a free port, printed on stdout), one thread
                      per client connection, all feeding the shard
                      router. Requires --workers N or
                      --spawn-workers N for the fleet behind it; takes
                      no program flags. Serves until a shutdownGateway
                      command arrives.

Snapshots:
  --save-snapshot F   after the run, write a portable session snapshot
                      (config + program + complete state) to F
  --load-snapshot F   resume a saved session instead of --asm/--c; the
                      snapshot embeds config/memory/entry, so those flags
                      are rejected alongside it

Output:
  --format text|json  statistics format (default text)
  --dump FILE         write a binary memory dump after the run
  --dump-csv FILE     write a CSV memory dump after the run
  --verbose           also print the final pipeline state
  --trace             print the pipeline state every cycle (small runs)
  --metrics-dump      after the run, write the process metrics registry
                      (Prometheus-style text) to stderr; with --workers/
                      --spawn-workers, the router's aggregated fleet view
                      (JSON, with per-worker breakdown) instead
)";
}

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct Options {
  std::string asmPath;
  std::string cPath;
  int optLevel = 0;
  std::string configPath;
  std::string memoryPath;
  std::string entry;
  std::uint64_t maxCycles = 100'000'000;
  std::uint64_t fastForwardTo = 0;  ///< ISS-executed prefix, 0 = none
  std::int64_t workers = 0;  ///< 0 = run in-process without a router
  std::int64_t sessions = 1; ///< parallel copies of the batch run
  bool spawnWorkers = false; ///< workers are forked socket processes
  std::string workerListen;  ///< non-empty: run as a worker process
  std::string gatewayListen; ///< non-empty: serve the fleet via a gateway
  std::string format = "text";
  std::string dumpPath;
  std::string dumpCsvPath;
  std::string saveSnapshotPath;
  std::string loadSnapshotPath;
  bool verbose = false;
  bool trace = false;
  bool metricsDump = false;
};

int RunSimulation(const Options& options,
                  std::unique_ptr<core::Simulation> owned,
                  const snapshot::SessionIdentity& identity,
                  std::ostream& out, std::ostream& err);

int RunSharded(const Options& options, const std::string& source,
               const config::CpuConfig& config,
               const std::vector<memory::ArrayDefinition>& arrays,
               std::ostream& out, std::ostream& err);

int RunGateway(const Options& options, std::ostream& out, std::ostream& err);

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  Options options;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= args.size()) return std::nullopt;
      return args[++i];
    };
    if (arg == "--help" || arg == "-h") {
      out << UsageText();
      return 0;
    } else if (arg == "--asm") {
      auto v = value();
      if (!v) { err << "--asm needs a file\n"; return 1; }
      options.asmPath = *v;
    } else if (arg == "--c") {
      auto v = value();
      if (!v) { err << "--c needs a file\n"; return 1; }
      options.cPath = *v;
    } else if (arg == "--opt") {
      auto v = value();
      if (!v) { err << "--opt needs a level\n"; return 1; }
      options.optLevel = static_cast<int>(ParseInt(*v).value_or(0));
    } else if (arg == "--config") {
      auto v = value();
      if (!v) { err << "--config needs a file\n"; return 1; }
      options.configPath = *v;
    } else if (arg == "--memory") {
      auto v = value();
      if (!v) { err << "--memory needs a file\n"; return 1; }
      options.memoryPath = *v;
    } else if (arg == "--entry") {
      auto v = value();
      if (!v) { err << "--entry needs a label\n"; return 1; }
      options.entry = *v;
    } else if (arg == "--max-cycles") {
      auto v = value();
      if (!v) { err << "--max-cycles needs a number\n"; return 1; }
      options.maxCycles = static_cast<std::uint64_t>(ParseInt(*v).value_or(0));
    } else if (arg == "--fast-forward-to") {
      auto v = value();
      const std::int64_t count = v ? ParseInt(*v).value_or(-1) : -1;
      if (count < 0) {
        err << "--fast-forward-to needs a non-negative instruction count\n";
        return 1;
      }
      options.fastForwardTo = static_cast<std::uint64_t>(count);
    } else if (arg == "--workers" || arg == "--spawn-workers") {
      auto v = value();
      const std::int64_t workers = v ? ParseInt(*v).value_or(0) : 0;
      // Workers are eagerly constructed; an absurd count would exhaust
      // memory (or fork-bomb the host) before the first session exists.
      if (workers <= 0 || workers > 256) {
        err << arg << " needs a count between 1 and 256\n";
        return 1;
      }
      options.workers = workers;
      options.spawnWorkers = arg == "--spawn-workers";
    } else if (arg == "--sessions") {
      auto v = value();
      const std::int64_t sessions = v ? ParseInt(*v).value_or(0) : 0;
      // One client thread per session; bounded like the worker count.
      if (sessions <= 0 || sessions > 256) {
        err << "--sessions needs a count between 1 and 256\n";
        return 1;
      }
      options.sessions = sessions;
    } else if (arg == "--worker") {
      auto v = value();
      if (!v) { err << "--worker needs an address (unix:... or tcp:...)\n"; return 1; }
      options.workerListen = *v;
    } else if (arg == "--gateway") {
      auto v = value();
      if (!v) { err << "--gateway needs an address (unix:... or tcp:...)\n"; return 1; }
      options.gatewayListen = *v;
    } else if (arg == "--format") {
      auto v = value();
      if (!v || (*v != "text" && *v != "json")) {
        err << "--format must be text or json\n";
        return 1;
      }
      options.format = *v;
    } else if (arg == "--save-snapshot") {
      auto v = value();
      if (!v) { err << "--save-snapshot needs a file\n"; return 1; }
      options.saveSnapshotPath = *v;
    } else if (arg == "--load-snapshot") {
      auto v = value();
      if (!v) { err << "--load-snapshot needs a file\n"; return 1; }
      options.loadSnapshotPath = *v;
    } else if (arg == "--dump") {
      auto v = value();
      if (!v) { err << "--dump needs a file\n"; return 1; }
      options.dumpPath = *v;
    } else if (arg == "--dump-csv") {
      auto v = value();
      if (!v) { err << "--dump-csv needs a file\n"; return 1; }
      options.dumpCsvPath = *v;
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--metrics-dump") {
      options.metricsDump = true;
    } else {
      err << "unknown argument '" << arg << "'\n" << UsageText();
      return 1;
    }
  }

  if (!options.workerListen.empty()) {
    if (!options.asmPath.empty() || !options.cPath.empty() ||
        options.workers > 0 || !options.gatewayListen.empty() ||
        !options.loadSnapshotPath.empty()) {
      err << "--worker serves a fleet router; it takes no program or "
             "router flags\n";
      return 1;
    }
    server::SimServer::Limits limits;
    Status served = shard::RunWorkerLoop(options.workerListen, limits);
    if (!served.ok()) {
      err << "worker error: " << served.error().ToText() << "\n";
      return 2;
    }
    return 0;
  }

  if (!options.gatewayListen.empty()) {
    if (options.workers <= 0) {
      err << "--gateway fronts a shard fleet; it needs --workers N or "
             "--spawn-workers N\n";
      return 1;
    }
    if (!options.asmPath.empty() || !options.cPath.empty() ||
        !options.loadSnapshotPath.empty() || options.sessions > 1 ||
        options.trace || options.verbose || !options.dumpPath.empty() ||
        !options.dumpCsvPath.empty() || !options.saveSnapshotPath.empty() ||
        options.fastForwardTo > 0) {
      err << "--gateway serves clients over sockets; it takes no program, "
             "session or output flags\n";
      return 1;
    }
    return RunGateway(options, out, err);
  }

  if (!options.loadSnapshotPath.empty()) {
    if (options.workers > 0) {
      err << "--load-snapshot resumes a single in-process simulation; it "
             "cannot be combined with --workers\n";
      return 1;
    }
    if (options.fastForwardTo > 0) {
      err << "--fast-forward-to seeds a fresh simulation; it cannot be "
             "combined with --load-snapshot\n";
      return 1;
    }
    if (!options.asmPath.empty() || !options.cPath.empty() ||
        !options.configPath.empty() || !options.memoryPath.empty() ||
        !options.entry.empty()) {
      err << "--load-snapshot embeds program, config and memory settings; "
             "it cannot be combined with --asm/--c/--config/--memory/"
             "--entry\n";
      return 1;
    }
    auto blob = ReadFile(options.loadSnapshotPath);
    if (!blob) {
      err << "cannot read '" << options.loadSnapshotPath << "'\n";
      return 1;
    }
    auto imported = snapshot::ImportSessionBlob(*blob);
    if (!imported.ok()) {
      err << "error: " << imported.error().ToText() << "\n";
      return 2;
    }
    return RunSimulation(options, std::move(imported.value().sim),
                         imported.value().identity, out, err);
  }

  if (options.asmPath.empty() == options.cPath.empty()) {
    err << "exactly one of --asm or --c is required\n";
    return 1;
  }

  // Load the program source.
  std::string source;
  if (!options.cPath.empty()) {
    auto text = ReadFile(options.cPath);
    if (!text) {
      err << "cannot read '" << options.cPath << "'\n";
      return 1;
    }
    auto compiled = cc::Compile(*text, cc::CompileOptions{options.optLevel});
    if (!compiled.ok()) {
      err << "compile error: " << compiled.error().ToText() << "\n";
      return 2;
    }
    source = compiled.value().assembly;
    if (options.entry.empty()) options.entry = "main";
  } else {
    auto text = ReadFile(options.asmPath);
    if (!text) {
      err << "cannot read '" << options.asmPath << "'\n";
      return 1;
    }
    source = *text;
  }

  // Architecture configuration.
  config::CpuConfig config = config::DefaultConfig();
  if (!options.configPath.empty()) {
    auto text = ReadFile(options.configPath);
    if (!text) {
      err << "cannot read '" << options.configPath << "'\n";
      return 1;
    }
    auto parsed = json::Parse(*text);
    if (!parsed.ok()) {
      err << "config JSON error: " << parsed.error().ToText() << "\n";
      return 2;
    }
    auto parsedConfig = config::CpuConfigFromJson(parsed.value());
    if (!parsedConfig.ok()) {
      err << "config error: " << parsedConfig.error().ToText() << "\n";
      return 2;
    }
    config = std::move(parsedConfig).value();
  }

  // Memory settings.
  core::Simulation::CreateOptions createOptions;
  createOptions.entryLabel = options.entry;
  if (!options.memoryPath.empty()) {
    auto text = ReadFile(options.memoryPath);
    if (!text) {
      err << "cannot read '" << options.memoryPath << "'\n";
      return 1;
    }
    auto parsed = json::Parse(*text);
    if (!parsed.ok() || !parsed.value().IsArray()) {
      err << "memory settings must be a JSON array\n";
      return 2;
    }
    for (const json::Json& node : parsed.value().AsArray()) {
      auto def = memory::ArrayDefinitionFromJson(node);
      if (!def.ok()) {
        err << "memory settings error: " << def.error().ToText() << "\n";
        return 2;
      }
      createOptions.arrays.push_back(std::move(def).value());
    }
  }

  if (options.sessions > 1 && options.workers == 0) {
    err << "--sessions drives parallel copies through a shard router; it "
           "needs --workers or --spawn-workers\n";
    return 1;
  }
  if (options.workers > 0) {
    if (options.trace || options.verbose || !options.dumpPath.empty() ||
        !options.dumpCsvPath.empty()) {
      err << "--workers runs through the shard router's JSON API; it cannot "
             "be combined with --trace/--verbose/--dump/--dump-csv\n";
      return 1;
    }
    if (options.fastForwardTo > 0) {
      err << "--fast-forward-to runs a single in-process simulation; it "
             "cannot be combined with --workers\n";
      return 1;
    }
    return RunSharded(options, source, config, createOptions.arrays, out,
                      err);
  }

  auto sim = core::Simulation::Create(config, source, createOptions);
  if (!sim.ok()) {
    err << "error: " << sim.error().ToText() << "\n";
    return 2;
  }

  std::string arraysJson;
  if (!createOptions.arrays.empty()) {
    json::Json arraysNode = json::Json::MakeArray();
    for (const memory::ArrayDefinition& def : createOptions.arrays) {
      arraysNode.Append(memory::ToJson(def));
    }
    arraysJson = arraysNode.Dump();
  }
  snapshot::SessionIdentity identity = snapshot::MakeIdentity(
      *sim.value(), std::move(source), createOptions.entryLabel,
      std::move(arraysJson));
  return RunSimulation(options, std::move(sim).value(), identity, out, err);
}

namespace {

/// Shared back half of the CLI: runs the (fresh or resumed) simulation,
/// prints the requested reports, writes dumps and the optional snapshot.
int RunSimulation(const Options& options,
                  std::unique_ptr<core::Simulation> owned,
                  const snapshot::SessionIdentity& identity,
                  std::ostream& out, std::ostream& err) {
  core::Simulation& simulation = *owned;

  if (options.fastForwardTo > 0) {
    Status ff = simulation.FastForwardTo(options.fastForwardTo);
    if (!ff.ok()) {
      err << "fast-forward error: " << ff.error().ToText() << "\n";
      return 2;
    }
  }

  if (options.trace) {
    while (simulation.status() == core::SimStatus::kRunning &&
           simulation.cycle() < options.maxCycles) {
      simulation.Step();
      out << server::RenderText(simulation);
    }
  } else {
    simulation.Run(options.maxCycles);
  }

  if (options.verbose) {
    out << server::RenderText(simulation);
  }

  if (options.format == "json") {
    json::Json report = json::Json::MakeObject();
    report.Set("finishReason", core::ToString(simulation.finishReason()));
    if (simulation.fault().has_value()) {
      report.Set("fault", simulation.fault()->ToText());
    }
    report.Set("statistics",
               simulation.statistics().ToJson(
                   simulation.memorySystem().stats(),
                   simulation.config().coreClockHz));
    out << report.DumpPretty() << "\n";
  } else {
    out << "finish reason: " << core::ToString(simulation.finishReason())
        << "\n";
    if (simulation.fault().has_value()) {
      out << "fault: " << simulation.fault()->ToText() << "\n";
    }
    out << simulation.statistics().ToText(simulation.memorySystem().stats(),
                                          simulation.config().coreClockHz);
  }

  if (!options.dumpPath.empty()) {
    std::ofstream dump(options.dumpPath, std::ios::binary);
    const std::string bytes =
        memory::ExportBinary(simulation.memorySystem().memory());
    dump.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  if (!options.dumpCsvPath.empty()) {
    std::ofstream dump(options.dumpCsvPath);
    dump << memory::ExportCsv(simulation.memorySystem().memory());
  }

  if (!options.saveSnapshotPath.empty()) {
    const std::string blob = snapshot::EncodeSessionBlob(simulation, identity);
    std::ofstream file(options.saveSnapshotPath, std::ios::binary);
    if (!file) {
      err << "cannot write '" << options.saveSnapshotPath << "'\n";
      return 1;
    }
    file.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }

  if (options.metricsDump) {
    // Stderr keeps `--format json` stdout parseable by pipelines.
    err << obs::MetricsToPrometheusText(obs::MetricsToJson());
  }

  return simulation.status() == core::SimStatus::kFault ? 2 : 0;
}

/// The --gateway path: stand up the fleet and serve it to many concurrent
/// socket clients through the gateway until a shutdownGateway
/// command (or a fatal listener error) stops it. The bound address is
/// printed first — with tcp port 0 that line is how callers learn the
/// real port.
int RunGateway(const Options& options, std::ostream& out, std::ostream& err) {
  shard::SpawnedFleet fleet;
  shard::ShardRouter::Options routerOptions;
  routerOptions.workerCount = static_cast<std::size_t>(options.workers);
  // A multi-client front door needs backpressure behind it too: bound
  // every worker lane so a stalled worker sheds (retryable kUnavailable)
  // instead of queueing without limit.
  routerOptions.maxLaneQueueDepth = 128;
  if (options.spawnWorkers) {
    routerOptions.transportFactory =
        shard::MakeSpawningTransportFactory(&fleet, "gw");
    routerOptions.onWorkerShutdown = shard::MakeFleetReaper(&fleet);
  }
  shard::ShardRouter router(routerOptions);

  gateway::GatewayOptions gatewayOptions;
  gatewayOptions.address = options.gatewayListen;
  auto gateway = gateway::Gateway::Start(
      [&router](const json::Json& request) { return router.Handle(request); },
      gatewayOptions);
  if (!gateway.ok()) {
    err << "gateway error: " << gateway.error().ToText() << "\n";
    return 2;
  }
  out << "gateway listening on " << gateway.value()->address() << "\n";
  out.flush();
  Status served = gateway.value()->Wait();
  if (!served.ok()) {
    err << "gateway error: " << served.error().ToText() << "\n";
    return 2;
  }
  if (options.metricsDump) {
    err << router.Handle(server::MakeRequest(Command::kMetrics)).DumpPretty()
        << "\n";
  }
  return 0;
}

/// The --workers path: the same batch run, but served by a shard router —
/// and, with more than one worker, deliberately live-migrated mid-run. The
/// statistics must be identical to the single-process run (determinism +
/// byte-identical migration), so this doubles as an end-to-end smoke test
/// of the drain loop from the command line.
///
/// With --sessions M > 1 the program runs as M identical sessions driven
/// by M client threads in parallel: sessions placed on different workers
/// simulate concurrently through the router's dispatch lanes, and every
/// session must still finish with byte-identical statistics — the
/// command-line proof that concurrent dispatch (and the mid-run
/// migration happening under it) is invisible to results.
int RunSharded(const Options& options, const std::string& source,
               const config::CpuConfig& config,
               const std::vector<memory::ArrayDefinition>& arrays,
               std::ostream& out, std::ostream& err) {
  // Spawned worker processes outlive the router object (it only holds
  // connections); the fleet kills and reaps them on every exit path.
  // Workers the router removes mid-run are reaped promptly through the
  // shutdown hook — an elastic cycle must not leave zombies behind.
  shard::SpawnedFleet fleet;
  shard::ShardRouter::Options routerOptions;
  routerOptions.workerCount = static_cast<std::size_t>(options.workers);
  if (options.spawnWorkers) {
    routerOptions.transportFactory =
        shard::MakeSpawningTransportFactory(&fleet, "cli");
    routerOptions.onWorkerShutdown = shard::MakeFleetReaper(&fleet);
  }
  shard::ShardRouter router(routerOptions);

  json::Json create = server::MakeRequest(Command::kCreateSession);
  create.Set("code", source);
  create.Set("entry", options.entry);
  create.Set("config", config::ToJson(config));
  if (!arrays.empty()) {
    json::Json arraysNode = json::Json::MakeArray();
    for (const memory::ArrayDefinition& def : arrays) {
      arraysNode.Append(memory::ToJson(def));
    }
    create.Set("arrays", std::move(arraysNode));
  }

  const std::size_t sessionCount =
      static_cast<std::size_t>(options.sessions);
  std::vector<std::int64_t> sessionIds;
  sessionIds.reserve(sessionCount);
  std::int64_t firstWorker = -1;  // session 0 anchors the mid-run migration
  for (std::size_t i = 0; i < sessionCount; ++i) {
    json::Json created = router.Handle(create);
    if (created.GetString("status", "") != "ok") {
      err << "error: " << server::ErrorMessage(created, "createSession failed")
          << "\n";
      return 2;
    }
    sessionIds.push_back(created.GetInt("sessionId", -1));
    if (i == 0) firstWorker = created.GetInt("worker", -1);
  }

  // Per-session run state, written only by that session's driver thread.
  struct SessionRun {
    std::uint64_t ranCycles = 0;
    json::Json report;
    std::string error;
  };
  std::vector<SessionRun> runs(sessionCount);

  auto runSlice = [&](std::size_t session, std::uint64_t maxCycles) {
    json::Json run = server::MakeRequest(Command::kRun);
    run.Set("sessionId", sessionIds[session]);
    run.Set("maxCycles", static_cast<std::int64_t>(maxCycles));
    return router.Handle(run);
  };

  // One logical run phase may need several `run` requests: the server
  // clamps each request to Limits::maxRunCyclesPerRequest, while the
  // single-process path has no per-request bound — loop until the phase
  // budget is consumed so both paths cover the same cycles.
  auto runUntil = [&](std::size_t session, std::uint64_t targetTotal) {
    SessionRun& state = runs[session];
    while (true) {
      json::Json report = runSlice(session, targetTotal - state.ranCycles);
      if (report.GetString("status", "") != "ok") {
        state.error = server::ErrorMessage(report, "run failed");
        state.report = std::move(report);
        return;
      }
      const std::uint64_t sliceCycles =
          static_cast<std::uint64_t>(report.GetInt("ranCycles", 0));
      state.ranCycles += sliceCycles;
      const bool done = report.GetString("finishReason", "") != "none" ||
                        state.ranCycles >= targetTotal || sliceCycles == 0;
      state.report = std::move(report);
      if (done) return;
    }
  };

  // One phase across every session. M == 1 stays on the calling thread;
  // otherwise one driver thread per session issues its run requests
  // concurrently — the router's Handle is thread-safe and sessions on
  // different workers execute in parallel.
  auto runPhase = [&](std::uint64_t targetTotal) -> bool {
    if (sessionCount == 1) {
      runUntil(0, targetTotal);
    } else {
      std::vector<std::thread> drivers;
      drivers.reserve(sessionCount);
      for (std::size_t i = 0; i < sessionCount; ++i) {
        drivers.emplace_back([&runUntil, i, targetTotal] {
          runUntil(i, targetTotal);
        });
      }
      for (std::thread& driver : drivers) driver.join();
    }
    for (const SessionRun& state : runs) {
      if (!state.error.empty()) {
        err << "error: " << state.error << "\n";
        return false;
      }
    }
    return true;
  };

  // First phase: half the budget, then migrate, then the remainder.
  std::int64_t migratedTo = -1;
  if (!runPhase(options.workers > 1 ? options.maxCycles / 2
                                    : options.maxCycles)) {
    return 2;
  }
  json::Json report = runs[0].report;
  if (options.workers > 1 &&
      report.GetString("finishReason", "") == "none") {
    if (options.spawnWorkers) {
      // Elastic cycle: grow the fleet by one fresh process, then shrink
      // it by removing (drain + ring removal + process shutdown) the
      // worker that held the session — the scale-out/scale-in round trip
      // a deploy performs, exercised mid-run.
      json::Json grown =
          router.Handle(server::MakeRequest(Command::kAddWorker));
      if (grown.GetString("status", "") != "ok") {
        err << "error: mid-run addWorker failed: "
            << server::ErrorMessage(grown, "") << "\n";
        return 2;
      }
    }
    json::Json drain = server::MakeRequest(
        options.spawnWorkers ? Command::kRemoveWorker : Command::kDrainWorker);
    drain.Set("worker", firstWorker);
    json::Json drained = router.Handle(drain);
    if (drained.GetString("status", "") != "ok") {
      err << "error: mid-run migration failed: "
          << server::ErrorMessage(drained, "") << "\n";
      return 2;
    }
    json::Json listed =
        router.Handle(server::MakeRequest(Command::kListSessions));
    for (const json::Json& session : listed.Find("sessions")->AsArray()) {
      if (session.GetInt("sessionId", -1) == sessionIds[0]) {
        migratedTo = session.GetInt("worker", -1);
      }
    }
    if (!runPhase(options.maxCycles)) return 2;
    report = runs[0].report;
  }

  // Parallel sessions ran the same program under the same budget from
  // concurrent threads; determinism demands byte-identical results. A
  // divergence would mean concurrent dispatch leaked into simulation
  // state — fail loudly, never average it away.
  for (std::size_t i = 1; i < sessionCount; ++i) {
    const json::Json* reference = report.Find("statistics");
    const json::Json* other = runs[i].report.Find("statistics");
    const bool statsMatch =
        reference != nullptr && other != nullptr &&
        reference->Dump() == other->Dump();
    if (!statsMatch ||
        runs[i].report.GetString("finishReason", "") !=
            report.GetString("finishReason", "")) {
      err << "error: parallel session " << i
          << " diverged from session 0 — concurrent dispatch must be "
             "invisible\n";
      return 2;
    }
  }

  const std::string finishReason = report.GetString("finishReason", "");
  const json::Json* statistics = report.Find("statistics");
  if (options.format == "json") {
    json::Json output = json::Json::MakeObject();
    output.Set("finishReason", finishReason);
    if (const json::Json* fault = report.Find("fault"); fault != nullptr) {
      output.Set("fault", *fault);
    }
    if (statistics != nullptr) output.Set("statistics", *statistics);
    json::Json shardInfo = json::Json::MakeObject();
    shardInfo.Set("workers", options.workers);
    shardInfo.Set("sessions", options.sessions);
    shardInfo.Set("firstWorker", firstWorker);
    shardInfo.Set("migratedTo", migratedTo);
    output.Set("shard", std::move(shardInfo));
    out << output.DumpPretty() << "\n";
  } else {
    out << "workers: " << options.workers << "\n";
    if (options.sessions > 1) {
      out << "sessions: " << options.sessions
          << " (parallel, statistics verified identical)\n";
    }
    if (migratedTo >= 0) {
      out << "migrated: worker " << firstWorker << " -> worker "
          << migratedTo << " mid-run\n";
    }
    out << "finish reason: " << finishReason << "\n";
    if (const json::Json* fault = report.Find("fault"); fault != nullptr) {
      out << "fault: " << (fault->IsString() ? fault->AsString() : fault->Dump())
          << "\n";
    }
    if (statistics != nullptr) out << statistics->DumpPretty() << "\n";
  }

  if (!options.saveSnapshotPath.empty()) {
    json::Json exportRequest = server::MakeRequest(Command::kExportSession);
    exportRequest.Set("sessionId", sessionIds[0]);
    json::Json exported = router.Handle(exportRequest);
    auto blob = Base64Decode(exported.GetString("blob", ""));
    if (exported.GetString("status", "") != "ok" || !blob.has_value()) {
      err << "error: exportSession failed\n";
      return 2;
    }
    std::ofstream file(options.saveSnapshotPath, std::ios::binary);
    if (!file) {
      err << "cannot write '" << options.saveSnapshotPath << "'\n";
      return 1;
    }
    file.write(blob->data(), static_cast<std::streamsize>(blob->size()));
  }

  if (options.metricsDump) {
    json::Json metrics = router.Handle(server::MakeRequest(Command::kMetrics));
    // Stderr keeps `--format json` stdout parseable by pipelines.
    err << metrics.DumpPretty() << "\n";
  }

  return finishReason == "exception" ? 2 : 0;
}

}  // namespace

}  // namespace rvss::cli
