// Server-layer tests: slz compression, the JSON API, state rendering and
// the virtual-time load model.
#include <map>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ref/progen.h"
#include "server/api.h"
#include "server/load_model.h"
#include "common/slz.h"
#include "server/state_renderer.h"
#include "snapshot/session.h"
#include "test_util.h"

namespace rvss::server {
namespace {

TEST(Slz, RoundTripsBasicStrings) {
  for (const std::string& input :
       {std::string(""), std::string("a"), std::string("hello world"),
        std::string(1000, 'x'),
        std::string("abcabcabcabcabc"),
        std::string("{\"key\": 1, \"key\": 2, \"key\": 3}")}) {
    auto decompressed = SlzDecompress(SlzCompress(input));
    ASSERT_TRUE(decompressed.has_value());
    EXPECT_EQ(*decompressed, input);
  }
}

TEST(Slz, RoundTripsRandomBinaries) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    std::string input;
    const std::size_t size = rng.NextBelow(5000);
    for (std::size_t i = 0; i < size; ++i) {
      // Mix of compressible runs and noise.
      input += static_cast<char>(rng.NextBool(0.6) ? 'A' + (i % 7)
                                                   : rng.NextBelow(256));
    }
    auto decompressed = SlzDecompress(SlzCompress(input));
    ASSERT_TRUE(decompressed.has_value()) << "trial " << trial;
    EXPECT_EQ(*decompressed, input);
  }
}

TEST(Slz, CompressesJsonWell) {
  // Representative state payload shape: repetitive keys.
  std::string json = "[";
  for (int i = 0; i < 200; ++i) {
    json += "{\"name\": \"entry\", \"valid\": true, \"value\": " +
            std::to_string(i) + "},";
  }
  json += "{}]";
  const std::string compressed = SlzCompress(json);
  EXPECT_LT(compressed.size(), json.size() / 2)
      << "expected at least 2x on repetitive JSON";
}

TEST(Slz, RejectsCorruptInput) {
  EXPECT_FALSE(SlzDecompress("").has_value());
  EXPECT_FALSE(SlzDecompress("abc").has_value());
  std::string valid = SlzCompress("hello hello hello hello");
  valid.resize(valid.size() / 2);
  EXPECT_FALSE(SlzDecompress(valid).has_value());
}

// ---- API -------------------------------------------------------------------

json::Json Parse(const std::string& text) {
  auto result = json::Parse(text);
  EXPECT_TRUE(result.ok());
  return result.ok() ? result.value() : json::Json();
}

/// A reply's rendered state, parsed: Handle returns it as a raw node.
json::Json StateOf(const json::Json& reply) {
  const json::Json* state = reply.Find("state");
  EXPECT_NE(state, nullptr) << reply.Dump();
  return state == nullptr ? json::Json() : Parse(state->Dump());
}

TEST(Api, CompileCommand) {
  SimServer server;
  json::Json request = Parse(R"({"command": "compile", "optLevel": 1,
    "code": "int main() { return 7; }"})");
  json::Json response = server.Handle(request);
  EXPECT_EQ(response.GetString("status", ""), "ok");
  EXPECT_NE(response.GetString("assembly", "").find("main:"),
            std::string::npos);
}

TEST(Api, CompileErrorsReportPosition) {
  SimServer server;
  json::Json response = server.Handle(
      Parse(R"({"command": "compile", "code": "int main( { return; }"})"));
  testutil::CheckErrorEnvelope(response);
  EXPECT_GT(response.Find("error")->Find("details")->GetInt("line", 0), 0);
}

TEST(Api, ParseAsmValidatesSource) {
  SimServer server;
  json::Json good = server.Handle(
      Parse(R"({"command": "parseAsm", "code": "addi a0, a0, 1\nret\n"})"));
  EXPECT_EQ(good.GetString("status", ""), "ok");
  EXPECT_EQ(good.GetInt("instructionCount", 0), 2);  // addi + ret(jalr)

  json::Json bad = server.Handle(
      Parse(R"({"command": "parseAsm", "code": "bogus a0\n"})"));
  testutil::CheckErrorEnvelope(bad);
}

TEST(Api, SessionLifecycleAndStepping) {
  SimServer server;
  json::Json created = server.Handle(Parse(
      R"({"command": "createSession",
          "code": "main:\n li a0, 5\n addi a0, a0, 1\n ret\n",
          "entry": "main"})"));
  ASSERT_EQ(created.GetString("status", ""), "ok");
  const std::int64_t id = created.GetInt("sessionId", -1);
  ASSERT_GT(id, 0);
  EXPECT_EQ(server.sessionCount(), 1u);

  json::Json stepRequest = json::Json::MakeObject();
  stepRequest.Set("command", "step");
  stepRequest.Set("sessionId", id);
  stepRequest.Set("count", 3);
  json::Json stepped = server.Handle(stepRequest);
  ASSERT_EQ(stepped.GetString("status", ""), "ok");
  EXPECT_EQ(StateOf(stepped).GetInt("cycle", -1), 3);

  json::Json back = json::Json::MakeObject();
  back.Set("command", "stepBack");
  back.Set("sessionId", id);
  json::Json backResponse = server.Handle(back);
  ASSERT_EQ(backResponse.GetString("status", ""), "ok");
  EXPECT_EQ(StateOf(backResponse).GetInt("cycle", -1), 2);

  json::Json run = json::Json::MakeObject();
  run.Set("command", "run");
  run.Set("sessionId", id);
  json::Json runResponse = server.Handle(run);
  ASSERT_EQ(runResponse.GetString("status", ""), "ok");
  EXPECT_EQ(runResponse.GetString("finishReason", ""), "main returned");

  json::Json deleted = json::Json::MakeObject();
  deleted.Set("command", "deleteSession");
  deleted.Set("sessionId", id);
  EXPECT_EQ(server.Handle(deleted).GetString("status", ""), "ok");
  EXPECT_EQ(server.sessionCount(), 0u);
}

std::int64_t CreateLoopSession(SimServer& server) {
  json::Json created = server.Handle(Parse(
      R"({"command": "createSession",
          "code": "main:\n li t0, 500\nloop:\n addi t0, t0, -1\n bnez t0, loop\n ret\n",
          "entry": "main"})"));
  EXPECT_EQ(created.GetString("status", ""), "ok");
  return created.GetInt("sessionId", -1);
}

TEST(Api, StepRejectsNegativeAndClampsHugeCounts) {
  SimServer::Limits limits;
  limits.maxStepsPerRequest = 10;
  SimServer server(limits);
  const std::int64_t id = CreateLoopSession(server);
  ASSERT_GT(id, 0);

  json::Json negative = json::Json::MakeObject();
  negative.Set("command", "step");
  negative.Set("sessionId", id);
  negative.Set("count", -5);
  testutil::CheckErrorEnvelope(server.Handle(negative));

  // A count far beyond the limit (the count=10^18 denial-of-service shape)
  // executes at most maxStepsPerRequest cycles and returns.
  json::Json huge = json::Json::MakeObject();
  huge.Set("command", "step");
  huge.Set("sessionId", id);
  huge.Set("count", std::int64_t{1'000'000'000'000'000'000});
  json::Json response = server.Handle(huge);
  ASSERT_EQ(response.GetString("status", ""), "ok");
  EXPECT_EQ(response.GetInt("stepped", -1), 10);
  EXPECT_EQ(StateOf(response).GetInt("cycle", -1), 10);
}

TEST(Api, StepBackReplaysInBoundedHopsWhenCheckpointsDisabled) {
  SimServer::Limits limits;
  limits.maxStepsPerRequest = 10;
  SimServer server(limits);
  json::Json created = server.Handle(Parse(
      R"({"command": "createSession",
          "code": "main:\n li t0, 500\nloop:\n addi t0, t0, -1\n bnez t0, loop\n ret\n",
          "entry": "main", "config": {"checkpoint": {"intervalCycles": 0}}})"));
  ASSERT_EQ(created.GetString("status", ""), "ok");
  const std::int64_t id = created.GetInt("sessionId", -1);

  json::Json step = json::Json::MakeObject();
  step.Set("command", "step");
  step.Set("sessionId", id);
  step.Set("count", 10);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(server.Handle(step).GetString("status", ""), "ok");
  }

  // Without checkpoints, stepping back from cycle 30 means replaying 29
  // cycles from reset — beyond this server's 10-cycle request budget. The
  // server loops the replay in budget-sized hops instead of refusing (or,
  // worse, clamping at the wrong cycle) and reports the total work done.
  json::Json back = json::Json::MakeObject();
  back.Set("command", "stepBack");
  back.Set("sessionId", id);
  json::Json response = server.Handle(back);
  ASSERT_EQ(response.GetString("status", ""), "ok");
  EXPECT_EQ(StateOf(response).GetInt("cycle", -1), 29);
  EXPECT_EQ(response.GetInt("replayedSteps", -1), 29);
}

TEST(Api, StepStopsEarlyWhenSimulationFinishes) {
  SimServer server;
  const std::int64_t id = CreateLoopSession(server);
  ASSERT_GT(id, 0);
  json::Json request = json::Json::MakeObject();
  request.Set("command", "step");
  request.Set("sessionId", id);
  request.Set("count", std::int64_t{900'000});
  json::Json response = server.Handle(request);
  ASSERT_EQ(response.GetString("status", ""), "ok");
  // The loop finishes long before the limit; the server must not keep
  // spinning no-op steps until the count is exhausted.
  EXPECT_LT(response.GetInt("stepped", -1), 10'000);
}

TEST(Api, RunRejectsNegativeMaxCycles) {
  SimServer server;
  const std::int64_t id = CreateLoopSession(server);
  ASSERT_GT(id, 0);
  json::Json request = json::Json::MakeObject();
  request.Set("command", "run");
  request.Set("sessionId", id);
  request.Set("maxCycles", -1);
  testutil::CheckErrorEnvelope(server.Handle(request));
}

TEST(Api, CheckpointSaveRestoreScrubsSession) {
  SimServer server;
  const std::int64_t id = CreateLoopSession(server);
  ASSERT_GT(id, 0);

  json::Json step = json::Json::MakeObject();
  step.Set("command", "step");
  step.Set("sessionId", id);
  step.Set("count", 50);
  ASSERT_EQ(server.Handle(step).GetString("status", ""), "ok");

  json::Json save = json::Json::MakeObject();
  save.Set("command", "saveCheckpoint");
  save.Set("sessionId", id);
  json::Json saved = server.Handle(save);
  ASSERT_EQ(saved.GetString("status", ""), "ok");
  EXPECT_EQ(saved.GetInt("cycle", -1), 50);
  EXPECT_GT(saved.Find("checkpoints")->GetInt("count", 0), 0);
  EXPECT_GT(saved.Find("checkpoints")->GetInt("bytes", 0), 0);

  step.Set("count", 37);
  ASSERT_EQ(server.Handle(step).GetString("status", ""), "ok");

  json::Json restore = json::Json::MakeObject();
  restore.Set("command", "restoreCheckpoint");
  restore.Set("sessionId", id);
  restore.Set("cycle", 50);
  json::Json restored = server.Handle(restore);
  ASSERT_EQ(restored.GetString("status", ""), "ok");
  EXPECT_EQ(StateOf(restored).GetInt("cycle", -1), 50);
  // cycle 50 is an exact manual checkpoint: zero replay.
  EXPECT_EQ(restored.GetInt("replayedSteps", -1), 0);

  // Scrub forward again, then to an arbitrary cycle between checkpoints.
  restore.Set("cycle", 60);
  restored = server.Handle(restore);
  ASSERT_EQ(restored.GetString("status", ""), "ok");
  EXPECT_EQ(StateOf(restored).GetInt("cycle", -1), 60);

  json::Json bad = json::Json::MakeObject();
  bad.Set("command", "restoreCheckpoint");
  bad.Set("sessionId", id);
  bad.Set("cycle", -3);
  testutil::CheckErrorEnvelope(server.Handle(bad));

  json::Json stats = json::Json::MakeObject();
  stats.Set("command", "stats");
  stats.Set("sessionId", id);
  json::Json statsResponse = server.Handle(stats);
  ASSERT_EQ(statsResponse.GetString("status", ""), "ok");
  const json::Json* checkpoints = statsResponse.Find("checkpoints");
  ASSERT_NE(checkpoints, nullptr);
  EXPECT_GT(checkpoints->GetInt("maxBytes", 0), 0);
}

TEST(Api, CreateSessionFromCSource) {
  SimServer server;
  json::Json created = server.Handle(Parse(
      R"({"command": "createSession", "isC": true, "optLevel": 2,
          "code": "int main() { int s = 0; for (int i = 0; i < 5; i++) s += i; return s; }"})"));
  ASSERT_EQ(created.GetString("status", ""), "ok");
  json::Json run = json::Json::MakeObject();
  run.Set("command", "run");
  run.Set("sessionId", created.GetInt("sessionId", -1));
  json::Json response = server.Handle(run);
  EXPECT_EQ(response.GetString("finishReason", ""), "main returned");
}

TEST(Api, CheckConfigReportsAllProblems) {
  SimServer server;
  json::Json request = Parse(R"({"command": "checkConfig",
    "config": {"buffers": {"fetchWidth": 0, "robSize": 0}}})");
  json::Json response = server.Handle(request);
  ASSERT_EQ(response.GetString("status", ""), "ok");
  EXPECT_GE(response.Find("problems")->AsArray().size(), 2u);
}

TEST(Api, UnknownCommandAndUnknownSession) {
  SimServer server;
  json::Json unknown = server.Handle(Parse(R"({"command": "nope"})"));
  testutil::CheckErrorEnvelope(unknown);
  EXPECT_EQ(testutil::ErrorField(unknown, "message"), "unknown command 'nope'");
  json::Json missing =
      server.Handle(Parse(R"({"command": "step", "sessionId": 99})"));
  testutil::CheckErrorEnvelope(missing);
  EXPECT_EQ(testutil::ErrorField(missing, "message"), "unknown sessionId 99");
}

// ---- command table -----------------------------------------------------------

TEST(CommandTable, EveryNameRoundTrips) {
  for (const CommandInfo& info : Commands()) {
    EXPECT_EQ(LookupCommand(info.name), info.command) << info.name;
    EXPECT_EQ(CommandName(info.command), info.name);
    EXPECT_EQ(ClassOf(info.command), info.commandClass) << info.name;
    EXPECT_NE(info.commandClass, CommandClass::kUnknown) << info.name;
    EXPECT_EQ(CommandOf(MakeRequest(info.command)), info.command);
  }
  EXPECT_EQ(ClassOf(Command::kUnknown), CommandClass::kUnknown);
}

TEST(CommandTable, MetricSuffixIsBounded) {
  EXPECT_EQ(CommandName(LookupCommand("step")), "step");
  EXPECT_EQ(CommandName(LookupCommand("metrics")), "metrics");
  EXPECT_EQ(CommandName(LookupCommand("drainWorker")), "drainWorker");
  // Client-supplied strings outside the table all share one suffix.
  EXPECT_EQ(CommandName(LookupCommand("DROP TABLE metrics")), "other");
  EXPECT_EQ(CommandName(LookupCommand("")), "other");
  EXPECT_EQ(CommandName(LookupCommand(std::string(10000, 'x'))), "other");
  EXPECT_EQ(CommandName(LookupCommand("other")), "other");
  EXPECT_EQ(CommandOf(Parse(R"({"command": 5})")), Command::kUnknown);
  EXPECT_EQ(CommandOf(Parse(R"({"sessionId": 1})")), Command::kUnknown);
}

TEST(Api, RawPathTimesAndCompresses) {
  SimServer server;
  std::string created = server.HandleRaw(
      R"({"command": "createSession",
          "code": "main:\n li t0, 40\nloop:\n addi t0, t0, -1\n bnez t0, loop\n ret\n",
          "entry": "main"})");
  auto createdJson = Parse(created);
  const std::int64_t id = createdJson.GetInt("sessionId", -1);
  ASSERT_GT(id, 0);

  RequestTiming timing;
  const std::string request =
      R"({"command": "step", "sessionId": )" + std::to_string(id) +
      R"(, "count": 10})";
  std::string compressed = server.HandleRaw(request, true, &timing);
  EXPECT_GT(timing.parseNs, 0u);
  EXPECT_GT(timing.serializeNs, 0u);
  EXPECT_GT(timing.compressNs, 0u);
  EXPECT_LT(timing.compressedBytes, timing.responseBytes);
  auto decompressed = SlzDecompress(compressed);
  ASSERT_TRUE(decompressed.has_value());
  EXPECT_EQ(Parse(*decompressed).GetString("status", ""), "ok");
}

TEST(Api, MalformedJsonIsAnError) {
  SimServer server;
  std::string response = server.HandleRaw("{not json", false, nullptr);
  testutil::CheckErrorEnvelope(Parse(response));
}

// ---- renderer ----------------------------------------------------------------

TEST(Renderer, JsonSnapshotHasAllBlocks) {
  auto sim = testutil::RunOnCore("main:\n li a0, 3\n ret\n",
                                 config::DefaultConfig(), "main", 2);
  ASSERT_NE(sim, nullptr);
  const json::Json state = Parse(RenderJson(*sim).Dump());
  for (const char* key :
       {"cycle", "instructions", "fetchQueue", "reorderBuffer",
        "issueWindows", "functionalUnits", "registers", "cache",
        "statistics", "log"}) {
    EXPECT_NE(state.Find(key), nullptr) << key;
  }
  EXPECT_EQ(state.Find("registers")->Find("x")->AsArray().size(), 32u);
}

/// The apiVersion 3 shape of `sim`'s render: `instructions` holds each
/// in-flight object once, in ascending `seq`; every container and busy
/// unit refers to an entry by its `seq`, in the simulation's order; and
/// every entry is referred to.
void ExpectNormalizedState(const core::Simulation& sim,
                           const std::string& label) {
  const json::Json state = Parse(RenderJson(sim).Dump());
  const json::Json* table = state.Find("instructions");
  ASSERT_NE(table, nullptr) << label;
  std::map<std::int64_t, int> references;  // seq -> times referred to
  std::int64_t previous = -1;
  for (const json::Json& inst : table->AsArray()) {
    const std::int64_t seq = inst.GetInt("seq", -1);
    EXPECT_GT(seq, previous) << label << ": instructions out of seq order";
    previous = seq;
    references.emplace(seq, 0);
  }
  EXPECT_EQ(table->AsArray().size(), testutil::HeldSlots(sim).size())
      << label;

  const auto refer = [&](const json::Json& ref, const core::InFlight& inst,
                         const std::string& where) {
    EXPECT_EQ(ref.AsInt(), static_cast<std::int64_t>(inst.seq)) << where;
    const auto entry = references.find(ref.AsInt());
    if (entry == references.end()) {
      ADD_FAILURE() << where << ": seq " << ref.Dump() << " not in the table";
    } else {
      ++entry->second;
    }
  };
  const auto container = [&](const json::Json* refs, const auto& queue,
                             const std::string& name) {
    ASSERT_NE(refs, nullptr) << label << " " << name;
    ASSERT_EQ(refs->AsArray().size(), queue.size()) << label << " " << name;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      refer(refs->AsArray()[i], sim.inFlight(queue[i]), label + " " + name);
    }
  };
  container(state.Find("fetchQueue"), sim.fetchQueue(), "fetchQueue");
  container(state.Find("reorderBuffer"), sim.rob(), "reorderBuffer");
  container(state.Find("loadBuffer"), sim.loadBuffer(), "loadBuffer");
  container(state.Find("storeBuffer"), sim.storeBuffer(), "storeBuffer");
  const json::Json* windows = state.Find("issueWindows");
  ASSERT_NE(windows, nullptr) << label;
  const std::pair<const char*, core::WindowKind> windowKinds[] = {
      {"FX", core::WindowKind::kFx},
      {"FP", core::WindowKind::kFp},
      {"LS", core::WindowKind::kLs},
      {"Branch", core::WindowKind::kBranch}};
  for (const auto& [name, kind] : windowKinds) {
    container(windows->Find(name), sim.window(kind), name);
  }
  const json::Json* units = state.Find("functionalUnits");
  ASSERT_NE(units, nullptr) << label;
  ASSERT_EQ(units->AsArray().size(), sim.functionalUnits().size()) << label;
  for (std::size_t i = 0; i < units->AsArray().size(); ++i) {
    const json::Json* ref = units->AsArray()[i].Find("instruction");
    const core::Slot current = sim.functionalUnits()[i].current;
    ASSERT_EQ(ref != nullptr, current != core::kNoSlot)
        << label << " unit " << i;
    if (current != core::kNoSlot) {
      refer(*ref, sim.inFlight(current), label + " unit " + std::to_string(i));
    }
  }

  for (const auto& [seq, count] : references) {
    EXPECT_GT(count, 0) << label << ": seq " << seq << " referred to by none";
  }
}

TEST(Renderer, JsonStateListsEachInFlightInstructionOnce) {
  const std::pair<const char*, config::CpuConfig> configs[] = {
      {"default", config::DefaultConfig()},
      {"scalar", config::ScalarConfig()},
      {"wide", config::WideConfig()}};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::string source = ref::GenerateProgram(seed);
    for (const auto& [name, config] : configs) {
      auto sim = core::Simulation::Create(config, source, {{}, "main"});
      ASSERT_TRUE(sim.ok()) << sim.error().ToText();
      core::Simulation& s = *sim.value();
      for (const std::uint64_t cycle : {1, 17, 200, 1000}) {
        while (s.cycle() < cycle && s.status() == core::SimStatus::kRunning) {
          s.Step();
        }
        ExpectNormalizedState(s, "seed" + std::to_string(seed) + "/" + name +
                                     "/cycle" + std::to_string(cycle));
      }
    }
  }

  // A state restored from a checkpoint, and one rebuilt from a session
  // blob: a restore that split one instruction into two table entries
  // would show as two entries with one seq.
  const std::string source = ref::GenerateProgram(1);
  auto sim = core::Simulation::Create(config::DefaultConfig(), source,
                                      {{}, "main"});
  ASSERT_TRUE(sim.ok()) << sim.error().ToText();
  core::Simulation& s = *sim.value();
  while (s.cycle() < 200) s.Step();
  ASSERT_TRUE(s.StepBack().ok());
  ExpectNormalizedState(s, "seed1/default/stepBack");
  auto imported = snapshot::ImportSessionBlob(snapshot::EncodeSessionBlob(
      s, snapshot::MakeIdentity(s, source, "main", "")));
  ASSERT_TRUE(imported.ok()) << imported.error().ToText();
  ExpectNormalizedState(*imported.value().sim, "seed1/default/import");
  EXPECT_EQ(RenderJson(*imported.value().sim).Dump(), RenderJson(s).Dump());
}

TEST(Renderer, MemoryDumpOptionIncludesSymbolsAndHex) {
  auto sim = testutil::RunOnCore(".data\nv: .word 1\n.text\nmain: ret\n",
                                 config::DefaultConfig(), "main", 1);
  ASSERT_NE(sim, nullptr);
  RenderOptions options;
  options.includeMemoryDump = true;
  const json::Json state = Parse(RenderJson(*sim, options).Dump());
  ASSERT_NE(state.Find("memory"), nullptr);
  EXPECT_NE(state.Find("memory")->Find("symbols")->Find("v"), nullptr);
  EXPECT_EQ(state.Find("memory")->GetString("dumpHex", "").size(),
            sim->memorySystem().memory().size() * 2);
}

TEST(Renderer, TextSnapshotMentionsPipelineBlocks) {
  auto sim = testutil::RunOnCore("main:\n li a0, 3\n ret\n",
                                 config::DefaultConfig(), "main", 3);
  ASSERT_NE(sim, nullptr);
  const std::string text = RenderText(*sim);
  EXPECT_NE(text.find("cycle"), std::string::npos);
  EXPECT_NE(text.find("[Fetch"), std::string::npos);
  EXPECT_NE(text.find("[ROB"), std::string::npos);
  EXPECT_NE(text.find("[Units"), std::string::npos);
}

// ---- load model ---------------------------------------------------------------

TEST(LoadModel, SaturationRaisesLatencyAndThroughput) {
  const std::vector<double> service(32, 0.050);  // 50 ms per request
  LoadScenario base;
  base.linkBytesPerSecond = 0;
  base.users = 30;
  LoadResult at30 = SimulateLoad(base, service);
  base.users = 100;
  LoadResult at100 = SimulateLoad(base, service);

  EXPECT_EQ(at30.completedRequests, 30u * 40u);
  EXPECT_EQ(at100.completedRequests, 100u * 40u);
  // 100 users on 4 workers with 50ms service saturates: latency inflates
  // far beyond the service time while throughput rises toward the cap.
  EXPECT_GT(at100.medianLatencyMs, 2 * at30.medianLatencyMs);
  EXPECT_GT(at100.throughputTps, at30.throughputTps);
  EXPECT_GE(at30.medianLatencyMs, 50.0 - 1e-9);
  EXPECT_LE(at30.p90LatencyMs, at100.p90LatencyMs);
}

TEST(LoadModel, DockerModeIsSlower) {
  const std::vector<double> service(32, 0.030);
  LoadScenario scenario;
  scenario.linkBytesPerSecond = 0;
  LoadResult direct = SimulateLoad(scenario, service);
  scenario.mode = DeploymentMode::kDocker;
  LoadResult docker = SimulateLoad(scenario, service);
  EXPECT_GT(docker.medianLatencyMs, direct.medianLatencyMs);
}

TEST(LoadModel, CompressionHelpsOnSlowLinks) {
  const std::vector<double> service(32, 0.010);
  LoadScenario scenario;
  scenario.users = 60;
  scenario.linkBytesPerSecond = 2e6;   // constrained link
  scenario.payloadBytes = 120'000;
  scenario.compressionRatio = 1.0;
  LoadResult plain = SimulateLoad(scenario, service);
  scenario.compressionRatio = 4.0;
  LoadResult compressed = SimulateLoad(scenario, service);
  EXPECT_GT(compressed.throughputTps, plain.throughputTps);
  EXPECT_LT(compressed.medianLatencyMs, plain.medianLatencyMs);
}

TEST(LoadModel, DeterministicForFixedSeed) {
  const std::vector<double> service{0.010, 0.020, 0.030};
  LoadScenario scenario;
  LoadResult a = SimulateLoad(scenario, service);
  LoadResult b = SimulateLoad(scenario, service);
  EXPECT_EQ(a.medianLatencyMs, b.medianLatencyMs);
  EXPECT_EQ(a.throughputTps, b.throughputTps);
}

}  // namespace
}  // namespace rvss::server
