// Shard router tests: least-loaded placement, route-through parity with
// a bare SimServer, drain (byte-identical migration, failure paths,
// idempotence) and skew-triggered rebalance. The failure-path tests pin the
// router's core invariant: a migration that fails at any step leaves the
// session live on its source worker — errors are reported, sessions are
// never lost.
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/registry.h"
#include "server/api.h"
#include "server/commands.h"
#include "shard/placement.h"
#include "shard/router.h"
#include "test_util.h"

namespace rvss::shard {
namespace {

/// Long-running countdown: sessions stay kRunning through every test step.
const char* kSpinLoop = R"(
main:
    li t0, 1000000
spin:
    addi t0, t0, -1
    bnez t0, spin
    ret
)";

/// Finishes in a few hundred cycles: the "session already finished" case.
const char* kShortProgram = R"(
main:
    li t0, 50
tick:
    addi t0, t0, -1
    bnez t0, tick
    ret
)";

template <typename Target>
json::Json Cmd(Target& target, std::string_view command,
               std::initializer_list<std::pair<const char*, json::Json>>
                   fields = {}) {
  json::Json request = json::Json::MakeObject();
  request.Set("command", std::string(command));
  for (const auto& [key, value] : fields) request.Set(key, value);
  return target.Handle(request);
}

template <typename Target>
std::int64_t MustCreateSession(Target& target,
                               const char* source = kSpinLoop) {
  json::Json created = Cmd(target, "createSession",
                           {{"code", json::Json(source)},
                            {"entry", json::Json("main")}});
  EXPECT_EQ(created.GetString("status", ""), "ok") << created.Dump();
  return created.GetInt("sessionId", -1);
}

std::string ExportBlob(ShardRouter& router, std::int64_t sessionId) {
  json::Json exported =
      Cmd(router, "exportSession", {{"sessionId", json::Json(sessionId)}});
  EXPECT_EQ(exported.GetString("status", ""), "ok") << exported.Dump();
  return exported.GetString("blob", "");
}

/// worker index -> session count, from workerStats.
std::map<std::int64_t, std::int64_t> SessionsPerWorker(ShardRouter& router) {
  json::Json stats = Cmd(router, "workerStats");
  EXPECT_EQ(stats.GetString("status", ""), "ok");
  std::map<std::int64_t, std::int64_t> out;
  for (const json::Json& worker : stats.Find("workers")->AsArray()) {
    out[worker.GetInt("worker", -1)] = worker.GetInt("sessions", -1);
  }
  return out;
}

/// Creates one session and checks the worker the router placed it on.
std::int64_t MustCreateOn(ShardRouter& router, std::int64_t worker) {
  json::Json created = Cmd(router, "createSession",
                           {{"code", json::Json(kSpinLoop)},
                            {"entry", json::Json("main")}});
  EXPECT_EQ(created.GetString("status", ""), "ok") << created.Dump();
  EXPECT_EQ(created.GetInt("worker", -1), worker) << created.Dump();
  return created.GetInt("sessionId", -1);
}

/// Creates one session with a 2 MiB memory, 32 times the default's, and
/// checks the worker the router placed it on.
std::int64_t MustCreateLargeOn(ShardRouter& router, std::int64_t worker) {
  json::Json created = Cmd(
      router, "createSession",
      {{"code", json::Json(kSpinLoop)},
       {"entry", json::Json("main")},
       {"config",
        json::Parse(R"({"memory": {"sizeBytes": 2097152}})").value()}});
  EXPECT_EQ(created.GetString("status", ""), "ok") << created.Dump();
  EXPECT_EQ(created.GetInt("worker", -1), worker) << created.Dump();
  return created.GetInt("sessionId", -1);
}

/// The worker listSessions reports session `id` on, or -1.
std::int64_t WorkerOf(ShardRouter& router, std::int64_t id) {
  json::Json listed = Cmd(router, "listSessions");
  for (const json::Json& session : listed.Find("sessions")->AsArray()) {
    if (session.GetInt("sessionId", -1) == id) {
      return session.GetInt("worker", -1);
    }
  }
  return -1;
}

// ---- placement --------------------------------------------------------------

TEST(Placement, LeastLoadedBreaksTiesLow) {
  EXPECT_EQ(LeastLoaded({5, 3, 3, 9}, {true, true, true, true}), 1u);
  EXPECT_EQ(LeastLoaded({5, 3, 3, 9}, {true, false, true, true}), 2u);
  EXPECT_EQ(LeastLoaded({1, 2}, {false, false}), std::nullopt);
}

TEST(Placement, AdmissionFillsTheEmptiestEligibleWorker) {
  ShardRouter::Options options;
  options.workerCount = 3;
  ShardRouter router(options);

  // Sequential creates on an empty fleet deal round the workers.
  std::vector<std::int64_t> onWorker1;
  for (int i = 0; i < 6; ++i) {
    const std::int64_t id = MustCreateOn(router, i % 3);
    if (i % 3 == 1) onWorker1.push_back(id);
  }
  EXPECT_EQ(SessionsPerWorker(router),
            (std::map<std::int64_t, std::int64_t>{{0, 2}, {1, 2}, {2, 2}}));

  // Deletes make room: the emptied worker takes the next sessions.
  for (const std::int64_t id : onWorker1) {
    ASSERT_EQ(Cmd(router, "deleteSession", {{"sessionId", json::Json(id)}})
                  .GetString("status", ""),
              "ok");
  }
  MustCreateOn(router, 1);
  MustCreateOn(router, 1);

  // A drained worker takes none, however empty it is...
  ASSERT_EQ(Cmd(router, "drainWorker", {{"worker", json::Json(2)}})
                .GetString("status", ""),
            "ok");
  json::Json elsewhere = Cmd(router, "createSession",
                             {{"code", json::Json(kSpinLoop)},
                              {"entry", json::Json("main")}});
  ASSERT_EQ(elsewhere.GetString("status", ""), "ok") << elsewhere.Dump();
  EXPECT_NE(elsewhere.GetInt("worker", -1), 2) << elsewhere.Dump();

  // ...until it is reopened, and a new worker starts empty.
  ASSERT_EQ(Cmd(router, "openWorker", {{"worker", json::Json(2)}})
                .GetString("status", ""),
            "ok");
  MustCreateOn(router, 2);
  ASSERT_EQ(Cmd(router, "addWorker").GetInt("worker", -1), 3);
  MustCreateOn(router, 3);

  // Workers 2 and 3 now hold one session each. A failed admission leaves
  // no placement behind, so the next one still breaks that tie low.
  const std::size_t placed = router.sessionCount();
  json::Json refused = Cmd(router, "createSession",
                           {{"code", json::Json("main:\n    bogus x\n")},
                            {"entry", json::Json("main")}});
  testutil::CheckErrorEnvelope(refused);
  EXPECT_EQ(router.sessionCount(), placed);
  MustCreateOn(router, 2);
}

namespace {

/// Fails every createSession with `kind` before the worker sees it and
/// passes everything else through. kUnavailable is the transport's and
/// the lane's "never reached the worker" (a dead process, a shed
/// ticket); kInternal a call that may have executed.
class RefusingTransport : public WorkerTransport {
 public:
  RefusingTransport(const server::SimServer::Limits& limits, ErrorKind kind)
      : inner_(limits), kind_(kind) {}

  Result<json::Json> Call(const json::Json& request) override {
    if (request.GetString("command", "") == "createSession") {
      return Error{kind_, "simulated transport failure"};
    }
    return inner_.Call(request);
  }
  std::string Describe() const override { return inner_.Describe(); }
  server::SimServer* LocalServer() override { return inner_.LocalServer(); }

 private:
  InProcessTransport inner_;
  const ErrorKind kind_;
};

/// `workerCount` workers, the first `refusing` of them behind a
/// RefusingTransport of `kind`.
ShardRouter::Options RefusingFleet(std::size_t workerCount,
                                   std::size_t refusing, ErrorKind kind) {
  ShardRouter::Options options;
  options.workerCount = workerCount;
  options.transportFactory =
      [refusing, kind](std::size_t worker,
                       const server::SimServer::Limits& limits)
      -> Result<std::shared_ptr<WorkerTransport>> {
    if (worker < refusing) {
      return std::shared_ptr<WorkerTransport>(
          std::make_shared<RefusingTransport>(limits, kind));
    }
    return std::shared_ptr<WorkerTransport>(
        std::make_shared<InProcessTransport>(limits));
  };
  return options;
}

}  // namespace

TEST(Placement, AdmissionThatNeverReachedItsWorkerGoesToTheNext) {
  // Worker 0 never gains a session, so every admission is placed there
  // first; each moves on and the others fill as if it were not there.
  ShardRouter router(RefusingFleet(3, 1, ErrorKind::kUnavailable));
  for (int i = 0; i < 4; ++i) MustCreateOn(router, 1 + i % 2);
  EXPECT_EQ(SessionsPerWorker(router),
            (std::map<std::int64_t, std::int64_t>{{0, 0}, {1, 2}, {2, 2}}));

  // When every worker refuses, the last refusal is the answer.
  ShardRouter refusedEverywhere(RefusingFleet(2, 2, ErrorKind::kUnavailable));
  json::Json shed = Cmd(refusedEverywhere, "createSession",
                        {{"code", json::Json(kSpinLoop)},
                         {"entry", json::Json("main")}});
  testutil::CheckErrorEnvelope(shed);
  EXPECT_EQ(testutil::ErrorField(shed, "kind"), "unavailable");
  EXPECT_EQ(testutil::ErrorField(shed, "message"),
            "simulated transport failure");
  EXPECT_EQ(refusedEverywhere.sessionCount(), 0u);

  // A call that may have executed is answered, never sent on to a
  // second worker.
  ShardRouter maybeExecuted(RefusingFleet(2, 1, ErrorKind::kInternal));
  json::Json failed = Cmd(maybeExecuted, "createSession",
                          {{"code", json::Json(kSpinLoop)},
                           {"entry", json::Json("main")}});
  testutil::CheckErrorEnvelope(failed);
  EXPECT_EQ(testutil::ErrorField(failed, "kind"), "internal");
  EXPECT_EQ(maybeExecuted.sessionCount(), 0u);
  EXPECT_EQ(SessionsPerWorker(maybeExecuted)[1], 0);
}

// ---- route-through ----------------------------------------------------------

TEST(RouteThrough, MatchesBareServerStepByStep) {
  ShardRouter::Options options;
  options.workerCount = 4;
  ShardRouter router(options);
  server::SimServer bare;

  const std::int64_t routedId = MustCreateSession(router);
  const std::int64_t bareId = MustCreateSession(bare);

  for (int batch = 0; batch < 5; ++batch) {
    json::Json a = Cmd(router, "step", {{"sessionId", json::Json(routedId)},
                                        {"count", json::Json(77)}});
    json::Json b = Cmd(bare, "step", {{"sessionId", json::Json(bareId)},
                                      {"count", json::Json(77)}});
    ASSERT_EQ(a.GetString("status", ""), "ok");
    ASSERT_EQ(b.GetString("status", ""), "ok");
    EXPECT_EQ(a.Find("state")->Dump(), b.Find("state")->Dump())
        << "batch " << batch;
  }
  json::Json statsA = Cmd(router, "stats",
                          {{"sessionId", json::Json(routedId)}});
  json::Json statsB = Cmd(bare, "stats", {{"sessionId", json::Json(bareId)}});
  EXPECT_EQ(statsA.Find("statistics")->Dump(),
            statsB.Find("statistics")->Dump());

  // Stateless commands route through too.
  json::Json parsed = Cmd(router, "parseAsm", {{"code", json::Json(kSpinLoop)}});
  EXPECT_EQ(parsed.GetString("status", ""), "ok");

  // Errors mirror the single-server shape.
  json::Json missing = Cmd(router, "step", {{"sessionId", json::Json(999)}});
  testutil::CheckErrorEnvelope(missing);
  EXPECT_NE(testutil::ErrorField(missing, "message").find("unknown sessionId"),
            std::string::npos);

  json::Json deleted = Cmd(router, "deleteSession",
                           {{"sessionId", json::Json(routedId)}});
  EXPECT_EQ(deleted.GetString("status", ""), "ok");
  EXPECT_EQ(router.sessionCount(), 0u);
}

TEST(RouteThrough, RawBytePipeline) {
  ShardRouter::Options options;
  options.workerCount = 2;
  ShardRouter router(options);
  server::RequestTiming timing;
  const std::string response = router.HandleRaw(
      R"({"command":"createSession","code":"main:\n    ret\n"})", false,
      &timing);
  EXPECT_NE(response.find("\"status\":"), std::string::npos);
  EXPECT_NE(response.find("ok"), std::string::npos);
  EXPECT_GT(timing.responseBytes, 0u);
}

TEST(RouteThrough, SessionsSpreadAcrossWorkers) {
  ShardRouter::Options options;
  options.workerCount = 4;
  ShardRouter router(options);
  for (int i = 0; i < 24; ++i) MustCreateSession(router);
  for (const auto& [worker, sessions] : SessionsPerWorker(router)) {
    EXPECT_EQ(sessions, 6) << "worker " << worker;
  }
  EXPECT_EQ(router.sessionCount(), 24u);
}

// ---- drain ------------------------------------------------------------------

TEST(Drain, MigratesByteIdenticallyWithEightActiveSessions) {
  ShardRouter::Options options;
  options.workerCount = 3;
  ShardRouter router(options);

  // >= 8 live sessions, advanced by different amounts so each blob is
  // unique; one of them has already finished (drain must move those too).
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(MustCreateSession(router, i == 0 ? kShortProgram
                                                   : kSpinLoop));
    json::Json stepped =
        Cmd(router, "step", {{"sessionId", json::Json(ids.back())},
                             {"count", json::Json(100 + 40 * i)}});
    ASSERT_EQ(stepped.GetString("status", ""), "ok");
  }

  // Concentrate all 12 sessions on worker 0 (drain the peers, then
  // re-admit them) so the drain under test evacuates a worker with >= 8
  // active sessions, the acceptance bar for this PR.
  ASSERT_EQ(Cmd(router, "drainWorker", {{"worker", json::Json(1)}})
                .GetString("status", ""),
            "ok");
  ASSERT_EQ(Cmd(router, "drainWorker", {{"worker", json::Json(2)}})
                .GetString("status", ""),
            "ok");
  ASSERT_EQ(Cmd(router, "openWorker", {{"worker", json::Json(1)}})
                .GetString("status", ""),
            "ok");
  ASSERT_EQ(Cmd(router, "openWorker", {{"worker", json::Json(2)}})
                .GetString("status", ""),
            "ok");
  const std::int64_t victim = 0;
  const std::int64_t victimSessions = SessionsPerWorker(router)[victim];
  ASSERT_GE(victimSessions, 8);

  std::map<std::int64_t, std::string> before;
  for (const std::int64_t id : ids) before[id] = ExportBlob(router, id);

  json::Json drained =
      Cmd(router, "drainWorker", {{"worker", json::Json(victim)}});
  ASSERT_EQ(drained.GetString("status", ""), "ok") << drained.Dump();
  EXPECT_EQ(drained.GetInt("moved", -1), victimSessions);
  EXPECT_GT(drained.GetInt("movedBytes", 0), 0);

  // Every session (moved or not) must export byte-identically afterwards:
  // the migration is invisible at the blob level.
  for (const std::int64_t id : ids) {
    EXPECT_EQ(before[id], ExportBlob(router, id)) << "session " << id;
  }

  const auto after = SessionsPerWorker(router);
  EXPECT_EQ(after.at(victim), 0);
  EXPECT_EQ(router.sessionCount(), ids.size());

  // Moved sessions keep running through the router.
  for (const std::int64_t id : ids) {
    json::Json stepped = Cmd(router, "step", {{"sessionId", json::Json(id)},
                                              {"count", json::Json(50)}});
    EXPECT_EQ(stepped.GetString("status", ""), "ok") << "session " << id;
  }
}

TEST(Drain, DestinationBudgetRejectionKeepsSessionOnSource) {
  // Worker 1's import budget is far below any real session blob, so every
  // migration to it must be refused — and the session must stay live on
  // worker 0.
  ShardRouter::Options options;
  options.workerCount = 2;
  options.transportFactory = [](std::size_t worker,
                                server::SimServer::Limits limits)
      -> Result<std::shared_ptr<WorkerTransport>> {
    if (worker == 1) limits.maxSessionBlobBytes = 64;
    return std::shared_ptr<WorkerTransport>(
        std::make_shared<InProcessTransport>(limits));
  };
  ShardRouter router(options);

  // Sequential creates alternate between the workers: two of these
  // three land on worker 0.
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 3; ++i) ids.push_back(MustCreateOn(router, i % 2));

  json::Json drained = Cmd(router, "drainWorker", {{"worker", json::Json(0)}});
  testutil::CheckErrorEnvelope(drained);
  EXPECT_EQ(testutil::ErrorDetail(drained, "moved")->AsInt(), 0);
  const json::Array& failed =
      testutil::ErrorDetail(drained, "failed")->AsArray();
  ASSERT_FALSE(failed.empty());
  EXPECT_NE(failed[0].GetString("message", "")
                .find("exceeds this server's budget"),
            std::string::npos)
      << drained.Dump();

  // Nothing was lost: every session still steps through the router, and
  // worker 0 kept every session it had.
  EXPECT_EQ(router.sessionCount(), ids.size());
  EXPECT_EQ(SessionsPerWorker(router)[0], 2);
  for (const std::int64_t id : ids) {
    json::Json stepped = Cmd(router, "step", {{"sessionId", json::Json(id)},
                                              {"count", json::Json(10)}});
    EXPECT_EQ(stepped.GetString("status", ""), "ok");
  }
}

TEST(Drain, SessionVanishingMidDrainFailsThatSessionOnly) {
  ShardRouter::Options options;
  options.workerCount = 2;
  ShardRouter router(options);

  // Three of these five land on worker 0.
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(MustCreateOn(router, i % 2));

  // Delete one of worker 0's sessions *behind the router's back* — the
  // in-process stand-in for a worker losing a session mid-export.
  server::SimServer* worker0 = router.workerServer(0);
  ASSERT_NE(worker0, nullptr);
  const std::vector<std::int64_t> localIds = worker0->sessionIds();
  ASSERT_FALSE(localIds.empty());
  json::Json vanish = json::Json::MakeObject();
  vanish.Set("command", "deleteSession");
  vanish.Set("sessionId", localIds.front());
  ASSERT_EQ(worker0->Handle(vanish).GetString("status", ""), "ok");

  json::Json drained = Cmd(router, "drainWorker", {{"worker", json::Json(0)}});
  testutil::CheckErrorEnvelope(drained);
  EXPECT_EQ(testutil::ErrorDetail(drained, "moved")->AsInt(), 2)
      << "the surviving sessions must still migrate";
  const json::Array& failed =
      testutil::ErrorDetail(drained, "failed")->AsArray();
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_NE(failed[0].GetString("message", "").find("export"),
            std::string::npos);

  // The survivors are intact on the destination.
  std::size_t stepping = 0;
  for (const std::int64_t id : ids) {
    json::Json stepped = Cmd(router, "step", {{"sessionId", json::Json(id)},
                                              {"count", json::Json(10)}});
    if (stepped.GetString("status", "") == "ok") ++stepping;
  }
  EXPECT_EQ(stepping, ids.size() - 1);
}

TEST(Drain, DoubleDrainIsIdempotentAndOpenWorkerReadmits) {
  ShardRouter::Options options;
  options.workerCount = 2;
  ShardRouter router(options);
  MustCreateOn(router, 0);
  const std::size_t total = router.sessionCount();

  json::Json first = Cmd(router, "drainWorker", {{"worker", json::Json(0)}});
  ASSERT_EQ(first.GetString("status", ""), "ok") << first.Dump();

  json::Json second = Cmd(router, "drainWorker", {{"worker", json::Json(0)}});
  EXPECT_EQ(second.GetString("status", ""), "ok") << second.Dump();
  EXPECT_EQ(second.GetInt("moved", -1), 0);
  EXPECT_TRUE(second.Find("failed")->AsArray().empty());
  EXPECT_EQ(router.sessionCount(), total);

  // Drained workers take no new sessions.
  for (int i = 0; i < 16; ++i) MustCreateSession(router);
  EXPECT_EQ(SessionsPerWorker(router)[0], 0);

  // Draining the last eligible worker strands its sessions with an error
  // (no destination), but loses nothing.
  json::Json strand = Cmd(router, "drainWorker", {{"worker", json::Json(1)}});
  testutil::CheckErrorEnvelope(strand);
  EXPECT_FALSE(testutil::ErrorDetail(strand, "failed")->AsArray().empty());
  json::Json refused = Cmd(router, "createSession",
                           {{"code", json::Json(kSpinLoop)},
                            {"entry", json::Json("main")}});
  testutil::CheckErrorEnvelope(refused);

  // Reopening brings the fleet back.
  ASSERT_EQ(Cmd(router, "openWorker", {{"worker", json::Json(0)}})
                .GetString("status", ""),
            "ok");
  ASSERT_EQ(Cmd(router, "openWorker", {{"worker", json::Json(1)}})
                .GetString("status", ""),
            "ok");
  EXPECT_EQ(Cmd(router, "createSession",
                {{"code", json::Json(kSpinLoop)},
                 {"entry", json::Json("main")}})
                .GetString("status", ""),
            "ok");

  json::Json bogus = Cmd(router, "drainWorker", {{"worker", json::Json(9)}});
  testutil::CheckErrorEnvelope(bogus);
}

TEST(Drain, DeltaDrainMatchesFullDrainAndShipsFewerBytes) {
  // Two identical fleets, one migrating with delta blobs (the default)
  // and one forced to full images. Same sessions, same drain — the
  // resulting states must be byte-identical across the two fleets and
  // unchanged from before the drain, while the delta fleet must have put
  // strictly fewer bytes on the wire.
  auto build = [](bool delta) {
    ShardRouter::Options options;
    options.workerCount = 2;
    options.deltaBlobs = delta;
    return std::make_unique<ShardRouter>(options);
  };
  auto deltaRouter = build(true);
  auto fullRouter = build(false);

  // Identical creation order => identical placement (placement is
  // deterministic), so both fleets drain the same session set.
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 6; ++i) {
    const std::int64_t id = MustCreateSession(*deltaRouter);
    ASSERT_EQ(MustCreateSession(*fullRouter), id);
    ids.push_back(id);
    for (ShardRouter* router : {deltaRouter.get(), fullRouter.get()}) {
      json::Json stepped =
          Cmd(*router, "step", {{"sessionId", json::Json(id)},
                                {"count", json::Json(60 + 25 * i)}});
      ASSERT_EQ(stepped.GetString("status", ""), "ok");
    }
  }
  ASSERT_GT(SessionsPerWorker(*deltaRouter)[0], 0);

  std::map<std::int64_t, std::string> before;
  for (const std::int64_t id : ids) before[id] = ExportBlob(*deltaRouter, id);

  json::Json deltaDrain =
      Cmd(*deltaRouter, "drainWorker", {{"worker", json::Json(0)}});
  json::Json fullDrain =
      Cmd(*fullRouter, "drainWorker", {{"worker", json::Json(0)}});
  ASSERT_EQ(deltaDrain.GetString("status", ""), "ok") << deltaDrain.Dump();
  ASSERT_EQ(fullDrain.GetString("status", ""), "ok") << fullDrain.Dump();
  EXPECT_EQ(deltaDrain.GetInt("moved", -1), fullDrain.GetInt("moved", -2));
  // Mostly-idle sessions dirty a handful of pages; the delta wire must
  // be well under the full-image wire, not merely equal.
  EXPECT_LT(deltaDrain.GetInt("movedBytes", 0),
            fullDrain.GetInt("movedBytes", 0))
      << deltaDrain.Dump() << fullDrain.Dump();

  // Delta migration is invisible at the blob level: both fleets export
  // byte-identically, and identically to the pre-drain blobs.
  for (const std::int64_t id : ids) {
    const std::string deltaSide = ExportBlob(*deltaRouter, id);
    EXPECT_EQ(deltaSide, before[id]) << "session " << id;
    EXPECT_EQ(deltaSide, ExportBlob(*fullRouter, id)) << "session " << id;
  }
}

namespace {

/// Fails the first importSession it sees and counts every one;
/// everything else passes through. kRefused answers an error document, as
/// a worker that cannot decode the delta blob it was sent does;
/// kReplyLost runs the import, then reports the reply lost, as
/// SocketTransport does when its read fails.
class FirstImportFailsTransport : public WorkerTransport {
 public:
  enum class Failure { kRefused, kReplyLost };

  FirstImportFailsTransport(const server::SimServer::Limits& limits,
                            Failure failure)
      : inner_(limits), failure_(failure) {}

  Result<json::Json> Call(const json::Json& request) override {
    if (request.GetString("command", "") != "importSession") {
      return inner_.Call(request);
    }
    imports_.fetch_add(1);
    if (failedOnce_.exchange(true)) return inner_.Call(request);
    if (failure_ == Failure::kRefused) {
      return server::MakeErrorResponse(Error{
          ErrorKind::kInvalidArgument, "simulated delta decode failure"});
    }
    (void)inner_.Call(request);
    return Error{ErrorKind::kInternal,
                 "simulated lost reply (request may or may not have "
                 "executed)"};
  }
  std::string Describe() const override { return inner_.Describe(); }
  server::SimServer* LocalServer() override { return inner_.LocalServer(); }

  int imports() const { return imports_.load(); }

 private:
  InProcessTransport inner_;
  const Failure failure_;
  std::atomic<bool> failedOnce_{false};
  std::atomic<int> imports_{0};
};

}  // namespace

TEST(Drain, DeltaImportFailureFallsBackToFullImage) {
  // A destination that rejects the delta blob must get exactly one full-
  // image retry: the session still moves, nothing is lost, and the
  // fallback is counted.
  ShardRouter::Options options;
  options.workerCount = 2;
  options.transportFactory = [](std::size_t,
                                const server::SimServer::Limits& limits)
      -> Result<std::shared_ptr<WorkerTransport>> {
    return std::shared_ptr<WorkerTransport>(
        std::make_shared<FirstImportFailsTransport>(
            limits, FirstImportFailsTransport::Failure::kRefused));
  };
  ShardRouter router(options);

  const std::vector<std::int64_t> ids = {MustCreateOn(router, 0)};
  std::map<std::int64_t, std::string> before;
  for (const std::int64_t id : ids) before[id] = ExportBlob(router, id);

  const std::uint64_t fallbacksBefore =
      obs::Registry::Instance().GetCounter("shard.router.deltaFallbacks")
          .value();
  json::Json drained = Cmd(router, "drainWorker", {{"worker", json::Json(0)}});
  ASSERT_EQ(drained.GetString("status", ""), "ok") << drained.Dump();
  EXPECT_EQ(SessionsPerWorker(router)[0], 0);
  EXPECT_GT(obs::Registry::Instance()
                .GetCounter("shard.router.deltaFallbacks")
                .value(),
            fallbacksBefore)
      << "the failed delta import must be counted as a fallback";

  // The doubly-shipped session arrived intact.
  for (const std::int64_t id : ids) {
    EXPECT_EQ(before[id], ExportBlob(router, id)) << "session " << id;
  }
}

TEST(Drain, ImportThatMayHaveExecutedIsNotSentAgain) {
  // The destination runs the first import and its reply is lost. A
  // second import could leave two copies there, so the move fails
  // instead: the session stays on its source, and the failure says the
  // destination may hold a copy.
  std::vector<std::shared_ptr<FirstImportFailsTransport>> transports;
  ShardRouter::Options options;
  options.workerCount = 2;
  options.transportFactory =
      [&transports](std::size_t, const server::SimServer::Limits& limits)
      -> Result<std::shared_ptr<WorkerTransport>> {
    transports.push_back(std::make_shared<FirstImportFailsTransport>(
        limits, FirstImportFailsTransport::Failure::kReplyLost));
    return std::static_pointer_cast<WorkerTransport>(transports.back());
  };
  ShardRouter router(options);
  const std::int64_t id = MustCreateOn(router, 0);

  json::Json drained = Cmd(router, "drainWorker", {{"worker", json::Json(0)}});
  testutil::CheckErrorEnvelope(drained);
  EXPECT_EQ(transports[1]->imports(), 1) << "the import was sent again";
  const json::Json* failed = testutil::ErrorDetail(drained, "failed");
  ASSERT_NE(failed, nullptr) << drained.Dump();
  ASSERT_EQ(failed->AsArray().size(), 1u) << drained.Dump();
  EXPECT_NE(failed->AsArray()[0].GetString("message", "").find(
                "may hold an unrouted copy"),
            std::string::npos)
      << drained.Dump();
  EXPECT_EQ(WorkerOf(router, id), 0);
  json::Json stepped = Cmd(router, "step", {{"sessionId", json::Json(id)},
                                            {"count", json::Json(5)}});
  EXPECT_EQ(stepped.GetString("status", ""), "ok") << stepped.Dump();
}

TEST(Drain, DestinationIsTheWorkerHoldingTheFewestSessions) {
  // Worker 1 holds one session with a 2 MiB memory, worker 2 two default
  // ones, far fewer bytes. A drain counts sessions, as an admission does:
  // worker 0's first session goes to worker 1, and its second breaks the
  // 2/2 tie low.
  ShardRouter::Options options;
  options.workerCount = 3;
  ShardRouter router(options);
  const std::int64_t first = MustCreateOn(router, 0);
  MustCreateLargeOn(router, 1);
  MustCreateOn(router, 2);
  MustCreateOn(router, 0);
  const std::int64_t deleted = MustCreateOn(router, 1);
  MustCreateOn(router, 2);
  ASSERT_EQ(
      Cmd(router, "deleteSession", {{"sessionId", json::Json(deleted)}})
          .GetString("status", ""),
      "ok");

  json::Json drained = Cmd(router, "drainWorker", {{"worker", json::Json(0)}});
  ASSERT_EQ(drained.GetString("status", ""), "ok") << drained.Dump();
  EXPECT_EQ(WorkerOf(router, first), 1);
  EXPECT_EQ(SessionsPerWorker(router),
            (std::map<std::int64_t, std::int64_t>{{0, 0}, {1, 3}, {2, 2}}));
}

// ---- elastic scaling (in-process) ------------------------------------------

TEST(Elastic, AddWorkerTakesPlacements) {
  ShardRouter::Options options;
  options.workerCount = 2;
  ShardRouter router(options);
  for (int i = 0; i < 8; ++i) MustCreateSession(router);

  json::Json added = Cmd(router, "addWorker");
  ASSERT_EQ(added.GetString("status", ""), "ok") << added.Dump();
  EXPECT_EQ(added.GetInt("worker", -1), 2);
  EXPECT_EQ(router.workerCount(), 3u);

  // Existing sessions stay put, and the new worker, holding none, takes
  // the next four sessions.
  EXPECT_EQ(router.sessionCount(), 8u);
  for (int i = 0; i < 4; ++i) MustCreateOn(router, 2);
  EXPECT_EQ(SessionsPerWorker(router),
            (std::map<std::int64_t, std::int64_t>{{0, 4}, {1, 4}, {2, 4}}));

  // The new worker is a first-class citizen: drain it back out.
  json::Json drained = Cmd(router, "drainWorker", {{"worker", json::Json(2)}});
  EXPECT_EQ(drained.GetString("status", ""), "ok") << drained.Dump();
  EXPECT_EQ(SessionsPerWorker(router)[2], 0);
}

TEST(Elastic, RemoveWorkerDrainsThenRetiresTheSlot) {
  ShardRouter::Options options;
  options.workerCount = 3;
  ShardRouter router(options);
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(MustCreateSession(router));
    json::Json stepped =
        Cmd(router, "step", {{"sessionId", json::Json(ids.back())},
                             {"count", json::Json(50 + 10 * i)}});
    ASSERT_EQ(stepped.GetString("status", ""), "ok");
  }
  std::map<std::int64_t, std::string> before;
  for (const std::int64_t id : ids) before[id] = ExportBlob(router, id);

  json::Json removed = Cmd(router, "removeWorker", {{"worker", json::Json(0)}});
  ASSERT_EQ(removed.GetString("status", ""), "ok") << removed.Dump();
  EXPECT_TRUE(removed.Find("removed")->AsBool());
  EXPECT_TRUE(removed.Find("lost")->AsArray().empty());
  EXPECT_EQ(router.workerServer(0), nullptr);
  EXPECT_EQ(router.workerCount(), 3u) << "slot indices must stay stable";
  EXPECT_EQ(router.sessionCount(), ids.size());

  // Every session survived byte-identically and keeps stepping.
  for (const std::int64_t id : ids) {
    EXPECT_EQ(before[id], ExportBlob(router, id)) << "session " << id;
    json::Json stepped = Cmd(router, "step", {{"sessionId", json::Json(id)},
                                              {"count", json::Json(10)}});
    EXPECT_EQ(stepped.GetString("status", ""), "ok");
  }

  // The removed slot is gone for good: no routing, no re-admission, no
  // double removal.
  EXPECT_EQ(Cmd(router, "drainWorker", {{"worker", json::Json(0)}})
                .GetString("status", ""),
            "error");
  EXPECT_EQ(Cmd(router, "openWorker", {{"worker", json::Json(0)}})
                .GetString("status", ""),
            "error");
  EXPECT_EQ(Cmd(router, "removeWorker", {{"worker", json::Json(0)}})
                .GetString("status", ""),
            "error");

  // workerStats reports the hole.
  json::Json stats = Cmd(router, "workerStats");
  bool sawRemoved = false;
  for (const json::Json& worker : stats.Find("workers")->AsArray()) {
    if (worker.GetInt("worker", -1) == 0) {
      sawRemoved = worker.GetBool("removed", false);
    }
  }
  EXPECT_TRUE(sawRemoved);

  // New sessions land on the survivors only (the removed slot reports no
  // session count at all, so the helper returns its -1 default).
  for (int i = 0; i < 8; ++i) MustCreateSession(router);
  EXPECT_EQ(SessionsPerWorker(router)[0], -1);
  EXPECT_EQ(router.sessionCount(), ids.size() + 8);
}

TEST(Elastic, RemoveWorkerWithNoDestinationFailsClosed) {
  ShardRouter::Options options;
  options.workerCount = 1;
  ShardRouter router(options);
  const std::int64_t id = MustCreateSession(router);

  // No destination exists: removal must refuse (the session would be
  // stranded) and the session must keep working.
  json::Json removed = Cmd(router, "removeWorker", {{"worker", json::Json(0)}});
  testutil::CheckErrorEnvelope(removed);
  EXPECT_FALSE(testutil::ErrorDetail(removed, "removed")->AsBool());
  json::Json stepped = Cmd(router, "step", {{"sessionId", json::Json(id)},
                                            {"count", json::Json(10)}});
  EXPECT_EQ(stepped.GetString("status", ""), "ok");

  // force accepts the loss — and says so per session, never silently.
  json::Json forced = Cmd(router, "removeWorker",
                          {{"worker", json::Json(0)},
                           {"force", json::Json(true)}});
  ASSERT_EQ(forced.GetString("status", ""), "ok") << forced.Dump();
  ASSERT_EQ(forced.Find("lost")->AsArray().size(), 1u);
  EXPECT_EQ(forced.Find("lost")->AsArray()[0].AsInt(), id);
  EXPECT_EQ(router.sessionCount(), 0u);
  EXPECT_EQ(Cmd(router, "step", {{"sessionId", json::Json(id)}})
                .GetString("status", ""),
            "error");
}

// ---- concurrency: dispatch lanes and the quiesce barrier --------------------

/// Runs the same deterministic mixed-command script against any target
/// (bare SimServer or router): checkpointed steps, a rewind, bounded
/// runs — the commands the concurrent dispatch path must serialize
/// per-session. Returns the final stats document (or the first error).
template <typename Target>
json::Json RunMixedScript(Target& target, std::int64_t sessionId, int salt) {
  for (int round = 0; round < 3; ++round) {
    json::Json stepped =
        Cmd(target, "step", {{"sessionId", json::Json(sessionId)},
                             {"count", json::Json(40 + 13 * salt + round)}});
    if (stepped.GetString("status", "") != "ok") return stepped;
    json::Json saved = Cmd(target, "saveCheckpoint",
                           {{"sessionId", json::Json(sessionId)}});
    if (saved.GetString("status", "") != "ok") return saved;
    json::Json more = Cmd(target, "step", {{"sessionId", json::Json(sessionId)},
                                           {"count", json::Json(25)}});
    if (more.GetString("status", "") != "ok") return more;
    json::Json rewound =
        Cmd(target, "stepBack", {{"sessionId", json::Json(sessionId)}});
    if (rewound.GetString("status", "") != "ok") return rewound;
    json::Json ran = Cmd(target, "run", {{"sessionId", json::Json(sessionId)},
                                         {"maxCycles", json::Json(300)}});
    if (ran.GetString("status", "") != "ok") return ran;
  }
  // Run to completion (the programs below finish in well under 1M).
  while (true) {
    json::Json report =
        Cmd(target, "run", {{"sessionId", json::Json(sessionId)},
                            {"maxCycles", json::Json(1'000'000)}});
    if (report.GetString("status", "") != "ok") return report;
    if (report.GetString("finishReason", "") != "none" ||
        report.GetInt("ranCycles", -1) == 0) {
      break;
    }
  }
  return Cmd(target, "stats", {{"sessionId", json::Json(sessionId)}});
}

/// A finishing countdown whose length depends on `salt`, so concurrent
/// sessions do genuinely different work.
std::string SaltedProgram(int salt) {
  return "main:\n    li t0, " + std::to_string(1500 + 211 * salt) +
         "\nspin:\n    addi t1, t1, 5\n    xori t2, t1, 3\n"
         "    addi t0, t0, -1\n    bnez t0, spin\n    ret\n";
}

TEST(Concurrency, ParallelMixedWorkloadMatchesBareServer) {
  // 8 sessions × (step/saveCheckpoint/stepBack/run) scripts, driven by 8
  // client threads against a 4-worker router while a chaos thread drains
  // and reopens workers (live-migrating sessions under the drivers'
  // feet). Every session's final statistics must equal the same script
  // executed sequentially on a bare SimServer: concurrency and migration
  // may reorder work between sessions, never within one, and must not
  // leak into simulation state.
  constexpr int kSessions = 8;

  std::vector<std::string> expected(kSessions);
  {
    server::SimServer reference;
    for (int i = 0; i < kSessions; ++i) {
      const std::int64_t id =
          MustCreateSession(reference, SaltedProgram(i).c_str());
      json::Json stats = RunMixedScript(reference, id, i);
      ASSERT_EQ(stats.GetString("status", ""), "ok") << stats.Dump();
      expected[i] = stats.Find("statistics")->Dump();
    }
  }

  ShardRouter::Options options;
  options.workerCount = 4;
  ShardRouter router(options);
  std::vector<std::int64_t> ids(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    ids[i] = MustCreateSession(router, SaltedProgram(i).c_str());
  }

  std::atomic<bool> stopChaos{false};
  std::thread chaos([&router, &stopChaos] {
    // Forever: drain a worker (quiesce + migrate its sessions), reopen
    // it, next worker. Every operation must succeed or report a clean
    // error; the drivers below must never notice.
    for (std::size_t worker = 0; !stopChaos.load(); worker = (worker + 1) % 4) {
      json::Json drained = Cmd(router, "drainWorker",
                               {{"worker", json::Json(
                                     static_cast<std::int64_t>(worker))}});
      EXPECT_EQ(drained.GetString("status", ""), "ok") << drained.Dump();
      json::Json opened = Cmd(router, "openWorker",
                              {{"worker", json::Json(
                                    static_cast<std::int64_t>(worker))}});
      EXPECT_EQ(opened.GetString("status", ""), "ok") << opened.Dump();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::vector<std::string> actual(kSessions);
  std::vector<std::string> errors(kSessions);
  std::vector<std::thread> drivers;
  drivers.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    drivers.emplace_back([&router, &ids, &actual, &errors, i] {
      json::Json stats = RunMixedScript(router, ids[i], i);
      if (stats.GetString("status", "") != "ok") {
        errors[i] = stats.Dump();
        return;
      }
      actual[i] = stats.Find("statistics")->Dump();
    });
  }
  for (std::thread& driver : drivers) driver.join();
  stopChaos.store(true);
  chaos.join();

  for (int i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(errors[i].empty()) << "session " << i << ": " << errors[i];
    EXPECT_EQ(actual[i], expected[i])
        << "session " << i << " diverged under concurrent dispatch";
  }
  EXPECT_EQ(router.sessionCount(), static_cast<std::size_t>(kSessions));
}

TEST(Concurrency, DrainDuringInflightRunQuiescesThenMigrates) {
  // A drain issued while a `run` is executing on the drained worker must
  // wait for the request (the quiesce barrier), then migrate the session
  // — the run completes normally, the session lands elsewhere, and the
  // final state matches an undisturbed reference run.
  ShardRouter::Options options;
  options.workerCount = 2;
  ShardRouter router(options);

  // The first session of an empty fleet lands on worker 0.
  const std::int64_t id = MustCreateOn(router, 0);

  constexpr std::int64_t kInflightCycles = 120'000;
  json::Json runReport;
  std::thread runner([&router, &runReport, id] {
    runReport = Cmd(router, "run", {{"sessionId", json::Json(id)},
                                    {"maxCycles",
                                     json::Json(kInflightCycles)}});
  });
  // Give the run a head start so the drain really does arrive mid-flight
  // (if scheduling denies us, the test still verifies the ordering).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  json::Json drained = Cmd(router, "drainWorker", {{"worker", json::Json(0)}});
  runner.join();

  ASSERT_EQ(drained.GetString("status", ""), "ok") << drained.Dump();
  ASSERT_EQ(runReport.GetString("status", ""), "ok") << runReport.Dump();
  EXPECT_EQ(runReport.GetInt("ranCycles", -1), kInflightCycles)
      << "the in-flight run must complete untouched, not be cut short";

  // The session moved off the drained worker...
  EXPECT_EQ(SessionsPerWorker(router)[0], 0);
  json::Json listed = Cmd(router, "listSessions");
  std::int64_t home = -1;
  for (const json::Json& session : listed.Find("sessions")->AsArray()) {
    if (session.GetInt("sessionId", -1) == id) {
      home = session.GetInt("worker", -1);
    }
  }
  EXPECT_EQ(home, 1);

  // ...and its state is exactly what an undisturbed run produces.
  server::SimServer reference;
  const std::int64_t referenceId = MustCreateSession(reference);
  json::Json referenceRun =
      Cmd(reference, "run", {{"sessionId", json::Json(referenceId)},
                             {"maxCycles", json::Json(kInflightCycles)}});
  ASSERT_EQ(referenceRun.GetString("status", ""), "ok");
  json::Json referenceState =
      Cmd(reference, "state", {{"sessionId", json::Json(referenceId)}});
  json::Json migratedState = Cmd(router, "state",
                                 {{"sessionId", json::Json(id)}});
  ASSERT_EQ(migratedState.GetString("status", ""), "ok");
  EXPECT_EQ(referenceState.Find("state")->Dump(),
            migratedState.Find("state")->Dump())
      << "quiesced migration must be invisible to simulation state";
}

TEST(Concurrency, LaneFastPathKeepsPerSessionOrderUnderEightThreadStress) {
  // 8 client threads share ONE worker's lane, so they constantly wait in
  // line for each other's turns. Per-session command order must survive
  // the hand-offs: every session's final statistics must equal the same
  // script run sequentially on a bare SimServer.
  constexpr int kSessions = 8;

  std::vector<std::string> expected(kSessions);
  {
    server::SimServer reference;
    for (int i = 0; i < kSessions; ++i) {
      const std::int64_t id =
          MustCreateSession(reference, SaltedProgram(i).c_str());
      json::Json stats = RunMixedScript(reference, id, i);
      ASSERT_EQ(stats.GetString("status", ""), "ok") << stats.Dump();
      expected[i] = stats.Find("statistics")->Dump();
    }
  }

  ShardRouter::Options options;
  options.workerCount = 1;
  ShardRouter router(options);
  std::vector<std::int64_t> ids(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    ids[i] = MustCreateSession(router, SaltedProgram(i).c_str());
  }

  const std::uint64_t waitedBefore =
      obs::Registry::Instance().GetHistogram("shard.lane.queueWaitUs").sum();
  std::vector<std::string> actual(kSessions);
  std::vector<std::string> errors(kSessions);
  std::vector<std::thread> drivers;
  drivers.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    drivers.emplace_back([&router, &ids, &actual, &errors, i] {
      json::Json stats = RunMixedScript(router, ids[i], i);
      if (stats.GetString("status", "") != "ok") {
        errors[i] = stats.Dump();
        return;
      }
      actual[i] = stats.Find("statistics")->Dump();
    });
  }
  for (std::thread& driver : drivers) driver.join();

  for (int i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(errors[i].empty()) << "session " << i << ": " << errors[i];
    EXPECT_EQ(actual[i], expected[i])
        << "session " << i << " diverged while sharing one lane";
  }
  // Eight threads on one lane must have waited for their turns.
  EXPECT_GT(
      obs::Registry::Instance().GetHistogram("shard.lane.queueWaitUs").sum(),
      waitedBefore)
      << "no request ever waited for its turn";
}

namespace {

/// Blocks calls of `command` until released: holds a lane provably busy
/// so the tests below can stage a full queue, or a request already in a
/// worker's line, without timing guesses.
class GatedTransport : public WorkerTransport {
 public:
  GatedTransport(const server::SimServer::Limits& limits, std::string command)
      : inner_(limits), command_(std::move(command)) {}

  Result<json::Json> Call(const json::Json& request) override {
    if (request.GetString("command", "") == command_) {
      entered_.store(true);
      std::unique_lock<std::mutex> lock(mutex_);
      released_.wait(lock, [this] { return released; });
    }
    return inner_.Call(request);
  }
  std::string Describe() const override { return inner_.Describe(); }
  server::SimServer* LocalServer() override { return inner_.LocalServer(); }

  bool entered() const { return entered_.load(); }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released = true;
    }
    released_.notify_all();
  }

 private:
  InProcessTransport inner_;
  const std::string command_;
  std::atomic<bool> entered_{false};
  std::mutex mutex_;
  std::condition_variable released_;
  bool released = false;
};

/// A two-worker fleet whose worker 0 reaches its server through `gated`.
ShardRouter::Options GatedFleet(std::shared_ptr<GatedTransport> gated,
                                std::size_t maxLaneQueueDepth = 0) {
  ShardRouter::Options options;
  options.workerCount = 2;
  options.maxLaneQueueDepth = maxLaneQueueDepth;
  options.transportFactory =
      [gated](std::size_t worker, const server::SimServer::Limits& limits)
      -> Result<std::shared_ptr<WorkerTransport>> {
    if (worker == 0) return std::static_pointer_cast<WorkerTransport>(gated);
    return std::shared_ptr<WorkerTransport>(
        std::make_shared<InProcessTransport>(limits));
  };
  return options;
}

void AwaitEntered(const GatedTransport& gated) {
  for (int i = 0; i < 5'000 && !gated.entered(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(gated.entered()) << "no call reached the gated transport";
}

}  // namespace

TEST(Concurrency, DepthCapShedsThroughTheRouterAndAnswersTheEnvelope) {
  // The load-shed semantics through the router: the ticket holding the
  // turn does not count against the cap, so with a depth cap of 1, one
  // follow-up waits in line and every further one is shed immediately
  // with the retryable-unavailable envelope.
  auto gated = std::make_shared<GatedTransport>(server::SimServer::Limits{},
                                                "run");
  ShardRouter::Options options;
  options.workerCount = 1;
  options.maxLaneQueueDepth = 1;
  options.transportFactory =
      [&gated](std::size_t, const server::SimServer::Limits&)
      -> Result<std::shared_ptr<WorkerTransport>> {
    return std::static_pointer_cast<WorkerTransport>(gated);
  };
  ShardRouter router(options);
  const std::int64_t id = MustCreateSession(router);

  // The run takes the idle lane's turn and parks inside the gated
  // transport — the lane is now provably busy.
  std::thread runner([&router, id] {
    json::Json ran = Cmd(router, "run", {{"sessionId", json::Json(id)},
                                         {"maxCycles", json::Json(100)}});
    EXPECT_EQ(ran.GetString("status", ""), "ok") << ran.Dump();
  });
  while (!gated->entered()) std::this_thread::sleep_for(
      std::chrono::milliseconds(1));

  // 8 concurrent steps against the busy lane: exactly one fits the
  // queue (cap 1), the other seven are shed.
  constexpr int kBlast = 8;
  std::vector<json::Json> responses(kBlast);
  std::atomic<int> answered{0};
  std::vector<std::thread> blasters;
  blasters.reserve(kBlast);
  for (int i = 0; i < kBlast; ++i) {
    blasters.emplace_back([&router, &responses, &answered, id, i] {
      responses[i] = Cmd(router, "step", {{"sessionId", json::Json(id)},
                                          {"count", json::Json(1)}});
      answered.fetch_add(1);
    });
  }
  // The shed responses return immediately; the one queued step blocks
  // until the gate opens. Wait for the sheds, then release the run.
  while (answered.load() < kBlast - 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gated->Release();
  for (std::thread& blaster : blasters) blaster.join();
  runner.join();

  int ok = 0;
  int shed = 0;
  for (const json::Json& response : responses) {
    if (response.GetString("status", "") == "ok") {
      ++ok;
      continue;
    }
    testutil::CheckErrorEnvelope(response);
    EXPECT_EQ(testutil::ErrorField(response, "kind"), "unavailable")
        << response.Dump();
    EXPECT_NE(testutil::ErrorField(response, "message").find("shed"),
              std::string::npos)
        << response.Dump();
    ++shed;
  }
  EXPECT_EQ(ok, 1) << "exactly the one queued step may succeed";
  EXPECT_EQ(shed, kBlast - 1);

  // The lane recovers: with the gate open the session serves normally.
  json::Json after = Cmd(router, "step", {{"sessionId", json::Json(id)},
                                          {"count", json::Json(5)}});
  EXPECT_EQ(after.GetString("status", ""), "ok") << after.Dump();
}

TEST(Concurrency, DrainMovesAnAdmissionAlreadyInTheWorkersLine) {
  // A createSession already in worker 0's line when drainWorker(0)
  // arrives finishes first and records its placement before the drain
  // reads the placement map: the drain moves the new session instead of
  // leaving it behind on the drained worker.
  auto gated = std::make_shared<GatedTransport>(server::SimServer::Limits{},
                                                "createSession");
  ShardRouter router(GatedFleet(gated));

  json::Json admitted;
  std::thread admitter([&router, &admitted] {
    // The first admission of an empty fleet goes to worker 0 and parks.
    admitted = Cmd(router, "createSession",
                   {{"code", json::Json(kSpinLoop)},
                    {"entry", json::Json("main")}});
  });
  AwaitEntered(*gated);
  json::Json drained;
  std::thread drainer([&router, &drained] {
    drained = Cmd(router, "drainWorker", {{"worker", json::Json(0)}});
  });
  // Give the drain a head start so it takes worker 0 over while the
  // admission is still parked in the worker's line (if scheduling denies
  // us, the test still verifies the outcome).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gated->Release();
  admitter.join();
  drainer.join();

  ASSERT_EQ(admitted.GetString("status", ""), "ok") << admitted.Dump();
  EXPECT_EQ(admitted.GetInt("worker", -1), 0);
  ASSERT_EQ(drained.GetString("status", ""), "ok") << drained.Dump();
  EXPECT_EQ(drained.GetInt("moved", -1), 1) << "the drain missed the admission";
  EXPECT_EQ(SessionsPerWorker(router)[0], 0);
  const std::int64_t id = admitted.GetInt("sessionId", -1);
  json::Json state = Cmd(router, "state", {{"sessionId", json::Json(id)}});
  EXPECT_EQ(state.GetString("status", ""), "ok") << state.Dump();
}

TEST(Concurrency, AdmissionsInFlightSpreadAcrossWorkers) {
  // Six admissions at once on two workers whose createSession calls park:
  // each admission counts the ones still in flight, so they split 3/3
  // instead of all picking the worker that was emptiest when they began.
  std::array<std::shared_ptr<GatedTransport>, 2> gated;
  for (auto& transport : gated) {
    transport = std::make_shared<GatedTransport>(server::SimServer::Limits{},
                                                 "createSession");
  }
  ShardRouter::Options options;
  options.workerCount = 2;
  options.transportFactory =
      [&gated](std::size_t worker, const server::SimServer::Limits&)
      -> Result<std::shared_ptr<WorkerTransport>> {
    return std::static_pointer_cast<WorkerTransport>(gated[worker]);
  };
  ShardRouter router(options);

  constexpr int kAdmissions = 6;
  std::vector<json::Json> admitted(kAdmissions);
  std::vector<std::thread> admitters;
  admitters.reserve(kAdmissions);
  for (int i = 0; i < kAdmissions; ++i) {
    admitters.emplace_back([&router, &admitted, i] {
      admitted[i] = Cmd(router, "createSession",
                        {{"code", json::Json(kSpinLoop)},
                         {"entry", json::Json("main")}});
    });
  }
  AwaitEntered(*gated[0]);
  AwaitEntered(*gated[1]);
  for (auto& transport : gated) transport->Release();
  for (std::thread& admitter : admitters) admitter.join();

  std::map<std::int64_t, int> perWorker;
  for (const json::Json& response : admitted) {
    ASSERT_EQ(response.GetString("status", ""), "ok") << response.Dump();
    ++perWorker[response.GetInt("worker", -1)];
  }
  EXPECT_EQ(perWorker, (std::map<std::int64_t, int>{{0, 3}, {1, 3}}));
  EXPECT_EQ(SessionsPerWorker(router),
            (std::map<std::int64_t, std::int64_t>{{0, 3}, {1, 3}}));
}

TEST(Concurrency, AdmissionPassesOverAWorkerARebalanceOwns) {
  // Worker 0 holds four sessions and worker 1 one, so a rebalance takes
  // worker 0 over to move one of them. With that move parked in the
  // export, three creates fill worker 1 to a tie; the fourth, whose
  // emptiest worker is now the gated worker 0, must land on worker 1 at
  // once rather than wait for worker 0's gate.
  auto gated = std::make_shared<GatedTransport>(server::SimServer::Limits{},
                                                "exportSession");
  ShardRouter router(GatedFleet(gated));
  ASSERT_EQ(Cmd(router, "drainWorker", {{"worker", json::Json(1)}})
                .GetString("status", ""),
            "ok");
  for (int i = 0; i < 4; ++i) MustCreateOn(router, 0);
  ASSERT_EQ(Cmd(router, "openWorker", {{"worker", json::Json(1)}})
                .GetString("status", ""),
            "ok");
  MustCreateOn(router, 1);

  json::Json rebalanced;
  std::thread rebalancer([&router, &rebalanced] {
    rebalanced = Cmd(router, "rebalance");
  });
  AwaitEntered(*gated);
  for (int i = 0; i < 3; ++i) MustCreateOn(router, 1);
  auto admission = std::async(std::launch::async, [&router] {
    return Cmd(router, "createSession", {{"code", json::Json(kSpinLoop)},
                                         {"entry", json::Json("main")}});
  });
  const bool answeredDuringTheMove =
      admission.wait_for(std::chrono::seconds(10)) ==
      std::future_status::ready;
  gated->Release();
  rebalancer.join();
  const json::Json admitted = admission.get();

  EXPECT_TRUE(answeredDuringTheMove) << "the admission waited for the gate";
  ASSERT_EQ(admitted.GetString("status", ""), "ok") << admitted.Dump();
  EXPECT_EQ(admitted.GetInt("worker", -1), 1) << admitted.Dump();
  ASSERT_EQ(rebalanced.GetString("status", ""), "ok") << rebalanced.Dump();
  EXPECT_EQ(rebalanced.GetInt("moved", -1), 1);
  EXPECT_EQ(router.sessionCount(), 9u);
}

TEST(Concurrency, DrainDoesNotWaitForABusyPeer) {
  // Worker 0 holds the most sessions and a parked run. A drain of worker
  // 2 sends both its sessions to worker 1, which holds the fewest, and
  // never waits for worker 0's turn.
  auto gated = std::make_shared<GatedTransport>(server::SimServer::Limits{},
                                                "run");
  ShardRouter::Options options = GatedFleet(gated);
  options.workerCount = 3;
  ShardRouter router(options);
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 7; ++i) ids.push_back(MustCreateOn(router, i % 3));
  ASSERT_EQ(Cmd(router, "deleteSession", {{"sessionId", json::Json(ids[1])}})
                .GetString("status", ""),
            "ok");

  std::thread runner([&router, &ids] {
    json::Json ran = Cmd(router, "run", {{"sessionId", json::Json(ids[0])},
                                         {"maxCycles", json::Json(100)}});
    EXPECT_EQ(ran.GetString("status", ""), "ok") << ran.Dump();
  });
  AwaitEntered(*gated);
  auto drain = std::async(std::launch::async, [&router] {
    return Cmd(router, "drainWorker", {{"worker", json::Json(2)}});
  });
  const bool answered =
      drain.wait_for(std::chrono::seconds(3)) == std::future_status::ready;
  gated->Release();
  runner.join();
  const json::Json drained = drain.get();

  EXPECT_TRUE(answered) << "the drain waited for worker 0's run";
  ASSERT_EQ(drained.GetString("status", ""), "ok") << drained.Dump();
  EXPECT_EQ(drained.GetInt("moved", -1), 2);
  EXPECT_EQ(SessionsPerWorker(router),
            (std::map<std::int64_t, std::int64_t>{{0, 3}, {1, 3}, {2, 0}}));
}

TEST(Concurrency, DeleteAlreadyInTheWorkersLineIsNeitherMovedNorFailed) {
  // A deleteSession already in worker 0's line when drainWorker(0)
  // arrives erases its placement before the drain reads the map: the
  // drain neither moves the deleted session nor reports it failed.
  auto gated = std::make_shared<GatedTransport>(server::SimServer::Limits{},
                                                "deleteSession");
  ShardRouter router(GatedFleet(gated));
  const std::int64_t id = MustCreateOn(router, 0);

  json::Json deleted;
  std::thread deleter([&router, &deleted, id] {
    deleted = Cmd(router, "deleteSession", {{"sessionId", json::Json(id)}});
  });
  AwaitEntered(*gated);
  json::Json drained;
  std::thread drainer([&router, &drained] {
    drained = Cmd(router, "drainWorker", {{"worker", json::Json(0)}});
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gated->Release();
  deleter.join();
  drainer.join();

  ASSERT_EQ(deleted.GetString("status", ""), "ok") << deleted.Dump();
  ASSERT_EQ(drained.GetString("status", ""), "ok") << drained.Dump();
  EXPECT_EQ(drained.GetInt("moved", -1), 0);
  EXPECT_TRUE(drained.Find("failed")->AsArray().empty()) << drained.Dump();
  EXPECT_EQ(router.sessionCount(), 0u);
}

TEST(Concurrency, TakeoverAtTheDepthCapIsRefusedAndMovesNothing) {
  // A fleet operation's ticket counts against the lane's depth cap like
  // any other: with a parked run holding worker 0's turn and a step
  // waiting behind it (cap 1), drainWorker(0) answers at once with the
  // retryable unavailable error, reopens the gate and moves nothing.
  auto gated = std::make_shared<GatedTransport>(server::SimServer::Limits{},
                                                "run");
  ShardRouter router(GatedFleet(gated, /*maxLaneQueueDepth=*/1));
  const std::int64_t id = MustCreateOn(router, 0);

  std::thread runner([&router, id] {
    json::Json ran = Cmd(router, "run", {{"sessionId", json::Json(id)},
                                         {"maxCycles", json::Json(100)}});
    EXPECT_EQ(ran.GetString("status", ""), "ok") << ran.Dump();
  });
  AwaitEntered(*gated);
  obs::Registry& registry = obs::Registry::Instance();
  obs::Counter& routed = registry.GetCounter("shard.router.requests");
  const std::uint64_t routedBefore = routed.value();
  json::Json stepped;
  std::thread stepper([&router, &stepped, id] {
    stepped = Cmd(router, "step", {{"sessionId", json::Json(id)},
                                   {"count", json::Json(1)}});
  });
  // The step has entered the router; its join is a mutex section away.
  while (routed.value() == routedBefore) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  obs::Counter& migrations = registry.GetCounter("shard.router.migrations");
  const std::uint64_t migrationsBefore = migrations.value();
  auto drain = std::async(std::launch::async, [&router] {
    return Cmd(router, "drainWorker", {{"worker", json::Json(0)}});
  });
  const bool answered =
      drain.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  EXPECT_TRUE(answered) << "the takeover waited at the depth cap";
  EXPECT_EQ(migrations.value(), migrationsBefore) << "a refused drain moved";
  gated->Release();
  const json::Json refused = drain.get();
  runner.join();
  stepper.join();

  testutil::CheckErrorEnvelope(refused);
  EXPECT_EQ(testutil::ErrorField(refused, "kind"), "unavailable")
      << refused.Dump();
  EXPECT_EQ(stepped.GetString("status", ""), "ok") << stepped.Dump();
  json::Json stats = Cmd(router, "workerStats");
  EXPECT_TRUE(stats.Find("workers")->AsArray()[0].GetBool("drained", false))
      << "a refused drain leaves the worker marked drained";

  // The gate is open again: the session serves, and a second drain
  // moves it.
  json::Json after = Cmd(router, "step", {{"sessionId", json::Json(id)},
                                          {"count", json::Json(1)}});
  EXPECT_EQ(after.GetString("status", ""), "ok") << after.Dump();
  json::Json drained = Cmd(router, "drainWorker", {{"worker", json::Json(0)}});
  ASSERT_EQ(drained.GetString("status", ""), "ok") << drained.Dump();
  EXPECT_EQ(drained.GetInt("moved", -1), 1);
  EXPECT_EQ(SessionsPerWorker(router)[0], 0);
}

TEST(Concurrency, ProbesOfABusyWorkerWaitPastTheDepthCapInsteadOfCallingItDead) {
  // A busy worker is not a dead one: with a parked run holding the only
  // worker's turn and a step waiting behind it (cap 1), workerStats and
  // listSessions wait for their turn past the cap and report the worker
  // and its session once the run is released.
  auto gated = std::make_shared<GatedTransport>(server::SimServer::Limits{},
                                                "run");
  ShardRouter::Options options;
  options.workerCount = 1;
  options.maxLaneQueueDepth = 1;
  options.transportFactory =
      [&gated](std::size_t, const server::SimServer::Limits&)
      -> Result<std::shared_ptr<WorkerTransport>> {
    return std::static_pointer_cast<WorkerTransport>(gated);
  };
  ShardRouter router(options);
  const std::int64_t id = MustCreateSession(router);

  std::thread runner([&router, id] {
    json::Json ran = Cmd(router, "run", {{"sessionId", json::Json(id)},
                                         {"maxCycles", json::Json(100)}});
    EXPECT_EQ(ran.GetString("status", ""), "ok") << ran.Dump();
  });
  AwaitEntered(*gated);
  obs::Counter& routed =
      obs::Registry::Instance().GetCounter("shard.router.requests");
  const std::uint64_t routedBefore = routed.value();
  json::Json stepped;
  std::thread stepper([&router, &stepped, id] {
    stepped = Cmd(router, "step", {{"sessionId", json::Json(id)},
                                   {"count", json::Json(1)}});
  });
  // The step has entered the router; its join is a mutex section away.
  while (routed.value() == routedBefore) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  auto stats = std::async(std::launch::async,
                          [&router] { return Cmd(router, "workerStats"); });
  auto listed = std::async(std::launch::async,
                           [&router] { return Cmd(router, "listSessions"); });
  EXPECT_EQ(listed.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout)
      << "the probe did not wait for the busy worker";
  gated->Release();
  const json::Json workers = stats.get();
  const json::Json sessions = listed.get();
  runner.join();
  stepper.join();
  EXPECT_EQ(stepped.GetString("status", ""), "ok") << stepped.Dump();

  ASSERT_EQ(workers.GetString("status", ""), "ok") << workers.Dump();
  const json::Json& worker = workers.Find("workers")->AsArray()[0];
  EXPECT_FALSE(worker.GetBool("unreachable", false)) << workers.Dump();
  EXPECT_EQ(worker.GetInt("sessions", -1), 1) << workers.Dump();
  ASSERT_EQ(sessions.GetString("status", ""), "ok") << sessions.Dump();
  EXPECT_TRUE(sessions.Find("unreachableWorkers")->AsArray().empty())
      << sessions.Dump();
  ASSERT_EQ(sessions.Find("sessions")->AsArray().size(), 1u)
      << sessions.Dump();
  EXPECT_EQ(sessions.Find("sessions")->AsArray()[0].GetInt("sessionId", -1),
            id);
}

// ---- the lane's line --------------------------------------------------------

namespace {

/// Records the command of every call it completes, in order, and parks
/// calls for `blockOn` until Release().
class LineTransport : public WorkerTransport {
 public:
  explicit LineTransport(std::string blockOn = "")
      : blockOn_(std::move(blockOn)) {}

  Result<json::Json> Call(const json::Json& request) override {
    const std::string command = request.GetString("command", "");
    std::unique_lock<std::mutex> lock(mutex_);
    if (command == blockOn_) {
      entered_ = true;
      changed_.notify_all();
      changed_.wait(lock, [this] { return released_; });
    }
    completed_.push_back(command);
    return server::OkResponse();
  }
  std::string Describe() const override { return "line"; }

  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [this] { return entered_; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    changed_.notify_all();
  }
  std::vector<std::string> completed() {
    std::lock_guard<std::mutex> lock(mutex_);
    return completed_;
  }

 private:
  const std::string blockOn_;
  std::mutex mutex_;
  std::condition_variable changed_;
  bool entered_ = false;
  bool released_ = false;
  std::vector<std::string> completed_;
};

json::Json LineRequest(const std::string& command) {
  json::Json request = json::Json::MakeObject();
  request.Set("command", command);
  return request;
}

/// Calls `command` with `ticket` on a thread of its own. The ticket goes,
/// passing the turn on, when the call returns: the callable itself lives
/// as long as the future.
std::future<Result<json::Json>> CallOnThread(WorkerLane::Ticket ticket,
                                             const std::string& command) {
  return std::async(std::launch::async,
                    [ticket = std::move(ticket), command]() mutable {
                      WorkerLane::Ticket held = std::move(ticket);
                      return held.Call(LineRequest(command));
                    });
}

}  // namespace

TEST(WorkerLane, TicketsAreServedInJoinOrderEvenWhenALaterHolderCallsFirst) {
  auto transport = std::make_shared<LineTransport>();
  auto lane = std::make_shared<WorkerLane>(transport);
  WorkerLane::Ticket first = lane->Join();
  WorkerLane::Ticket second = lane->Join();
  WorkerLane::Ticket third = lane->Join();
  EXPECT_EQ(lane->stats().queueDepth, 2u)
      << "the first ticket holds the turn, the other two wait";

  // The later holders call first, the latest one first of all.
  auto thirdCall = CallOnThread(std::move(third), "third");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto secondCall = CallOnThread(std::move(second), "second");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(transport->completed().empty())
      << "a call ran before the first ticket's turn";

  EXPECT_TRUE(first.Call(LineRequest("first")).ok());
  first = WorkerLane::Ticket();  // passes the turn on
  EXPECT_TRUE(secondCall.get().ok());
  EXPECT_TRUE(thirdCall.get().ok());
  EXPECT_EQ(transport->completed(),
            (std::vector<std::string>{"first", "second", "third"}));
}

TEST(WorkerLane, WaitReturnsAfterTheCallInServiceAndTheTicketBehindIt) {
  auto transport = std::make_shared<LineTransport>("block");
  auto lane = std::make_shared<WorkerLane>(transport);
  auto blocked = CallOnThread(lane->Join(), "block");
  transport->AwaitEntered();
  // Joined ahead of `last`, so its Wait must outlast this call too.
  auto behind = CallOnThread(lane->Join(), "behind");
  WorkerLane::Ticket last = lane->Join();

  std::atomic<bool> turned{false};
  std::vector<std::string> completedAtTurn;
  std::thread waiter([&] {
    EXPECT_TRUE(last.Wait().ok());
    completedAtTurn = transport->completed();
    turned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(turned.load())
      << "Wait returned while a call was blocked in the transport";

  transport->Release();
  waiter.join();
  EXPECT_EQ(completedAtTurn, (std::vector<std::string>{"block", "behind"}));
  EXPECT_TRUE(blocked.get().ok());
  EXPECT_TRUE(behind.get().ok());
}

TEST(WorkerLane, AHolderKeepsTheTurnAcrossCallsUntilItIsDestroyed) {
  auto transport = std::make_shared<LineTransport>();
  auto lane = std::make_shared<WorkerLane>(transport);
  std::future<Result<json::Json>> waiting;
  {
    WorkerLane::Ticket holder = lane->Join();
    waiting = CallOnThread(lane->Join(), "waiting");
    EXPECT_TRUE(holder.Call(LineRequest("one")).ok());
    EXPECT_EQ(waiting.wait_for(std::chrono::milliseconds(20)),
              std::future_status::timeout)
        << "the turn passed on when the holder's call returned";
    EXPECT_TRUE(holder.Call(LineRequest("two")).ok());
    EXPECT_EQ(waiting.wait_for(std::chrono::milliseconds(20)),
              std::future_status::timeout);
  }  // the holder goes: the turn passes on
  ASSERT_EQ(waiting.wait_for(std::chrono::seconds(5)),
            std::future_status::ready)
      << "the waiting ticket never got the turn";
  EXPECT_TRUE(waiting.get().ok());
  EXPECT_EQ(transport->completed(),
            (std::vector<std::string>{"one", "two", "waiting"}));
}

TEST(WorkerLane, ADroppedTicketGivesItsPlaceUp) {
  auto transport = std::make_shared<LineTransport>();
  auto lane = std::make_shared<WorkerLane>(transport);
  {
    WorkerLane::Ticket holder = lane->Join();
    WorkerLane::Ticket waiting = lane->Join();
  }  // neither called: `waiting` leaves the line, `holder` passes the turn
  EXPECT_EQ(lane->stats().queueDepth, 0u);
  auto after = CallOnThread(lane->Join(), "after");
  ASSERT_EQ(after.wait_for(std::chrono::seconds(5)),
            std::future_status::ready)
      << "a dropped ticket kept the turn";
  EXPECT_TRUE(after.get().ok());
}

// ---- rebalance --------------------------------------------------------------

TEST(Rebalance, MovesSessionsOffTheLoadedWorkerUntilSkewIsBounded) {
  ShardRouter::Options options;
  options.workerCount = 3;
  ShardRouter router(options);
  for (int i = 0; i < 12; ++i) MustCreateSession(router);

  // Force the worst case: everything on worker 0.
  ASSERT_EQ(Cmd(router, "drainWorker", {{"worker", json::Json(1)}})
                .GetString("status", ""),
            "ok");
  ASSERT_EQ(Cmd(router, "drainWorker", {{"worker", json::Json(2)}})
                .GetString("status", ""),
            "ok");
  ASSERT_EQ(SessionsPerWorker(router)[0], 12);
  ASSERT_EQ(Cmd(router, "openWorker", {{"worker", json::Json(1)}})
                .GetString("status", ""),
            "ok");
  ASSERT_EQ(Cmd(router, "openWorker", {{"worker", json::Json(2)}})
                .GetString("status", ""),
            "ok");

  json::Json rebalanced = Cmd(router, "rebalance");
  ASSERT_EQ(rebalanced.GetString("status", ""), "ok") << rebalanced.Dump();
  EXPECT_GT(rebalanced.GetInt("moved", 0), 0);
  EXPECT_LE(rebalanced.Find("skewAfter")->AsDouble(),
            rebalanced.Find("skewBefore")->AsDouble());
  EXPECT_LE(rebalanced.Find("skewAfter")->AsDouble(),
            ShardRouter::kRebalanceSkewThreshold + 1e-9);
  EXPECT_EQ(router.sessionCount(), 12u);

  // Already balanced: a second rebalance is a no-op.
  json::Json again = Cmd(router, "rebalance");
  ASSERT_EQ(again.GetString("status", ""), "ok");
  EXPECT_EQ(again.GetInt("moved", -1), 0);
}

TEST(Rebalance, MovesFromTheWorkerHoldingTheMostSessions) {
  // Worker 0 holds one session with a 2 MiB memory, worker 1 four default
  // ones: worker 0 holds more bytes, worker 1 more sessions. The skew is
  // in sessions, 4 / 2.5 = 1.6, so one session moves off worker 1, and
  // at 2/3 it is 1.2.
  ShardRouter::Options options;
  options.workerCount = 2;
  ShardRouter router(options);
  ASSERT_EQ(Cmd(router, "drainWorker", {{"worker", json::Json(0)}})
                .GetString("status", ""),
            "ok");
  for (int i = 0; i < 4; ++i) MustCreateOn(router, 1);
  ASSERT_EQ(Cmd(router, "openWorker", {{"worker", json::Json(0)}})
                .GetString("status", ""),
            "ok");
  const std::int64_t large = MustCreateLargeOn(router, 0);

  json::Json rebalanced = Cmd(router, "rebalance");
  ASSERT_EQ(rebalanced.GetString("status", ""), "ok") << rebalanced.Dump();
  EXPECT_EQ(rebalanced.GetInt("moved", -1), 1);
  EXPECT_DOUBLE_EQ(rebalanced.Find("skewBefore")->AsDouble(), 1.6);
  EXPECT_DOUBLE_EQ(rebalanced.Find("skewAfter")->AsDouble(), 1.2);
  EXPECT_EQ(SessionsPerWorker(router),
            (std::map<std::int64_t, std::int64_t>{{0, 2}, {1, 3}}));
  EXPECT_EQ(WorkerOf(router, large), 0);
}


// ---- one command table: bare server and router answer alike ----------------

/// One request to a bare SimServer and a router; equal status, and on
/// error equal kind and message. `bareId`/`routerId` fill "sessionId"
/// when >= 0 (the two number their sessions independently).
void ExpectSameAnswer(server::SimServer& bare, ShardRouter& router,
                      const server::CommandInfo& info, std::int64_t bareId,
                      std::int64_t routerId, const std::string& label) {
  json::Json bareRequest = server::MakeRequest(info.command);
  json::Json routerRequest = server::MakeRequest(info.command);
  if (bareId >= 0) {
    bareRequest.Set("sessionId", bareId);
    routerRequest.Set("sessionId", routerId);
  }
  const json::Json fromBare = bare.Handle(bareRequest);
  const json::Json fromRouter = router.Handle(routerRequest);
  const std::string context = std::string(info.name) + " (" + label +
                              "): bare " + fromBare.Dump() + " router " +
                              fromRouter.Dump();
  ASSERT_EQ(fromBare.GetString("status", ""),
            fromRouter.GetString("status", ""))
      << context;
  EXPECT_EQ(testutil::ErrorField(fromBare, "kind"),
            testutil::ErrorField(fromRouter, "kind"))
      << context;
  EXPECT_EQ(testutil::ErrorField(fromBare, "message"),
            testutil::ErrorField(fromRouter, "message"))
      << context;
}

TEST(CommandTable, BareServerAndRouterAnswerEveryCommandAlike) {
  server::SimServer bare;
  ShardRouter::Options options;
  options.workerCount = 2;
  ShardRouter router(options);
  // Unknown on both sides, whatever the commands above it created.
  constexpr std::int64_t kStrayId = 987654;

  for (const server::CommandInfo& info : server::Commands()) {
    if (info.commandClass == server::CommandClass::kFleetOp) continue;
    ExpectSameAnswer(bare, router, info, -1, -1, "minimal");
    ExpectSameAnswer(bare, router, info, kStrayId, kStrayId,
                     "stray or unknown sessionId");
    if (info.commandClass == server::CommandClass::kSession) {
      // A fresh session per command: deleteSession must not starve the
      // commands after it.
      ExpectSameAnswer(bare, router, info,
                       MustCreateSession(bare, kShortProgram),
                       MustCreateSession(router, kShortProgram), "live id");
    }
  }
}

TEST(CommandTable, UnknownNamesAndProcessControlAreAnsweredNotForwarded) {
  server::SimServer bare;
  ShardRouter::Options options;
  options.workerCount = 2;
  ShardRouter router(options);
  for (const char* name : {"definitelyNotACommand", "STEP", ""}) {
    for (const json::Json& answer :
         {Cmd(bare, name), Cmd(router, name),
          Cmd(router, name, {{"sessionId", json::Json(1)}})}) {
      testutil::CheckErrorEnvelope(answer);
      EXPECT_EQ(testutil::ErrorField(answer, "message"),
                "unknown command '" + std::string(name) + "'")
          << answer.Dump();
    }
  }
  for (const server::CommandInfo& info : server::Commands()) {
    if (info.commandClass != server::CommandClass::kProcessControl) continue;
    json::Json refused = Cmd(router, info.name);
    testutil::CheckErrorEnvelope(refused);
    EXPECT_NE(testutil::ErrorField(refused, "message")
                  .find(std::string(info.name) + "' is process control"),
              std::string::npos)
        << refused.Dump();
  }
}

// ---- start-up: the router starts no thread ----------------------------------

std::size_t ProcessThreadCount() {
  std::size_t threads = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++threads;
  }
  return threads;
}

TEST(Startup, EveryTransportIsBuiltBeforeAnyLaneThreadStarts) {
  // A factory that forks worker processes must run while the process is
  // still single-threaded: a thread could hold a lock (the obs::Registry
  // mutex) at the instant a worker forks. The router starts no thread.
  std::vector<std::size_t> threadsAtCall;
  ShardRouter::Options options;
  options.workerCount = 4;
  options.transportFactory =
      [&threadsAtCall](std::size_t, const server::SimServer::Limits& limits)
      -> Result<std::shared_ptr<WorkerTransport>> {
    threadsAtCall.push_back(ProcessThreadCount());
    return std::shared_ptr<WorkerTransport>(
        std::make_shared<InProcessTransport>(limits));
  };
  const std::size_t before = ProcessThreadCount();
  ShardRouter router(options);
  ASSERT_EQ(threadsAtCall.size(), 4u);
  for (std::size_t i = 0; i < threadsAtCall.size(); ++i) {
    EXPECT_EQ(threadsAtCall[i], before) << "factory call " << i;
  }
  EXPECT_EQ(ProcessThreadCount(), before) << "the router starts no thread";
}

}  // namespace
}  // namespace rvss::shard
