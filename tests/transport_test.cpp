// Cross-process transport tests: the frame codec, the socket transport
// against real forked worker processes, and — the point of the suite —
// the failure paths. Every transport-level failure must surface as a
// Status/JSON error with no session loss on the source worker: a worker
// process killed mid-drain, a truncated frame, an oversized frame
// rejected by the length-prefix cap, and a reconnect after a worker
// restart are all exercised against live processes, not mocks.
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "common/framing.h"
#include "common/socket.h"
#include "json/json.h"
#include "obs/registry.h"
#include "server/api.h"
#include "server/frame_loop.h"
#include "server/wire.h"
#include "shard/router.h"
#include "shard/transport.h"
#include "shard/worker.h"
#include "test_util.h"

namespace rvss::shard {
namespace {

const char* kSpinLoop = R"(
main:
    li t0, 1000000
spin:
    addi t0, t0, -1
    bnez t0, spin
    ret
)";

json::Json Cmd(const char* command,
               std::initializer_list<std::pair<const char*, json::Json>>
                   fields = {}) {
  json::Json request = json::Json::MakeObject();
  request.Set("command", command);
  for (const auto& [key, value] : fields) request.Set(key, value);
  return request;
}

/// RAII worker process: SIGKILL + reap on scope exit. On spawn failure
/// `worker` stays pid=-1 (teardown is a no-op) and the test records a
/// failure — no dereference of an errored Result.
struct ScopedWorker {
  explicit ScopedWorker(const server::SimServer::Limits& limits = {}) {
    auto spawnResult = SpawnWorkerProcess(MakeWorkerAddress("test"), limits);
    if (!spawnResult.ok()) {
      ADD_FAILURE() << "spawn failed: " << spawnResult.error().ToText();
      return;
    }
    worker = spawnResult.value();
  }
  ~ScopedWorker() {
    KillWorker(worker);
    ReapWorker(worker);
  }
  SpawnedWorker worker;
};

// ---- frame codec ------------------------------------------------------------

TEST(Framing, HeaderRoundTrip) {
  const std::string header = net::EncodeFrameHeader(123, 4567);
  ASSERT_EQ(header.size(), net::kFrameHeaderBytes);
  auto decoded = net::DecodeFrameHeader(header, net::kDefaultMaxFrameBytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToText();
  EXPECT_EQ(decoded.value().jsonBytes, 123u);
  EXPECT_EQ(decoded.value().blobBytes, 4567u);
}

TEST(Framing, RejectsBadMagicShortHeaderAndWrongVersion) {
  std::string header = net::EncodeFrameHeader(1, 0);
  header[0] = 'X';
  EXPECT_FALSE(net::DecodeFrameHeader(header, net::kDefaultMaxFrameBytes).ok());

  EXPECT_FALSE(net::DecodeFrameHeader("short", net::kDefaultMaxFrameBytes)
                   .ok());

  std::string versioned = net::EncodeFrameHeader(1, 0);
  versioned[4] = 99;  // future version
  auto decoded =
      net::DecodeFrameHeader(versioned, net::kDefaultMaxFrameBytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().message.find("version"), std::string::npos);
}

TEST(Framing, OversizedFrameRejectedByTheCap) {
  const std::string header = net::EncodeFrameHeader(100, 1000);
  auto decoded = net::DecodeFrameHeader(header, /*maxFrameBytes=*/512);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().message.find("frame cap"), std::string::npos);
}

// ---- wire messages over a live worker ---------------------------------------

TEST(SocketTransport, MatchesInProcessStepByStep) {
  ScopedWorker spawned;
  SocketTransport remote(spawned.worker.address);
  server::SimServer local;

  auto created = remote.Call(Cmd("createSession",
                                 {{"code", json::Json(kSpinLoop)},
                                  {"entry", json::Json("main")}}));
  ASSERT_TRUE(created.ok()) << created.error().ToText();
  ASSERT_EQ(created.value().GetString("status", ""), "ok")
      << created.value().Dump();
  const std::int64_t remoteId = created.value().GetInt("sessionId", -1);
  json::Json localCreated = local.Handle(
      Cmd("createSession", {{"code", json::Json(kSpinLoop)},
                            {"entry", json::Json("main")}}));
  const std::int64_t localId = localCreated.GetInt("sessionId", -1);

  for (int batch = 0; batch < 3; ++batch) {
    auto a = remote.Call(Cmd("step", {{"sessionId", json::Json(remoteId)},
                                      {"count", json::Json(123)}}));
    json::Json b = local.Handle(Cmd("step", {{"sessionId", json::Json(localId)},
                                             {"count", json::Json(123)}}));
    ASSERT_TRUE(a.ok()) << a.error().ToText();
    EXPECT_EQ(a.value().Find("state")->Dump(), b.Find("state")->Dump())
        << "batch " << batch;
  }

  // The blob section round-trips: export over the wire equals a local
  // export of the identically-stepped session.
  auto exported =
      remote.Call(Cmd("exportSession", {{"sessionId", json::Json(remoteId)}}));
  ASSERT_TRUE(exported.ok());
  json::Json localExported =
      local.Handle(Cmd("exportSession", {{"sessionId", json::Json(localId)}}));
  EXPECT_EQ(exported.value().GetString("blob", "+"),
            localExported.GetString("blob", "-"));
}

TEST(SocketTransport, ParseErrorKeepsTheConnectionUsable) {
  ScopedWorker spawned;
  auto connection = net::ConnectTo(spawned.worker.address, 5'000);
  ASSERT_TRUE(connection.ok()) << connection.error().ToText();
  server::WireOptions wire;
  wire.ioTimeoutMs = 5'000;

  // A well-framed message whose JSON is garbage: the worker must answer
  // with a parse error, not drop the connection...
  const std::string garbage = "this is not json";
  const std::string header = net::EncodeFrameHeader(garbage.size(), 0);
  ASSERT_TRUE(net::SendAll(connection.value(), header + garbage, 5'000).ok());
  auto response = server::ReadMessage(connection.value(), wire);
  ASSERT_TRUE(response.ok()) << response.error().ToText();
  EXPECT_EQ(response.value().GetString("status", ""), "error");
  EXPECT_EQ(testutil::ErrorField(response.value(), "kind"), "parse");

  // ...and the next (valid) request on the same connection still works.
  ASSERT_TRUE(server::WriteMessage(connection.value(),
                                   Cmd("parseAsm",
                                       {{"code", json::Json(kSpinLoop)}}),
                                   wire)
                  .ok());
  auto parsed = server::ReadMessage(connection.value(), wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error().ToText();
  EXPECT_EQ(parsed.value().GetString("status", ""), "ok");
}

TEST(SocketTransport, TruncatedFrameFromPeerIsAStatusError) {
  // An "evil worker" that accepts one connection, declares a 100-byte
  // JSON section, sends 10 bytes and vanishes: the client must get a
  // mid-frame error, not hang or crash.
  const std::string address = MakeWorkerAddress("evil");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto listener = net::ListenOn(address);
    if (listener.ok()) {
      auto connection = net::AcceptOn(listener.value(), 10'000);
      if (connection.ok()) {
        // Consume the request first so closing later yields a clean EOF
        // (unread inbound data would turn the close into a reset).
        server::WireOptions wire;
        wire.ioTimeoutMs = 2'000;
        (void)server::ReadMessage(connection.value(), wire);
        const std::string header = net::EncodeFrameHeader(100, 0);
        (void)net::SendAll(connection.value(), header + "0123456789", 2'000);
      }
    }
    ::_exit(0);
  }

  SocketTransportOptions options;
  options.ioTimeoutMs = 3'000;
  SocketTransport transport(address, options);
  auto response = transport.Call(Cmd("parseAsm", {{"code", json::Json("x")}}));
  ASSERT_FALSE(response.ok());
  EXPECT_NE(response.error().message.find("mid-frame"), std::string::npos)
      << response.error().message;
  int status = 0;
  ::waitpid(pid, &status, 0);
}

TEST(SocketTransport, MalformedStateFromAWorkerFailsClosed) {
  // An "evil worker" that passes the hello handshake and admits a
  // session, then answers a step inside an intact frame with a state the
  // grammar rejects: a trailing comma, and on its next connection a
  // state nested 300 deep. Each call must fail closed (kInternal, "may
  // or may not have executed"): the router answers with an error
  // envelope and forwards none of the reply. The call after each failure
  // reconnects; the third connection answers properly.
  const std::string address = MakeWorkerAddress("evil-state");
  const std::vector<std::string> stepReplies = {
      R"({"status":"ok","state":{"cycle":1,}})",
      R"({"status":"ok","state":)" + std::string(300, '[') +
          std::string(300, ']') + "}",
      R"({"status":"ok","stepped":1,"state":{"cycle":1}})"};
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto listener = net::ListenOn(address);
    if (listener.ok()) {
      server::WireOptions wire;
      wire.ioTimeoutMs = 5'000;
      for (const std::string& stepReply : stepReplies) {
        auto connection = net::AcceptOn(listener.value(), 10'000);
        if (!connection.ok()) break;
        // Answer until the router hangs up.
        while (true) {
          auto request = server::ReadMessage(connection.value(), wire);
          if (!request.ok()) break;
          const std::string command =
              request.value().GetString("command", "");
          std::string answer = stepReply;
          if (command == "hello") {
            answer = server::MakeHelloResponse().Dump();
          } else if (command == "createSession") {
            answer = R"({"status":"ok","sessionId":1})";
          }
          if (!server::WriteFrame(connection.value(), answer, {}, wire).ok()) {
            break;
          }
        }
      }
    }
    ::_exit(0);
  }

  {
    ShardRouter::Options options;
    options.workerCount = 1;
    SocketTransportOptions socketOptions;
    socketOptions.ioTimeoutMs = 3'000;
    options.transportFactory = [&](std::size_t,
                                   const server::SimServer::Limits&)
        -> Result<std::shared_ptr<WorkerTransport>> {
      return std::shared_ptr<WorkerTransport>(
          std::make_shared<SocketTransport>(address, socketOptions));
    };
    ShardRouter router(options);
    json::Json created = router.Handle(
        Cmd("createSession", {{"code", json::Json(kSpinLoop)}}));
    ASSERT_EQ(created.GetString("status", ""), "ok") << created.Dump();
    const json::Json step =
        Cmd("step", {{"sessionId", created.GetInt("sessionId", -1)}});
    for (int bad = 0; bad < 2; ++bad) {
      json::Json answer = router.Handle(step);
      testutil::CheckErrorEnvelope(answer);
      EXPECT_EQ(testutil::ErrorField(answer, "kind"), "internal")
          << answer.Dump();
      EXPECT_NE(testutil::ErrorField(answer, "message")
                    .find("may or may not have executed"),
                std::string::npos)
          << answer.Dump();
      EXPECT_EQ(answer.Find("state"), nullptr) << answer.Dump();
    }
    json::Json good = router.Handle(step);
    EXPECT_EQ(good.Dump(), stepReplies[2]);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
}

TEST(SocketTransport, OversizedRequestAndResponseAreRejectedByTheCap) {
  ScopedWorker spawned;

  // Outbound: a request bigger than the cap is refused before any bytes
  // hit the wire.
  SocketTransportOptions tiny;
  tiny.maxFrameBytes = 256;
  SocketTransport capped(spawned.worker.address, tiny);
  const std::string bigCode(4096, 'x');
  auto refused =
      capped.Call(Cmd("parseAsm", {{"code", json::Json(bigCode)}}));
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.error().message.find("frame cap"), std::string::npos);

  // Inbound: a peer declaring an over-cap frame is cut off at the
  // header — the four length bytes never turn into an allocation.
  const std::string address = MakeWorkerAddress("evil-big");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto listener = net::ListenOn(address);
    if (listener.ok()) {
      auto connection = net::AcceptOn(listener.value(), 10'000);
      if (connection.ok()) {
        server::WireOptions wire;
        wire.ioTimeoutMs = 2'000;
        // Read the request, then answer with a frame header declaring
        // ~4 GiB of JSON.
        (void)server::ReadMessage(connection.value(), wire);
        const std::string header =
            net::EncodeFrameHeader(0xf0000000u, 0);
        (void)net::SendAll(connection.value(), header, 2'000);
      }
    }
    ::_exit(0);
  }
  SocketTransportOptions options;
  options.ioTimeoutMs = 3'000;
  SocketTransport transport(address, options);
  auto response = transport.Call(Cmd("parseAsm", {{"code", json::Json("x")}}));
  ASSERT_FALSE(response.ok());
  EXPECT_NE(response.error().message.find("frame cap"), std::string::npos)
      << response.error().message;
  int status = 0;
  ::waitpid(pid, &status, 0);
}

TEST(SocketTransport, ReconnectsAfterWorkerRestart) {
  auto first = SpawnWorkerProcess(MakeWorkerAddress("restart"));
  ASSERT_TRUE(first.ok());
  SocketTransport transport(first.value().address);

  auto before = transport.Call(Cmd("parseAsm", {{"code", json::Json(kSpinLoop)}}));
  ASSERT_TRUE(before.ok()) << before.error().ToText();
  EXPECT_EQ(before.value().GetString("status", ""), "ok");

  KillWorker(first.value());
  ReapWorker(first.value());
  SocketTransportOptions brief;
  brief.connectTimeoutMs = 300;
  SocketTransport probe(first.value().address, brief);
  auto during = probe.Call(Cmd("parseAsm", {{"code", json::Json("x")}}));
  EXPECT_FALSE(during.ok()) << "a dead worker must be an error, not a hang";

  // Restart on the same address (the listener unlinks the stale socket
  // file); the original transport heals on its next Call.
  auto second = SpawnWorkerProcess(first.value().address);
  ASSERT_TRUE(second.ok());
  auto after = transport.Call(Cmd("parseAsm", {{"code", json::Json(kSpinLoop)}}));
  ASSERT_TRUE(after.ok()) << after.error().ToText();
  EXPECT_EQ(after.value().GetString("status", ""), "ok");
  KillWorker(second.value());
  ReapWorker(second.value());
}

// ---- the hello handshake ----------------------------------------------------

TEST(Hello, WorkerAnswersWithACompatibleFingerprint) {
  ScopedWorker spawned;
  auto connection = net::ConnectTo(spawned.worker.address, 5'000);
  ASSERT_TRUE(connection.ok()) << connection.error().ToText();
  server::WireOptions wire;
  wire.ioTimeoutMs = 5'000;

  ASSERT_TRUE(server::WriteMessage(connection.value(),
                                   server::MakeHelloRequest(), wire)
                  .ok());
  auto answer = server::ReadMessage(connection.value(), wire);
  ASSERT_TRUE(answer.ok()) << answer.error().ToText();
  EXPECT_TRUE(answer.value().GetBool("hello", false)) << answer.value().Dump();
  Status compatible =
      server::CheckHelloResponse(answer.value(), spawned.worker.address);
  EXPECT_TRUE(compatible.ok()) << compatible.error().ToText();
}

TEST(Hello, TransportRefusesAVersionSkewedWorker) {
  // A fake worker that answers the handshake with a future frame
  // version: the transport must refuse the connection at hello time —
  // never let a skewed worker into the fleet to fail mid-migration.
  const std::string address = MakeWorkerAddress("skewed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto listener = net::ListenOn(address);
    if (listener.ok()) {
      auto connection = net::AcceptOn(listener.value(), 10'000);
      if (connection.ok()) {
        server::WireOptions wire;
        wire.ioTimeoutMs = 2'000;
        (void)server::ReadMessage(connection.value(), wire);  // the hello
        json::Json skewed = server::MakeHelloResponse();
        skewed.Set("frameVersion", std::int64_t{999});
        (void)server::WriteMessage(connection.value(), std::move(skewed),
                                   wire);
      }
    }
    ::_exit(0);
  }

  SocketTransportOptions options;
  options.ioTimeoutMs = 3'000;
  SocketTransport transport(address, options);
  auto response = transport.Call(Cmd("parseAsm", {{"code", json::Json("x")}}));
  ASSERT_FALSE(response.ok());
  EXPECT_NE(response.error().message.find("hello handshake"),
            std::string::npos)
      << response.error().message;
  EXPECT_NE(response.error().message.find("frame version 999"),
            std::string::npos)
      << response.error().message;
  int status = 0;
  ::waitpid(pid, &status, 0);
}

TEST(Hello, RouterAnswersItsOwnFingerprint) {
  ShardRouter::Options options;
  options.workerCount = 1;
  ShardRouter router(options);
  json::Json hello = router.Handle(Cmd("hello"));
  EXPECT_EQ(hello.GetString("status", ""), "ok") << hello.Dump();
  Status compatible = server::CheckHelloResponse(hello, "router");
  EXPECT_TRUE(compatible.ok()) << compatible.error().ToText();

  // A v2 peer renders the state in the old shape: refused.
  hello.Set("apiVersion", 2);
  Status older = server::CheckHelloResponse(hello, "router");
  ASSERT_FALSE(older.ok());
  EXPECT_NE(older.error().message.find("api version 2 != local 3"),
            std::string::npos)
      << older.error().message;
}

// ---- TCP: hostnames and IPv6 ------------------------------------------------

/// Serves `server` over `listener` on a background thread until a
/// shutdownWorker command lands. The destructor sends a best-effort
/// shutdown of its own before joining, so a test that failed before
/// stopping the loop still terminates instead of hanging on join.
struct ScopedFrameService {
  ScopedFrameService(server::SimServer& server, net::Socket& listener,
                     std::string connectAddress)
      : address(std::move(connectAddress)),
        thread([&server, &listener] {
          (void)server::ServeFrames(server, listener);
        }) {}
  ~ScopedFrameService() {
    if (!stopped) {
      auto connection = net::ConnectTo(address, 1'000);
      if (connection.ok()) {
        server::WireOptions wire;
        wire.ioTimeoutMs = 1'000;
        (void)server::WriteMessage(connection.value(), Cmd("shutdownWorker"),
                                   wire);
        (void)server::ReadMessage(connection.value(), wire);
      }
    }
    thread.join();
  }
  std::string address;
  /// Set by the test once it has shut the loop down itself, so the
  /// destructor skips a fallback round trip that could only time out.
  bool stopped = false;
  std::thread thread;
};

void ExpectTcpTransportWorks(const std::string& listenAddress,
                             const std::string& hostForConnect) {
  auto listener = net::ListenOn(listenAddress);
  if (!listener.ok()) {
    GTEST_SKIP() << listenAddress
                 << " not available: " << listener.error().ToText();
  }
  auto port = net::BoundPort(listener.value());
  ASSERT_TRUE(port.ok()) << port.error().ToText();
  ASSERT_GT(port.value(), 0) << "BoundPort must report the ephemeral port";
  ASSERT_LE(port.value(), 65535);

  server::SimServer sim;
  const std::string address =
      "tcp:" + hostForConnect + ":" + std::to_string(port.value());
  ScopedFrameService service(sim, listener.value(), address);
  SocketTransportOptions options;
  options.connectTimeoutMs = 5'000;
  options.ioTimeoutMs = 5'000;
  SocketTransport transport(address, options);
  // 50 small round trips: with Nagle on, each frame's body waited for the
  // peer's delayed ACK (~40-90 ms a call, seconds in total); with
  // TCP_NODELAY the whole loop takes milliseconds.
  constexpr int kCalls = 50;
  const auto start = std::chrono::steady_clock::now();
  Result<json::Json> response = Error{ErrorKind::kInternal, "no call made"};
  for (int i = 0; i < kCalls; ++i) {
    response =
        transport.Call(Cmd("parseAsm", {{"code", json::Json(kSpinLoop)}}));
    if (!response.ok()) break;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Stop the serve loop before any assertion so the service thread joins
  // even on failure (a hung test is worse than a failed one).
  auto shutdown = transport.Call(Cmd("shutdownWorker"));
  service.stopped = shutdown.ok();
  ASSERT_TRUE(response.ok()) << response.error().ToText();
  EXPECT_EQ(response.value().GetString("status", ""), "ok");
  EXPECT_TRUE(shutdown.ok());
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1'000)
      << kCalls << " tcp round trips; is TCP_NODELAY set?";
}

TEST(TcpTransport, HostnameResolvesViaGetaddrinfo) {
  // "localhost" is a name, not a literal — the pre-getaddrinfo parser
  // rejected it outright.
  ExpectTcpTransportWorks("tcp:localhost:0", "localhost");
}

TEST(TcpTransport, BracketedIpv6LiteralAndBoundPort) {
  // tcp:[::1]:0 listens on the IPv6 loopback; BoundPort used to read the
  // sockaddr_in port field from a sockaddr_in6 (garbage — flowinfo
  // bytes), so connecting back to the reported port is the regression
  // check. Skips on machines without ::1.
  ExpectTcpTransportWorks("tcp:[::1]:0", "[::1]");
}

TEST(TcpTransport, UnbracketedIpv6LiteralIsRejectedWithGuidance) {
  auto listener = net::ListenOn("tcp:::1:0");
  ASSERT_FALSE(listener.ok());
  EXPECT_NE(listener.error().message.find("brackets"), std::string::npos)
      << listener.error().message;
}

TEST(TcpTransport, BoundPortRejectsUnixListeners) {
  const std::string address = MakeWorkerAddress("boundport");
  auto listener = net::ListenOn(address);
  ASSERT_TRUE(listener.ok()) << listener.error().ToText();
  auto port = net::BoundPort(listener.value());
  ASSERT_FALSE(port.ok());
  EXPECT_NE(port.error().message.find("not a TCP socket"), std::string::npos);
  ::unlink(address.substr(5).c_str());
}

// ---- the router over socket workers -----------------------------------------

/// Router options whose every worker is a freshly spawned process;
/// `fleet` receives the handles for teardown, and removed workers are
/// reaped promptly through the shutdown hook — the production shape.
ShardRouter::Options SpawningOptions(std::size_t workerCount,
                                     SpawnedFleet* fleet) {
  ShardRouter::Options options;
  options.workerCount = workerCount;
  // Short connect budget: the failure-path tests talk to deliberately
  // dead workers, and each unreachable Call burns the whole budget.
  SocketTransportOptions socketOptions;
  socketOptions.connectTimeoutMs = 500;
  options.transportFactory =
      MakeSpawningTransportFactory(fleet, "router", socketOptions);
  options.onWorkerShutdown = MakeFleetReaper(fleet);
  return options;
}

std::int64_t MustCreate(ShardRouter& router) {
  json::Json created = router.Handle(
      Cmd("createSession", {{"code", json::Json(kSpinLoop)},
                            {"entry", json::Json("main")}}));
  EXPECT_EQ(created.GetString("status", ""), "ok") << created.Dump();
  return created.GetInt("sessionId", -1);
}

/// Creates one session and checks the worker the router placed it on.
std::int64_t MustCreateOn(ShardRouter& router, std::int64_t worker) {
  json::Json created = router.Handle(
      Cmd("createSession", {{"code", json::Json(kSpinLoop)},
                            {"entry", json::Json("main")}}));
  EXPECT_EQ(created.GetString("status", ""), "ok") << created.Dump();
  EXPECT_EQ(created.GetInt("worker", -1), worker) << created.Dump();
  return created.GetInt("sessionId", -1);
}

TEST(SocketRouter, DrainMovesSessionsBetweenProcessesByteIdentically) {
  SpawnedFleet fleet;
  ShardRouter router(SpawningOptions(2, &fleet));

  std::vector<std::int64_t> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(MustCreate(router));
    json::Json stepped =
        router.Handle(Cmd("step", {{"sessionId", json::Json(ids.back())},
                                   {"count", json::Json(100 + 30 * i)}}));
    ASSERT_EQ(stepped.GetString("status", ""), "ok") << stepped.Dump();
  }
  std::map<std::int64_t, std::string> before;
  for (const std::int64_t id : ids) {
    json::Json exported =
        router.Handle(Cmd("exportSession", {{"sessionId", json::Json(id)}}));
    ASSERT_EQ(exported.GetString("status", ""), "ok");
    before[id] = exported.GetString("blob", "");
  }

  json::Json drained = router.Handle(Cmd("drainWorker",
                                         {{"worker", json::Json(0)}}));
  ASSERT_EQ(drained.GetString("status", ""), "ok") << drained.Dump();

  for (const std::int64_t id : ids) {
    json::Json exported =
        router.Handle(Cmd("exportSession", {{"sessionId", json::Json(id)}}));
    EXPECT_EQ(before[id], exported.GetString("blob", "")) << "session " << id;
    json::Json stepped =
        router.Handle(Cmd("step", {{"sessionId", json::Json(id)},
                                   {"count", json::Json(25)}}));
    EXPECT_EQ(stepped.GetString("status", ""), "ok");
  }
}

TEST(SocketRouter, DestinationKilledMidDrainLeavesSourceIntact) {
  SpawnedFleet fleet;
  ShardRouter router(SpawningOptions(2, &fleet));

  // Sequential creates alternate between the workers: three of these
  // five land on worker 0, so the drain has real work.
  std::vector<std::int64_t> onZero;
  for (int i = 0; i < 5; ++i) {
    const std::int64_t id = MustCreateOn(router, i % 2);
    if (i % 2 == 0) onZero.push_back(id);
  }

  // Kill the only possible destination, then drain: every move must fail
  // with a transport error and every session must stay live on worker 0.
  KillWorker(fleet.workers[1]);
  ReapWorker(fleet.workers[1]);
  json::Json drained = router.Handle(Cmd("drainWorker",
                                         {{"worker", json::Json(0)}}));
  testutil::CheckErrorEnvelope(drained);
  EXPECT_EQ(testutil::ErrorDetail(drained, "moved")->AsInt(), 0);
  EXPECT_FALSE(testutil::ErrorDetail(drained, "failed")->AsArray().empty());

  for (const std::int64_t id : onZero) {
    json::Json stepped =
        router.Handle(Cmd("step", {{"sessionId", json::Json(id)},
                                   {"count", json::Json(10)}}));
    EXPECT_EQ(stepped.GetString("status", ""), "ok")
        << "session " << id << " was lost: " << stepped.Dump();
  }
}

TEST(SocketRouter, DeadSourceWorkerReportsEverySessionLostWithError) {
  SpawnedFleet fleet;
  ShardRouter router(SpawningOptions(2, &fleet));

  std::vector<std::int64_t> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(MustCreate(router));

  // Kill worker 0 outright. Its sessions are unreachable; the router
  // must say so per request and per drain attempt — loudly, never by
  // dropping them from the namespace.
  KillWorker(fleet.workers[0]);
  ReapWorker(fleet.workers[0]);

  std::size_t reachable = 0;
  std::size_t erroredLoudly = 0;
  for (const std::int64_t id : ids) {
    json::Json stepped = router.Handle(
        Cmd("step", {{"sessionId", json::Json(id)}, {"count", json::Json(5)}}));
    if (stepped.GetString("status", "") == "ok") {
      ++reachable;
    } else if (!testutil::ErrorField(stepped, "message").empty()) {
      ++erroredLoudly;
    }
  }
  EXPECT_EQ(reachable + erroredLoudly, ids.size());

  json::Json drained = router.Handle(Cmd("drainWorker",
                                         {{"worker", json::Json(0)}}));
  EXPECT_EQ(drained.GetString("status", ""), "error");
  for (const json::Json& failure :
       testutil::ErrorDetail(drained, "failed")->AsArray()) {
    EXPECT_NE(failure.GetString("message", "").find("export"),
              std::string::npos);
  }

  // workerStats flags the dead process instead of hiding it.
  json::Json stats = router.Handle(Cmd("workerStats"));
  bool sawUnreachable = false;
  for (const json::Json& worker : stats.Find("workers")->AsArray()) {
    if (worker.GetInt("worker", -1) == 0) {
      sawUnreachable = worker.GetBool("unreachable", false);
    }
  }
  EXPECT_TRUE(sawUnreachable) << stats.Dump();

  // listSessions cannot enumerate the dead worker's sessions, but it
  // must say so rather than let the omissions read as deletions.
  json::Json listed = router.Handle(Cmd("listSessions"));
  ASSERT_NE(listed.Find("unreachableWorkers"), nullptr) << listed.Dump();
  ASSERT_EQ(listed.Find("unreachableWorkers")->AsArray().size(), 1u);
  EXPECT_EQ(listed.Find("unreachableWorkers")->AsArray()[0].AsInt(), 0);
}

TEST(SocketRouter, AdmissionPassesOverADeadWorker) {
  SpawnedFleet fleet;
  ShardRouter router(SpawningOptions(2, &fleet));
  for (int i = 0; i < 6; ++i) MustCreateOn(router, i % 2);

  // Worker 0 dies holding as many sessions as worker 1, so it stays the
  // emptiest eligible worker (ties go low) and every admission is placed
  // there first. Its transport refuses each one before any worker sees
  // it, and the admission moves on to worker 1.
  KillWorker(fleet.workers[0]);
  ReapWorker(fleet.workers[0]);
  const std::vector<std::int64_t> admitted = {MustCreateOn(router, 1),
                                              MustCreateOn(router, 1)};
  EXPECT_EQ(router.sessionCount(), 8u)
      << "a refused admission left its placement behind";
  for (const std::int64_t id : admitted) {
    json::Json stepped = router.Handle(
        Cmd("step", {{"sessionId", json::Json(id)}, {"count", json::Json(5)}}));
    EXPECT_EQ(stepped.GetString("status", ""), "ok") << stepped.Dump();
  }
}

TEST(SocketRouter, DrainPassesOverADeadDestination) {
  SpawnedFleet fleet;
  ShardRouter router(SpawningOptions(3, &fleet));
  std::vector<std::int64_t> onZero;
  for (int i = 0; i < 5; ++i) {
    const std::int64_t id = MustCreateOn(router, i % 3);
    if (i % 3 == 0) onZero.push_back(id);
  }

  // Worker 2 dies holding the fewest sessions, so the drain places worker
  // 0's first session there. That import never reaches it; worker 2 is
  // passed over for the rest of the drain and worker 1 takes everything.
  KillWorker(fleet.workers[2]);
  ReapWorker(fleet.workers[2]);
  json::Json drained =
      router.Handle(Cmd("drainWorker", {{"worker", json::Json(0)}}));
  ASSERT_EQ(drained.GetString("status", ""), "ok") << drained.Dump();
  EXPECT_EQ(drained.GetInt("moved", -1), 2);

  json::Json listed = router.Handle(Cmd("listSessions"));
  for (const json::Json& session : listed.Find("sessions")->AsArray()) {
    const std::int64_t id = session.GetInt("sessionId", -1);
    if (id == onZero[0] || id == onZero[1]) {
      EXPECT_EQ(session.GetInt("worker", -1), 1) << listed.Dump();
    }
  }
  for (const std::int64_t id : onZero) {
    json::Json stepped = router.Handle(
        Cmd("step", {{"sessionId", json::Json(id)}, {"count", json::Json(5)}}));
    EXPECT_EQ(stepped.GetString("status", ""), "ok") << stepped.Dump();
  }
}

TEST(SocketRouter, DrainOfADeadWorkerSpendsOneConnectBudget) {
  SpawnedFleet fleet;
  ShardRouter router(SpawningOptions(2, &fleet));
  for (int i = 0; i < 8; ++i) MustCreateOn(router, i % 2);
  KillWorker(fleet.workers[0]);
  ReapWorker(fleet.workers[0]);

  // The drain's listing of worker 0 is refused at connect, and each of
  // its four sessions fails with that error at once instead of spending
  // the connect budget again on an export of its own.
  obs::Counter& connects = obs::Registry::Instance().GetCounter(
      "shard.transport.socket.connects");
  const std::uint64_t connectsBefore = connects.value();
  json::Json drained =
      router.Handle(Cmd("drainWorker", {{"worker", json::Json(0)}}));
  EXPECT_EQ(connects.value() - connectsBefore, 1u);
  testutil::CheckErrorEnvelope(drained);
  EXPECT_EQ(testutil::ErrorDetail(drained, "moved")->AsInt(), 0);
  const json::Json* failed = testutil::ErrorDetail(drained, "failed");
  ASSERT_EQ(failed->AsArray().size(), 4u) << drained.Dump();
  for (const json::Json& failure : failed->AsArray()) {
    EXPECT_NE(failure.GetString("message", "").find("export"),
              std::string::npos)
        << drained.Dump();
  }
}

/// Forks a fake worker on `address` that answers every hello with frame
/// version 999, until no connection arrives for 10 s.
SpawnedWorker ForkVersionSkewedWorker(const std::string& address) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    auto listener = net::ListenOn(address);
    while (listener.ok()) {
      auto connection = net::AcceptOn(listener.value(), 10'000);
      if (!connection.ok()) break;
      server::WireOptions wire;
      wire.ioTimeoutMs = 2'000;
      (void)server::ReadMessage(connection.value(), wire);  // the hello
      json::Json skewed = server::MakeHelloResponse();
      skewed.Set("frameVersion", std::int64_t{999});
      (void)server::WriteMessage(connection.value(), std::move(skewed), wire);
    }
    ::_exit(0);
  }
  EXPECT_GT(pid, 0) << "fork failed";
  return SpawnedWorker{pid, address};
}

TEST(SocketRouter, AdmissionPassesOverAVersionSkewedWorker) {
  // Worker 0 fails the hello handshake, so no command ever reaches it:
  // like a dead worker it stays the emptiest, and each admission placed
  // there goes on to worker 1.
  SpawnedFleet fleet;
  const std::string skewedAddress = MakeWorkerAddress("skewed");
  fleet.workers.push_back(ForkVersionSkewedWorker(skewedAddress));
  ShardRouter::Options options = SpawningOptions(2, &fleet);
  options.transportFactory =
      [spawn = options.transportFactory, skewedAddress](
          std::size_t worker, const server::SimServer::Limits& limits)
      -> Result<std::shared_ptr<WorkerTransport>> {
    if (worker > 0) return spawn(worker, limits);
    SocketTransportOptions socketOptions;
    socketOptions.connectTimeoutMs = 500;
    return std::shared_ptr<WorkerTransport>(
        std::make_shared<SocketTransport>(skewedAddress, socketOptions));
  };
  ShardRouter router(options);
  for (int i = 0; i < 2; ++i) {
    const std::int64_t id = MustCreateOn(router, 1);
    json::Json stepped = router.Handle(
        Cmd("step", {{"sessionId", json::Json(id)}, {"count", json::Json(5)}}));
    EXPECT_EQ(stepped.GetString("status", ""), "ok") << stepped.Dump();
  }
}

TEST(SocketRouter, ShutdownWorkerIsNotReachableThroughTheRouter) {
  SpawnedFleet fleet;
  ShardRouter router(SpawningOptions(2, &fleet));

  // The out-of-band worker stop must not be forwardable by API clients —
  // a rogue request would kill a fleet process and orphan its sessions.
  json::Json refused = router.Handle(Cmd("shutdownWorker"));
  EXPECT_EQ(refused.GetString("status", ""), "error") << refused.Dump();

  // Both worker processes are still alive and serving.
  const std::int64_t id = MustCreate(router);
  json::Json stepped = router.Handle(
      Cmd("step", {{"sessionId", json::Json(id)}, {"count", json::Json(5)}}));
  EXPECT_EQ(stepped.GetString("status", ""), "ok");
  for (const SpawnedWorker& worker : fleet.workers) {
    EXPECT_EQ(::kill(worker.pid, 0), 0) << "worker " << worker.address
                                        << " should still be running";
  }
}

TEST(SocketRouter, ElasticAddAndRemoveAcrossProcesses) {
  SpawnedFleet fleet;
  ShardRouter router(SpawningOptions(2, &fleet));

  std::vector<std::int64_t> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(MustCreate(router));
    json::Json stepped =
        router.Handle(Cmd("step", {{"sessionId", json::Json(ids.back())},
                                   {"count", json::Json(40 + 15 * i)}}));
    ASSERT_EQ(stepped.GetString("status", ""), "ok");
  }

  // Grow by one process (the factory forks it), then remove worker 0:
  // its sessions must drain to the survivors and its process must exit.
  json::Json added = router.Handle(Cmd("addWorker"));
  ASSERT_EQ(added.GetString("status", ""), "ok") << added.Dump();
  ASSERT_EQ(fleet.workers.size(), 3u);

  const int removedPid = fleet.workers[0].pid;
  json::Json removed = router.Handle(Cmd("removeWorker",
                                         {{"worker", json::Json(0)}}));
  ASSERT_EQ(removed.GetString("status", ""), "ok") << removed.Dump();
  EXPECT_TRUE(removed.Find("lost")->AsArray().empty());

  // The removed process received shutdownWorker, exited, and the shutdown
  // hook reaped it promptly: the pid is no longer our child (ECHILD, not
  // a zombie waiting for fleet teardown) and its handle left the fleet.
  int status = 0;
  EXPECT_EQ(::waitpid(removedPid, &status, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD) << "removed worker must already be reaped";
  EXPECT_EQ(fleet.workers.size(), 2u);
  for (const SpawnedWorker& worker : fleet.workers) {
    EXPECT_NE(worker.pid, removedPid);
  }

  for (const std::int64_t id : ids) {
    json::Json stepped = router.Handle(
        Cmd("step", {{"sessionId", json::Json(id)}, {"count", json::Json(10)}}));
    EXPECT_EQ(stepped.GetString("status", ""), "ok") << stepped.Dump();
  }
}

TEST(SocketRouter, ElasticCyclesLeaveZeroZombieChildren) {
  SpawnedFleet fleet;
  ShardRouter router(SpawningOptions(2, &fleet));
  const std::int64_t id = MustCreate(router);

  // A long-lived router doing repeated scale-out/scale-in must not
  // accumulate zombie children: each removed worker is waitpid()'d by
  // the shutdown hook as soon as it exits. Three full cycles, and after
  // each one waitpid(-1, WNOHANG) must find no exited-but-unreaped
  // child (0 = children exist, none zombie).
  for (int cycle = 0; cycle < 3; ++cycle) {
    json::Json added = router.Handle(Cmd("addWorker"));
    ASSERT_EQ(added.GetString("status", ""), "ok") << added.Dump();
    const std::int64_t newest = added.GetInt("worker", -1);
    json::Json removed = router.Handle(
        Cmd("removeWorker", {{"worker", json::Json(newest)}}));
    ASSERT_EQ(removed.GetString("status", ""), "ok") << removed.Dump();

    int status = 0;
    EXPECT_EQ(::waitpid(-1, &status, WNOHANG), 0)
        << "cycle " << cycle << " left a zombie child";
    EXPECT_EQ(fleet.workers.size(), 2u)
        << "cycle " << cycle << " leaked a fleet handle";
  }

  // The fleet still works after the churn.
  json::Json stepped = router.Handle(
      Cmd("step", {{"sessionId", json::Json(id)}, {"count", json::Json(10)}}));
  EXPECT_EQ(stepped.GetString("status", ""), "ok") << stepped.Dump();
}

// ---- CLI: real processes over sockets ---------------------------------------

TEST(SpawnWorkersCli, StatisticsAreByteIdenticalToSingleProcess) {
  // ~18k-cycle program under a 24k budget: phase one (half the budget)
  // cannot finish it, so the mid-run addWorker/removeWorker elastic
  // cycle is forced to happen — and asserted below, so this test can
  // never pass by skipping the migration.
  const std::string program = R"(
main:
    li t0, 12000
loop:
    addi t1, t1, 3
    xori t2, t1, 7
    addi t0, t0, -1
    bnez t0, loop
    ret
)";
  const std::string path =
      "/tmp/rvss-clitest-" + std::to_string(::getpid()) + ".s";
  {
    std::ofstream file(path);
    file << program;
  }

  auto runCli = [&](std::vector<std::string> extra) {
    std::vector<std::string> args = {"rvss",   "--asm",        path,
                                     "--entry", "main",        "--format",
                                     "json",    "--max-cycles", "24000"};
    for (std::string& arg : extra) args.push_back(std::move(arg));
    std::ostringstream out;
    std::ostringstream err;
    const int exitCode = cli::RunCli(args, out, err);
    EXPECT_EQ(exitCode, 0) << err.str();
    auto parsed = json::Parse(out.str());
    EXPECT_TRUE(parsed.ok()) << out.str();
    return parsed.ok() ? std::move(parsed).value() : json::Json();
  };

  const json::Json single = runCli({});
  const json::Json sharded = runCli({"--spawn-workers", "3"});

  ASSERT_NE(single.Find("statistics"), nullptr);
  ASSERT_NE(sharded.Find("statistics"), nullptr);
  EXPECT_EQ(single.GetString("finishReason", "+"), "main returned")
      << "budget must cover the whole program";
  const json::Json* shardInfo = sharded.Find("shard");
  ASSERT_NE(shardInfo, nullptr);
  EXPECT_GE(shardInfo->GetInt("migratedTo", -1), 0)
      << "the elastic cycle must actually run mid-run: " << sharded.Dump();
  EXPECT_EQ(single.Find("statistics")->Dump(),
            sharded.Find("statistics")->Dump())
      << "migration across real processes must be invisible";
  EXPECT_EQ(single.GetString("finishReason", "+"),
            sharded.GetString("finishReason", "-"));

  // Parallel batch: 4 sessions driven by 4 client threads across 4
  // forked workers, with the elastic cycle still happening mid-run. The
  // CLI itself verifies the sessions against each other; here session
  // 0's reported statistics must additionally match the single-process
  // run byte-for-byte — concurrency changes throughput, never results.
  const json::Json parallel =
      runCli({"--spawn-workers", "4", "--sessions", "4"});
  ASSERT_NE(parallel.Find("statistics"), nullptr) << parallel.Dump();
  EXPECT_EQ(parallel.Find("shard")->GetInt("sessions", -1), 4);
  EXPECT_EQ(single.Find("statistics")->Dump(),
            parallel.Find("statistics")->Dump())
      << "parallel dispatch across real processes must be invisible";
  EXPECT_EQ(single.GetString("finishReason", "+"),
            parallel.GetString("finishReason", "-"));
}

// ---- fleet metrics merge ----------------------------------------------------

std::int64_t CounterOf(const json::Json* metrics, const char* name) {
  if (metrics == nullptr) return 0;
  const json::Json* counters = metrics->Find("counters");
  return counters == nullptr ? 0 : counters->GetInt(name, 0);
}

std::int64_t HistogramCountOf(const json::Json* metrics, const char* name) {
  if (metrics == nullptr) return 0;
  const json::Json* histograms = metrics->Find("histograms");
  const json::Json* histogram =
      histograms == nullptr ? nullptr : histograms->Find(name);
  return histogram == nullptr ? 0 : histogram->GetInt("count", 0);
}

std::int64_t HistogramBucketTotalOf(const json::Json* metrics,
                                    const char* name) {
  if (metrics == nullptr) return 0;
  const json::Json* histograms = metrics->Find("histograms");
  const json::Json* histogram =
      histograms == nullptr ? nullptr : histograms->Find(name);
  const json::Json* buckets =
      histogram == nullptr ? nullptr : histogram->Find("buckets");
  if (buckets == nullptr || !buckets->IsArray()) return 0;
  std::int64_t total = 0;
  for (const json::Json& bucket : buckets->AsArray()) total += bucket.AsInt();
  return total;
}

const json::Json* WorkerMetricsOf(const json::Json& response,
                                  std::int64_t worker) {
  const json::Json* workers = response.Find("workers");
  if (workers == nullptr) return nullptr;
  for (const json::Json& entry : workers->AsArray()) {
    if (entry.GetInt("worker", -1) == worker) return entry.Find("metrics");
  }
  return nullptr;
}

TEST(SocketRouter, MetricsMergeFleetCountersEqualSumOfWorkers) {
  SpawnedFleet fleet;
  ShardRouter router(SpawningOptions(2, &fleet));

  // One session on each worker: sequential creates on an empty fleet go
  // to workers 0, 1, ... in turn.
  std::array<std::int64_t, 2> perWorkerSession{-1, -1};
  for (std::int64_t worker = 0; worker < 2; ++worker) {
    perWorkerSession[worker] = MustCreateOn(router, worker);
  }

  // Baseline snapshot. The forked workers inherited this test binary's
  // registry at fork time, and earlier tests in this binary already
  // recorded into it — every assertion below is on deltas between two
  // `metrics` calls, never on absolute values.
  const json::Json before = router.Handle(Cmd("metrics"));
  ASSERT_EQ(before.GetString("status", ""), "ok") << before.Dump();

  // Mixed workload with known per-worker request counts: the step and
  // run command counters must reproduce these numbers exactly.
  const std::array<int, 2> kSteps = {7, 11};
  const std::array<int, 2> kRuns = {3, 2};
  for (int worker = 0; worker < 2; ++worker) {
    for (int i = 0; i < kSteps[worker]; ++i) {
      json::Json stepped = router.Handle(
          Cmd("step", {{"sessionId", json::Json(perWorkerSession[worker])},
                       {"count", json::Json(5)}}));
      ASSERT_EQ(stepped.GetString("status", ""), "ok") << stepped.Dump();
    }
    for (int i = 0; i < kRuns[worker]; ++i) {
      json::Json ran = router.Handle(
          Cmd("run", {{"sessionId", json::Json(perWorkerSession[worker])},
                      {"maxCycles", json::Json(200)}}));
      ASSERT_EQ(ran.GetString("status", ""), "ok") << ran.Dump();
    }
  }

  const json::Json after = router.Handle(Cmd("metrics"));
  ASSERT_EQ(after.GetString("status", ""), "ok") << after.Dump();
  const json::Json* beforeFleet = before.Find("fleet");
  const json::Json* afterFleet = after.Find("fleet");
  ASSERT_NE(beforeFleet, nullptr);
  ASSERT_NE(afterFleet, nullptr);

  // Per-worker counters reproduce the issued workload exactly, and the
  // fleet view is exactly their sum (the router process itself issued no
  // server commands: socket workers are the only SimServers involved).
  const std::array<const char*, 2> kCommandCounters = {"server.cmd.step",
                                                       "server.cmd.run"};
  const std::array<std::array<int, 2>, 2> kExpected = {kSteps, kRuns};
  for (std::size_t c = 0; c < kCommandCounters.size(); ++c) {
    const char* name = kCommandCounters[c];
    std::int64_t workerSum = 0;
    for (std::int64_t worker = 0; worker < 2; ++worker) {
      const json::Json* beforeWorker = WorkerMetricsOf(before, worker);
      const json::Json* afterWorker = WorkerMetricsOf(after, worker);
      ASSERT_NE(afterWorker, nullptr) << after.Dump();
      const std::int64_t delta =
          CounterOf(afterWorker, name) - CounterOf(beforeWorker, name);
      EXPECT_EQ(delta, kExpected[c][static_cast<std::size_t>(worker)])
          << name << " on worker " << worker;
      workerSum += delta;
    }
    const std::int64_t fleetDelta =
        CounterOf(afterFleet, name) - CounterOf(beforeFleet, name);
    EXPECT_EQ(fleetDelta, workerSum) << name << ": fleet merge must sum";
  }

  // Histograms merge bucket-wise: the per-command latency histogram's
  // count delta and its bucket-total delta both equal the number of
  // commands issued — buckets are neither lost nor double-counted by the
  // trailing-zero trim + pad on merge.
  const std::int64_t totalSteps = kSteps[0] + kSteps[1];
  EXPECT_EQ(HistogramCountOf(afterFleet, "server.handleUs.step") -
                HistogramCountOf(beforeFleet, "server.handleUs.step"),
            totalSteps);
  EXPECT_EQ(HistogramBucketTotalOf(afterFleet, "server.handleUs.step") -
                HistogramBucketTotalOf(beforeFleet, "server.handleUs.step"),
            totalSteps);

  // The lane request histogram rode every routed command, so it must
  // have grown by at least the workload (fan-out probes also cross it).
  EXPECT_GE(HistogramCountOf(afterFleet, "shard.lane.dispatchUs") -
                HistogramCountOf(beforeFleet, "shard.lane.dispatchUs"),
            totalSteps + kRuns[0] + kRuns[1]);
}

}  // namespace
}  // namespace rvss::shard
