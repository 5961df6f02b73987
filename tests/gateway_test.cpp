// Gateway tests: the threaded front door end-to-end over real sockets.
//
// The gateway's contract is that many concurrent clients are invisible
// to results (byte-identical statistics vs a single-process server),
// that misbehaving clients cost only themselves (partial frames, frame
// garbage, quota overruns, stalls mid-frame), that overload is answered
// with retryable kUnavailable load-shed errors instead of unbounded
// queueing, and that every connection thread ends with its connection
// and with Stop(). The
// admission-overlap test at the bottom pins the PR's router change: a
// createSession must not serialize behind an in-progress drain of an
// unrelated worker. Alongside ride the front-door bugfix regressions:
// ServeFrames surviving transient accept failures, and WorkerLane's
// refusal errors being kUnavailable.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/socket.h"
#include "gateway/gateway.h"
#include "json/json.h"
#include "obs/registry.h"
#include "server/api.h"
#include "server/frame_loop.h"
#include "server/wire.h"
#include "shard/lane.h"
#include "shard/router.h"
#include "test_util.h"
#include "shard/transport.h"
#include "shard/worker.h"

namespace rvss {
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

server::WireOptions ClientWire() {
  server::WireOptions wire;
  wire.ioTimeoutMs = 10'000;
  return wire;
}

/// One blocking client connection to a gateway (or worker) address.
struct Client {
  explicit Client(const std::string& address) {
    auto connected = net::ConnectTo(address, 5'000);
    if (!connected.ok()) {
      ADD_FAILURE() << "connect failed: " << connected.error().ToText();
      return;
    }
    socket = std::move(connected).value();
  }

  json::Json Call(json::Json request) {
    const server::WireOptions wire = ClientWire();
    Status wrote = server::WriteMessage(socket, std::move(request), wire);
    if (!wrote.ok()) {
      ADD_FAILURE() << "write failed: " << wrote.error().ToText();
      return json::Json();
    }
    auto response = server::ReadMessage(socket, wire);
    if (!response.ok()) {
      ADD_FAILURE() << "read failed: " << response.error().ToText();
      return json::Json();
    }
    return std::move(response).value();
  }

  net::Socket socket;
};

/// Entries of a /proc/self directory, "." and ".." excluded.
std::size_t CountProcEntries(const char* path) {
  std::size_t count = 0;
  DIR* dir = ::opendir(path);
  if (dir == nullptr) return 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count >= 2 ? count - 2 : 0;
}

std::size_t CountOpenDescriptors() {
  const std::size_t count = CountProcEntries("/proc/self/fd");
  return count >= 1 ? count - 1 : 0;  // the DIR's own descriptor
}

std::size_t CountThreads() { return CountProcEntries("/proc/self/task"); }

/// Resident set size of this process, in bytes (/proc/self/statm).
std::size_t ResidentBytes() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  unsigned long pages = 0;
  unsigned long residentPages = 0;
  const int fields = std::fscanf(statm, "%lu %lu", &pages, &residentPages);
  std::fclose(statm);
  if (fields != 2) return 0;
  return residentPages * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

/// True when the peer closes `socket` within `timeoutMs`: the socket
/// turns readable and the read finds EOF (or a reset), not data.
bool ClosedByPeerWithin(net::Socket& socket, int timeoutMs) {
  auto readable = net::WaitReadable(socket, timeoutMs);
  if (!readable.ok() || !readable.value()) return false;
  char byte = 0;
  return ::recv(socket.fd(), &byte, 1, 0) <= 0;
}

/// The first half of a parseAsm frame: a client stalled mid-frame.
void SendHalfAFrame(net::Socket& socket) {
  const std::string text =
      Cmd("parseAsm", {{"code", json::Json(kSpinLoop)}}).Dump();
  const std::string frame = net::EncodeFrameHeader(text.size(), 0) + text;
  ASSERT_TRUE(
      net::SendAll(socket, frame.substr(0, frame.size() / 2), 5'000).ok());
}

/// RAII gateway over a fresh unix address; Stop() on scope exit.
struct ScopedGateway {
  explicit ScopedGateway(gateway::Gateway::Handler handler,
                         gateway::GatewayOptions options = {}) {
    options.address = shard::MakeWorkerAddress("gwtest");
    auto started = gateway::Gateway::Start(std::move(handler), options);
    if (!started.ok()) {
      ADD_FAILURE() << "gateway start failed: " << started.error().ToText();
      return;
    }
    gateway = std::move(started).value();
  }
  ~ScopedGateway() {
    if (gateway != nullptr) gateway->Stop();
  }
  const std::string& address() const { return gateway->address(); }
  std::unique_ptr<gateway::Gateway> gateway;
};

// ---- many clients, one fleet: results must be byte-identical ---------------

TEST(Gateway, ConcurrentClientsMatchSingleProcessByteIdentically) {
  shard::ShardRouter::Options routerOptions;
  routerOptions.workerCount = 4;
  shard::ShardRouter router(routerOptions);
  ScopedGateway gw(
      [&router](const json::Json& request) { return router.Handle(request); });
  ASSERT_NE(gw.gateway, nullptr);

  // The single-process reference: one session, 3 x 20 steps, stats.
  server::SimServer local;
  json::Json localCreated = local.Handle(
      Cmd("createSession", {{"code", json::Json(kSpinLoop)},
                            {"entry", json::Json("main")}}));
  ASSERT_EQ(localCreated.GetString("status", ""), "ok");
  const std::int64_t localId = localCreated.GetInt("sessionId", -1);
  for (int batch = 0; batch < 3; ++batch) {
    local.Handle(Cmd("step", {{"sessionId", json::Json(localId)},
                              {"count", json::Json(20)}}));
  }
  const std::string reference =
      local.Handle(Cmd("stats", {{"sessionId", json::Json(localId)}}))
          .Find("statistics")
          ->Dump();

  constexpr int kClients = 8;
  std::vector<std::string> results(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(gw.address());
      json::Json created = client.Call(
          Cmd("createSession", {{"code", json::Json(kSpinLoop)},
                                {"entry", json::Json("main")}}));
      if (created.GetString("status", "") != "ok") {
        results[c] = "createSession failed: " + created.Dump();
        return;
      }
      const std::int64_t id = created.GetInt("sessionId", -1);
      for (int batch = 0; batch < 3; ++batch) {
        json::Json stepped =
            client.Call(Cmd("step", {{"sessionId", json::Json(id)},
                                     {"count", json::Json(20)}}));
        if (stepped.GetString("status", "") != "ok") {
          results[c] = "step failed: " + stepped.Dump();
          return;
        }
      }
      json::Json stats =
          client.Call(Cmd("stats", {{"sessionId", json::Json(id)}}));
      const json::Json* statistics = stats.Find("statistics");
      results[c] = statistics == nullptr ? "stats failed: " + stats.Dump()
                                         : statistics->Dump();
    });
  }
  for (std::thread& client : clients) client.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(results[c], reference) << "client " << c;
  }
}

/// The JSON section of the next frame on `socket`, byte for byte (a
/// frame with a blob section reads as an error marker).
std::string ReadFrameText(net::Socket& socket) {
  char header[net::kFrameHeaderBytes];
  if (!net::RecvAll(socket, header, sizeof header, 10'000).ok()) {
    return "<no frame>";
  }
  auto decoded = net::DecodeFrameHeader(
      std::string_view(header, sizeof header), net::kDefaultMaxFrameBytes);
  if (!decoded.ok() || decoded.value().blobBytes != 0) return "<bad frame>";
  std::string text(decoded.value().jsonBytes, '\0');
  if (!net::RecvAll(socket, text.data(), text.size(), 10'000).ok()) {
    return "<truncated frame>";
  }
  return text;
}

TEST(Gateway, RoutedStateRepliesAreByteIdenticalToABareServer) {
  // Gateway -> router -> two forked socket workers. The router and the
  // gateway pass each reply's state on as the worker's bytes, so every
  // reply frame a client reads must equal a bare SimServer's serialized
  // reply to the same request on a twin session.
  shard::SpawnedFleet fleet;
  shard::ShardRouter::Options routerOptions;
  routerOptions.workerCount = 2;
  routerOptions.transportFactory =
      shard::MakeSpawningTransportFactory(&fleet, "gwbytes");
  routerOptions.onWorkerShutdown = shard::MakeFleetReaper(&fleet);
  shard::ShardRouter router(routerOptions);
  ScopedGateway gw(
      [&router](const json::Json& request) { return router.Handle(request); });
  ASSERT_NE(gw.gateway, nullptr);
  Client client(gw.address());

  // One session on each worker, each with a twin on a bare server.
  const json::Json create = Cmd(
      "createSession",
      {{"code", json::Json(kSpinLoop)}, {"entry", json::Json("main")}});
  server::SimServer bare;
  std::vector<std::pair<std::int64_t, std::int64_t>> sessions(2, {-1, -1});
  for (int attempt = 0; attempt < 64; ++attempt) {
    json::Json created = client.Call(create);
    ASSERT_EQ(created.GetString("status", ""), "ok") << created.Dump();
    const std::int64_t worker = created.GetInt("worker", -1);
    ASSERT_TRUE(worker == 0 || worker == 1) << created.Dump();
    auto& [routed, twin] = sessions[static_cast<std::size_t>(worker)];
    if (routed >= 0) continue;
    routed = created.GetInt("sessionId", -1);
    twin = bare.Handle(create).GetInt("sessionId", -1);
    if (sessions[0].first >= 0 && sessions[1].first >= 0) break;
  }
  ASSERT_GE(sessions[0].first, 0);
  ASSERT_GE(sessions[1].first, 0);

  const std::vector<json::Json> requests = {
      Cmd("fastForward", {{"instructions", json::Json(100)}}),
      Cmd("step", {{"count", json::Json(5)}}),
      Cmd("step", {{"count", json::Json(1)}, {"memory", json::Json(true)}}),
      Cmd("stepBack"),
      Cmd("state"),
      Cmd("state", {{"memory", json::Json(true)}}),
      Cmd("restoreCheckpoint", {{"cycle", json::Json(2)}}),
      Cmd("step", {{"count", json::Json(1)}})};
  for (const auto& [routed, twin] : sessions) {
    for (const json::Json& request : requests) {
      json::Json viaGateway = request;
      viaGateway.Set("sessionId", routed);
      json::Json direct = request;
      direct.Set("sessionId", twin);
      const std::string expected = bare.HandleRaw(direct.Dump());
      ASSERT_NE(expected.find("\"state\":"), std::string::npos) << expected;
      ASSERT_TRUE(server::WriteMessage(client.socket, viaGateway,
                                       ClientWire())
                      .ok());
      EXPECT_EQ(ReadFrameText(client.socket), expected) << request.Dump();
    }
  }

  // A client reading through the wire gets the state as raw text too.
  json::Json state =
      client.Call(Cmd("state", {{"sessionId", json::Json(sessions[0].first)}}));
  ASSERT_NE(state.Find("state"), nullptr) << state.Dump();
  EXPECT_EQ(state.Find("state")->type(), json::Type::kRaw);
}

// ---- misbehaving clients cost only themselves ------------------------------

TEST(Gateway, PartialFramesFromASlowClientAreAssembled) {
  server::SimServer sim;
  ScopedGateway gw(
      [&sim](const json::Json& request) { return sim.Handle(request); });
  ASSERT_NE(gw.gateway, nullptr);

  Client client(gw.address());
  const std::string text =
      Cmd("parseAsm", {{"code", json::Json(kSpinLoop)}}).Dump();
  const std::string frame = net::EncodeFrameHeader(text.size(), 0) + text;

  // Dribble the frame a few bytes at a time with pauses between sends:
  // the connection's thread keeps reading the frame piece by piece
  // (well inside the whole-message deadline) and answers once it
  // completes.
  for (std::size_t offset = 0; offset < frame.size(); offset += 7) {
    const std::size_t len = std::min<std::size_t>(7, frame.size() - offset);
    ASSERT_TRUE(
        net::SendAll(client.socket, frame.substr(offset, len), 5'000).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  auto response = server::ReadMessage(client.socket, ClientWire());
  ASSERT_TRUE(response.ok()) << response.error().ToText();
  EXPECT_EQ(response.value().GetString("status", ""), "ok");
}

TEST(Gateway, FrameGarbageClosesOnlyThatConnection) {
  server::SimServer sim;
  ScopedGateway gw(
      [&sim](const json::Json& request) { return sim.Handle(request); });
  ASSERT_NE(gw.gateway, nullptr);

  // An innocent bystander with a request already half-sent.
  Client bystander(gw.address());

  Client garbler(gw.address());
  ASSERT_TRUE(
      net::SendAll(garbler.socket, std::string(64, 'X'), 5'000).ok());
  // Bad magic: the stream is untrustworthy, the connection must close.
  auto closed = server::ReadMessage(garbler.socket, ClientWire());
  EXPECT_FALSE(closed.ok());

  // The bystander (and new connections) are unaffected.
  json::Json parsed =
      bystander.Call(Cmd("parseAsm", {{"code", json::Json(kSpinLoop)}}));
  EXPECT_EQ(parsed.GetString("status", ""), "ok");
}

TEST(Gateway, BadJsonGetsAnErrorAndTheConnectionLivesOn) {
  server::SimServer sim;
  ScopedGateway gw(
      [&sim](const json::Json& request) { return sim.Handle(request); });
  ASSERT_NE(gw.gateway, nullptr);

  Client client(gw.address());
  const std::string garbage = "this is not json";
  ASSERT_TRUE(net::SendAll(client.socket,
                           net::EncodeFrameHeader(garbage.size(), 0) + garbage,
                           5'000)
                  .ok());
  auto response = server::ReadMessage(client.socket, ClientWire());
  ASSERT_TRUE(response.ok()) << response.error().ToText();
  testutil::CheckErrorEnvelope(response.value());
  EXPECT_EQ(testutil::ErrorField(response.value(), "kind"), "parse");

  json::Json parsed =
      client.Call(Cmd("parseAsm", {{"code", json::Json(kSpinLoop)}}));
  EXPECT_EQ(parsed.GetString("status", ""), "ok");
}

TEST(Gateway, PipelinedFramesAreAnsweredInOrder) {
  server::SimServer sim;
  ScopedGateway gw(
      [&sim](const json::Json& request) { return sim.Handle(request); });
  ASSERT_NE(gw.gateway, nullptr);

  Client client(gw.address());
  // Three distinguishable requests in a single send: a parse success, an
  // unknown command, and the hello handshake. Responses must come back
  // in exactly this order.
  std::string burst;
  for (const json::Json& request :
       {Cmd("parseAsm", {{"code", json::Json(kSpinLoop)}}),
        Cmd("definitelyNotACommand"), server::MakeHelloRequest()}) {
    const std::string text = request.Dump();
    burst += net::EncodeFrameHeader(text.size(), 0) + text;
  }
  ASSERT_TRUE(net::SendAll(client.socket, burst, 5'000).ok());

  auto first = server::ReadMessage(client.socket, ClientWire());
  ASSERT_TRUE(first.ok()) << first.error().ToText();
  EXPECT_EQ(first.value().GetString("status", ""), "ok");
  auto second = server::ReadMessage(client.socket, ClientWire());
  ASSERT_TRUE(second.ok()) << second.error().ToText();
  testutil::CheckErrorEnvelope(second.value());
  auto third = server::ReadMessage(client.socket, ClientWire());
  ASSERT_TRUE(third.ok()) << third.error().ToText();
  EXPECT_TRUE(third.value().GetBool("hello", false)) << third.value().Dump();
}

// ---- admission control -----------------------------------------------------

TEST(Gateway, SessionQuotaIsRefusedWithRetryableUnavailable) {
  shard::ShardRouter::Options routerOptions;
  routerOptions.workerCount = 2;
  shard::ShardRouter router(routerOptions);
  gateway::GatewayOptions options;
  options.maxSessionsPerConnection = 2;
  ScopedGateway gw(
      [&router](const json::Json& request) { return router.Handle(request); },
      options);
  ASSERT_NE(gw.gateway, nullptr);

  Client client(gw.address());
  auto create = [&client]() {
    return client.Call(Cmd("createSession",
                           {{"code", json::Json(kSpinLoop)},
                            {"entry", json::Json("main")}}));
  };
  json::Json first = create();
  ASSERT_EQ(first.GetString("status", ""), "ok") << first.Dump();
  json::Json second = create();
  ASSERT_EQ(second.GetString("status", ""), "ok") << second.Dump();

  // The third admission is refused at the gateway: retryable, explicit,
  // and the fleet never sees it.
  json::Json refused = create();
  testutil::CheckErrorEnvelope(refused);
  EXPECT_EQ(testutil::ErrorField(refused, "kind"), "unavailable")
      << refused.Dump();
  EXPECT_NE(testutil::ErrorField(refused, "message").find("quota"),
            std::string::npos);

  // Another connection has its own quota.
  Client other(gw.address());
  json::Json elsewhere = other.Call(
      Cmd("createSession", {{"code", json::Json(kSpinLoop)},
                            {"entry", json::Json("main")}}));
  EXPECT_EQ(elsewhere.GetString("status", ""), "ok") << elsewhere.Dump();

  // deleteSession releases the quota.
  json::Json deleted = client.Call(
      Cmd("deleteSession",
          {{"sessionId", json::Json(first.GetInt("sessionId", -1))}}));
  ASSERT_EQ(deleted.GetString("status", ""), "ok") << deleted.Dump();
  json::Json again = create();
  EXPECT_EQ(again.GetString("status", ""), "ok") << again.Dump();
}

TEST(Gateway, ConnectionCapClosesExcessConnectionsOnArrival) {
  server::SimServer sim;
  gateway::GatewayOptions options;
  options.maxConnections = 2;
  ScopedGateway gw(
      [&sim](const json::Json& request) { return sim.Handle(request); },
      options);
  ASSERT_NE(gw.gateway, nullptr);

  Client first(gw.address());
  Client second(gw.address());
  // Occupy both slots for real (the accept must have happened before the
  // third connect, or the cap has nothing to refuse).
  EXPECT_EQ(first.Call(Cmd("hello")).GetBool("hello", false), true);
  EXPECT_EQ(second.Call(Cmd("hello")).GetBool("hello", false), true);

  Client third(gw.address());
  // The gateway closes it on arrival: the read sees EOF, not a response.
  auto response = server::ReadMessage(third.socket, ClientWire());
  EXPECT_FALSE(response.ok());

  // Closing an admitted connection frees the slot.
  first.socket.Close();
  for (int attempt = 0; attempt < 50; ++attempt) {
    Client retry(gw.address());
    auto hello = server::WriteMessage(retry.socket, Cmd("hello"),
                                      ClientWire());
    if (hello.ok()) {
      auto answer = server::ReadMessage(retry.socket, ClientWire());
      if (answer.ok() && answer.value().GetBool("hello", false)) return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  FAIL() << "a freed connection slot was never reusable";
}

// ---- the connection threads: stalls, shutdown and teardown -----------------

TEST(Gateway, ClientStalledMidFrameIsDroppedAtTheIoTimeout) {
  server::SimServer sim;
  gateway::GatewayOptions options;
  options.wire.ioTimeoutMs = 200;
  ScopedGateway gw(
      [&sim](const json::Json& request) { return sim.Handle(request); },
      options);
  ASSERT_NE(gw.gateway, nullptr);

  Client stalled(gw.address());
  SendHalfAFrame(stalled.socket);
  // The stall holds only its own connection: another client is served
  // meanwhile.
  Client other(gw.address());
  json::Json parsed =
      other.Call(Cmd("parseAsm", {{"code", json::Json(kSpinLoop)}}));
  EXPECT_EQ(parsed.GetString("status", ""), "ok") << parsed.Dump();

  EXPECT_TRUE(ClosedByPeerWithin(stalled.socket, 5'000))
      << "a client stalled mid-frame was never dropped";
  EXPECT_TRUE(other.Call(Cmd("hello")).GetBool("hello", false));
}

TEST(Gateway, StalledClientsHoldOnlyTheBytesTheySent) {
  // Each client sends a header declaring a section close to the frame
  // cap, a few bytes of it, and stalls: half inside the JSON section,
  // half inside the blob after a complete JSON text. Buffering what the
  // headers promise would cost kClients x kDeclaredBytes (128 MiB); the
  // gateway must hold only what arrived.
  constexpr std::size_t kDeclaredBytes = std::size_t{32} << 20;
  constexpr int kClients = 4;
  server::SimServer sim;
  gateway::GatewayOptions options;
  options.wire.maxFrameBytes = kDeclaredBytes + 1024;
  options.wire.ioTimeoutMs = 1'000;
  ScopedGateway gw(
      [&sim](const json::Json& request) { return sim.Handle(request); },
      options);
  ASSERT_NE(gw.gateway, nullptr);

  const std::size_t residentBefore = ResidentBytes();
  ASSERT_GT(residentBefore, 0u);
  const std::string text = Cmd("importSession").Dump();
  std::vector<Client> clients;
  std::vector<std::chrono::steady_clock::time_point> sentAt;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back(gw.address());
    const std::string frame =
        i % 2 == 0 ? net::EncodeFrameHeader(kDeclaredBytes, 0) + "{\"co"
                   : net::EncodeFrameHeader(text.size(),
                                            kDeclaredBytes - text.size()) +
                         text + "QUJD";
    ASSERT_TRUE(net::SendAll(clients.back().socket, frame, 5'000).ok());
    sentAt.push_back(std::chrono::steady_clock::now());
  }

  // Peak RSS while every read is pending (well inside the io timeout).
  std::size_t peak = residentBefore;
  for (int sample = 0; sample < 40; ++sample) {
    peak = std::max(peak, ResidentBytes());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LT(peak - residentBefore, kClients * kDeclaredBytes / 8)
      << "stalled clients pinned " << (peak - residentBefore)
      << " bytes of gateway memory";

  // Each stall is dropped once its message deadline runs out, not before.
  for (int i = 0; i < kClients; ++i) {
    EXPECT_TRUE(ClosedByPeerWithin(clients[i].socket, 5'000))
        << "client " << i << " was never dropped";
    EXPECT_GE(std::chrono::steady_clock::now() - sentAt[i],
              std::chrono::milliseconds(options.wire.ioTimeoutMs - 20))
        << "client " << i << " was dropped before its io timeout";
  }
}

TEST(Gateway, ShutdownGatewayAcknowledgesThenClosesEveryConnection) {
  server::SimServer sim;
  ScopedGateway gw(
      [&sim](const json::Json& request) { return sim.Handle(request); });
  ASSERT_NE(gw.gateway, nullptr);

  Client idle(gw.address());
  ASSERT_TRUE(idle.Call(Cmd("hello")).GetBool("hello", false));
  Client sender(gw.address());
  json::Json ack = sender.Call(Cmd("shutdownGateway"));
  EXPECT_EQ(ack.GetString("status", ""), "ok") << ack.Dump();
  EXPECT_TRUE(ack.GetBool("shutdown", false)) << ack.Dump();

  auto waited = std::async(std::launch::async,
                           [&gw] { return gw.gateway->Wait(); });
  const bool stopped =
      waited.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  if (!stopped) gw.gateway->Stop();  // unblocks Wait(): never hang the test
  ASSERT_TRUE(stopped) << "Wait() did not return after shutdownGateway";
  EXPECT_TRUE(waited.get().ok());
  EXPECT_TRUE(ClosedByPeerWithin(idle.socket, 5'000))
      << "an idle connection outlived shutdownGateway";

  const auto start = std::chrono::steady_clock::now();
  gw.gateway->Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
}

TEST(Gateway, StopReturnsPromptlyWithIdleAndStalledClients) {
  server::SimServer sim;
  // The default 30 s message deadline: the stall outlasts the test, so
  // only Stop() can end that connection's read.
  ScopedGateway gw(
      [&sim](const json::Json& request) { return sim.Handle(request); });
  ASSERT_NE(gw.gateway, nullptr);

  Client idle(gw.address());
  ASSERT_TRUE(idle.Call(Cmd("hello")).GetBool("hello", false));
  Client stalled(gw.address());
  ASSERT_TRUE(stalled.Call(Cmd("hello")).GetBool("hello", false));
  SendHalfAFrame(stalled.socket);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto start = std::chrono::steady_clock::now();
  gw.gateway->Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
  EXPECT_TRUE(ClosedByPeerWithin(idle.socket, 1'000));
  EXPECT_TRUE(ClosedByPeerWithin(stalled.socket, 1'000));
}

TEST(Gateway, ShortConnectionsReleaseTheirThreadsAndDescriptors) {
  server::SimServer sim;
  ScopedGateway gw(
      [&sim](const json::Json& request) { return sim.Handle(request); });
  ASSERT_NE(gw.gateway, nullptr);

  const std::size_t threadsBefore = CountThreads();
  const std::size_t descriptorsBefore = CountOpenDescriptors();
  for (int cycle = 0; cycle < 200; ++cycle) {
    Client client(gw.address());
    json::Json hello = client.Call(Cmd("hello"));
    ASSERT_TRUE(hello.GetBool("hello", false))
        << "cycle " << cycle << ": " << hello.Dump();
  }
  // The last connection's thread sees EOF after its client closed; give
  // it a moment to finish.
  std::size_t threads = 0;
  std::size_t descriptors = 0;
  for (int attempt = 0; attempt < 100; ++attempt) {
    threads = CountThreads();
    descriptors = CountOpenDescriptors();
    if (threads <= threadsBefore && descriptors <= descriptorsBefore) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_LE(threads, threadsBefore) << "connection threads outlived their "
                                       "connections";
  EXPECT_LE(descriptors, descriptorsBefore)
      << "connection descriptors outlived their connections";
}

// ---- backpressure: load shed instead of unbounded queues -------------------

/// An in-process transport whose Call blocks (for commands in `blockOn`)
/// until Release(); used to stall a worker or a drain deterministically.
class BlockingTransport : public shard::WorkerTransport {
 public:
  explicit BlockingTransport(std::string blockOn)
      : blockOn_(std::move(blockOn)), inner_(server::SimServer::Limits{}) {}

  Result<json::Json> Call(const json::Json& request) override {
    if (request.GetString("command", "") == blockOn_) {
      ++entered_;
      std::unique_lock<std::mutex> lock(mutex_);
      released_.wait(lock, [&] { return release_; });
    }
    return inner_.Call(request);
  }
  std::string Describe() const override { return "blocking"; }
  server::SimServer* LocalServer() override { return inner_.LocalServer(); }

  int entered() const { return entered_.load(); }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      release_ = true;
    }
    released_.notify_all();
  }

 private:
  const std::string blockOn_;
  shard::InProcessTransport inner_;
  std::mutex mutex_;
  std::condition_variable released_;
  bool release_ = false;
  std::atomic<int> entered_{0};
};

TEST(Gateway, StalledWorkerLaneShedsThroughTheGateway) {
  // One worker whose transport parks on parseAsm, a one-deep lane queue:
  // request one is in flight, request two queues, request three must
  // come back through the gateway as a retryable load shed.
  auto blocking = std::make_shared<BlockingTransport>("parseAsm");
  shard::ShardRouter::Options routerOptions;
  routerOptions.workerCount = 1;
  routerOptions.maxLaneQueueDepth = 1;
  routerOptions.transportFactory =
      [&blocking](std::size_t, const server::SimServer::Limits&)
      -> Result<std::shared_ptr<shard::WorkerTransport>> {
    return std::shared_ptr<shard::WorkerTransport>(blocking);
  };
  shard::ShardRouter router(routerOptions);
  ScopedGateway gw(
      [&router](const json::Json& request) { return router.Handle(request); });
  ASSERT_NE(gw.gateway, nullptr);

  Client a(gw.address());
  Client b(gw.address());
  Client c(gw.address());
  const server::WireOptions wire = ClientWire();
  const json::Json request =
      Cmd("parseAsm", {{"code", json::Json(kSpinLoop)}});
  ASSERT_TRUE(server::WriteMessage(a.socket, request, wire).ok());
  for (int i = 0; i < 500 && blocking->entered() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(blocking->entered(), 1) << "worker never saw the first request";
  ASSERT_TRUE(server::WriteMessage(b.socket, request, wire).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  ASSERT_TRUE(server::WriteMessage(c.socket, request, wire).ok());
  auto shed = server::ReadMessage(c.socket, wire);
  ASSERT_TRUE(shed.ok()) << shed.error().ToText();
  testutil::CheckErrorEnvelope(shed.value());
  EXPECT_EQ(testutil::ErrorField(shed.value(), "kind"), "unavailable")
      << shed.value().Dump();

  blocking->Release();
  auto aDone = server::ReadMessage(a.socket, wire);
  ASSERT_TRUE(aDone.ok());
  EXPECT_EQ(aDone.value().GetString("status", ""), "ok");
  auto bDone = server::ReadMessage(b.socket, wire);
  ASSERT_TRUE(bDone.ok());
  EXPECT_EQ(bDone.value().GetString("status", ""), "ok");
}

// ---- admissions overlap drains ---------------------------------------------

TEST(Gateway, CreateSessionDoesNotSerializeBehindAnUnrelatedDrain) {
  // Worker 0's transport parks inside exportSession, so a drainWorker(0)
  // stalls mid-move with its placement gate closed. An admission that
  // held the fleet mutex across its round trip would wait for the whole
  // drain; a createSession must land on worker 1 while the drain is
  // still stuck.
  auto blocking = std::make_shared<BlockingTransport>("exportSession");
  shard::ShardRouter::Options routerOptions;
  routerOptions.workerCount = 2;
  routerOptions.transportFactory =
      [&blocking](std::size_t worker, const server::SimServer::Limits& limits)
      -> Result<std::shared_ptr<shard::WorkerTransport>> {
    if (worker == 0) return std::shared_ptr<shard::WorkerTransport>(blocking);
    return std::shared_ptr<shard::WorkerTransport>(
        std::make_shared<shard::InProcessTransport>(limits));
  };
  shard::ShardRouter router(routerOptions);
  ScopedGateway gw(
      [&router](const json::Json& request) { return router.Handle(request); });
  ASSERT_NE(gw.gateway, nullptr);

  // Seed at least one session onto worker 0 so the drain has a move to
  // stall in.
  Client seeder(gw.address());
  bool onZero = false;
  for (int i = 0; i < 64 && !onZero; ++i) {
    json::Json created = seeder.Call(
        Cmd("createSession", {{"code", json::Json(kSpinLoop)},
                              {"entry", json::Json("main")}}));
    ASSERT_EQ(created.GetString("status", ""), "ok") << created.Dump();
    onZero = created.GetInt("worker", -1) == 0;
  }
  ASSERT_TRUE(onZero) << "placement never chose worker 0";

  std::thread drainer([&router] {
    json::Json drained =
        router.Handle(Cmd("drainWorker", {{"worker", json::Json(0)}}));
    EXPECT_EQ(drained.GetString("status", ""), "ok") << drained.Dump();
  });
  // Wait until the drain is provably stuck inside worker 0's export.
  for (int i = 0; i < 2'500 && blocking->entered() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(blocking->entered(), 1) << "drain never reached the export";

  // The pin: a fresh admission through the gateway completes *now*, on
  // worker 1, while the drain still holds worker 0. The generous bound
  // only guards against a hung test — the old behavior blocks forever
  // (the export latch is still closed).
  Client admitter(gw.address());
  const auto start = std::chrono::steady_clock::now();
  json::Json admitted = admitter.Call(
      Cmd("createSession", {{"code", json::Json(kSpinLoop)},
                            {"entry", json::Json("main")}}));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(admitted.GetString("status", ""), "ok") << admitted.Dump();
  EXPECT_EQ(admitted.GetInt("worker", -1), 1)
      << "a gated worker must not receive admissions";
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            5)
      << "createSession serialized behind an unrelated drain";
  EXPECT_EQ(blocking->entered(), 1) << "the drain should still be stalled";

  blocking->Release();
  drainer.join();
}

// ---- satellite: ServeFrames survives transient accept failures -------------

TEST(ServeFrames, TransientAcceptFailuresAreCountedAndRetried) {
  const std::string address = shard::MakeWorkerAddress("acceptfail");
  auto listener = net::ListenOn(address);
  ASSERT_TRUE(listener.ok()) << listener.error().ToText();

  // The client descriptor is created up front: connect(2) on an existing
  // socket needs no new descriptor, so it works at the squeezed limit.
  const int clientFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(clientFd, 0);
  net::Socket client(clientFd);

  server::SimServer sim;
  std::thread serveThread(
      [&] { (void)server::ServeFrames(sim, listener.value()); });

  obs::Counter& acceptErrors =
      obs::Registry::Instance().GetCounter("server.acceptErrors");
  const std::uint64_t errorsBefore = acceptErrors.value();

  // Exhaust the descriptor table: soft limit down to the highest fd in
  // use, then plug any holes below it, so the next accept(2) gets EMFILE.
  struct rlimit original;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &original), 0);
  struct rlimit squeezed = original;
  squeezed.rlim_cur = CountOpenDescriptors() + 8;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &squeezed), 0);
  std::vector<int> plugs;
  for (int fd = ::open("/dev/null", O_RDONLY); fd >= 0;
       fd = ::open("/dev/null", O_RDONLY)) {
    plugs.push_back(fd);
  }
  ASSERT_EQ(errno, EMFILE) << "descriptor table never filled";

  struct sockaddr_un sun = {};
  sun.sun_family = AF_UNIX;
  std::strncpy(sun.sun_path, address.substr(5).c_str(),
               sizeof(sun.sun_path) - 1);
  ASSERT_EQ(::connect(clientFd, reinterpret_cast<struct sockaddr*>(&sun),
                      sizeof(sun)),
            0);

  // The serve loop's accept now fails with EMFILE. The regression: it
  // must count + retry, not return and kill the worker.
  bool counted = false;
  for (int i = 0; i < 2'500 && !counted; ++i) {
    counted = acceptErrors.value() > errorsBefore;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Free the descriptors before asserting: a failed ASSERT here would
  // otherwise leave the whole test binary descriptor-starved.
  for (const int fd : plugs) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &original), 0);
  EXPECT_TRUE(counted) << "accept failures were not counted as transient";

  // With descriptors available again the pending connection is accepted
  // and served — the loop survived the exhaustion window.
  const server::WireOptions wire = ClientWire();
  ASSERT_TRUE(server::WriteMessage(
                  client, Cmd("parseAsm", {{"code", json::Json(kSpinLoop)}}),
                  wire)
                  .ok());
  auto response = server::ReadMessage(client, wire);
  ASSERT_TRUE(response.ok()) << response.error().ToText();
  EXPECT_EQ(response.value().GetString("status", ""), "ok");

  ASSERT_TRUE(
      server::WriteMessage(client, Cmd("shutdownWorker"), wire).ok());
  (void)server::ReadMessage(client, wire);
  serveThread.join();
}

// ---- satellite: lane refusals are retryable kUnavailable -------------------

TEST(WorkerLane, DepthCapShedsWithImmediateRetryableUnavailable) {
  auto blocking = std::make_shared<BlockingTransport>("work");
  auto lane = std::make_shared<shard::WorkerLane>(blocking,
                                                  /*maxQueueDepth=*/1);
  // The ticket goes, passing the turn on, when the call returns: the
  // callable itself lives as long as the future.
  const auto callOnThread = [](shard::WorkerLane::Ticket ticket) {
    return std::async(std::launch::async,
                      [ticket = std::move(ticket)]() mutable {
                        shard::WorkerLane::Ticket held = std::move(ticket);
                        return held.Call(Cmd("work"));
                      });
  };

  auto inFlight = callOnThread(lane->Join());
  for (int i = 0; i < 500 && blocking->entered() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(blocking->entered(), 1);
  auto queued = callOnThread(lane->Join());

  auto shed = callOnThread(lane->Join());
  // A load shed answers at once — while the first call is still parked in
  // the transport; backpressure that queued the refusal would be no
  // backpressure at all.
  const bool answered = shed.wait_for(std::chrono::seconds(5)) ==
                        std::future_status::ready;
  if (!answered) blocking->Release();
  ASSERT_TRUE(answered) << "the shed ticket waited for its turn";
  EXPECT_EQ(blocking->entered(), 1);
  auto shedResult = shed.get();
  ASSERT_FALSE(shedResult.ok());
  EXPECT_EQ(shedResult.error().kind, ErrorKind::kUnavailable);
  EXPECT_NE(shedResult.error().message.find("load shed"), std::string::npos);

  blocking->Release();
  EXPECT_TRUE(inFlight.get().ok());
  EXPECT_TRUE(queued.get().ok());
}

TEST(WorkerLane, StoppedLaneAnswersRetryableUnavailable) {
  auto transport =
      std::make_shared<shard::InProcessTransport>(server::SimServer::Limits{});
  auto lane = std::make_shared<shard::WorkerLane>(transport);
  lane->Stop();
  shard::WorkerLane::Ticket refused = lane->Join();
  auto result = refused.Call(Cmd("parseAsm", {{"code", json::Json("x")}}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ErrorKind::kUnavailable);
}

}  // namespace
}  // namespace rvss
