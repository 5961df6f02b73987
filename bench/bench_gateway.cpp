// Gateway throughput: sustained requests/s with 64 concurrent socket
// clients, each served by its own gateway connection thread, onto a
// 4-worker fleet.
//
// This is the number that says whether the gateway can front a classroom:
// every client holds its own connection, every request crosses the frame
// codec twice, the gateway's connection thread and a shard lane. The
// pinned floor in bench/baselines.json trips when the front door stops
// running its clients in parallel — a lock held across the handler call,
// a connection list walked per request, or a hand-off that serializes
// replies through one thread would all show up here long before a
// classroom does.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/socket.h"
#include "gateway/gateway.h"
#include "json/json.h"
#include "server/wire.h"
#include "shard/router.h"
#include "shard/worker.h"

namespace rvss {
namespace {

const char* kWorkload = R"(
main:
    li s1, 1000000
spin:
    addi s1, s1, -1
    bnez s1, spin
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

struct ClientResult {
  std::uint64_t requests = 0;
  std::string error;
};

/// One client: its own connection, its own session, then a tight
/// step-request loop until the deadline.
void RunClient(const std::string& address,
               std::chrono::steady_clock::time_point deadline,
               ClientResult* result) {
  auto connected = net::ConnectTo(address, 10'000);
  if (!connected.ok()) {
    result->error = "connect: " + connected.error().ToText();
    return;
  }
  net::Socket socket = std::move(connected).value();
  server::WireOptions wire;
  wire.ioTimeoutMs = 30'000;

  auto call = [&](json::Json request) -> Result<json::Json> {
    Status wrote = server::WriteMessage(socket, std::move(request), wire);
    if (!wrote.ok()) return wrote.error();
    return server::ReadMessage(socket, wire);
  };

  auto created = call(Cmd("createSession", {{"code", json::Json(kWorkload)},
                                            {"entry", json::Json("main")}}));
  if (!created.ok() ||
      created.value().GetString("status", "") != "ok") {
    result->error = "createSession failed: " +
                    (created.ok() ? created.value().Dump()
                                  : created.error().ToText());
    return;
  }
  const std::int64_t id = created.value().GetInt("sessionId", -1);
  const json::Json step = Cmd(
      "step", {{"sessionId", json::Json(id)}, {"count", json::Json(1)}});

  while (std::chrono::steady_clock::now() < deadline) {
    auto stepped = call(step);
    if (!stepped.ok()) {
      result->error = "step failed: " + stepped.error().ToText();
      return;
    }
    if (stepped.value().GetString("status", "") != "ok") {
      result->error = "step error: " + stepped.value().Dump();
      return;
    }
    ++result->requests;
  }
}

}  // namespace
}  // namespace rvss

int main(int argc, char** argv) {
  using namespace rvss;
  bench::JsonReport report("gateway", argc, argv);

  constexpr int kClients = 64;
  constexpr auto kWindow = std::chrono::milliseconds(1'500);

  shard::ShardRouter::Options routerOptions;
  routerOptions.workerCount = 4;
  // The production backpressure shape: bounded lanes. 64 clients with
  // one request in flight each sit far below the cap, so the bench
  // measures throughput, not shed handling.
  routerOptions.maxLaneQueueDepth = 256;
  shard::ShardRouter router(routerOptions);

  gateway::GatewayOptions gatewayOptions;
  gatewayOptions.address = shard::MakeWorkerAddress("bench-gw");
  auto gateway = gateway::Gateway::Start(
      [&router](const json::Json& request) { return router.Handle(request); },
      gatewayOptions);
  if (!gateway.ok()) {
    std::fprintf(stderr, "gateway start failed: %s\n",
                 gateway.error().ToText().c_str());
    return 1;
  }

  std::vector<ClientResult> results(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + kWindow;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(RunClient, gateway.value()->address(), deadline,
                         &results[c]);
  }
  for (std::thread& client : clients) client.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  gateway.value()->Stop();

  std::uint64_t total = 0;
  for (const ClientResult& result : results) {
    if (!result.error.empty()) {
      std::fprintf(stderr, "client failed: %s\n", result.error.c_str());
      return 1;
    }
    total += result.requests;
  }
  const double requestsPerSecond = static_cast<double>(total) / elapsed;

  std::printf("%-24s %10d\n", "concurrent clients", kClients);
  std::printf("%-24s %10llu\n", "requests completed",
              static_cast<unsigned long long>(total));
  std::printf("%-24s %10.2f s\n", "window", elapsed);
  std::printf("%-24s %10.0f req/s\n", "sustained throughput",
              requestsPerSecond);

  report.Set("requests_per_s", requestsPerSecond);
  report.Set("clients", static_cast<double>(kClients));
  // The throughput gate is core-bound like the shard speedup gate:
  // ci/check_bench.py skips it when hardware_cores < requires_cores.
  report.Set("hardware_cores",
             static_cast<double>(std::thread::hardware_concurrency()));
  return 0;
}
