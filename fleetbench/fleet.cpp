#include "fleet.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#include <utility>

namespace fleetbench {
namespace {

namespace shard = rvss::shard;
using rvss::json::Json;

double ElapsedUs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Times every call into the wrapped transport while tracing is on. A
/// batch is one pipelined round trip, so each request in it is charged an
/// equal share of the batch's time.
class TimedTransport final : public shard::WorkerTransport {
 public:
  TimedTransport(std::shared_ptr<shard::WorkerTransport> inner, Trace* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  Result<Json> Call(const Json& request) override {
    if (!trace_->enabled.load(std::memory_order_relaxed)) {
      return inner_->Call(request);
    }
    const auto start = std::chrono::steady_clock::now();
    Result<Json> response = inner_->Call(request);
    trace_->transport.Record(request.GetString("command", ""),
                             ElapsedUs(start));
    return response;
  }

  std::vector<Result<Json>> CallBatch(
      const std::vector<const Json*>& requests) override {
    if (!trace_->enabled.load(std::memory_order_relaxed)) {
      return inner_->CallBatch(requests);
    }
    const auto start = std::chrono::steady_clock::now();
    std::vector<Result<Json>> responses = inner_->CallBatch(requests);
    const double shareUs =
        ElapsedUs(start) / static_cast<double>(requests.size());
    for (const Json* request : requests) {
      trace_->transport.Record(request->GetString("command", ""), shareUs);
    }
    return responses;
  }

  bool SupportsDeltaBlobs() const override {
    return inner_->SupportsDeltaBlobs();
  }
  std::string Describe() const override { return inner_->Describe(); }

 private:
  std::shared_ptr<shard::WorkerTransport> inner_;
  Trace* trace_;
};

}  // namespace

void Spans::Record(std::string_view command, double us) {
  rvss::MutexLock lock(mutex_);
  auto it = totals_.find(command);
  if (it == totals_.end()) {
    it = totals_.emplace(std::string(command), Total{}).first;
  }
  ++it->second.count;
  it->second.sumUs += us;
}

Spans::Total Spans::Get(std::string_view command) const {
  rvss::MutexLock lock(mutex_);
  auto it = totals_.find(command);
  return it == totals_.end() ? Total{} : it->second;
}

Result<std::unique_ptr<Fleet>> Fleet::Start(const std::string& runDir,
                                            int generation, Trace* trace) {
  std::unique_ptr<Fleet> fleet(new Fleet());
  const std::string prefix =
      "unix:" + runDir + "/g" + std::to_string(generation) + "-";
  std::vector<std::string> addresses;
  for (std::size_t i = 0; i < kWorkers; ++i) {
    addresses.push_back(prefix + "w" + std::to_string(i) + ".sock");
    RVSS_ASSIGN_OR_RETURN(shard::SpawnedWorker worker,
                          shard::SpawnWorkerProcess(addresses.back()));
    fleet->workers_.push_back(worker);
  }

  // The options `rvss --gateway` sets, over the pre-forked workers.
  shard::ShardRouter::Options options;
  options.workerCount = kWorkers;
  options.maxLaneQueueDepth = 128;
  options.transportFactory =
      [addresses, trace](std::size_t worker,
                         const rvss::server::SimServer::Limits&)
      -> Result<std::shared_ptr<shard::WorkerTransport>> {
    auto socket = std::make_shared<shard::SocketTransport>(addresses[worker]);
    if (trace == nullptr) {
      return std::shared_ptr<shard::WorkerTransport>(std::move(socket));
    }
    return std::shared_ptr<shard::WorkerTransport>(
        std::make_shared<TimedTransport>(std::move(socket), trace));
  };
  fleet->router_ = std::make_unique<shard::ShardRouter>(options);

  shard::ShardRouter* router = fleet->router_.get();
  rvss::gateway::Gateway::Handler handler =
      [router](const Json& request) { return router->Handle(request); };
  if (trace != nullptr) {
    handler = [router, trace](const Json& request) {
      if (!trace->enabled.load(std::memory_order_relaxed)) {
        return router->Handle(request);
      }
      const auto start = std::chrono::steady_clock::now();
      Json response = router->Handle(request);
      trace->handler.Record(request.GetString("command", ""),
                            ElapsedUs(start));
      return response;
    };
  }
  rvss::gateway::GatewayOptions gatewayOptions;
  gatewayOptions.address = prefix + "gw.sock";
  RVSS_ASSIGN_OR_RETURN(
      fleet->gateway_,
      rvss::gateway::Gateway::Start(std::move(handler), gatewayOptions));
  return fleet;
}

Fleet::~Fleet() { Stop(); }

std::uint64_t Fleet::Stop() {
  if (gateway_ != nullptr) {
    gateway_->Stop();
    ::unlink(gateway_->address().substr(5).c_str());
  }
  gateway_.reset();
  router_.reset();
  for (const shard::SpawnedWorker& worker : workers_) {
    ::kill(worker.pid, SIGKILL);
    int status = 0;
    struct rusage usage {};
    while (::wait4(worker.pid, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    workerPeakKib_ += static_cast<std::uint64_t>(usage.ru_maxrss);
    ::unlink(worker.address.substr(5).c_str());  // strip "unix:"
  }
  workers_.clear();
  return workerPeakKib_;
}

}  // namespace fleetbench
