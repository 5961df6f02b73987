// The production request path, stood up in the orchestrator shape that
// src/shard/worker.h documents: worker processes are forked first, while
// this process is still single-threaded, and only then does a ShardRouter
// (over SocketTransports) and a Gateway start their threads.
//
// The benchmark deliberately does not use MakeSpawningTransportFactory,
// the shape `rvss --gateway --spawn-workers` uses. There the router's
// constructor starts worker i's lane thread before it forks worker i+1,
// and in 4 of 10 fresh processes worker 1 blocked forever in futex on the
// static-init guard of obs::Registry::Instance() inherited mid-acquire
// from the parent (forking every worker before any thread started hung in
// 0 of 10). That defect is recorded in NOTES.md for a later fix; the
// benchmark neither pre-initialises obs nor retries to hide it.
//
// Tracing times calls into each layer's public functions from here only:
// a Gateway::Handler wrapper around ShardRouter::Handle and a
// WorkerTransport decorator around each SocketTransport, installed through
// ShardRouter::Options::transportFactory. Both record nothing until
// Trace::enabled is set; untraced windows of a traced run pay one relaxed
// atomic load per call.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "gateway/gateway.h"
#include "shard/router.h"
#include "shard/worker.h"

namespace fleetbench {

using rvss::Result;
using rvss::Status;

/// Per-command sums of one span kind, recorded from many threads.
class Spans {
 public:
  struct Total {
    std::uint64_t count = 0;
    double sumUs = 0;
    double MeanUs() const { return count == 0 ? 0.0 : sumUs / count; }
  };

  void Record(std::string_view command, double us) EXCLUDES(mutex_);
  Total Get(std::string_view command) const EXCLUDES(mutex_);

 private:
  mutable rvss::Mutex mutex_;
  std::map<std::string, Total, std::less<>> totals_ GUARDED_BY(mutex_);
};

struct Trace {
  std::atomic<bool> enabled{false};
  Spans handler;    ///< Gateway::Handler -> ShardRouter::Handle
  Spans transport;  ///< WorkerTransport::Call / CallBatch, every worker
};

class Fleet {
 public:
  static constexpr std::size_t kWorkers = 2;

  /// Forks the workers (the caller must have no other threads), then
  /// starts the router and the gateway. Socket files go under `runDir`,
  /// named by `generation` so successive fleets never share an address.
  /// With a non-null `trace` the handler wrapper and transport decorators
  /// are installed.
  static Result<std::unique_ptr<Fleet>> Start(const std::string& runDir,
                                              int generation, Trace* trace);

  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  const std::string& address() const { return gateway_->address(); }

  /// Stops the gateway and router (joining their threads), then kills and
  /// reaps every worker and removes the socket files. Returns the summed
  /// peak resident set of the workers in KiB. Idempotent.
  std::uint64_t Stop();

 private:
  Fleet() = default;

  std::vector<rvss::shard::SpawnedWorker> workers_;
  std::unique_ptr<rvss::shard::ShardRouter> router_;
  std::unique_ptr<rvss::gateway::Gateway> gateway_;
  std::uint64_t workerPeakKib_ = 0;
};

}  // namespace fleetbench
