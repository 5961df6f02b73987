// Worker transports: how the shard router reaches a worker.
//
// PR 3's router owned its workers as in-process SimServer objects; this
// interface splits "where the worker lives" from "what the router does
// with it". The router sees only Call(): one JSON request in, one JSON
// response out. Transport-level failures (dead process, timeout, bad
// frame) come back as errors — distinct from a worker's own JSON error
// responses, which are successful Calls whose payload says "error".
//
// Two implementations:
//
//   InProcessTransport  wraps a SimServer in this process; Call is a
//                       direct Handle() — the PR 3 behaviour, still the
//                       default and the baseline bench_shard measures.
//   SocketTransport     speaks server/wire.h frames over a unix-domain or
//                       TCP socket to an rvss worker process. Connects
//                       lazily, performs the hello handshake on every
//                       fresh connection (refusing workers whose frame
//                       version, snapshot format version or config hash
//                       differ — see server/wire.h), reconnects after a
//                       failure on the next Call (so a restarted worker
//                       heals the slot), and fails closed: a request
//                       whose response never arrived is reported as an
//                       error, never retried blindly (it may have
//                       executed). One Call is one frame; the worker's
//                       lane (shard/lane.h) lets one caller in at a time.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/socket.h"
#include "common/status.h"
#include "json/json.h"
#include "obs/registry.h"
#include "server/api.h"
#include "server/wire.h"

namespace rvss::shard {

class WorkerTransport {
 public:
  virtual ~WorkerTransport() = default;

  /// Dispatches one request and returns the worker's response. An error
  /// means the transport failed — the worker may or may not have seen
  /// the request; the caller must fail closed (report, don't assume).
  virtual Result<json::Json> Call(const json::Json& request) = 0;

  /// Dispatches `requests` in order and returns one result per request,
  /// index-aligned, by looping Call(). Nothing in src/ calls it; it stays
  /// because the end-to-end benchmark's transport decorator overrides it.
  virtual std::vector<Result<json::Json>> CallBatch(
      const std::vector<const json::Json*>& requests) {
    std::vector<Result<json::Json>> results;
    results.reserve(requests.size());
    for (const json::Json* request : requests) {
      results.push_back(Call(*request));
    }
    return results;
  }

  /// Nothing in src/ calls it: every peer that passes the hello
  /// handshake decodes delta session blobs (see ShardRouter::Options::
  /// deltaBlobs). It stays because the end-to-end benchmark's transport
  /// decorator overrides it.
  virtual bool SupportsDeltaBlobs() const { return false; }

  /// Human-readable endpoint for logs and workerStats ("in-process",
  /// "unix:/tmp/rvss-w0.sock").
  virtual std::string Describe() const = 0;

  /// The wrapped SimServer for in-process transports; nullptr over a
  /// socket. Tests and embedders use this for white-box checks.
  virtual server::SimServer* LocalServer() { return nullptr; }
};

/// PR 3's in-process worker, behind the transport interface.
class InProcessTransport : public WorkerTransport {
 public:
  explicit InProcessTransport(const server::SimServer::Limits& limits)
      : server_(std::make_unique<server::SimServer>(limits)) {}

  Result<json::Json> Call(const json::Json& request) override {
    static obs::Counter& calls =
        obs::Registry::Instance().GetCounter("shard.transport.inproc.calls");
    static obs::Histogram& callUs =
        obs::Registry::Instance().GetHistogram(
            "shard.transport.inproc.callUs");
    calls.Increment();
    obs::ScopedLatency timer(callUs);
    return server_->Handle(request);
  }
  std::string Describe() const override { return "in-process"; }
  server::SimServer* LocalServer() override { return server_.get(); }

 private:
  std::unique_ptr<server::SimServer> server_;
};

struct SocketTransportOptions {
  /// Budget for establishing a connection (includes the bind race of a
  /// freshly spawned worker, retried inside ConnectTo).
  int connectTimeoutMs = 5'000;
  /// Per-call I/O deadline (request write + response read). Generous:
  /// a drain moves multi-MiB blobs and the worker simulates in between.
  int ioTimeoutMs = 60'000;
  std::size_t maxFrameBytes = net::kDefaultMaxFrameBytes;
};

class SocketTransport : public WorkerTransport {
 public:
  explicit SocketTransport(std::string address,
                           SocketTransportOptions options = {});

  /// One frame per call: writes the request — reconnecting and writing
  /// it once more only if the write failed, since the worker drops an
  /// incomplete frame unexecuted — then reads the response. A failed
  /// read fails closed as kInternal: the request may have executed.
  Result<json::Json> Call(const json::Json& request) override;
  std::string Describe() const override { return address_; }

  const std::string& address() const { return address_; }

 private:
  Status EnsureConnected();

  std::string address_;
  SocketTransportOptions options_;
  server::WireOptions wire_;  ///< options_' deadline and frame cap
  /// No lock: only one thread at a time calls in — the holder of the
  /// turn on the worker's lane, or a fleet operation that quiesced the
  /// lane behind a closed gate (or built no lane yet). The lane's mutex
  /// orders each holder's calls after the previous holder's.
  net::Socket connection_;
};

}  // namespace rvss::shard
