// The front-door gateway: many client connections onto one shard fleet.
//
// Workers hold exactly one connection each (the router's transport), and
// the frame loop a worker runs (server/frame_loop.h) serves exactly one
// connection at a time — right for the fleet's internals, not for a
// front door: a classroom of browsers, or a bench with 64 concurrent
// clients, needs many sockets feeding one router. The gateway is that
// front door, built on the same per-connection loop:
//
//   * An accept thread admits connections and starts one thread per
//     connection, up to maxConnections — so the cap bounds threads too.
//     Each connection thread runs server::ServeConnection: frames are
//     the same length-prefixed wire format workers speak, so a client
//     library talks to a gateway or a worker identically.
//   * A connection thread calls the (blocking) Handler — in production
//     shard::ShardRouter::Handle, whose lanes fan the work across
//     workers — and writes the reply before reading the next frame, so a
//     connection has at most one request in flight and its requests
//     execute in order. Handler concurrency is bounded by the connection
//     count.
//   * An idle connection costs a parked thread; a client that stalls
//     mid-frame (or stops reading a reply) is dropped once
//     wire.ioTimeoutMs runs out. A connection that ends releases its
//     thread and descriptor at once.
//
// Admission control, all answered with retryable kUnavailable errors or
// a close rather than queueing without bound (the ErrorKind exists for
// exactly this: the client may retry, nothing was executed):
//
//   * connection cap — accepts beyond maxConnections are closed on
//     arrival.
//   * per-connection session quota — createSession/importSession beyond
//     maxSessionsPerConnection is refused at the gateway; the quota is
//     released by deleteSession (or the connection closing — though
//     sessions themselves outlive connections; clients reattach by id).
//   * worker-lane depth caps (the router's maxLaneQueueDepth) shed
//     deeper overload.
//
// Frame-level garbage (bad magic, over-cap lengths) closes the
// connection — the byte stream cannot be trusted past it. JSON-level
// garbage gets an error response and the connection lives on, exactly
// like the worker frame loop. {"command":"shutdownGateway"} is answered
// by the connection thread itself: it acknowledges and stops the gateway
// (the out-of-band teardown used by the CLI and tests, mirroring the
// workers' shutdownWorker). Every other command, hello included, goes
// through the Handler.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "json/json.h"
#include "server/wire.h"

namespace rvss::gateway {

struct GatewayOptions {
  /// Listen address (unix:/path or tcp:HOST:PORT; tcp port 0 works —
  /// read the bound address back from Gateway::address()).
  std::string address;
  /// Connections (and so connection threads) served at once; accepts
  /// beyond this are closed on arrival (gateway.rejectedConnections).
  std::size_t maxConnections = 1024;
  /// createSession/importSession quota per connection; exceeding it is
  /// refused with kUnavailable before reaching the fleet.
  std::size_t maxSessionsPerConnection = 16;
  /// Frame cap and the per-message read/write deadline a connection
  /// gets once a frame has started.
  server::WireOptions wire;
};

class Gateway {
 public:
  /// The request handler, called from connection threads — must be
  /// thread-safe and may block (shard::ShardRouter::Handle is both).
  using Handler = std::function<json::Json(const json::Json&)>;

  /// Binds `options.address`, spawns the accept thread, and starts
  /// serving. Fails if the address cannot be bound.
  static Result<std::unique_ptr<Gateway>> Start(Handler handler,
                                                GatewayOptions options);

  ~Gateway();
  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// The bound listen address — options.address with a tcp port of 0
  /// resolved to the real port.
  const std::string& address() const { return address_; }

  /// Blocks until the gateway stops: shutdownGateway arrived, Stop() was
  /// called, or the listener failed. Returns the accept loop's status.
  Status Wait();

  /// Stops accepting, wakes every connection thread (closing its
  /// connection) and joins all threads. Idempotent; the destructor
  /// calls it.
  void Stop();

 private:
  class Impl;
  explicit Gateway(std::unique_ptr<Impl> impl);

  std::string address_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rvss::gateway
