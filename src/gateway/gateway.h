// The front-door gateway: one epoll loop multiplexing many client
// connections onto a shard fleet.
//
// Workers hold exactly one connection each (the router's transport), and
// the frame loop a worker runs (server/frame_loop.h) serves exactly one
// connection at a time — fine for the fleet's internals, useless as a
// front door: a classroom of browsers, or a bench with 64 concurrent
// clients, needs thousands of sockets feeding one router. The gateway is
// that front door:
//
//   * One I/O thread owns an epoll set (level-triggered) with every
//     accepted connection non-blocking. All per-connection state — read
//     buffer, write buffer, in-flight bookkeeping, session quota — lives
//     on that thread; no per-connection locks exist.
//   * Frames are the same length-prefixed wire format workers speak
//     (common/framing.h, assembled/split exactly as server/wire.h does),
//     so a client library talks to a gateway or a worker identically.
//     Partial frames are first-class: the read buffer accumulates until
//     a full frame is present, the write buffer drains as EPOLLOUT
//     allows — a slow or dribbling client costs its own connection
//     memory, never a thread and never another client's latency.
//   * Parsed requests are handed to a dispatcher pool that calls the
//     (blocking) Handler — in production shard::ShardRouter::Handle,
//     whose lanes fan the work across workers. Completions return to the
//     I/O thread over an eventfd. One request per connection is in
//     flight at a time; frames pipelined behind it wait buffered, so a
//     connection's requests execute in order.
//
// Admission control, all answered with retryable kUnavailable errors
// rather than queueing without bound (the ErrorKind exists for exactly
// this: the client may retry, nothing was executed):
//
//   * connection cap — accepts beyond maxConnections are closed on
//     arrival; at descriptor exhaustion (EMFILE) the listener is parked
//     (removed from the epoll set) and resumed when a connection closes,
//     so the loop never spins on an accept it cannot complete.
//   * per-connection session quota — createSession/importSession beyond
//     maxSessionsPerConnection is refused at the gateway; the quota is
//     released by deleteSession (or the connection closing — though
//     sessions themselves outlive connections; clients reattach by id).
//   * dispatch backpressure — a full dispatcher queue sheds the request
//     immediately (gateway.shed). Worker-lane depth caps (the router's
//     maxLaneQueueDepth) shed deeper overload the same way.
//
// Frame-level garbage (bad magic, over-cap lengths) closes the
// connection — the byte stream cannot be trusted past it. JSON-level
// garbage gets an error response and the connection lives on, exactly
// like the worker frame loop. {"command":"shutdownGateway"} is answered
// inline by the I/O thread: it acknowledges and stops the gateway (the
// out-of-band teardown used by the CLI and tests, mirroring the workers'
// shutdownWorker). Every other command, hello included, goes through the
// Handler, so under overload it can be shed like any request.
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
  /// Accepted connections beyond this are closed on arrival (counted in
  /// gateway.rejectedConnections).
  std::size_t maxConnections = 1024;
  /// createSession/importSession quota per connection; exceeding it is
  /// refused with kUnavailable before reaching the fleet.
  std::size_t maxSessionsPerConnection = 16;
  /// Dispatcher threads calling the Handler. More than the worker count
  /// buys nothing once every lane is busy; the default suits small test
  /// fleets and the CI bench alike.
  std::size_t dispatchThreads = 8;
  /// Requests waiting for a dispatcher beyond this are load-shed.
  std::size_t maxDispatchQueue = 256;
  /// While a connection has a request in flight, additional buffered
  /// request bytes beyond this stop being read (EPOLLIN parked) until
  /// the response goes out — a pipelining client cannot buffer
  /// unboundedly. A connection with nothing in flight may always buffer
  /// one full frame (up to wire.maxFrameBytes).
  std::size_t maxPipelineBufferBytes = 64 * 1024;
  /// Frame caps shared with the wire codec (ioTimeoutMs is unused here:
  /// the gateway never blocks on a socket).
  server::WireOptions wire;
};

class Gateway {
 public:
  /// The request handler, called from dispatcher threads — must be
  /// thread-safe and may block (shard::ShardRouter::Handle is both).
  using Handler = std::function<json::Json(const json::Json&)>;

  /// Binds `options.address`, spawns the I/O thread and the dispatcher
  /// pool, and starts serving. Fails if the address cannot be bound.
  static Result<std::unique_ptr<Gateway>> Start(Handler handler,
                                                GatewayOptions options);

  ~Gateway();
  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// The bound listen address — options.address with a tcp port of 0
  /// resolved to the real port.
  const std::string& address() const { return address_; }

  /// Blocks until the gateway stops: shutdownGateway arrived, Stop() was
  /// called, or the I/O loop failed. Returns the loop's final status.
  Status Wait();

  /// Stops the loop, closes every connection and joins all threads.
  /// Idempotent; the destructor calls it.
  void Stop();

 private:
  class Impl;
  explicit Gateway(std::unique_ptr<Impl> impl);

  std::string address_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rvss::gateway
