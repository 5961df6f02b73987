// The per-connection frame loop, and the worker's serving loop on top of it.
//
// ServeConnection is the one loop both frame servers run on each client
// connection — ServeFrames below (a worker: one router connection at a
// time) and gateway::Gateway (the front door: one thread per client):
//
//   * It idles indefinitely between requests; once a message's first
//     bytes arrive, WireOptions::ioTimeoutMs bounds the whole message,
//     so a client stalled mid-frame is dropped when the budget runs out.
//   * A JSON parse error inside an intact frame is answered with an
//     error response — the stream is still at a frame boundary — and the
//     connection lives on. A framing-level failure (bad magic, over-cap
//     length, truncated or timed-out read) closes the connection: the
//     byte stream can no longer be trusted.
//   * Everything else goes to the caller's handler, whose reply is
//     written back before the next request is read, so a connection's
//     requests execute in order, one at a time.
//   * Each caller passes its own counters (server.* or gateway.*), so
//     the fleet's merged metrics count every frame once.
//
// ServeFrames accepts one connection at a time on `listener` (the router
// holds exactly one connection per worker, so concurrency lives in the
// fleet, not in the worker) and answers it with SimServer::Handle until
// told to stop:
//
//   * A dropped connection (router restart, transport reconnect) simply
//     returns to accept, so the worker survives its clients.
//   * A transient accept failure — an aborted handshake (ECONNABORTED)
//     or descriptor exhaustion (EMFILE/ENFILE) — is counted, logged, and
//     retried (with a brief pause for exhaustion, which an immediate
//     retry would only spin on); see AcceptConnection. Only an
//     unrecoverable listener error (EBADF, EINVAL) ends the loop with its
//     error: losing one connection attempt must never cost the worker —
//     and every session it holds — its life.
//   * The out-of-band command {"command": "shutdownWorker"} is handled by
//     the loop itself, not the SimServer: it acknowledges with
//     {"status": "ok"} and returns, giving removeWorker and CLI teardown
//     a graceful exit that still flushes the response. Everything else,
//     the hello handshake included, goes to SimServer::Handle.
#pragma once

#include <functional>
#include <string_view>

#include "common/socket.h"
#include "common/status.h"
#include "obs/registry.h"
#include "server/api.h"
#include "server/wire.h"

namespace rvss::server {

/// The counters one server keeps for its connections.
struct FrameCounters {
  obs::Counter& frames;       ///< requests answered
  obs::Counter& frameErrors;  ///< malformed frames or JSON
};

/// Answers one request. Setting `stop` ends the connection once the
/// reply is written (ServeConnection then returns true).
using RequestHandler =
    std::function<json::Json(const json::Json& request, bool& stop)>;

/// Serves requests on `connection` until the peer leaves, a framing or
/// write error drops it (returns false), or the handler sets `stop`
/// (returns true).
bool ServeConnection(net::Socket& connection, const WireOptions& options,
                     const FrameCounters& counters,
                     const RequestHandler& handler);

/// Accepts the next connection on `listener`, retrying transient accept
/// failures: each is counted in `acceptErrors` and logged under `who`,
/// and exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM) pauses briefly before
/// the retry. Returns the listener's error once it is unrecoverable.
Result<net::Socket> AcceptConnection(net::Socket& listener,
                                     obs::Counter& acceptErrors,
                                     std::string_view who);

/// Serves `server` over `listener` until shutdownWorker arrives (returns
/// Ok) or the listener itself fails (returns the error).
Status ServeFrames(SimServer& server, net::Socket& listener,
                   const WireOptions& options = {});

}  // namespace rvss::server
