// The raw-frame serving loop: what a worker process runs.
//
// ServeFrames accepts one connection at a time on `listener` (the router
// holds exactly one connection per worker, so concurrency lives in the
// fleet, not in the worker) and answers server/wire.h messages with
// SimServer::Handle until told to stop:
//
//   * A malformed frame or JSON error produces an error response when the
//     connection can still be trusted (parse error with intact framing);
//     a framing-level failure (bad magic, over-cap length, truncated
//     read) closes the connection and returns to accept — the peer must
//     reconnect with a clean stream.
//   * A dropped connection (router restart, transport reconnect) simply
//     returns to accept, so the worker survives its clients.
//   * A transient accept failure — an aborted handshake (ECONNABORTED)
//     or descriptor exhaustion (EMFILE/ENFILE) — is counted in the
//     `server.acceptErrors` metric, logged, and retried (with a brief
//     pause for exhaustion, which an immediate retry would only spin
//     on). Only an unrecoverable listener error (EBADF, EINVAL) ends
//     the loop with its error: losing one connection attempt must never
//     cost the worker — and every session it holds — its life.
//   * The out-of-band command {"command": "shutdownWorker"} is handled by
//     the loop itself, not the SimServer: it acknowledges with
//     {"status": "ok"} and returns, giving removeWorker and CLI teardown
//     a graceful exit that still flushes the response. Everything else,
//     the hello handshake included, goes to SimServer::Handle.
#pragma once

#include "common/socket.h"
#include "common/status.h"
#include "server/api.h"
#include "server/wire.h"

namespace rvss::server {

/// Serves `server` over `listener` until shutdownWorker arrives (returns
/// Ok) or the listener itself fails (returns the error).
Status ServeFrames(SimServer& server, net::Socket& listener,
                   const WireOptions& options = {});

}  // namespace rvss::server
