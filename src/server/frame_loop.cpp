#include "server/frame_loop.h"

#include <cerrno>
#include <cstdio>
#include <ctime>
#include <utility>

#include "obs/registry.h"

namespace rvss::server {
namespace {

/// Serves one connection. Returns true when the loop should stop
/// entirely (shutdownWorker), false to go back to accept.
bool ServeConnection(SimServer& server, net::Socket& connection,
                     const WireOptions& options) {
  obs::Registry& registry = obs::Registry::Instance();
  obs::Counter& framesServed =
      registry.GetCounter("server.framesServed");
  obs::Counter& frameErrors = registry.GetCounter("server.frameErrors");
  while (true) {
    // Idle indefinitely between requests; options.ioTimeoutMs bounds the
    // message read only once its first bytes arrive.
    auto readable = net::WaitReadable(connection, net::kNoTimeout);
    if (!readable.ok() || !readable.value()) return false;
    auto request = ReadMessage(connection, options);
    if (!request.ok()) {
      frameErrors.Increment();
      if (request.error().kind == ErrorKind::kParse) {
        // The frame was intact, only its JSON was malformed: the stream
        // is still at a frame boundary, so answer with an error.
        if (WriteMessage(connection, MakeErrorResponse(request.error()),
                         options)
                .ok()) {
          continue;
        }
      }
      // Framing/stream-level failure: we may be mid-frame, so the byte
      // stream can no longer be trusted — drop the connection.
      return false;
    }
    const bool shutdown =
        CommandOf(request.value()) == Command::kShutdownWorker;
    json::Json response =
        shutdown ? OkResponse() : server.Handle(request.value());
    if (shutdown) response.Set("shutdown", true);
    if (!WriteMessage(connection, std::move(response), options).ok()) {
      return shutdown;  // peer vanished; nothing left to tell it
    }
    framesServed.Increment();
    if (shutdown) return true;
  }
}

}  // namespace

Status ServeFrames(SimServer& server, net::Socket& listener,
                   const WireOptions& options) {
  obs::Counter& acceptErrors =
      obs::Registry::Instance().GetCounter("server.acceptErrors");
  while (true) {
    int acceptErrno = 0;
    auto connection = net::AcceptOn(listener, net::kNoTimeout, &acceptErrno);
    if (!connection.ok()) {
      // A transient accept failure loses one connection attempt, never
      // the worker: an aborted handshake (ECONNABORTED) or descriptor
      // exhaustion (EMFILE under a client flood) used to kill the serve
      // loop here — and with it every session the worker held. Count it,
      // say so, and go back to accept; only a broken listener (EBADF,
      // EINVAL: nothing a retry could fix) still ends the loop.
      if (net::IsTransientAcceptError(acceptErrno)) {
        acceptErrors.Increment();
        std::fprintf(stderr, "rvss worker: transient accept failure: %s\n",
                     connection.error().message.c_str());
        if (acceptErrno != ECONNABORTED && acceptErrno != EPROTO) {
          // Exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM) needs descriptors
          // to free up; an immediate retry would spin at 100% CPU on the
          // still-readable listener. Back off briefly instead.
          struct timespec pause = {0, 10'000'000};  // 10ms
          ::nanosleep(&pause, nullptr);
        }
        continue;
      }
      return connection.status();
    }
    if (ServeConnection(server, connection.value(), options)) {
      return Status::Ok();
    }
  }
}

}  // namespace rvss::server
