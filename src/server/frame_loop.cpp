#include "server/frame_loop.h"

#include <cerrno>
#include <cstdio>
#include <ctime>
#include <utility>

namespace rvss::server {

bool ServeConnection(net::Socket& connection, const WireOptions& options,
                     const FrameCounters& counters,
                     const RequestHandler& handler) {
  while (true) {
    // Idle indefinitely between requests; options.ioTimeoutMs bounds the
    // message read only once its first bytes arrive.
    auto readable = net::WaitReadable(connection, net::kNoTimeout);
    if (!readable.ok() || !readable.value()) return false;
    auto request = ReadMessage(connection, options);
    if (!request.ok()) {
      counters.frameErrors.Increment();
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
    bool stop = false;
    json::Json response = handler(request.value(), stop);
    if (!WriteMessage(connection, std::move(response), options).ok()) {
      return stop;  // peer vanished; nothing left to tell it
    }
    counters.frames.Increment();
    if (stop) return true;
  }
}

Result<net::Socket> AcceptConnection(net::Socket& listener,
                                     obs::Counter& acceptErrors,
                                     std::string_view who) {
  while (true) {
    int acceptErrno = 0;
    auto connection = net::AcceptOn(listener, net::kNoTimeout, &acceptErrno);
    if (connection.ok() || !net::IsTransientAcceptError(acceptErrno)) {
      // A broken listener (EBADF, EINVAL: nothing a retry could fix)
      // ends the caller's loop.
      return connection;
    }
    // A transient accept failure loses one connection attempt, never the
    // server: an aborted handshake (ECONNABORTED) or descriptor
    // exhaustion (EMFILE under a client flood) must not end the serve
    // loop — and with it every session a worker holds. Count it, say so,
    // and go back to accept.
    acceptErrors.Increment();
    std::fprintf(stderr, "rvss %.*s: transient accept failure: %s\n",
                 static_cast<int>(who.size()), who.data(),
                 connection.error().message.c_str());
    if (acceptErrno != ECONNABORTED && acceptErrno != EPROTO) {
      // Exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM) needs descriptors to
      // free up; an immediate retry would spin at 100% CPU on the
      // still-readable listener. Back off briefly instead.
      struct timespec pause = {0, 10'000'000};  // 10ms
      ::nanosleep(&pause, nullptr);
    }
  }
}

Status ServeFrames(SimServer& server, net::Socket& listener,
                   const WireOptions& options) {
  obs::Registry& registry = obs::Registry::Instance();
  obs::Counter& acceptErrors = registry.GetCounter("server.acceptErrors");
  const FrameCounters counters{registry.GetCounter("server.framesServed"),
                               registry.GetCounter("server.frameErrors")};
  const RequestHandler handle = [&server](const json::Json& request,
                                          bool& stop) {
    if (CommandOf(request) != Command::kShutdownWorker) {
      return server.Handle(request);
    }
    stop = true;
    json::Json response = OkResponse();
    response.Set("shutdown", true);
    return response;
  };
  while (true) {
    auto connection = AcceptConnection(listener, acceptErrors, "worker");
    if (!connection.ok()) return connection.status();
    if (ServeConnection(connection.value(), options, counters, handle)) {
      return Status::Ok();
    }
  }
}

}  // namespace rvss::server
