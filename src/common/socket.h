// Minimal POSIX socket helpers for the cross-process shard transport.
//
// Addresses are strings so they travel through JSON commands and CLI
// flags unchanged:
//
//   unix:/path/to/worker.sock    Unix-domain stream socket
//   tcp:HOST:PORT                TCP — HOST is a hostname (resolved via
//                                getaddrinfo), an IPv4 literal, or a
//                                bracketed IPv6 literal (tcp:[::1]:80).
//                                An empty HOST listens on the wildcard
//                                address and connects to loopback.
//
// Every operation that can block takes a millisecond deadline and returns
// a Status/Result instead of hanging: sockets run non-blocking internally
// and each call polls with the remaining budget. A timeout, a peer close,
// and a refused connection are all ordinary errors the transport layer
// turns into fail-closed router responses — nothing here throws or aborts.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <string_view>

#include "common/status.h"

namespace rvss::net {

/// Waits forever (use for worker accept loops, never for router calls).
inline constexpr int kNoTimeout = -1;

/// A fixed millisecond budget shared across several blocking operations:
/// each one polls with RemainingMs(), so the total never exceeds the
/// budget no matter how the peer dribbles bytes. Negative = unbounded.
class Deadline {
 public:
  explicit Deadline(int timeoutMs)
      : unbounded_(timeoutMs < 0),
        end_(std::chrono::steady_clock::now() +
             std::chrono::milliseconds(timeoutMs < 0 ? 0 : timeoutMs)) {}

  /// Remaining budget in ms for poll(): -1 when unbounded, 0 once
  /// expired (operations then fail unless data is already pending).
  int RemainingMs() const {
    if (unbounded_) return -1;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        end_ - std::chrono::steady_clock::now());
    return left.count() <= 0 ? 0 : static_cast<int>(left.count());
  }

  bool Expired() const {
    return !unbounded_ && std::chrono::steady_clock::now() >= end_;
  }

 private:
  bool unbounded_;
  std::chrono::steady_clock::time_point end_;
};

/// RAII file-descriptor owner, move-only.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Close();

 private:
  int fd_ = -1;
};

/// Binds and listens on `address`. A stale unix-socket file from a dead
/// process is unlinked first, so restarting a worker on the same address
/// works. TCP may bind port 0; read the real port with BoundPort.
Result<Socket> ListenOn(const std::string& address, int backlog = 8);

/// The locally bound port of a TCP listener (for tcp:...:0 binds).
/// Works for both IPv4 and IPv6 listeners; an error for unix sockets.
Result<int> BoundPort(const Socket& listener);

/// Accepts one connection, waiting up to `timeoutMs` (kNoTimeout blocks).
/// EINTR/EAGAIN are absorbed internally. On failure, `acceptErrno` (when
/// non-null) receives the errno of the failed accept(2) — 0 for a
/// timeout — so callers can tell transient exhaustion (ECONNABORTED,
/// EMFILE, ENFILE, ENOBUFS) apart from a dead listener (EBADF, EINVAL)
/// without parsing the error message. A listener stopped with
/// shutdown(2) fails with EINVAL. Accepted TCP sockets have TCP_NODELAY
/// set, like ConnectTo's: the wire codec writes each frame in pieces.
Result<Socket> AcceptOn(Socket& listener, int timeoutMs,
                        int* acceptErrno = nullptr);

/// True when `acceptErrno` (from AcceptOn) names a transient condition —
/// the connection that failed is gone, but the listener is healthy and
/// the next accept may succeed: aborted handshakes (ECONNABORTED,
/// EPROTO) and resource exhaustion (EMFILE, ENFILE, ENOBUFS, ENOMEM).
/// False for listener-is-broken errors, where retrying would spin.
bool IsTransientAcceptError(int acceptErrno);

/// Connects to `address` within `timeoutMs`. Retries refused connections
/// until the deadline, covering the race where a freshly spawned worker
/// has not bound its socket yet. TCP connections get TCP_NODELAY.
Result<Socket> ConnectTo(const std::string& address, int timeoutMs);

/// Waits until `socket` has readable data (or EOF) within `timeoutMs`.
/// Returns false on timeout. Lets a server idle on a connection forever
/// while still bounding each message read once bytes start arriving.
Result<bool> WaitReadable(Socket& socket, int timeoutMs);

/// Writes all of `data` within `timeoutMs`.
Status SendAll(Socket& socket, std::string_view data, int timeoutMs);

/// Reads exactly `size` bytes within `timeoutMs`. EOF before `size` bytes
/// is an error ("peer closed the connection mid-frame").
Status RecvAll(Socket& socket, char* buffer, std::size_t size, int timeoutMs);

}  // namespace rvss::net
