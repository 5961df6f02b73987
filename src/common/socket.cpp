#include "common/socket.h"

#include <arpa/inet.h>
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <vector>

#include "common/strings.h"

namespace rvss::net {
namespace {

Error SysError(const std::string& what) {
  return Error{ErrorKind::kInternal, what + ": " + std::strerror(errno)};
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return SysError("fcntl(O_NONBLOCK)");
  }
  return Status::Ok();
}

/// Turns off Nagle's algorithm on a TCP socket. WriteFrame sends one
/// frame as 2-3 send(2) calls; with Nagle on, the kernel holds the body
/// back until the peer's delayed ACK fires, ~40 ms on every message.
/// Unix sockets have no Nagle and are left alone.
void SetNoDelay(int fd, int family) {
  if (family == AF_UNIX) return;
  const int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
}

/// Waits for `events` on `fd` within the deadline. Returns false on
/// timeout, an error on poll failure.
Result<bool> WaitFor(int fd, short events, const Deadline& deadline) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  while (true) {
    const int ready = ::poll(&pfd, 1, deadline.RemainingMs());
    if (ready > 0) return true;
    if (ready == 0) return false;  // timeout
    if (errno == EINTR) continue;
    return SysError("poll");
  }
}

struct ParsedAddress {
  bool isUnix = false;
  std::string path;  ///< unix socket path
  std::string host;  ///< tcp hostname, IPv4 literal or [IPv6] literal
  std::string port;  ///< tcp port, validated decimal
};

Result<ParsedAddress> ParseAddress(const std::string& address) {
  ParsedAddress parsed;
  if (address.rfind("unix:", 0) == 0) {
    parsed.isUnix = true;
    parsed.path = address.substr(5);
    if (parsed.path.empty()) {
      return Error{ErrorKind::kInvalidArgument,
                   "unix socket address needs a path: " + address};
    }
    if (parsed.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      return Error{ErrorKind::kInvalidArgument,
                   "unix socket path too long: " + parsed.path};
    }
    return parsed;
  }
  if (address.rfind("tcp:", 0) == 0) {
    const std::string rest = address.substr(4);
    std::string host;
    std::string portText;
    if (!rest.empty() && rest.front() == '[') {
      // Bracketed IPv6 literal: tcp:[::1]:8080. The brackets make the
      // host:port split unambiguous — bare IPv6 literals are rejected
      // below because every colon would be a plausible separator.
      const std::size_t closing = rest.find(']');
      if (closing == std::string::npos || closing + 1 >= rest.size() ||
          rest[closing + 1] != ':') {
        return Error{ErrorKind::kInvalidArgument,
                     "bracketed tcp address must be tcp:[HOST]:PORT, got " +
                         address};
      }
      host = rest.substr(1, closing - 1);
      portText = rest.substr(closing + 2);
    } else {
      const std::size_t colon = rest.rfind(':');
      if (colon == std::string::npos) {
        return Error{ErrorKind::kInvalidArgument,
                     "tcp address must be tcp:HOST:PORT, got " + address};
      }
      host = rest.substr(0, colon);
      portText = rest.substr(colon + 1);
      if (host.find(':') != std::string::npos) {
        return Error{ErrorKind::kInvalidArgument,
                     "IPv6 literals need brackets: tcp:[" + host + "]:" +
                         portText};
      }
    }
    const auto port = ParseInt(portText);
    if (!port.has_value() || *port < 0 || *port > 65535) {
      return Error{ErrorKind::kInvalidArgument,
                   "bad tcp port in " + address};
    }
    parsed.host = std::move(host);
    parsed.port = std::to_string(*port);
    return parsed;
  }
  return Error{ErrorKind::kInvalidArgument,
               "address must start with unix: or tcp:, got '" + address +
                   "'"};
}

/// One concrete endpoint a parsed address resolved to.
struct ResolvedAddress {
  int family = AF_UNSPEC;
  sockaddr_storage storage = {};
  socklen_t length = 0;
};

/// Resolves `parsed` to one or more endpoints. Unix paths resolve to
/// themselves; tcp hosts go through getaddrinfo, so hostnames and IPv6
/// literals work, and a dual-stack name yields every candidate in the
/// resolver's preference order. `forListen` requests passive (wildcard)
/// resolution of an empty host; an empty host on the connect side means
/// loopback. Note getaddrinfo may block on DNS — callers' deadlines
/// cover the socket operations that follow, not the lookup.
Result<std::vector<ResolvedAddress>> ResolveAddress(
    const ParsedAddress& parsed, bool forListen) {
  std::vector<ResolvedAddress> resolved;
  if (parsed.isUnix) {
    ResolvedAddress entry;
    entry.family = AF_UNIX;
    auto* addr = reinterpret_cast<sockaddr_un*>(&entry.storage);
    addr->sun_family = AF_UNIX;
    std::memcpy(addr->sun_path, parsed.path.c_str(), parsed.path.size() + 1);
    entry.length = static_cast<socklen_t>(sizeof(sockaddr_un));
    resolved.push_back(entry);
    return resolved;
  }
  struct addrinfo hints = {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV | (forListen ? AI_PASSIVE : 0);
  struct addrinfo* results = nullptr;
  const int status =
      ::getaddrinfo(parsed.host.empty() ? nullptr : parsed.host.c_str(),
                    parsed.port.c_str(), &hints, &results);
  if (status != 0) {
    return Error{ErrorKind::kInvalidArgument,
                 "cannot resolve tcp host '" + parsed.host +
                     "': " + ::gai_strerror(status)};
  }
  for (const addrinfo* info = results; info != nullptr;
       info = info->ai_next) {
    if (info->ai_addrlen > sizeof(sockaddr_storage)) continue;
    ResolvedAddress entry;
    entry.family = info->ai_family;
    std::memcpy(&entry.storage, info->ai_addr, info->ai_addrlen);
    entry.length = static_cast<socklen_t>(info->ai_addrlen);
    resolved.push_back(entry);
  }
  ::freeaddrinfo(results);
  if (resolved.empty()) {
    return Error{ErrorKind::kInvalidArgument,
                 "tcp host '" + parsed.host + "' resolved to no addresses"};
  }
  return resolved;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Socket> ListenOn(const std::string& address, int backlog) {
  RVSS_ASSIGN_OR_RETURN(const ParsedAddress parsed, ParseAddress(address));
  RVSS_ASSIGN_OR_RETURN(const std::vector<ResolvedAddress> candidates,
                        ResolveAddress(parsed, /*forListen=*/true));
  if (parsed.isUnix) {
    // Only a *stale* socket file (dead owner -> connect refused) may be
    // unlinked; silently hijacking a live worker's endpoint would strand
    // every session placed on it with no error at bind time.
    Socket probe(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (probe.valid() &&
        ::connect(probe.fd(),
                  reinterpret_cast<const sockaddr*>(&candidates[0].storage),
                  candidates[0].length) == 0) {
      return Error{ErrorKind::kInvalidArgument,
                   address + " is already served by a live process"};
    }
    ::unlink(parsed.path.c_str());
  }

  // Try each resolved endpoint in resolver order (a dual-stack hostname
  // yields both families); the first one that binds and listens wins.
  Error lastError{ErrorKind::kInternal, "no endpoint to bind"};
  for (const ResolvedAddress& candidate : candidates) {
    Socket socket(::socket(candidate.family, SOCK_STREAM, 0));
    if (!socket.valid()) {
      lastError = SysError("socket");
      continue;
    }
    if (!parsed.isUnix) {
      const int enable = 1;
      ::setsockopt(socket.fd(), SOL_SOCKET, SO_REUSEADDR, &enable,
                   sizeof(enable));
    }
    if (::bind(socket.fd(),
               reinterpret_cast<const sockaddr*>(&candidate.storage),
               candidate.length) < 0) {
      lastError = SysError("bind " + address);
      continue;
    }
    if (::listen(socket.fd(), backlog) < 0) {
      lastError = SysError("listen " + address);
      continue;
    }
    RVSS_RETURN_IF_ERROR(SetNonBlocking(socket.fd()));
    return socket;
  }
  return lastError;
}

Result<int> BoundPort(const Socket& listener) {
  // The listener may be AF_INET or AF_INET6: read into a storage big
  // enough for either and pull the port out of the right member (the
  // old sockaddr_in-only read returned garbage — flowinfo bytes — for
  // an IPv6 listener).
  sockaddr_storage storage = {};
  socklen_t length = sizeof(storage);
  if (::getsockname(listener.fd(), reinterpret_cast<sockaddr*>(&storage),
                    &length) < 0) {
    return SysError("getsockname");
  }
  switch (storage.ss_family) {
    case AF_INET:
      return static_cast<int>(
          ntohs(reinterpret_cast<const sockaddr_in*>(&storage)->sin_port));
    case AF_INET6:
      return static_cast<int>(
          ntohs(reinterpret_cast<const sockaddr_in6*>(&storage)->sin6_port));
    default:
      return Error{ErrorKind::kInvalidArgument,
                   "listener is not a TCP socket (family " +
                       std::to_string(storage.ss_family) + ")"};
  }
}

Result<Socket> AcceptOn(Socket& listener, int timeoutMs, int* acceptErrno) {
  if (acceptErrno != nullptr) *acceptErrno = 0;
  const Deadline deadline(timeoutMs);
  while (true) {
    RVSS_ASSIGN_OR_RETURN(const bool ready,
                          WaitFor(listener.fd(), POLLIN, deadline));
    if (!ready) {
      return Error{ErrorKind::kInternal, "accept timed out"};
    }
    sockaddr_storage peer = {};
    socklen_t peerLength = sizeof(peer);
    const int fd = ::accept(listener.fd(), reinterpret_cast<sockaddr*>(&peer),
                            &peerLength);
    if (fd >= 0) {
      Socket accepted(fd);
      RVSS_RETURN_IF_ERROR(SetNonBlocking(accepted.fd()));
      SetNoDelay(accepted.fd(), peer.ss_family);
      return accepted;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // shutdown(2) on a unix listener — how a server stops its accept
      // thread — leaves accept(2) answering EAGAIN while poll reports
      // POLLHUP: report the dead listener instead of spinning on it.
      struct pollfd pfd = {listener.fd(), POLLIN, 0};
      if (::poll(&pfd, 1, 0) <= 0 || (pfd.revents & POLLHUP) == 0) continue;
      errno = EINVAL;
    }
    // Everything else is reported, with errno preserved for the caller:
    // strerror text alone cannot be classified portably, and accept
    // loops must treat EMFILE very differently from EBADF.
    if (acceptErrno != nullptr) *acceptErrno = errno;
    return SysError("accept");
  }
}

bool IsTransientAcceptError(int acceptErrno) {
  switch (acceptErrno) {
    case ECONNABORTED:  // peer gave up during the handshake
    case EPROTO:        // protocol error on the aborted connection
    case EMFILE:        // this process is out of descriptors
    case ENFILE:        // the system is out of descriptors
    case ENOBUFS:
    case ENOMEM:
      return true;
    default:
      return false;
  }
}

namespace {

/// One non-blocking connect attempt to a single endpoint, bounded by the
/// shared deadline. On failure errno describes the reason.
Result<Socket> TryConnect(const ResolvedAddress& endpoint,
                          const Deadline& deadline) {
  Socket socket(::socket(endpoint.family, SOCK_STREAM, 0));
  if (!socket.valid()) return SysError("socket");
  RVSS_RETURN_IF_ERROR(SetNonBlocking(socket.fd()));
  SetNoDelay(socket.fd(), endpoint.family);

  if (::connect(socket.fd(),
                reinterpret_cast<const sockaddr*>(&endpoint.storage),
                endpoint.length) == 0) {
    return socket;
  }
  if (errno == EINPROGRESS) {
    RVSS_ASSIGN_OR_RETURN(const bool ready,
                          WaitFor(socket.fd(), POLLOUT, deadline));
    if (ready) {
      int error = 0;
      socklen_t errorLength = sizeof(error);
      if (::getsockopt(socket.fd(), SOL_SOCKET, SO_ERROR, &error,
                       &errorLength) == 0 &&
          error == 0) {
        return socket;
      }
      errno = error;
    } else {
      errno = ETIMEDOUT;
    }
  }
  const int connectErrno = errno;
  Error failure = SysError("connect");
  errno = connectErrno;  // callers classify retryability by errno
  return failure;
}

}  // namespace

Result<Socket> ConnectTo(const std::string& address, int timeoutMs) {
  RVSS_ASSIGN_OR_RETURN(const ParsedAddress parsed, ParseAddress(address));
  // Resolve once, outside the retry loop: the spawn race this loop
  // absorbs is about the peer binding late, not about DNS flapping.
  RVSS_ASSIGN_OR_RETURN(const std::vector<ResolvedAddress> candidates,
                        ResolveAddress(parsed, /*forListen=*/false));
  const Deadline deadline(timeoutMs);

  // A freshly forked worker may not have bound its socket yet, so a
  // refused/missing endpoint is retried until the deadline instead of
  // failing the first Call of every spawn. Each round tries every
  // resolved endpoint (v6 and v4 of a dual-stack name) before pausing:
  // a candidate failing hard (say, EAFNOSUPPORT for ::1 in an
  // IPv6-less container) must not stop the v4 candidate behind it from
  // being tried — the whole connect fails only when no candidate is
  // worth retrying.
  while (true) {
    int lastErrno = ECONNREFUSED;
    bool anyRetryable = false;
    for (const ResolvedAddress& candidate : candidates) {
      // Slice the remaining budget across the candidate list: a
      // blackholed endpoint (SYN silently dropped — EINPROGRESS that
      // never resolves) must time out on its share, not consume the
      // whole deadline and starve the candidates behind it. With an
      // unbounded deadline each candidate still gets a finite slice —
      // the outer loop retries the whole list forever, so "wait
      // forever" holds overall without any one endpoint hogging it.
      int slice = deadline.RemainingMs();
      if (candidates.size() > 1) {
        slice = slice < 0 ? 10'000
                          : std::max(slice / static_cast<int>(
                                                 candidates.size()),
                                     std::min(slice, 50));
      }
      const Deadline candidateDeadline(slice);
      auto connected = TryConnect(candidate, candidateDeadline);
      if (connected.ok()) return connected;
      lastErrno = errno;
      anyRetryable = anyRetryable || lastErrno == ECONNREFUSED ||
                     lastErrno == ENOENT || lastErrno == ETIMEDOUT ||
                     lastErrno == ENETUNREACH || lastErrno == EADDRNOTAVAIL;
    }
    if (!anyRetryable || deadline.Expired()) {
      errno = lastErrno;
      return SysError("connect " + address);
    }
    struct timespec pause = {0, 10'000'000};  // 10ms between attempts
    ::nanosleep(&pause, nullptr);
  }
}

Result<bool> WaitReadable(Socket& socket, int timeoutMs) {
  return WaitFor(socket.fd(), POLLIN, Deadline(timeoutMs));
}

Status SendAll(Socket& socket, std::string_view data, int timeoutMs) {
  const Deadline deadline(timeoutMs);
  std::size_t sent = 0;
  while (sent < data.size()) {
    // MSG_NOSIGNAL: a worker dying mid-write must surface as EPIPE, not
    // kill the router process with SIGPIPE.
    const ssize_t wrote = ::send(socket.fd(), data.data() + sent,
                                 data.size() - sent, MSG_NOSIGNAL);
    if (wrote > 0) {
      sent += static_cast<std::size_t>(wrote);
      continue;
    }
    if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      RVSS_ASSIGN_OR_RETURN(const bool ready,
                            WaitFor(socket.fd(), POLLOUT, deadline));
      if (!ready) {
        return Status::Fail(ErrorKind::kInternal, "send timed out");
      }
      continue;
    }
    if (wrote < 0 && errno == EINTR) continue;
    return SysError("send");
  }
  return Status::Ok();
}

Status RecvAll(Socket& socket, char* buffer, std::size_t size,
               int timeoutMs) {
  const Deadline deadline(timeoutMs);
  std::size_t received = 0;
  while (received < size) {
    const ssize_t got =
        ::recv(socket.fd(), buffer + received, size - received, 0);
    if (got > 0) {
      received += static_cast<std::size_t>(got);
      continue;
    }
    if (got == 0) {
      return Status::Fail(ErrorKind::kInternal,
                          "peer closed the connection mid-frame (" +
                              std::to_string(received) + " of " +
                              std::to_string(size) + " bytes)");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      RVSS_ASSIGN_OR_RETURN(const bool ready,
                            WaitFor(socket.fd(), POLLIN, deadline));
      if (!ready) {
        return Status::Fail(ErrorKind::kInternal, "recv timed out");
      }
      continue;
    }
    if (errno == EINTR) continue;
    return SysError("recv");
  }
  return Status::Ok();
}

}  // namespace rvss::net
