#include "gateway/gateway.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/framing.h"
#include "common/socket.h"
#include "common/sync.h"
#include "obs/registry.h"
#include "server/api.h"
#include "server/commands.h"

namespace rvss::gateway {
namespace {

/// Sentinel epoll cookies for the two non-connection descriptors;
/// connection ids start above them.
constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kEventTag = 1;
constexpr std::uint64_t kFirstConnectionId = 2;

json::Json UnavailableError(std::string message) {
  return server::MakeErrorResponse(
      Error{ErrorKind::kUnavailable, std::move(message)});
}

/// All gateway metrics, resolved once. Counters/gauges are always-on
/// (functional load signals, like the lane stats); only the per-command
/// latency split is gated on obs::Enabled().
struct Metrics {
  obs::Registry& registry = obs::Registry::Instance();
  obs::Gauge& connections = registry.GetGauge("gateway.connections");
  obs::Gauge& inFlight = registry.GetGauge("gateway.inFlight");
  obs::Counter& accepted = registry.GetCounter("gateway.accepted");
  obs::Counter& acceptErrors = registry.GetCounter("gateway.acceptErrors");
  obs::Counter& rejectedConnections =
      registry.GetCounter("gateway.rejectedConnections");
  obs::Counter& quotaRejections =
      registry.GetCounter("gateway.quotaRejections");
  obs::Counter& shed = registry.GetCounter("gateway.shed");
  obs::Counter& frames = registry.GetCounter("gateway.frames");
  obs::Counter& frameErrors = registry.GetCounter("gateway.frameErrors");
  obs::Histogram& requestUs = registry.GetHistogram("gateway.requestUs");

  static Metrics& Get() {
    static Metrics* metrics = new Metrics();
    return *metrics;
  }
};

}  // namespace

class Gateway::Impl {
 public:
  Impl(Handler handler, GatewayOptions options, net::Socket listener)
      : handler_(std::move(handler)),
        options_(std::move(options)),
        listener_(std::move(listener)) {}

  ~Impl() { Stop(); }

  Status StartThreads() {
    epollFd_ = ::epoll_create1(0);
    if (epollFd_ < 0) {
      return Status::Fail(ErrorKind::kInternal,
                          std::string("epoll_create1: ") +
                              std::strerror(errno));
    }
    eventFd_ = ::eventfd(0, EFD_NONBLOCK);
    if (eventFd_ < 0) {
      return Status::Fail(ErrorKind::kInternal,
                          std::string("eventfd: ") + std::strerror(errno));
    }
    RVSS_RETURN_IF_ERROR(AddToEpoll(listener_.fd(), kListenerTag, EPOLLIN));
    RVSS_RETURN_IF_ERROR(AddToEpoll(eventFd_, kEventTag, EPOLLIN));
    const std::size_t dispatchers =
        options_.dispatchThreads > 0 ? options_.dispatchThreads : 1;
    dispatchers_.reserve(dispatchers);
    for (std::size_t i = 0; i < dispatchers; ++i) {
      dispatchers_.emplace_back([this] { DispatchLoop(); });
    }
    ioThread_ = std::thread([this] { Run(); });
    return Status::Ok();
  }

  Status Wait() EXCLUDES(doneMutex_) {
    MutexLock lock(doneMutex_);
    while (!done_) doneCv_.Wait(doneMutex_);
    return finalStatus_;
  }

  void Stop() EXCLUDES(dispatchMutex_) {
    stopping_.store(true, std::memory_order_relaxed);
    WakeIoThread();
    if (ioThread_.joinable()) ioThread_.join();
    {
      MutexLock lock(dispatchMutex_);
      dispatchStop_ = true;
    }
    dispatchCv_.NotifyAll();
    for (std::thread& dispatcher : dispatchers_) {
      if (dispatcher.joinable()) dispatcher.join();
    }
    if (eventFd_ >= 0) {
      ::close(eventFd_);
      eventFd_ = -1;
    }
    if (epollFd_ >= 0) {
      ::close(epollFd_);
      epollFd_ = -1;
    }
  }

 private:
  struct Connection {
    std::uint64_t id = 0;  ///< its key in connections_ / epoll cookie
    net::Socket socket;
    std::string readBuf;
    std::string writeBuf;
    std::size_t writeOffset = 0;
    std::uint32_t epollEvents = 0;  ///< currently registered interest
    bool inFlight = false;
    bool closeAfterFlush = false;
    /// Context of the in-flight request, for completion-side session
    /// bookkeeping and the per-command latency split.
    server::Command pendingCommand = server::Command::kUnknown;
    std::int64_t pendingSessionId = -1;
    std::uint64_t pendingStartNs = 0;
    /// Global session ids this connection admitted (and has not yet
    /// deleted) — the unit the per-connection quota is charged against.
    /// Sessions outlive connections by design (a browser reload
    /// reattaches by id), so closing a connection frees its quota but
    /// never deletes fleet state.
    std::set<std::int64_t> sessions;
  };

  struct DispatchJob {
    std::uint64_t connectionId = 0;
    json::Json request;
  };

  struct Completion {
    std::uint64_t connectionId = 0;
    json::Json response;
  };

  Status AddToEpoll(int fd, std::uint64_t tag, std::uint32_t events) {
    struct epoll_event event = {};
    event.events = events;
    event.data.u64 = tag;
    if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &event) < 0) {
      return Status::Fail(ErrorKind::kInternal,
                          std::string("epoll_ctl(ADD): ") +
                              std::strerror(errno));
    }
    return Status::Ok();
  }

  void WakeIoThread() {
    if (eventFd_ < 0) return;
    const std::uint64_t one = 1;
    // A full eventfd counter still wakes the reader; nothing to handle.
    (void)!::write(eventFd_, &one, sizeof(one));
  }

  // ---- dispatcher side ------------------------------------------------

  void DispatchLoop() EXCLUDES(dispatchMutex_, completionMutex_) {
    while (true) {
      DispatchJob job;
      {
        MutexLock lock(dispatchMutex_);
        while (!dispatchStop_ && dispatchQueue_.empty()) {
          dispatchCv_.Wait(dispatchMutex_);
        }
        if (dispatchQueue_.empty()) return;  // only on dispatchStop_
        job = std::move(dispatchQueue_.front());
        dispatchQueue_.pop_front();
      }
      json::Json response = handler_(job.request);
      {
        MutexLock lock(completionMutex_);
        completions_.push_back(
            Completion{job.connectionId, std::move(response)});
      }
      WakeIoThread();
    }
  }

  // ---- I/O thread -----------------------------------------------------
  //
  // Everything below runs on the I/O thread only (connections_ and each
  // Connection have no lock — single-owner by construction).

  void Run() {
    Metrics& metrics = Metrics::Get();
    std::vector<struct epoll_event> events(64);
    while (!stopping_.load(std::memory_order_relaxed)) {
      const int ready =
          ::epoll_wait(epollFd_, events.data(),
                       static_cast<int>(events.size()), /*timeout=*/-1);
      if (ready < 0) {
        if (errno == EINTR) continue;
        Finish(Status::Fail(ErrorKind::kInternal,
                            std::string("epoll_wait: ") +
                                std::strerror(errno)));
        return;
      }
      for (int i = 0; i < ready; ++i) {
        const std::uint64_t tag = events[static_cast<std::size_t>(i)].data.u64;
        const std::uint32_t mask = events[static_cast<std::size_t>(i)].events;
        if (tag == kEventTag) {
          DrainEventFd();
          ProcessCompletions();
        } else if (tag == kListenerTag) {
          AcceptPending();
        } else {
          HandleConnectionEvent(tag, mask);
        }
        if (stopping_.load(std::memory_order_relaxed)) break;
      }
      metrics.connections.Set(static_cast<double>(connections_.size()));
      metrics.inFlight.Set(static_cast<double>(inFlightCount_));
    }
    Finish(Status::Ok());
  }

  void Finish(Status status) EXCLUDES(doneMutex_) {
    connections_.clear();  // closes every socket (RAII)
    Metrics::Get().connections.Set(0);
    {
      MutexLock lock(doneMutex_);
      if (!done_) {
        done_ = true;
        finalStatus_ = std::move(status);
      }
    }
    doneCv_.NotifyAll();
  }

  void DrainEventFd() {
    std::uint64_t counter = 0;
    (void)!::read(eventFd_, &counter, sizeof(counter));
  }

  void AcceptPending() {
    Metrics& metrics = Metrics::Get();
    while (true) {
      const int fd = ::accept(listener_.fd(), nullptr, nullptr);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        const int acceptErrno = errno;
        metrics.acceptErrors.Increment();
        std::fprintf(stderr, "rvss gateway: accept failed: %s\n",
                     std::strerror(acceptErrno));
        if (acceptErrno == EMFILE || acceptErrno == ENFILE ||
            acceptErrno == ENOBUFS || acceptErrno == ENOMEM) {
          // Out of descriptors: a level-triggered listener would wake us
          // immediately and forever. Park it; the next connection close
          // frees a descriptor and resumes it.
          ParkListener();
          return;
        }
        if (net::IsTransientAcceptError(acceptErrno)) continue;
        Finish(Status::Fail(ErrorKind::kInternal,
                            std::string("accept: ") +
                                std::strerror(acceptErrno)));
        stopping_.store(true, std::memory_order_relaxed);
        return;
      }
      net::Socket socket(fd);
      if (connections_.size() >= options_.maxConnections) {
        // At the cap the close IS the backpressure signal: nothing was
        // read, nothing executed, the client retries against a gateway
        // that may have shed other load by then.
        metrics.rejectedConnections.Increment();
        continue;  // ~socket closes fd
      }
      const int flags = ::fcntl(fd, F_GETFL, 0);
      if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
        metrics.acceptErrors.Increment();
        continue;
      }
      const std::uint64_t id = nextConnectionId_++;
      Connection connection;
      connection.id = id;
      connection.socket = std::move(socket);
      connection.epollEvents = EPOLLIN;
      if (!AddToEpoll(connection.socket.fd(), id, EPOLLIN).ok()) {
        metrics.acceptErrors.Increment();
        continue;
      }
      connections_.emplace(id, std::move(connection));
      metrics.accepted.Increment();
    }
  }

  void ParkListener() {
    if (listenerParked_) return;
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, listener_.fd(), nullptr);
    listenerParked_ = true;
  }

  void ResumeListener() {
    if (!listenerParked_) return;
    if (AddToEpoll(listener_.fd(), kListenerTag, EPOLLIN).ok()) {
      listenerParked_ = false;
    }
  }

  void HandleConnectionEvent(std::uint64_t id, std::uint32_t mask) {
    auto it = connections_.find(id);
    if (it == connections_.end()) return;  // closed earlier this batch
    Connection& connection = it->second;
    if ((mask & (EPOLLHUP | EPOLLERR)) != 0) {
      CloseConnection(id);
      return;
    }
    if ((mask & EPOLLOUT) != 0) {
      if (!FlushWrites(id, connection)) return;
    }
    if ((mask & EPOLLIN) != 0) {
      ReadFromConnection(id, connection);
    }
  }

  void ReadFromConnection(std::uint64_t id, Connection& connection) {
    char chunk[64 * 1024];
    while (true) {
      // While a request is in flight, stop pulling pipelined bytes past
      // the buffer bound — the kernel's socket buffer (and eventually
      // the client) absorbs the rest. With nothing in flight the next
      // frame must be able to complete, however large (the frame cap is
      // enforced from its header below).
      if (connection.inFlight &&
          connection.readBuf.size() >= options_.maxPipelineBufferBytes) {
        break;
      }
      const ssize_t got =
          ::recv(connection.socket.fd(), chunk, sizeof(chunk), 0);
      if (got > 0) {
        connection.readBuf.append(chunk, static_cast<std::size_t>(got));
        continue;
      }
      if (got == 0) {  // orderly EOF
        CloseConnection(id);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConnection(id);
      return;
    }
    if (!ProcessReadBuffer(id, connection)) return;  // connection closed
    UpdateInterest(connection);
  }

  /// Extracts and handles every complete frame buffered on `connection`,
  /// stopping at a partial frame or once a request is in flight (frames
  /// behind it stay buffered — per-connection ordering). Returns false
  /// when the connection was closed.
  bool ProcessReadBuffer(std::uint64_t id, Connection& connection) {
    Metrics& metrics = Metrics::Get();
    while (!connection.inFlight && !connection.closeAfterFlush) {
      if (connection.readBuf.size() < net::kFrameHeaderBytes) return true;
      auto header = net::DecodeFrameHeader(
          std::string_view(connection.readBuf.data(),
                           net::kFrameHeaderBytes),
          options_.wire.maxFrameBytes);
      if (!header.ok()) {
        // Bad magic / version / absurd lengths: the byte stream is not
        // ours (or not trustworthy); there is no frame boundary to
        // answer on.
        metrics.frameErrors.Increment();
        CloseConnection(id);
        return false;
      }
      const std::size_t frameBytes =
          net::kFrameHeaderBytes + header.value().payloadBytes();
      if (connection.readBuf.size() < frameBytes) return true;

      std::string text = connection.readBuf.substr(net::kFrameHeaderBytes,
                                                   header.value().jsonBytes);
      std::string blob = connection.readBuf.substr(
          net::kFrameHeaderBytes + header.value().jsonBytes,
          header.value().blobBytes);
      connection.readBuf.erase(0, frameBytes);
      metrics.frames.Increment();

      auto parsed = json::Parse(text);
      if (!parsed.ok()) {
        // Framing was intact, only the JSON was bad: answer on the
        // (trustworthy) frame boundary and keep serving, exactly like
        // the worker frame loop.
        metrics.frameErrors.Increment();
        if (!SendResponse(connection,
                          server::MakeErrorResponse(parsed.error()))) {
          return false;
        }
        continue;
      }
      json::Json request = std::move(parsed).value();
      if (!blob.empty()) request.Set("blob", std::move(blob));
      if (!HandleRequest(connection, std::move(request))) return false;
    }
    return true;
  }

  /// One parsed request: answered inline (shutdown, admission refusals)
  /// or handed to the dispatcher pool. Returns false when the connection
  /// was closed (a failed inline answer).
  bool HandleRequest(Connection& connection, json::Json request)
      EXCLUDES(dispatchMutex_) {
    Metrics& metrics = Metrics::Get();
    const server::Command command = server::CommandOf(request);
    if (command == server::Command::kShutdownGateway) {
      // Out-of-band, mirroring the workers' shutdownWorker: acknowledge,
      // then stop the loop. The ack flushes best-effort — for this small
      // frame the socket buffer all but guarantees it.
      json::Json response = server::OkResponse();
      response.Set("shutdown", true);
      const bool alive = SendResponse(connection, std::move(response));
      stopping_.store(true, std::memory_order_relaxed);
      return alive;
    }
    if (server::ClassOf(command) == server::CommandClass::kAdmitting &&
        connection.sessions.size() >= options_.maxSessionsPerConnection) {
      metrics.quotaRejections.Increment();
      return SendResponse(
          connection,
          UnavailableError(
              "session quota reached (" +
              std::to_string(options_.maxSessionsPerConnection) +
              " per connection); delete a session or open another "
              "connection"));
    }
    const std::int64_t requestSessionId = request.GetInt("sessionId", -1);
    bool shed = false;
    {
      MutexLock lock(dispatchMutex_);
      if (dispatchQueue_.size() >= options_.maxDispatchQueue) {
        shed = true;
      } else {
        dispatchQueue_.push_back(
            DispatchJob{connection.id, std::move(request)});
      }
    }
    if (shed) {
      metrics.shed.Increment();
      return SendResponse(
          connection,
          UnavailableError("gateway dispatch queue is full (" +
                           std::to_string(options_.maxDispatchQueue) +
                           " requests waiting); load shed, retry later"));
    }
    dispatchCv_.NotifyOne();
    connection.inFlight = true;
    connection.pendingCommand = command;
    connection.pendingSessionId = requestSessionId;
    connection.pendingStartNs = obs::MonotonicNowNs();
    ++inFlightCount_;
    return true;
  }

  void ProcessCompletions() EXCLUDES(completionMutex_) {
    std::vector<Completion> batch;
    {
      MutexLock lock(completionMutex_);
      batch.swap(completions_);
    }
    Metrics& metrics = Metrics::Get();
    for (Completion& completion : batch) {
      auto it = connections_.find(completion.connectionId);
      if (it == connections_.end()) {
        // The client vanished mid-request. The fleet did its work — a
        // created session exists and is reattachable by id — only the
        // response has nowhere to go.
        continue;
      }
      Connection& connection = it->second;
      connection.inFlight = false;
      --inFlightCount_;

      // Session-quota bookkeeping from the response, on the I/O thread:
      // a successful admission charges the quota, a successful delete
      // releases it.
      const bool ok = completion.response.GetString("status", "") == "ok";
      const server::Command command = connection.pendingCommand;
      if (ok && server::ClassOf(command) == server::CommandClass::kAdmitting) {
        connection.sessions.insert(
            completion.response.GetInt("sessionId", -1));
      } else if (ok && command == server::Command::kDeleteSession) {
        connection.sessions.erase(connection.pendingSessionId);
      }
      const std::uint64_t elapsedUs =
          (obs::MonotonicNowNs() - connection.pendingStartNs) / 1000;
      metrics.requestUs.Record(elapsedUs);
      if (obs::Enabled()) {
        metrics.registry
            .GetHistogram("gateway.requestUs." +
                          std::string(server::CommandName(command)))
            .Record(elapsedUs);
      }
      if (!SendResponse(connection, std::move(completion.response))) {
        continue;
      }
      // The response may have unblocked a pipelined frame.
      if (ProcessReadBuffer(completion.connectionId, connection)) {
        UpdateInterest(connection);
      }
    }
  }

  /// Serializes `response` into the connection's write buffer (header +
  /// JSON + detached blob) and flushes what the socket accepts now; the
  /// rest drains on EPOLLOUT. Returns false when the flush hit a hard
  /// error and the connection was closed.
  bool SendResponse(Connection& connection, json::Json response) {
    const std::string blob = server::DetachBlob(response);
    const std::string text = response.Dump();
    connection.writeBuf +=
        net::EncodeFrameHeader(text.size(), blob.size());
    connection.writeBuf += text;
    connection.writeBuf += blob;
    TryFlush(connection);
    if (connection.closeAfterFlush && connection.writeBuf.empty()) {
      CloseConnection(connection.id);
      return false;
    }
    UpdateInterest(connection);
    return true;
  }

  /// Writes as much buffered output as the socket accepts. Marks the
  /// connection for close on a hard error (the caller-side close happens
  /// via closeAfterFlush + empty buffer, or the next EPOLLHUP).
  void TryFlush(Connection& connection) {
    while (connection.writeOffset < connection.writeBuf.size()) {
      const ssize_t wrote = ::send(
          connection.socket.fd(),
          connection.writeBuf.data() + connection.writeOffset,
          connection.writeBuf.size() - connection.writeOffset, MSG_NOSIGNAL);
      if (wrote > 0) {
        connection.writeOffset += static_cast<std::size_t>(wrote);
        continue;
      }
      if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (wrote < 0 && errno == EINTR) continue;
      // Peer gone: drop the remaining output and let the reader side
      // observe the close.
      connection.writeBuf.clear();
      connection.writeOffset = 0;
      connection.closeAfterFlush = true;
      return;
    }
    connection.writeBuf.clear();
    connection.writeOffset = 0;
  }

  /// Returns false when the connection was closed.
  bool FlushWrites(std::uint64_t id, Connection& connection) {
    TryFlush(connection);
    if (connection.writeBuf.empty() && connection.closeAfterFlush) {
      CloseConnection(id);
      return false;
    }
    UpdateInterest(connection);
    return true;
  }

  void UpdateInterest(Connection& connection) {
    std::uint32_t want = 0;
    const bool readParked =
        connection.inFlight &&
        connection.readBuf.size() >= options_.maxPipelineBufferBytes;
    if (!readParked && !connection.closeAfterFlush) want |= EPOLLIN;
    if (connection.writeOffset < connection.writeBuf.size()) {
      want |= EPOLLOUT;
    }
    if (want == connection.epollEvents) return;
    struct epoll_event event = {};
    event.events = want;
    event.data.u64 = connection.id;
    if (::epoll_ctl(epollFd_, EPOLL_CTL_MOD, connection.socket.fd(),
                    &event) == 0) {
      connection.epollEvents = want;
    }
  }

  void CloseConnection(std::uint64_t id) {
    auto it = connections_.find(id);
    if (it == connections_.end()) return;
    if (it->second.inFlight) --inFlightCount_;
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, it->second.socket.fd(), nullptr);
    connections_.erase(it);  // RAII closes the descriptor
    ResumeListener();        // a descriptor just freed up
  }

  Handler handler_;
  GatewayOptions options_;
  net::Socket listener_;
  int epollFd_ = -1;
  int eventFd_ = -1;
  bool listenerParked_ = false;

  std::thread ioThread_;
  std::vector<std::thread> dispatchers_;
  std::atomic<bool> stopping_{false};

  Mutex dispatchMutex_;
  CondVar dispatchCv_;
  std::deque<DispatchJob> dispatchQueue_ GUARDED_BY(dispatchMutex_);
  bool dispatchStop_ GUARDED_BY(dispatchMutex_) = false;

  Mutex completionMutex_;
  std::vector<Completion> completions_ GUARDED_BY(completionMutex_);

  Mutex doneMutex_;
  CondVar doneCv_;
  bool done_ GUARDED_BY(doneMutex_) = false;
  Status finalStatus_ GUARDED_BY(doneMutex_) = Status::Ok();

  // I/O-thread-only state: single-owner by construction (see the section
  // comment above Run), so deliberately lock-free and unannotated.
  std::map<std::uint64_t, Connection> connections_;
  std::uint64_t nextConnectionId_ = kFirstConnectionId;
  std::size_t inFlightCount_ = 0;
};

Gateway::Gateway(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

Gateway::~Gateway() {
  if (impl_ != nullptr) impl_->Stop();
}

Result<std::unique_ptr<Gateway>> Gateway::Start(Handler handler,
                                                GatewayOptions options) {
  if (!handler) {
    return Error{ErrorKind::kInvalidArgument, "gateway needs a handler"};
  }
  auto listener = net::ListenOn(options.address, /*backlog=*/128);
  if (!listener.ok()) return listener.error();

  // Resolve "tcp:HOST:0" to the kernel-assigned port so clients (and the
  // CLI banner) get a connectable address back.
  std::string address = options.address;
  if (address.rfind("tcp:", 0) == 0) {
    auto port = net::BoundPort(listener.value());
    if (port.ok()) {
      const std::size_t colon = address.rfind(':');
      address = address.substr(0, colon + 1) + std::to_string(port.value());
    }
  }

  auto impl = std::make_unique<Impl>(std::move(handler), std::move(options),
                                     std::move(listener).value());
  RVSS_RETURN_IF_ERROR(impl->StartThreads());
  std::unique_ptr<Gateway> gateway(new Gateway(std::move(impl)));
  gateway->address_ = std::move(address);
  return gateway;
}

Status Gateway::Wait() { return impl_->Wait(); }

void Gateway::Stop() { impl_->Stop(); }

}  // namespace rvss::gateway
