#include "gateway/gateway.h"

#include <sys/socket.h>

#include <atomic>
#include <list>
#include <set>
#include <system_error>
#include <thread>
#include <utility>

#include "common/socket.h"
#include "common/sync.h"
#include "obs/registry.h"
#include "server/api.h"
#include "server/commands.h"
#include "server/frame_loop.h"

namespace rvss::gateway {
namespace {

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
  Impl(const Impl&) = delete;
  Impl& operator=(const Impl&) = delete;

  void StartAccepting() { acceptThread_ = std::thread([this] { Run(); }); }

  Status Wait() EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    while (!done_) changed_.Wait(mutex_);
    return finalStatus_;
  }

  void Stop() EXCLUDES(mutex_) {
    RequestStop();
    // The accept thread closes every connection and waits for their
    // threads before it returns; each of those joined the one that
    // finished before it, which leaves only the last to join here.
    if (acceptThread_.joinable()) acceptThread_.join();
    std::thread last;
    {
      MutexLock lock(mutex_);
      last = std::move(lastFinished_);
    }
    if (last.joinable()) last.join();
  }

 private:
  struct Connection {
    int fd = -1;  ///< shut down by the accept thread to end the connection
    std::thread thread;
  };
  using ConnectionList = std::list<Connection>;

  /// Ends the accept loop. shutdown(2) wakes the accept thread's poll and
  /// fails its accept; the thread then closes every connection.
  void RequestStop() {
    stopping_.store(true, std::memory_order_relaxed);
    ::shutdown(listener_.fd(), SHUT_RDWR);
  }

  // ---- accept thread --------------------------------------------------

  void Run() EXCLUDES(mutex_) {
    Metrics& metrics = Metrics::Get();
    Status status = Status::Ok();
    while (true) {
      auto accepted = server::AcceptConnection(listener_, metrics.acceptErrors,
                                               "gateway");
      if (stopping_.load(std::memory_order_relaxed)) break;
      if (!accepted.ok()) {
        status = accepted.status();
        break;
      }
      Admit(std::move(accepted).value());
    }
    // Wake every connection thread (one blocked in a read sees EOF) and
    // wait until all of them have finished.
    MutexLock lock(mutex_);
    for (const Connection& connection : connections_) {
      ::shutdown(connection.fd, SHUT_RDWR);
    }
    while (!connections_.empty()) changed_.Wait(mutex_);
    done_ = true;
    finalStatus_ = std::move(status);
    changed_.NotifyAll();
  }

  void Admit(net::Socket socket) EXCLUDES(mutex_) {
    Metrics& metrics = Metrics::Get();
    MutexLock lock(mutex_);
    if (connections_.size() >= options_.maxConnections) {
      // At the cap the close IS the backpressure signal: nothing was
      // read, nothing executed, the client retries against a gateway
      // that may have shed other load by then.
      metrics.rejectedConnections.Increment();
      return;  // ~socket closes it
    }
    metrics.accepted.Increment();
    const ConnectionList::iterator self =
        connections_.insert(connections_.end(), Connection{socket.fd(), {}});
    // Started under the lock: the thread's Finish takes the lock, so its
    // std::thread is in place before the thread can move it out.
    try {
      self->thread = std::thread(
          [this, self, socket = std::move(socket)]() mutable {
            Serve(socket);
            Finish(self, socket);
          });
    } catch (const std::system_error&) {
      // Out of threads (RLIMIT_NPROC, a pids cgroup): refuse this
      // connection like one over the cap. The failed thread's callable,
      // socket included, is already destroyed.
      connections_.erase(self);
      metrics.rejectedConnections.Increment();
      return;
    }
    metrics.connections.Set(static_cast<double>(connections_.size()));
  }

  // ---- connection threads ---------------------------------------------

  void Serve(net::Socket& socket) {
    Metrics& metrics = Metrics::Get();
    // Global session ids this connection admitted (and has not yet
    // deleted) — the unit the per-connection quota is charged against.
    // Sessions outlive connections by design (a browser reload reattaches
    // by id), so closing a connection frees its quota but never deletes
    // fleet state.
    std::set<std::int64_t> sessions;
    const bool shutdown = server::ServeConnection(
        socket, options_.wire, {metrics.frames, metrics.frameErrors},
        [this, &sessions](const json::Json& request, bool& stop) {
          return Answer(request, sessions, stop);
        });
    // The acknowledgement is written; only now may the accept thread
    // start closing connections.
    if (shutdown) RequestStop();
  }

  json::Json Answer(const json::Json& request,
                    std::set<std::int64_t>& sessions, bool& stop) {
    Metrics& metrics = Metrics::Get();
    const server::Command command = server::CommandOf(request);
    if (command == server::Command::kShutdownGateway) {
      // Out-of-band, mirroring the workers' shutdownWorker: acknowledge,
      // then stop the gateway.
      stop = true;
      json::Json response = server::OkResponse();
      response.Set("shutdown", true);
      return response;
    }
    const bool admitting =
        server::ClassOf(command) == server::CommandClass::kAdmitting;
    if (admitting && sessions.size() >= options_.maxSessionsPerConnection) {
      metrics.quotaRejections.Increment();
      return server::MakeErrorResponse(Error{
          ErrorKind::kUnavailable,
          "session quota reached (" +
              std::to_string(options_.maxSessionsPerConnection) +
              " per connection); delete a session or open another "
              "connection"});
    }
    const std::uint64_t startNs = obs::MonotonicNowNs();
    AddInFlight(1);
    json::Json response = handler_(request);
    AddInFlight(-1);
    const std::uint64_t elapsedUs = (obs::MonotonicNowNs() - startNs) / 1000;
    metrics.requestUs.Record(elapsedUs);
    if (obs::Enabled()) {
      metrics.registry
          .GetHistogram("gateway.requestUs." +
                        std::string(server::CommandName(command)))
          .Record(elapsedUs);
    }
    // A successful admission charges the quota, a successful delete
    // releases it.
    if (response.GetString("status", "") == "ok") {
      if (admitting) {
        sessions.insert(response.GetInt("sessionId", -1));
      } else if (command == server::Command::kDeleteSession) {
        sessions.erase(request.GetInt("sessionId", -1));
      }
    }
    return response;
  }

  /// Moves the in-flight count and publishes it in one step, so a late
  /// Set from another connection thread cannot overwrite a newer value.
  void AddInFlight(std::int64_t delta) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    inFlight_ += delta;
    Metrics::Get().inFlight.Set(static_cast<double>(inFlight_));
  }

  /// Leaves the connection list, closes the connection, then joins the
  /// connection thread that finished before this one: at most one exited
  /// thread ever waits for its join, and Stop() joins that last one. The
  /// socket closes only once its entry is gone, so the accept thread
  /// never shuts down a descriptor that was closed and reused.
  void Finish(ConnectionList::iterator self, net::Socket& socket)
      EXCLUDES(mutex_) {
    std::thread previous;
    {
      MutexLock lock(mutex_);
      previous = std::exchange(lastFinished_, std::move(self->thread));
      connections_.erase(self);
      Metrics::Get().connections.Set(
          static_cast<double>(connections_.size()));
      changed_.NotifyAll();
    }
    socket.Close();
    if (previous.joinable()) previous.join();
  }

  Handler handler_;
  GatewayOptions options_;
  net::Socket listener_;
  std::atomic<bool> stopping_{false};

  Mutex mutex_;
  CondVar changed_;  ///< a connection finished, or the gateway stopped
  ConnectionList connections_ GUARDED_BY(mutex_);
  std::int64_t inFlight_ GUARDED_BY(mutex_) = 0;  ///< handler calls running
  std::thread lastFinished_ GUARDED_BY(mutex_);
  bool done_ GUARDED_BY(mutex_) = false;
  Status finalStatus_ GUARDED_BY(mutex_) = Status::Ok();

  std::thread acceptThread_;  ///< declared last: it uses everything above
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
  impl->StartAccepting();
  std::unique_ptr<Gateway> gateway(new Gateway(std::move(impl)));
  gateway->address_ = std::move(address);
  return gateway;
}

Status Gateway::Wait() { return impl_->Wait(); }

void Gateway::Stop() { impl_->Stop(); }

}  // namespace rvss::gateway
