#include "shard/transport.h"

#include <utility>

namespace rvss::shard {
namespace {

/// Socket-transport metrics, shared by every SocketTransport in the
/// process (the per-worker split is visible in the router's workerStats;
/// these answer "what does the wire cost the fleet overall").
struct SocketMetrics {
  obs::Counter& calls =
      obs::Registry::Instance().GetCounter("shard.transport.socket.calls");
  obs::Counter& connects = obs::Registry::Instance().GetCounter(
      "shard.transport.socket.connects");
  obs::Counter& requestBytes = obs::Registry::Instance().GetCounter(
      "shard.transport.socket.requestBytes");
  obs::Counter& blobBytes = obs::Registry::Instance().GetCounter(
      "shard.transport.socket.blobBytes");
  obs::Histogram& rttUs =
      obs::Registry::Instance().GetHistogram("shard.transport.socket.rttUs");

  static SocketMetrics& Get() {
    static SocketMetrics* metrics = new SocketMetrics();
    return *metrics;
  }
};

}  // namespace

SocketTransport::SocketTransport(std::string address,
                                 SocketTransportOptions options)
    : address_(std::move(address)),
      options_(options),
      wire_{options.ioTimeoutMs, options.maxFrameBytes} {}

Status SocketTransport::EnsureConnected() {
  if (connection_.valid()) return Status::Ok();
  SocketMetrics::Get().connects.Increment();
  auto connected = net::ConnectTo(address_, options_.connectTimeoutMs);
  if (!connected.ok()) {
    // kUnavailable: nothing was executed, the worker may come back (or a
    // restarted one may take the address) — callers may safely retry.
    return Status::Fail(ErrorKind::kUnavailable,
                        "worker " + address_ +
                            " unreachable: " + connected.error().message);
  }
  connection_ = std::move(connected).value();

  // The hello handshake: before any command travels on this connection,
  // exchange build fingerprints and refuse a worker whose frame version,
  // snapshot format version or config hash differs from ours. Catching
  // skew here — once per connection — beats discovering it per message
  // mid-migration, when a half-moved session would be on the line. A
  // handshake failure is final for the call (like a failed connect); the
  // next Call reconnects and retries the handshake, so a worker that is
  // upgraded in place heals the slot.
  Status sent =
      server::WriteMessage(connection_, server::MakeHelloRequest(), wire_);
  if (!sent.ok()) {
    connection_.Close();
    return Status::Fail(ErrorKind::kUnavailable,
                        "worker " + address_ + " failed the hello handshake: " +
                            sent.error().message);
  }
  auto answer = server::ReadMessage(connection_, wire_);
  if (!answer.ok()) {
    connection_.Close();
    return Status::Fail(ErrorKind::kUnavailable,
                        "worker " + address_ + " failed the hello handshake: " +
                            answer.error().message);
  }
  server::HelloInfo peer;
  Status compatible =
      server::CheckHelloResponse(answer.value(), address_, &peer);
  if (!compatible.ok()) {
    connection_.Close();
    return compatible;
  }
  peerDeltaBlobs_.store(peer.deltaBlobs, std::memory_order_relaxed);
  return Status::Ok();
}

Result<json::Json> SocketTransport::Call(const json::Json& request) {
  return std::move(CallBatch({&request}).front());
}

std::vector<Result<json::Json>> SocketTransport::CallBatch(
    const std::vector<const json::Json*>& requests) {
  std::vector<Result<json::Json>> results;
  if (requests.empty()) return results;

  // Split every request for the wire exactly once, before the retry
  // loop: the non-blob fields (small) are copied into the serialized
  // text, and the blob — multi-MiB of base64 on every drain import —
  // stays a borrowed view on the caller's document, never copied or
  // re-dumped.
  struct Framed {
    std::string text;
    std::string_view blob;
  };
  SocketMetrics& metrics = SocketMetrics::Get();
  std::vector<Framed> frames;
  frames.reserve(requests.size());
  for (const json::Json* request : requests) {
    Framed framed;
    if (request->IsObject() && request->Find("blob") != nullptr) {
      json::Json trimmed = json::Json::MakeObject();
      for (const auto& [key, value] : request->AsObject()) {
        if (key == "blob" && value.IsString() && !value.AsString().empty()) {
          framed.blob = value.AsString();
        } else {
          trimmed.Set(key, value);
        }
      }
      framed.text = trimmed.Dump();
    } else {
      framed.text = request->Dump();
    }
    metrics.calls.Increment();
    metrics.requestBytes.Add(framed.text.size());
    metrics.blobBytes.Add(framed.blob.size());
    frames.push_back(std::move(framed));
  }

  // Pipeline: write every frame, then read the responses in order. Retry
  // (reconnect + resend the whole batch, once) is only safe when *zero*
  // frames were delivered: the worker drops incomplete frames, so a
  // request whose write failed never executed. After the first complete
  // frame the worker may have executed it, so a mid-batch write failure
  // fails closed instead: delivered-but-unanswered requests report
  // kInternal (a blind retry could run a command twice), never-sent ones
  // report retryable kUnavailable. A failed connect is final too:
  // ConnectTo already retried until its deadline.
  const std::uint64_t startNs = obs::MonotonicNowNs();
  for (int attempt = 0; attempt < 2; ++attempt) {
    Status connected = EnsureConnected();
    if (!connected.ok()) {
      for (std::size_t i = 0; i < frames.size(); ++i) {
        results.push_back(connected.error());
      }
      return results;
    }
    std::size_t written = 0;
    Status writeStatus = Status::Ok();
    for (; written < frames.size(); ++written) {
      writeStatus = server::WriteFrame(connection_, frames[written].text,
                                       frames[written].blob, wire_);
      if (!writeStatus.ok()) break;
    }
    if (!writeStatus.ok() && written == 0) {
      connection_.Close();
      if (attempt == 0) continue;
      for (std::size_t i = 0; i < frames.size(); ++i) {
        results.push_back(Error{ErrorKind::kUnavailable,
                                "send to worker " + address_ + " failed: " +
                                    writeStatus.error().message});
      }
      return results;
    }
    bool readFailed = false;
    for (std::size_t i = 0; i < written; ++i) {
      auto response = server::ReadMessage(connection_, wire_);
      if (!response.ok()) {
        connection_.Close();
        readFailed = true;
        for (std::size_t j = i; j < written; ++j) {
          results.push_back(
              Error{ErrorKind::kInternal,
                    "no response from worker " + address_ + ": " +
                        response.error().message +
                        " (request may or may not have executed)"});
        }
        break;
      }
      results.push_back(std::move(response).value());
    }
    if (!readFailed && !writeStatus.ok()) {
      // The stream is desynced mid-frame even though the responses for
      // the delivered prefix arrived; the connection cannot be reused.
      connection_.Close();
    }
    for (std::size_t i = written; i < frames.size(); ++i) {
      results.push_back(Error{ErrorKind::kUnavailable,
                              "send to worker " + address_ + " failed: " +
                                  writeStatus.error().message});
    }
    // Only completed round trips reach the histogram: a timed-out read
    // would record the timeout budget, not a latency.
    if (!readFailed) {
      metrics.rttUs.Record((obs::MonotonicNowNs() - startNs) / 1000);
    }
    return results;
  }
  return results;
}

}  // namespace rvss::shard
