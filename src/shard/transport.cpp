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
  // handshake failure is final for the call and, like a failed connect,
  // kUnavailable: no command was sent, so the router places the request
  // on another worker. The next Call reconnects and retries the
  // handshake, so a worker that is upgraded in place heals the slot.
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
  Status compatible = server::CheckHelloResponse(answer.value(), address_);
  if (compatible.ok()) return compatible;
  connection_.Close();
  return Status::Fail(ErrorKind::kUnavailable, compatible.error().message);
}

Result<json::Json> SocketTransport::Call(const json::Json& request) {
  // Split the request for the wire once, before the retry: the non-blob
  // fields (small) are copied into the serialized text, and the blob —
  // multi-MiB of base64 on every drain import — stays a borrowed view on
  // the caller's document, never copied or re-dumped.
  std::string text;
  std::string_view blob;
  if (request.IsObject() && request.Find("blob") != nullptr) {
    json::Json trimmed = json::Json::MakeObject();
    for (const auto& [key, value] : request.AsObject()) {
      if (key == "blob" && value.IsString() && !value.AsString().empty()) {
        blob = value.AsString();
      } else {
        trimmed.Set(key, value);
      }
    }
    text = trimmed.Dump();
  } else {
    text = request.Dump();
  }
  SocketMetrics& metrics = SocketMetrics::Get();
  metrics.calls.Increment();
  metrics.requestBytes.Add(text.size());
  metrics.blobBytes.Add(blob.size());

  // Resending is safe only while the write failed: the worker drops an
  // incomplete frame, so that request never executed. A failed connect
  // is final — ConnectTo already retried until its deadline.
  const std::uint64_t startNs = obs::MonotonicNowNs();
  Status written = Status::Ok();
  for (int attempt = 0; attempt < 2; ++attempt) {
    RVSS_RETURN_IF_ERROR(EnsureConnected());
    written = server::WriteFrame(connection_, text, blob, wire_);
    if (written.ok()) break;
    connection_.Close();
  }
  if (!written.ok()) {
    return Error{ErrorKind::kUnavailable, "send to worker " + address_ +
                                              " failed: " +
                                              written.error().message};
  }
  auto response = server::ReadMessage(connection_, wire_);
  if (!response.ok()) {
    connection_.Close();
    return Error{ErrorKind::kInternal,
                 "no response from worker " + address_ + ": " +
                     response.error().message +
                     " (request may or may not have executed)"};
  }
  // Only completed round trips reach the histogram: a timed-out read
  // would record the timeout budget, not a latency.
  metrics.rttUs.Record((obs::MonotonicNowNs() - startNs) / 1000);
  return response;
}

}  // namespace rvss::shard
