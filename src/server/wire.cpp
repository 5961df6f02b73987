#include "server/wire.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "config/cpu_config.h"
#include "server/api.h"
#include "snapshot/codec.h"

namespace rvss::server {
namespace {

/// Moves a non-empty top-level "blob" string out of `message`: the
/// send-side half of the split in wire.h. An empty or absent blob stays
/// in the JSON (blobBytes == 0 on the wire means "nothing detached").
std::string DetachBlob(json::Json& message) {
  if (!message.IsObject()) return {};
  json::Object& object = message.AsObject();
  for (auto it = object.begin(); it != object.end(); ++it) {
    if (it->first == "blob" && it->second.IsString() &&
        !it->second.AsString().empty()) {
      std::string blob = std::move(it->second.AsString());
      object.erase(it);
      return blob;
    }
  }
  return {};
}

/// Receives a `size`-byte frame section into `out`, growing the buffer
/// only as bytes arrive: a peer that declares a large section and then
/// stalls holds at most one chunk beyond what it actually sent, never
/// the size its header promised. A real multi-MiB payload still ends up
/// in one buffer.
Status RecvSection(net::Socket& socket, std::string& out, std::size_t size,
                   const net::Deadline& deadline) {
  constexpr std::size_t kChunkBytes = 64 * 1024;
  while (out.size() < size) {
    const std::size_t received = out.size();
    out.resize(received + std::min(kChunkBytes, size - received));
    RVSS_RETURN_IF_ERROR(net::RecvAll(socket, out.data() + received,
                                      out.size() - received,
                                      deadline.RemainingMs()));
  }
  return Status::Ok();
}

}  // namespace

Status WriteFrame(net::Socket& socket, std::string_view jsonText,
                  std::string_view blob, const WireOptions& options) {
  // The header's section lengths are u32: even a deployment that raises
  // maxFrameBytes past 4 GiB must not emit a truncated length, which
  // would desync every frame after it.
  constexpr std::size_t kMaxSectionBytes = 0xffffffffu;
  if (jsonText.size() > kMaxSectionBytes || blob.size() > kMaxSectionBytes) {
    return Status::Fail(ErrorKind::kInvalidArgument,
                        "frame section exceeds the u32 length field");
  }
  if (jsonText.size() + blob.size() > options.maxFrameBytes) {
    return Status::Fail(
        ErrorKind::kInvalidArgument,
        "message of " + std::to_string(jsonText.size() + blob.size()) +
            " bytes exceeds the " + std::to_string(options.maxFrameBytes) +
            "-byte frame cap");
  }
  const net::Deadline deadline(options.ioTimeoutMs);
  const std::string header =
      net::EncodeFrameHeader(jsonText.size(), blob.size());
  RVSS_RETURN_IF_ERROR(net::SendAll(socket, header, deadline.RemainingMs()));
  RVSS_RETURN_IF_ERROR(net::SendAll(socket, jsonText,
                                    deadline.RemainingMs()));
  if (!blob.empty()) {
    RVSS_RETURN_IF_ERROR(net::SendAll(socket, blob, deadline.RemainingMs()));
  }
  return Status::Ok();
}

Status WriteMessage(net::Socket& socket, json::Json message,
                    const WireOptions& options) {
  const std::string blob = DetachBlob(message);
  return WriteFrame(socket, message.Dump(), blob, options);
}

Result<json::Json> ReadMessage(net::Socket& socket,
                               const WireOptions& options) {
  const net::Deadline deadline(options.ioTimeoutMs);
  char headerBytes[net::kFrameHeaderBytes];
  RVSS_RETURN_IF_ERROR(net::RecvAll(socket, headerBytes,
                                    net::kFrameHeaderBytes,
                                    deadline.RemainingMs()));
  RVSS_ASSIGN_OR_RETURN(
      const net::FrameHeader header,
      net::DecodeFrameHeader(
          std::string_view(headerBytes, net::kFrameHeaderBytes),
          options.maxFrameBytes));

  // Consume the whole declared frame before parsing: a JSON error must
  // leave the stream positioned at the next frame boundary, so the
  // connection stays usable for an error response.
  std::string text;
  RVSS_RETURN_IF_ERROR(RecvSection(socket, text, header.jsonBytes, deadline));
  std::string blob;
  RVSS_RETURN_IF_ERROR(RecvSection(socket, blob, header.blobBytes, deadline));
  RVSS_ASSIGN_OR_RETURN(json::Json message,
                        json::ParseKeepingRaw(text, "state"));
  if (!blob.empty()) {
    message.Set("blob", std::move(blob));
  }
  return message;
}

namespace {

/// Hex of the default-config hash: the "same simulator build" stand-in.
/// Computed once — DefaultConfig() is deterministic.
const std::string& LocalConfigHashHex() {
  static const std::string hex = [] {
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016" PRIx64,
                  snapshot::ConfigHash(config::DefaultConfig()));
    return std::string(buffer);
  }();
  return hex;
}

void FillHelloFields(json::Json& message) {
  message.Set("hello", true);
  message.Set("frameVersion", static_cast<std::int64_t>(net::kFrameVersion));
  message.Set("apiVersion", kApiVersion);
  message.Set("snapshotFormatVersion",
              static_cast<std::int64_t>(snapshot::kFormatVersion));
  message.Set("configHash", LocalConfigHashHex());
}

}  // namespace

json::Json MakeHelloResponse() {
  json::Json response = OkResponse();
  FillHelloFields(response);
  return response;
}

json::Json MakeHelloRequest() {
  json::Json request = MakeRequest(Command::kHello);
  FillHelloFields(request);
  return request;
}

Status CheckHelloResponse(const json::Json& response,
                          const std::string& peer) {
  const auto refuse = [&peer](const std::string& why) {
    return Status::Fail(ErrorKind::kInvalidArgument,
                        "worker " + peer + " failed the hello handshake: " +
                            why);
  };
  if (response.GetString("status", "") != "ok" ||
      !response.GetBool("hello", false)) {
    // A pre-handshake worker answers hello with an unknown-command error;
    // a hostile or confused peer answers with anything else. Both are
    // refusals — skew must be discovered here, not mid-migration.
    return refuse("peer did not answer the handshake (" +
                  ErrorMessage(response, "no hello in response") + ")");
  }
  const std::int64_t frameVersion = response.GetInt("frameVersion", -1);
  if (frameVersion != static_cast<std::int64_t>(net::kFrameVersion)) {
    return refuse("frame version " + std::to_string(frameVersion) +
                  " != local " + std::to_string(net::kFrameVersion));
  }
  const std::int64_t snapshotVersion =
      response.GetInt("snapshotFormatVersion", -1);
  if (snapshotVersion != static_cast<std::int64_t>(snapshot::kFormatVersion)) {
    return refuse("snapshot format version " +
                  std::to_string(snapshotVersion) + " != local " +
                  std::to_string(snapshot::kFormatVersion));
  }
  const std::int64_t apiVersion = response.GetInt("apiVersion", -1);
  if (apiVersion != kApiVersion) {
    return refuse("api version " + std::to_string(apiVersion) +
                  " != local " + std::to_string(kApiVersion));
  }
  const std::string configHash = response.GetString("configHash", "");
  if (configHash != LocalConfigHashHex()) {
    return refuse("config hash " + configHash + " != local " +
                  LocalConfigHashHex());
  }
  return Status::Ok();
}

}  // namespace rvss::server
