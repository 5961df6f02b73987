#include "snapshot/session.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/slz.h"
#include "json/json.h"
#include "memory/memory_initializer.h"
#include "snapshot/codec.h"
#include "snapshot/wire.h"

namespace rvss::snapshot {
namespace {

constexpr char kSessionMagic[4] = {'R', 'V', 'S', 'E'};
constexpr std::uint32_t kSessionVersion = 1;
constexpr std::uint8_t kFlagSlz = 1;

Error SessionError(std::string message) {
  return Error{ErrorKind::kInvalidArgument,
               "session blob: " + std::move(message)};
}

}  // namespace

SessionIdentity MakeIdentity(const core::Simulation& sim, std::string source,
                             std::string entryLabel, std::string arraysJson) {
  SessionIdentity identity;
  identity.configJson = config::ToJson(sim.config()).Dump();
  identity.source = std::move(source);
  identity.entryLabel = std::move(entryLabel);
  identity.arraysJson = std::move(arraysJson);
  return identity;
}

std::string EncodeSessionBlob(const core::Simulation& sim,
                              const SessionIdentity& identity) {
  return EncodeSessionBlob(sim, identity, SessionBlobOptions{});
}

std::string EncodeSessionBlob(const core::Simulation& sim,
                              const SessionIdentity& identity,
                              const SessionBlobOptions& options) {
  CodecContext context{&sim.config(), &sim.program()};
  EncodeOptions encode;
  if (options.delta) {
    encode.deltaBase = &sim.baseMemory();
    encode.baseEpoch = sim.memoryBaseEpoch();
  }
  Writer container;
  container.U32(kSessionVersion);
  container.Str(identity.configJson);
  container.Str(identity.source);
  container.Str(identity.entryLabel);
  container.Str(identity.arraysJson);
  container.Str(EncodeSnapshot(sim.SaveState(), context, encode));

  std::string out(kSessionMagic, sizeof(kSessionMagic));
  out += static_cast<char>(kFlagSlz);
  out += SlzCompress(container.out());
  return out;
}

std::size_t EstimateSessionBlobBytes(const core::Simulation& sim,
                                     const SessionIdentity& identity) {
  // Upper bound on the uncompressed container; compression only shrinks
  // it, and placement needs relative load, not exact wire bytes.
  std::size_t bytes = identity.configJson.size() + identity.source.size() +
                      identity.entryLabel.size() + identity.arraysJson.size();
  bytes += sim.memorySystem().memory().size();
  bytes += sim.log().approxBytes();
  bytes += 64 * 1024;  // pipeline, predictor, rename, stats, headers
  return bytes;
}

Result<ImportedSession> ImportSessionBlob(
    std::string_view blob, std::uint64_t maxCheckpointBytesOverride) {
  if (blob.size() < sizeof(kSessionMagic) + 1 ||
      std::memcmp(blob.data(), kSessionMagic, sizeof(kSessionMagic)) != 0) {
    return SessionError("bad magic (not a session blob)");
  }
  const std::uint8_t flags = static_cast<std::uint8_t>(blob[4]);
  if (flags != kFlagSlz) {
    return SessionError("unknown container flags");
  }
  std::size_t consumed = 0;
  auto container = SlzDecompress(blob.substr(5), &consumed);
  if (!container.has_value()) {
    return SessionError("decompression failed (truncated or corrupted)");
  }
  if (consumed != blob.size() - 5) {
    return SessionError("trailing bytes after the compressed container");
  }

  Reader r(*container);
  const std::uint32_t version = r.U32();
  if (r.ok() && version != kSessionVersion) {
    return SessionError("unsupported container version");
  }
  SessionIdentity identity;
  identity.configJson = r.Str();
  identity.source = r.Str();
  identity.entryLabel = r.Str();
  identity.arraysJson = r.Str();
  const std::string snapshotBlob = r.Str();
  if (!r.ok()) return SessionError(r.failReason());
  if (r.remaining() != 0) {
    return SessionError("trailing bytes after the session container");
  }

  auto configNode = json::Parse(identity.configJson);
  if (!configNode.ok()) {
    return SessionError("embedded configuration is not valid JSON");
  }
  RVSS_ASSIGN_OR_RETURN(config::CpuConfig config,
                        config::CpuConfigFromJson(configNode.value()));
  if (maxCheckpointBytesOverride > 0) {
    config.checkpoint.maxTotalBytes = std::min(
        config.checkpoint.maxTotalBytes, maxCheckpointBytesOverride);
    identity.configJson = config::ToJson(config).Dump();
  }

  core::Simulation::CreateOptions options;
  options.entryLabel = identity.entryLabel;
  if (!identity.arraysJson.empty()) {
    auto arraysNode = json::Parse(identity.arraysJson);
    if (!arraysNode.ok() || !arraysNode.value().IsArray()) {
      return SessionError("embedded array definitions are not a JSON array");
    }
    for (const json::Json& node : arraysNode.value().AsArray()) {
      RVSS_ASSIGN_OR_RETURN(memory::ArrayDefinition def,
                            memory::ArrayDefinitionFromJson(node));
      options.arrays.push_back(std::move(def));
    }
  }

  RVSS_ASSIGN_OR_RETURN(
      std::unique_ptr<core::Simulation> sim,
      core::Simulation::Create(config, identity.source, options));

  // The freshly Created simulation holds exactly the base image a delta
  // snapshot was encoded against (same config/source/arrays reproduce the
  // same post-load memory), so hand it to the decoder; the base-epoch
  // check inside DecodeSnapshot fails closed if this build would produce
  // a different image. The decoded memory shares the base's pages, so a
  // later delta export of this session ships only the others.
  const CodecContext context{&sim->config(), &sim->program(),
                             &sim->baseMemory(), sim->memoryBaseEpoch()};
  RVSS_ASSIGN_OR_RETURN(core::SimSnapshot snapshot,
                        DecodeSnapshot(snapshotBlob, context));
  sim->RestoreState(snapshot);
  // Anchor backward stepping at the imported position. A fast-forwarded
  // blob's snapshot is already the ring's origin; otherwise the origin is
  // Create's cycle 0, and without the anchor the first StepBack would
  // replay the whole prefix.
  sim->CaptureCheckpointNow();

  ImportedSession imported;
  imported.sim = std::move(sim);
  imported.identity = std::move(identity);
  return imported;
}

}  // namespace rvss::snapshot
