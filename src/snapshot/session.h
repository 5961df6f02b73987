// Portable session blobs: everything needed to re-create a running
// simulation in a fresh process.
//
// A SimSnapshot alone is not restorable elsewhere — it references the
// decoded program and assumes a matching configuration. A session blob
// therefore bundles the session's *identity* (configuration JSON, the
// assembly source actually loaded, entry label, array definitions) with a
// codec-encoded snapshot of the current state, slz-compressed behind a
// small container header. The server's exportSession/importSession
// commands and the CLI's --save-snapshot/--load-snapshot flags are thin
// wrappers around the two functions here; because both speak the same
// format, a session saved by the CLI can be imported by a server and vice
// versa — the migration/sharding primitive the ROADMAP asks for.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "core/simulation.h"

namespace rvss::snapshot {

/// How a session was created. Everything is stored as canonical JSON/text
/// so the blob stays self-describing across builds.
struct SessionIdentity {
  std::string configJson;  ///< config::ToJson(config).Dump()
  std::string source;      ///< the assembly actually loaded (post-compile)
  std::string entryLabel;
  std::string arraysJson;  ///< JSON array of array definitions; "" = none
};

/// Builds `identity` from a live simulation plus the source/arrays it was
/// created from (the simulation does not retain them).
SessionIdentity MakeIdentity(const core::Simulation& sim,
                             std::string source,
                             std::string entryLabel,
                             std::string arraysJson);

/// Encode-side knobs for EncodeSessionBlob. The blob's snapshot is always
/// written in the current format (snapshot::kFormatVersion); import reads
/// every version the codec reads.
struct SessionBlobOptions {
  /// Ship only the 4 KiB memory pages that are not the session's base
  /// image's (the post-Create memory of its config/program/arrays) instead
  /// of the full image. The importer re-Creates that base from the
  /// identity carried in the blob, so a delta blob is just as restorable —
  /// it only requires the reader to understand snapshot format v3, which
  /// the hello handshake pins.
  bool delta = false;
};

/// Serializes identity + current state into a compressed binary blob.
[[nodiscard]] std::string EncodeSessionBlob(const core::Simulation& sim,
                              const SessionIdentity& identity);
[[nodiscard]] std::string EncodeSessionBlob(const core::Simulation& sim,
                              const SessionIdentity& identity,
                              const SessionBlobOptions& options);

/// Cheap upper-bound estimate of EncodeSessionBlob's output for `sim`,
/// for shard placement and per-worker byte accounting: the dominant terms
/// (memory image, log text, identity strings) are measured directly, the
/// fixed-size pipeline/predictor payload is covered by a constant. No deep
/// state copy, no compression pass — callable per request.
std::size_t EstimateSessionBlobBytes(const core::Simulation& sim,
                                     const SessionIdentity& identity);

struct ImportedSession {
  std::unique_ptr<core::Simulation> sim;
  SessionIdentity identity;
};

/// Re-creates a simulation from a session blob: decompresses, re-parses
/// the configuration and source, rebuilds the simulation and restores the
/// encoded snapshot (which re-validates config/program hashes). A non-zero
/// `maxCheckpointBytesOverride` clamps the session's checkpoint byte
/// budget (shared servers do not trust session-supplied budgets); this
/// does not invalidate the snapshot hash, which ignores checkpoint
/// settings. The imported simulation immediately deposits a checkpoint at
/// the restored cycle so backward stepping has a nearby anchor.
Result<ImportedSession> ImportSessionBlob(
    std::string_view blob, std::uint64_t maxCheckpointBytesOverride = 0);

}  // namespace rvss::snapshot
