// Versioned, endian-stable binary codec for core::SimSnapshot.
//
// PR 1 made the full simulation snapshottable, but snapshots were
// in-memory deep copies restorable only into the simulation that produced
// them. This codec turns a SimSnapshot into a self-describing byte blob
// that can be persisted, shipped to another process and decoded into any
// simulation built from the same (program, config) pair — the primitive
// behind session export/import and migration.
//
// Safety model (decode never trusts the blob):
//   - a fixed header carries magic, format version, a config hash, a
//     program hash and an FNV-1a payload checksum; stale versions,
//     mismatched configurations/programs, truncation and corruption all
//     fail with a Status before any state is built;
//   - every variable-length field validates its length prefix against the
//     bytes actually remaining, and every index (instruction, rename tag,
//     in-flight table slot) is range-checked against the live
//     configuration, so even a blob crafted to pass the checksum cannot
//     produce out-of-bounds state.
//
// Encode and decode share one field list per record: codec.cpp writes
// each record once, as a template the wire Writer runs to encode and the
// checking Reader runs to decode (snapshot/wire.h), so a field cannot be
// written without being read.
//
// In-flight instructions are encoded as a table plus index lists per
// pipeline container, as the simulation holds them (one instruction
// sitting in the ROB and a load buffer decodes back into one table entry).
//
// The config hash covers the state-shaping configuration only: checkpoint
// settings and the display name are normalized away, so a server may
// clamp a session's checkpoint budget on import without invalidating the
// blob.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "assembler/program.h"
#include "common/status.h"
#include "config/cpu_config.h"
#include "core/simulation.h"

namespace rvss::snapshot {

/// Bumped on any incompatible layout change. Encode writes kFormatVersion
/// only; decode is *versioned*: this build reads every version in
/// [kMinFormatVersion, kFormatVersion], so persisted blobs from older
/// releases keep importing.
/// v2: fast-forward seed (core::FastForwardSeed) and the
/// fastForwardedInstructions statistic.
/// v3: memory-mode byte ahead of the memory image — mode 0 is the full
/// image (v2 layout after the byte), mode 1 is a base-referenced delta
/// (base-epoch id + sparse 4 KiB pages dirtied since the base).
inline constexpr std::uint32_t kFormatVersion = 3;
inline constexpr std::uint32_t kMinFormatVersion = 2;

/// What a blob must match to be restorable. `baseMemory`/`baseEpoch`
/// describe the base image available on the decoding side (the post-Create
/// memory of the same (config, program) pair); they are only consulted for
/// delta-mode blobs, which fail closed without a matching base.
struct CodecContext {
  const config::CpuConfig* config = nullptr;
  const assembler::Program* program = nullptr;
  std::string_view baseMemory{};
  std::uint64_t baseEpoch = 0;
};

/// Encode-side knobs. Encoding always writes kFormatVersion; the defaults
/// produce a full memory image.
struct EncodeOptions {
  /// Non-null selects delta memory mode: one flag per 4 KiB page, set
  /// when the page may differ from the base image. Pages with the flag
  /// clear are *not* shipped and are taken from the decoder's base.
  const std::vector<std::uint8_t>* deltaPages = nullptr;
  /// Identifies the base image a delta was computed against; decode
  /// refuses a delta whose epoch differs from the context's.
  std::uint64_t baseEpoch = 0;
};

/// What DecodeSnapshot learned about the blob's memory section.
struct DecodeInfo {
  bool deltaMemory = false;
  /// Delta mode only: one flag per page, set for pages the blob overlaid
  /// on the base (i.e. the decoded memory's precise dirty-since-base set).
  std::vector<std::uint8_t> overlaidPages;
};

/// FNV-1a over the canonical JSON dump of `config` with checkpoint
/// settings and the display name normalized to defaults (they do not shape
/// simulation state).
[[nodiscard]] std::uint64_t ConfigHash(const config::CpuConfig& config);

/// FNV-1a over the program's instructions, entry point and data image.
[[nodiscard]] std::uint64_t ProgramHash(const assembler::Program& program);

/// Serializes a snapshot. The context must describe the simulation the
/// snapshot came from.
[[nodiscard]] std::string EncodeSnapshot(const core::SimSnapshot& snapshot,
                           const CodecContext& context);
[[nodiscard]] std::string EncodeSnapshot(const core::SimSnapshot& snapshot,
                           const CodecContext& context,
                           const EncodeOptions& options);

/// Parses and validates a blob against `context`. Returns a snapshot ready
/// for Simulation::RestoreState, or an error for any version, hash, size
/// or structural mismatch — including a delta blob whose base the context
/// cannot supply (fail closed, never lossy). Never crashes on malformed
/// input. `info`, when non-null, reports the memory mode encountered.
Result<core::SimSnapshot> DecodeSnapshot(std::string_view blob,
                                         const CodecContext& context,
                                         DecodeInfo* info = nullptr);

}  // namespace rvss::snapshot
