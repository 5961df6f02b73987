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

#include "assembler/program.h"
#include "common/status.h"
#include "config/cpu_config.h"
#include "core/simulation.h"
#include "memory/main_memory.h"

namespace rvss::snapshot {

/// Bumped on any incompatible layout change. Encode writes kFormatVersion
/// only; decode is *versioned*: this build reads every version in
/// [kMinFormatVersion, kFormatVersion], so persisted blobs from older
/// releases keep importing.
/// v2: fast-forward seed (core::FastForwardSeed) and the
/// fastForwardedInstructions statistic.
/// v3: memory-mode byte ahead of the memory image — mode 0 is the full
/// image (v2 layout after the byte), mode 1 is a base-referenced delta
/// (base-epoch id + the sparse 4 KiB pages that are not the base's).
inline constexpr std::uint32_t kFormatVersion = 3;
inline constexpr std::uint32_t kMinFormatVersion = 2;

/// What a blob must match to be restorable. `baseMemory`/`baseEpoch`
/// describe the base available on the decoding side (the memory a fresh
/// Create of the same (config, program) pair holds, see
/// Simulation::baseMemory). A delta-mode blob takes every page it does not
/// ship from that base, and fails closed without a matching one. A full
/// image shares the base's page wherever the bytes are equal.
struct CodecContext {
  const config::CpuConfig* config = nullptr;
  const assembler::Program* program = nullptr;
  const memory::MainMemory::State* baseMemory = nullptr;
  std::uint64_t baseEpoch = 0;
};

/// Encode-side knobs. Encoding always writes kFormatVersion; the defaults
/// produce a full memory image.
struct EncodeOptions {
  /// Non-null selects delta memory mode: only the pages whose pointer
  /// differs from this base's are shipped; the decoder takes the rest
  /// from its own base.
  const memory::MainMemory::State* deltaBase = nullptr;
  /// Identifies the base image a delta was computed against; decode
  /// refuses a delta whose epoch differs from the context's.
  std::uint64_t baseEpoch = 0;
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
/// input. A page a delta ships is never merged into the base's page, even
/// when the bytes are equal, so a decoded delta re-encodes to its bytes.
Result<core::SimSnapshot> DecodeSnapshot(std::string_view blob,
                                         const CodecContext& context);

}  // namespace rvss::snapshot
