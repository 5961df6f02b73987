// Processor / memory / predictor configuration.
//
// Mirrors the paper's Architecture Settings window tab by tab (§II-C):
//   1. name + core/memory clock speeds,
//   2. "Buffers": ROB size, fetch/commit width, flush penalty, jumps the
//      fetch unit may follow per cycle,
//   3. functional units (FX, FP, LS, branch, memory) with per-operation
//      latencies for FX/FP and plain latencies for the rest,
//   4. "Cache": enable, line count/size, associativity, LRU/FIFO/Random,
//      write-back vs write-through, access and replacement delays,
//   5. "Memory": load/store buffer sizes, load/store latencies, call stack
//      size, register rename file size,
//   6. "Branch prediction": BTB size, PHT size, zero/one/two-bit predictor,
//      default state, local vs global history.
//
// Configurations import/export as JSON (the paper's shareable architecture
// files): one field list (cpu_config.cpp, over json/fields.h) writes and
// reads every key, so an exported session blob, a config hash and a hello
// fingerprint hold each field the reader knows. Validation returns the
// full list of problems, not just the first.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "isa/isa_types.h"
#include "json/json.h"

namespace rvss::config {

enum class ReplacementPolicy : std::uint8_t { kLru, kFifo, kRandom };
enum class StorePolicy : std::uint8_t { kWriteBack, kWriteThrough };
enum class PredictorType : std::uint8_t { kZeroBit, kOneBit, kTwoBit };
enum class HistoryKind : std::uint8_t { kLocal, kGlobal };

/// One functional unit. FX/FP units list the operation classes they can
/// execute with a latency per class; LS, branch and memory units have a
/// single latency.
struct FunctionalUnitConfig {
  enum class Kind : std::uint8_t { kFx, kFp, kLs, kBranch, kMemory };

  Kind kind = Kind::kFx;
  std::string name;  ///< display name; auto-generated when empty

  /// Supported operation classes with their latencies (FX/FP only).
  struct Operation {
    isa::OpClass opClass = isa::OpClass::kIntAlu;
    std::uint32_t latency = 1;
  };
  std::vector<Operation> operations;

  /// Latency for kLs / kBranch / kMemory units.
  std::uint32_t latency = 1;

  /// Latency for `opClass`, or 0 when the unit cannot execute it.
  std::uint32_t LatencyFor(isa::OpClass opClass) const;
};

const char* ToString(FunctionalUnitConfig::Kind kind);

/// Paper tab 2 ("Buffers") — the superscalar width controls.
struct BufferConfig {
  std::uint32_t robSize = 64;
  std::uint32_t fetchWidth = 4;   ///< instructions fetched per cycle
  std::uint32_t commitWidth = 4;  ///< instructions committed per cycle
  std::uint32_t flushPenalty = 2; ///< cycles the front end stalls on flush
  std::uint32_t fetchBranchFollowLimit = 1;  ///< jumps followed per fetch cycle
  std::uint32_t issueWindowSize = 16;        ///< entries per issue window
};

/// Paper tab 4 ("Cache") — L1 data cache geometry and behaviour.
struct CacheConfig {
  bool enabled = true;
  std::uint32_t lineCount = 64;       ///< total lines (all ways)
  std::uint32_t lineSizeBytes = 32;
  std::uint32_t associativity = 2;
  ReplacementPolicy replacement = ReplacementPolicy::kLru;
  StorePolicy storePolicy = StorePolicy::kWriteBack;
  std::uint32_t accessDelay = 1;           ///< hit latency, cycles
  std::uint32_t lineReplacementDelay = 10; ///< extra cycles on refill
};

/// Paper tab 5 ("Memory").
struct MemoryConfig {
  std::uint32_t sizeBytes = 64 * 1024;
  std::uint32_t loadBufferSize = 16;
  std::uint32_t storeBufferSize = 16;
  std::uint32_t loadLatency = 10;   ///< main-memory load latency, cycles
  std::uint32_t storeLatency = 10;
  std::uint32_t callStackBytes = 4096;
  std::uint32_t renameRegisterCount = 64;  ///< speculative register file size
};

/// Backward-simulation checkpointing (not a paper tab; powers the O(K)
/// StepBack/scrubbing path instead of the paper's re-execution from reset).
struct CheckpointConfig {
  /// Cycles between automatic snapshots; 0 stops them, so a rewind
  /// replays from the timeline's origin (the paper's full re-execution).
  std::uint64_t intervalCycles = 1024;
  /// Memory budget for the per-simulation checkpoint ring; the oldest
  /// checkpoints but the origin are evicted beyond this.
  std::uint64_t maxTotalBytes = 64ull * 1024 * 1024;
  /// Grow the effective checkpoint interval (doubling, up to 1024x) when
  /// observed bytes/checkpoint exceed the byte budget, instead of churning
  /// the ring through evictions.
  bool adaptiveInterval = false;
};

/// Paper tab 6 ("Branch prediction").
struct PredictorConfig {
  std::uint32_t btbSize = 64;
  std::uint32_t phtSize = 64;
  PredictorType type = PredictorType::kTwoBit;
  std::uint32_t defaultState = 0;  ///< initial counter value (0..2^bits-1)
  HistoryKind history = HistoryKind::kLocal;
  std::uint32_t historyBits = 0;   ///< 0 = plain PC indexing; >0 mixes a
                                   ///< history shift register into the index
};

/// The largest memory Validate admits, and so the largest data image a
/// program may assemble: a `memory: true` render writes two hex digits per
/// byte, so this is the largest power of two whose render fits the 256 MiB
/// frame cap.
inline constexpr std::uint32_t kMaxMemoryBytes = 64u << 20;

/// Complete architecture description.
struct CpuConfig {
  std::string name = "rvss-default";
  std::uint64_t coreClockHz = 100'000'000;
  std::uint64_t memClockHz = 100'000'000;
  BufferConfig buffers;
  std::vector<FunctionalUnitConfig> functionalUnits;
  CacheConfig cache;
  MemoryConfig memory;
  PredictorConfig predictor;
  CheckpointConfig checkpoint;
  /// The paper raises an exception on division by zero at commit; RISC-V
  /// itself does not trap. Off by default for spec fidelity.
  bool trapOnDivZero = false;
  /// Seed for the Random cache-replacement policy (determinism is required
  /// for backward simulation).
  std::uint64_t randomSeed = 1;
};

/// JSON round trip (architecture import/export). A key that is absent,
/// or holds another JSON type, keeps its default; a config without
/// `functionalUnits` gets the default preset's units. A unit reads the
/// member its kind uses: `operations` for FX/FP, `latency` otherwise. A
/// number outside its field's range is refused, naming the key's path.
json::Json ToJson(const CpuConfig& config);
Result<CpuConfig> CpuConfigFromJson(const json::Json& node);

/// Validates a configuration; returns every problem found. An empty vector
/// means the configuration is usable.
std::vector<Error> Validate(const CpuConfig& config);

/// Presets, mirroring the paper's switchable architectures.
CpuConfig DefaultConfig();       ///< balanced 4-wide OoO core
CpuConfig ScalarConfig();        ///< single-issue baseline (Creator/Venus-like)
CpuConfig WideConfig();          ///< aggressive 8-wide core
CpuConfig NoCacheConfig();       ///< default core with the L1 disabled

}  // namespace rvss::config
