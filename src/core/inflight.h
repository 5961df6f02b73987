// In-flight instruction state — everything the GUI's instruction pop-up
// shows (paper Fig. 3): parameter values and validity, renaming details,
// flags, and the timestamps of each completed pipeline phase.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "assembler/program.h"
#include "common/status.h"
#include "expr/value.h"

namespace rvss::core {

enum class Phase : std::uint8_t {
  kFetched,    ///< sitting in the fetch queue
  kDecoded,    ///< renamed, waiting in an issue window / LS buffer
  kExecuting,  ///< occupying a functional unit
  kDone,       ///< results ready, waiting for in-order commit
  kCommitted,
  kSquashed,   ///< killed by a pipeline flush
};

const char* ToString(Phase phase);

/// Runtime state of one operand slot (parallel to the definition's args).
struct OperandRuntime {
  bool isSource = false;   ///< source register operand
  bool isDest = false;     ///< write-back register operand
  bool ready = true;       ///< source value captured (immediates start ready)
  expr::Value value;       ///< captured source value / computed result
  int waitTag = -1;        ///< speculative register this source waits on
  int destTag = -1;        ///< allocated speculative register (-1: discard x0)
  int prevTag = -1;        ///< previous mapping of the dest architectural
                           ///< register (-2 = was architectural)
};

/// Sentinel for OperandRuntime::prevTag: the architectural register was not
/// renamed before this instruction.
inline constexpr int kPrevWasArchitectural = -2;

/// One dynamic instruction flowing through the pipeline.
struct InFlight {
  std::uint64_t seq = 0;  ///< program-order sequence number
  const assembler::Instruction* inst = nullptr;
  std::uint32_t pc = 0;
  Phase phase = Phase::kFetched;

  std::array<OperandRuntime, 4> operands{};
  std::uint8_t operandCount = 0;

  // --- speculation state ---------------------------------------------------
  bool isControl = false;
  bool predictedTaken = false;
  std::uint32_t predictedNextPc = 0;  ///< PC fetch continued from
  std::uint32_t historyCheckpoint = 0;
  bool btbHit = false;

  // --- resolution ------------------------------------------------------------
  bool branchTaken = false;
  std::uint32_t branchTarget = 0;
  bool mispredicted = false;
  bool isExit = false;  ///< jump landed on the exit sentinel

  // --- memory ---------------------------------------------------------------
  bool addressReady = false;
  std::uint32_t effectiveAddress = 0;
  bool memoryStarted = false;   ///< access handed to a memory unit
  bool memoryDone = false;      ///< load data fetched / store drained
  bool cacheHit = false;
  bool forwarded = false;       ///< load satisfied by store-to-load forwarding
  std::uint64_t forwardedRaw = 0;
  bool drainPending = false;    ///< store committed, awaiting its write timing
  bool drainStarted = false;
  bool stalledFetch = false;    ///< jalr that stopped fetch on a BTB miss

  // --- completion -------------------------------------------------------------
  bool resultsReady = false;
  std::optional<Error> exception;

  // --- timestamps (cycle numbers; 0 = not reached) ---------------------------
  std::uint64_t fetchCycle = 0;
  std::uint64_t decodeCycle = 0;
  std::uint64_t issueCycle = 0;
  std::uint64_t executeDoneCycle = 0;
  std::uint64_t commitCycle = 0;

  bool IsLoad() const { return inst->def->mem.isLoad; }
  bool IsStore() const { return inst->def->mem.isStore; }
};

/// Every in-flight instruction of one simulation. An empty entry is a free
/// slot; the pipeline containers and the functional units hold slots.
using InFlightTable = std::vector<std::optional<InFlight>>;

/// Index of an instruction in its simulation's InFlightTable.
using Slot = std::uint32_t;

/// The slot an idle functional unit holds.
inline constexpr Slot kNoSlot = 0xffffffffu;

}  // namespace rvss::core
