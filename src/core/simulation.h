// The out-of-order superscalar pipeline simulator — the paper's primary
// contribution.
//
// Pipeline structure (paper §II-A / §III-A): a fetch unit with branch
// prediction that can follow a configurable number of jumps per cycle, a
// decode/rename stage, per-class issue windows (FX, FP, LS-address,
// branch), configurable functional units without internal pipelining, load
// and store buffers with store-to-load forwarding, a memory-access unit in
// front of the L1 cache, and a reorder buffer committing in order with
// exception checks at commit.
//
// One clock cycle executes the blocks in reverse pipeline order
// (commit -> complete -> memory -> issue -> decode -> fetch); completing
// a functional unit early in the cycle and re-filling it later implements
// the paper's "two sub-steps ... to allow the completion of the current
// instruction and the loading of the next one within a single clock
// cycle".
//
// Backward simulation (paper §III-B) builds on determinism: the whole
// simulation is fully determined by the (program, config) pair, so any
// earlier cycle is reachable by replaying forward from a known state. The
// paper replays from reset (O(n) per backward step); this implementation
// snapshots the complete simulation state into a CheckpointRing every K
// cycles, so StepBack restores the nearest checkpoint at or before the
// target and replays at most K cycles — O(K) per backward step. The ring
// always holds the timeline's origin (cycle 0, or the oldest state an
// imported fast-forwarded session can reach), so every rewind restores a
// ring entry; with checkpoints disabled that entry is the origin, which
// is the paper's re-execution from reset.
#pragma once

#include <array>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "assembler/loader.h"
#include "common/log.h"
#include "common/status.h"
#include "config/cpu_config.h"
#include "core/checkpoint_ring.h"
#include "core/inflight.h"
#include "core/rename.h"
#include "expr/expression_cache.h"
#include "memory/memory_system.h"
#include "predictor/predictors.h"
#include "stats/simulation_statistics.h"

namespace rvss::core {

enum class SimStatus : std::uint8_t { kRunning, kFinished, kFault };
enum class FinishReason : std::uint8_t {
  kNone,
  kMainReturned,   ///< jump to the exit sentinel committed
  kHalted,         ///< ecall / ebreak committed
  kPipelineEmpty,  ///< fetch ran past the program and the pipeline drained
  kException,      ///< runtime exception committed
};

const char* ToString(SimStatus status);
const char* ToString(FinishReason reason);

/// Issue-window identity (one per functional-unit class).
enum class WindowKind : std::uint8_t { kFx, kFp, kLs, kBranch };

/// Static routing of one operand slot, computed once at program load: the
/// slot's classification plus any value that does not depend on runtime
/// state (converted immediates, x0 reads).
struct PredecodedOperand {
  enum class Kind : std::uint8_t {
    kImmediate,   ///< non-register operand; `fixed` holds the converted value
    kZeroSource,  ///< x0 source; `fixed` holds the typed zero
    kRegSource,   ///< register source, renamed at decode
    kDestX0,      ///< write-back to x0 (or malformed dest): discarded
    kDest,        ///< write-back register, allocated at decode
  };
  Kind kind = Kind::kImmediate;
  isa::RegisterId reg;   ///< for kRegSource / kDest
  isa::ArgType type{};   ///< declared argument type
  expr::Value fixed;     ///< for kImmediate / kZeroSource
};

/// One fully predecoded static instruction — everything the per-cycle
/// stages would otherwise recompute for every dynamic instance: the
/// resolved definition, the compiled semantics expression, operand routing,
/// and the pc-relative branch offset (kills the ArgIndex("imm") string
/// lookups in fetch and branch resolution).
///
/// Derived entirely from the immutable (program, ISA) pair, so the table is
/// built once in Create and never snapshotted: checkpoint/session restores
/// rebuild nothing, and ring/snapshot byte accounting counts it as zero.
struct PredecodedOp {
  const isa::InstructionDescription* def = nullptr;
  const expr::Expression* expr = nullptr;  ///< null when compilation failed
  std::optional<Error> exprError;          ///< surfaced at execute time
  WindowKind window = WindowKind::kFx;
  std::uint8_t operandCount = 0;
  std::uint8_t destsNeeded = 0;  ///< rename registers required at decode
  bool isControl = false;
  std::int32_t branchImm = 0;  ///< pc-relative offset (conditional / jal)
  /// Compile-time shape of the semantics expression; when recognized the
  /// finalizers apply the operator directly instead of running the stack
  /// machine (copied from expr so the hot path has one indirection fewer).
  expr::Expression::FastForm fast;
  std::array<PredecodedOperand, 4> operands{};
};

/// Runtime state of one functional unit.
struct FunctionalUnit {
  /// Dense cache of config.LatencyFor over every isa::OpClass value, so
  /// the issue stage's unit scan is an array read, not a list search.
  static constexpr std::size_t kOpClassCount =
      static_cast<std::size_t>(isa::OpClass::kMemAddr) + 1;

  config::FunctionalUnitConfig config;
  std::array<std::uint32_t, kOpClassCount> latencyByClass{};
  std::size_t statsIndex = 0;     ///< index into statistics().unitUsage
  Slot current = kNoSlot;         ///< instruction in execution, if any
  std::uint64_t busyUntil = 0;    ///< cycle the current instruction finishes
};

/// Architectural state a fast-forward deposited at the start of the
/// detailed window: the ISS-computed registers and PC the detailed model
/// was (re-)seeded with, plus the number of instructions skipped. Carried
/// by snapshots so an exported fast-forwarded session stays coherent when
/// imported into a fresh process (whose cycle-0 state is pre-fast-forward).
struct FastForwardSeed {
  std::array<std::uint64_t, 32> x{};
  std::array<std::uint64_t, 32> f{};
  std::uint32_t pc = 0;
  std::uint64_t instructions = 0;  ///< instructions executed on the ISS

  friend bool operator==(const FastForwardSeed&,
                         const FastForwardSeed&) = default;
};

/// Complete copyable snapshot of a Simulation's mutable state.
///
/// Every field but the memory image is a value: the in-flight table and
/// the slot containers that index it are copied as they are. The memory
/// image holds copy-on-write page pointers, shared with the live run until
/// it next writes those pages (memory/main_memory.h). Either way nothing
/// the live run does changes the snapshot, and one snapshot can seed many
/// restores (checkpoint ring, session forks).
struct SimSnapshot {
  std::uint64_t cycle = 0;
  std::uint64_t nextSeq = 1;
  std::uint32_t pc = 0;
  std::uint64_t fetchResumeCycle = 0;
  bool fetchStalledIndirect = false;
  SimStatus status = SimStatus::kRunning;
  FinishReason finishReason = FinishReason::kNone;
  std::optional<Error> fault;

  InFlightTable inFlight;
  std::deque<Slot> fetchQueue;
  std::deque<Slot> rob;
  std::array<std::vector<Slot>, 4> windows;
  std::deque<Slot> loadBuffer;
  std::deque<Slot> storeBuffer;
  std::vector<Slot> fuCurrent;             ///< per functional unit
  std::vector<std::uint64_t> fuBusyUntil;  ///< per functional unit

  ArchRegisterFile::State arch;
  RenameState::State rename;
  predictor::PredictorUnit::State predictor;
  memory::MemorySystem::State memory;
  stats::SimulationStatistics::State stats;
  SimLog::State log;

  /// Set when the timeline this snapshot belongs to began with a
  /// fast-forward (see Simulation::FastForwardTo).
  std::optional<FastForwardSeed> ffSeed;

  /// Approximate heap footprint without the memory pages, which the
  /// checkpoint ring charges by what its entries share.
  std::size_t SizeBytes() const;
};

class Simulation {
 public:
  struct CreateOptions {
    std::vector<memory::ArrayDefinition> arrays;
    std::string entryLabel;
  };

  /// Validates the configuration, assembles `source`, lays out memory and
  /// constructs a ready-to-step simulation.
  static Result<std::unique_ptr<Simulation>> Create(
      const config::CpuConfig& config, std::string_view source,
      const CreateOptions& options = {});

  /// Advances one clock cycle. No-op once finished.
  void Step();

  /// Runs until completion or `maxCycles` more cycles.
  SimStatus Run(std::uint64_t maxCycles = UINT64_MAX);

  /// Backward simulation (paper §III-B): equivalent to SeekTo(cycle()-1).
  /// With checkpointing enabled this restores the nearest checkpoint and
  /// replays at most one interval. Fails at cycle 0, or when the replay
  /// would exceed `maxReplayCycles` (checkpoints disabled or evicted;
  /// servers pass their per-request bound).
  Status StepBack(std::uint64_t maxReplayCycles = UINT64_MAX);

  /// Seeks to an arbitrary cycle, backward or forward. Restores the
  /// newest checkpoint at or before `targetCycle` (a forward seek keeps
  /// the current state unless a checkpoint lies ahead of it) and replays
  /// the remainder; replay stops early if the program finishes. Fails for
  /// a target before the origin. `maxReplayCycles` bounds the replay
  /// distance: a seek that would need more returns an error without
  /// touching the state (servers pass their per-request bound).
  Status SeekTo(std::uint64_t targetCycle,
                std::uint64_t maxReplayCycles = UINT64_MAX);

  /// Returns to the timeline's origin (SeekTo(earliestReachableCycle())):
  /// cycle 0, the post-skip cycle 0 of a fast-forwarded session, or the
  /// import point of an imported fast-forwarded one. The checkpoint ring
  /// itself survives — determinism keeps it valid.
  void Reset();

  /// Skips the program's warm-up phase on the reference ISS: executes up
  /// to `instructionCount` instructions one at a time on the golden model
  /// (sharing this simulation's memory), then re-seeds the detailed model
  /// from the resulting architectural state. Cycle stays 0 — the detailed
  /// window starts *after* the skipped prefix, and all backward/forward
  /// seeking operates within it. Valid only on a freshly created or Reset
  /// simulation (cycle 0, running, not already fast-forwarded).
  ///
  /// If the program completes on the ISS (exit / halt / run-off / fault),
  /// the simulation finishes with the matching reason instead of resuming.
  /// Statistics record the skipped instructions separately
  /// (fastForwardedInstructions); they do not count as fetched/committed.
  Status FastForwardTo(std::uint64_t instructionCount);

  /// The fast-forward seed this timeline began with, if any.
  const std::optional<FastForwardSeed>& fastForwardSeed() const {
    return ffSeed_;
  }

  /// Cycles below this are not reachable by SeekTo/StepBack: the cycle of
  /// the ring's origin. Non-zero only in sessions imported from a
  /// fast-forwarded export, where the blob's snapshot is the oldest state
  /// this process can reconstruct.
  std::uint64_t earliestReachableCycle() const {
    return checkpoints_.origin().cycle;
  }

  // --- explicit state -------------------------------------------------------

  /// Captures the complete mutable state. The memory pages are shared
  /// with the live run, which copies a page before its next write to it,
  /// so the snapshot never changes.
  SimSnapshot SaveState() const;

  /// Restores a snapshot previously captured from an identical
  /// (program, config) pair. The snapshot itself is not consumed. A
  /// snapshot whose fast-forward seed differs from this timeline's (an
  /// imported fast-forwarded session) starts a new timeline: the ring is
  /// cleared and the restored state becomes its origin.
  void RestoreState(const SimSnapshot& snapshot);

  /// Deposits a checkpoint of the current state into the ring (the server's
  /// `saveCheckpoint` command); automatic checkpoints are taken by Step()
  /// every config().checkpoint.intervalCycles cycles.
  void CaptureCheckpointNow();

  const CheckpointRing& checkpoints() const { return checkpoints_; }

  /// Cycles replayed by the most recent SeekTo/StepBack/Reset — the
  /// O(interval) claim, observable (tests and the stepback bench).
  std::uint64_t lastSeekReplayedCycles() const {
    return lastSeekReplayedCycles_;
  }

  // --- state inspection ----------------------------------------------------
  std::uint64_t cycle() const { return cycle_; }
  SimStatus status() const { return status_; }
  FinishReason finishReason() const { return finishReason_; }
  const std::optional<Error>& fault() const { return fault_; }
  std::uint32_t fetchPc() const { return pc_; }

  const config::CpuConfig& config() const { return config_; }
  const assembler::Program& program() const { return loaded_.program; }
  const stats::SimulationStatistics& statistics() const { return stats_; }
  const memory::MemorySystem& memorySystem() const { return *memory_; }
  memory::MemorySystem& memorySystem() { return *memory_; }

  /// The memory a fresh Create of this (config, program) pair holds: the
  /// base delta session blobs are encoded against. A delta ships the pages
  /// whose pointer differs from this base's.
  const memory::MainMemory::State& baseMemory() const { return baseMemory_; }

  /// FNV-1a hash of baseMemory()'s bytes. Together with the config and
  /// program hashes it identifies the base across processes.
  std::uint64_t memoryBaseEpoch() const { return memoryBaseEpoch_; }

  const ArchRegisterFile& archRegs() const { return arch_; }
  const RenameState& rename() const { return rename_; }
  const predictor::PredictorUnit& predictor() const { return predictor_; }
  SimLog& log() { return log_; }
  const SimLog& log() const { return log_; }

  /// The in-flight instructions; the containers below and the busy units
  /// hold slots into it, and every live entry is held by one of them.
  const InFlightTable& inFlight() const { return inFlight_; }
  const InFlight& inFlight(Slot slot) const { return *inFlight_[slot]; }
  const std::deque<Slot>& fetchQueue() const { return fetchQueue_; }
  const std::deque<Slot>& rob() const { return rob_; }
  const std::vector<Slot>& window(WindowKind kind) const {
    return windows_[static_cast<std::size_t>(kind)];
  }
  const std::deque<Slot>& loadBuffer() const { return loadBuffer_; }
  const std::deque<Slot>& storeBuffer() const { return storeBuffer_; }
  const std::vector<FunctionalUnit>& functionalUnits() const { return fus_; }

  /// Optional commit-order trace: every committed PC is appended to
  /// `sink` (tests and the backward-simulation determinism checks).
  void SetCommitTraceSink(std::vector<std::uint32_t>* sink) {
    commitTraceSink_ = sink;
  }

  /// Architectural value of an integer/FP register as seen at commit.
  std::uint64_t ReadIntReg(unsigned index) const {
    return arch_.Read(isa::RegisterId{isa::RegisterKind::kInt,
                                      static_cast<std::uint8_t>(index)});
  }
  std::uint64_t ReadFpReg(unsigned index) const {
    return arch_.Read(isa::RegisterId{isa::RegisterKind::kFp,
                                      static_cast<std::uint8_t>(index)});
  }

 private:
  /// Sets up cycle 0 but for the memory, which Create loads.
  Simulation(config::CpuConfig config, assembler::LoadedProgram loaded);

  /// Deposits an automatic checkpoint when the ring wants one.
  void MaybeCheckpoint();

  // Pipeline stages, in the order Step() runs them.
  void StageCommit();
  void StageComplete();
  void StageMemory();
  void StageIssue();
  void StageDecode();
  void StageFetch();

  /// Gives a fetched instruction a slot, reusing a free one when it can.
  /// The table may grow, so no InFlight& may be held across this call.
  Slot AddInFlight();
  void ReleaseInFlight(Slot slot);

  // Helpers.
  void FinalizeAlu(InFlight& inst);
  void FinalizeAddressGen(InFlight& inst);
  /// Returns whether fetch must be redirected after `inst`.
  bool ResolveBranch(InFlight& inst);
  void CompleteLoad(InFlight& inst);
  void WriteDestinations(InFlight& inst, const expr::EvalResult& result);
  /// Single-destination write-back used by the FastForm ALU path.
  void WriteDest(InFlight& inst, int argIndex, const expr::Value& value);
  void WakeUp(int tag, std::uint64_t cell);
  void FlushYoungerThan(std::uint64_t seq, std::uint32_t newPc);
  void Finish(FinishReason reason);
  bool StoreDataReady(const InFlight& inst) const;
  std::uint64_t StoreRawData(const InFlight& inst) const;
  /// Copies the captured operand values into `scratch` and returns the
  /// populated prefix — the hot-path replacement for the old
  /// vector-returning GatherArgs (no allocation).
  std::span<const expr::Value> GatherArgs(
      const InFlight& inst, std::array<expr::Value, 4>& scratch) const;
  WindowKind WindowFor(isa::OpClass opClass) const;
  config::FunctionalUnitConfig::Kind FuKindFor(WindowKind kind) const;

  /// Builds predecoded_ from the loaded program (Create-time only).
  void BuildPredecode();
  const PredecodedOp& Predecoded(const InFlight& inst) const {
    return predecoded_[static_cast<std::size_t>(
        inst.inst - loaded_.program.instructions.data())];
  }

  config::CpuConfig config_;                       // snapshot: derived
  assembler::LoadedProgram loaded_;                // snapshot: derived
  memory::MainMemory::State baseMemory_;           // snapshot: derived
  std::uint64_t memoryBaseEpoch_ = 0;              // snapshot: derived
  /// Predecode cache, parallel to loaded_.program.instructions (pc = 4*i).
  /// Derived state: never snapshotted, never invalidated (program is
  /// immutable for the simulation's lifetime).
  std::vector<PredecodedOp> predecoded_;  // snapshot: derived
  /// Reusable evaluation scratch for the execution finalizers; its writes
  /// vector keeps its capacity across cycles (see expr::EvaluateInto).
  expr::EvalResult evalScratch_;  // snapshot: derived

  std::unique_ptr<memory::MemorySystem> memory_;
  predictor::PredictorUnit predictor_;
  ArchRegisterFile arch_;
  RenameState rename_;
  expr::ExpressionCache expressions_;  // snapshot: derived
  stats::SimulationStatistics stats_;
  SimLog log_;

  std::uint64_t cycle_ = 0;
  std::uint64_t nextSeq_ = 1;
  std::uint32_t pc_ = 0;
  std::uint64_t fetchResumeCycle_ = 0;  ///< flush-penalty stall
  bool fetchStalledIndirect_ = false;   ///< waiting for a BTB-miss jalr
  SimStatus status_ = SimStatus::kRunning;
  FinishReason finishReason_ = FinishReason::kNone;
  std::optional<Error> fault_;

  /// Who releases a slot: commit releases every instruction but a store;
  /// a store is released when its drain completes (StageComplete's memory
  /// unit); a flush releases each squashed fetch-queue entry and each ROB
  /// entry it pops. Window, buffer and unit entries are ROB entries, so
  /// nothing else releases. Live entries never exceed robSize +
  /// 2 * fetchWidth + storeBufferSize.
  InFlightTable inFlight_;
  /// The empty entries of inFlight_.
  std::vector<Slot> freeSlots_;  // snapshot: derived
  std::deque<Slot> fetchQueue_;
  std::deque<Slot> rob_;
  std::array<std::vector<Slot>, 4> windows_;
  std::deque<Slot> loadBuffer_;
  std::deque<Slot> storeBuffer_;
  std::vector<FunctionalUnit> fus_;
  /// Indices into fus_ of the units each issue window can dispatch to,
  /// grouped once at construction (issue never scans foreign-kind units).
  std::array<std::vector<std::uint32_t>, 4> fusByWindow_;  // snapshot: derived
  std::vector<std::uint32_t>* commitTraceSink_ = nullptr;  // snapshot: derived

  CheckpointRing checkpoints_;                 // snapshot: derived
  std::uint64_t lastSeekReplayedCycles_ = 0;   // snapshot: derived

  /// Seed the detailed window started from (see FastForwardTo).
  std::optional<FastForwardSeed> ffSeed_;
};

}  // namespace rvss::core
