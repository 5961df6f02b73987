// Branch prediction: saturating-counter predictors, pattern history table,
// branch target buffer and history registers.
//
// Matches the paper's Branch prediction tab: BTB size, PHT size, predictor
// type (zero / one / two bit), configurable default state, and local or
// global history shift registers. `historyBits = 0` reproduces the paper's
// plain PC-indexed PHT; non-zero history bits mix a shift register into
// the PHT index (local = per-PC registers, global = one register), which
// the paper lists under future work ("advanced branch predictors") and we
// ship as an extension, exercised by bench_predictor_sweep.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "config/cpu_config.h"

namespace rvss::predictor {

/// One direction predictor entry: an n-bit saturating counter (n in
/// {0, 1, 2}). Zero-bit predictors have no state and always predict the
/// configured default direction.
class BitPredictor {
 public:
  BitPredictor(config::PredictorType type, std::uint32_t initialState);

  /// Predicted direction (true = taken).
  bool Predict() const;

  /// Trains with the resolved outcome.
  void Update(bool taken);

  /// Raw counter value (GUI display: e.g. "weakly taken").
  std::uint32_t state() const { return state_; }

  /// Human-readable state name ("strongly not taken", ...).
  const char* StateName() const;

 private:
  config::PredictorType type_;
  std::uint32_t state_ = 0;
  std::uint32_t maxState_ = 0;
};

/// Pattern history table: `size` BitPredictors indexed by PC (optionally
/// hashed with branch history).
class PatternHistoryTable {
 public:
  explicit PatternHistoryTable(const config::PredictorConfig& config);

  bool Predict(std::uint32_t index) const;
  void Update(std::uint32_t index, bool taken);
  const BitPredictor& entry(std::uint32_t index) const {
    return entries_[index & mask_];
  }
  std::uint32_t size() const { return static_cast<std::uint32_t>(entries_.size()); }

  /// Copyable snapshot of every counter.
  struct State {
    std::vector<BitPredictor> entries;
  };
  State SaveState() const { return State{entries_}; }
  void RestoreState(const State& state) { entries_ = state.entries; }

 private:
  std::vector<BitPredictor> entries_;
  std::uint32_t mask_;  // snapshot: derived
};

/// Branch target buffer: direct-mapped PC -> target cache.
class BranchTargetBuffer {
 private:
  struct Entry {
    bool valid = false;
    std::uint32_t pc = 0;
    std::uint32_t target = 0;
  };

 public:
  explicit BranchTargetBuffer(std::uint32_t size);

  /// Returns the stored target for `pc`, or nullopt on miss.
  std::optional<std::uint32_t> Lookup(std::uint32_t pc) const;

  void Insert(std::uint32_t pc, std::uint32_t target);

  std::uint32_t size() const { return static_cast<std::uint32_t>(entries_.size()); }

  /// Copyable snapshot of every entry.
  struct State {
    std::vector<Entry> entries;
  };
  State SaveState() const { return State{entries_}; }
  void RestoreState(const State& state) { entries_ = state.entries; }

 private:
  std::vector<Entry> entries_;
  std::uint32_t mask_;  // snapshot: derived
};

/// The complete front-end predictor: BTB + PHT + history registers.
///
/// Speculative-history discipline: Predict() uses the current (speculative)
/// history; the fetch unit updates speculative history as it predicts, and
/// Resolve() repairs it on mispredictions using the checkpoint the
/// instruction carried.
class PredictorUnit {
 public:
  explicit PredictorUnit(const config::PredictorConfig& config);

  struct Prediction {
    bool predictTaken = false;
    std::optional<std::uint32_t> target;  ///< from BTB; nullopt on BTB miss
    std::uint32_t historyCheckpoint = 0;  ///< to restore on mispredict
  };

  /// Predicts direction and target for the branch at `pc`.
  Prediction Predict(std::uint32_t pc);

  /// Advances speculative history after predicting direction `taken`.
  void SpeculateOutcome(std::uint32_t pc, bool taken);

  /// Trains tables with a resolved branch and, on a misprediction, restores
  /// the history register(s) from `checkpoint` and re-applies the actual
  /// outcome.
  void Resolve(std::uint32_t pc, bool taken, std::uint32_t target,
               bool mispredicted, std::uint32_t checkpoint);

  /// Trains only the BTB (indirect jumps: jalr targets, no direction state).
  void TrainIndirect(std::uint32_t pc, std::uint32_t target) {
    btb_.Insert(pc, target);
  }

  /// Copyable snapshot of all trained state: PHT counters, BTB entries and
  /// the speculative history registers.
  struct State {
    PatternHistoryTable::State pht;
    BranchTargetBuffer::State btb;
    std::uint32_t globalHistory = 0;
    std::vector<std::uint32_t> localHistories;
  };
  State SaveState() const {
    return State{pht_.SaveState(), btb_.SaveState(), globalHistory_,
                 localHistories_};
  }
  void RestoreState(const State& state) {
    pht_.RestoreState(state.pht);
    btb_.RestoreState(state.btb);
    globalHistory_ = state.globalHistory;
    localHistories_ = state.localHistories;
  }

  const PatternHistoryTable& pht() const { return pht_; }
  const BranchTargetBuffer& btb() const { return btb_; }

 private:
  std::uint32_t PhtIndex(std::uint32_t pc, std::uint32_t history) const;
  std::uint32_t HistoryFor(std::uint32_t pc) const;
  void SetHistoryFor(std::uint32_t pc, std::uint32_t history);

  config::PredictorConfig config_;  // snapshot: derived
  PatternHistoryTable pht_;
  BranchTargetBuffer btb_;
  std::uint32_t historyMask_;  // snapshot: derived
  std::uint32_t globalHistory_ = 0;
  std::vector<std::uint32_t> localHistories_;
};

}  // namespace rvss::predictor
