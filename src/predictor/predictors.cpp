#include "predictor/predictors.h"

namespace rvss::predictor {

BitPredictor::BitPredictor(config::PredictorType type,
                           std::uint32_t initialState)
    : type_(type), state_(initialState) {
  switch (type_) {
    // Zero-bit predictors have no trained state, but the configured
    // default acts as the fixed direction (0 = not taken, 1 = taken).
    case config::PredictorType::kZeroBit: maxState_ = 1; break;
    case config::PredictorType::kOneBit: maxState_ = 1; break;
    case config::PredictorType::kTwoBit: maxState_ = 3; break;
  }
  if (state_ > maxState_) state_ = maxState_;
}

bool BitPredictor::Predict() const {
  switch (type_) {
    case config::PredictorType::kZeroBit:
      // Stateless: the "default state" acts as the fixed prediction
      // (0 = always not taken, which is the classic static predictor).
      return state_ != 0;
    case config::PredictorType::kOneBit:
      return state_ != 0;
    case config::PredictorType::kTwoBit:
      return state_ >= 2;
  }
  return false;
}

void BitPredictor::Update(bool taken) {
  if (type_ == config::PredictorType::kZeroBit) return;
  if (taken) {
    if (state_ < maxState_) ++state_;
  } else {
    if (state_ > 0) --state_;
  }
}

const char* BitPredictor::StateName() const {
  switch (type_) {
    case config::PredictorType::kZeroBit:
      return state_ != 0 ? "always taken" : "always not taken";
    case config::PredictorType::kOneBit:
      return state_ != 0 ? "taken" : "not taken";
    case config::PredictorType::kTwoBit:
      switch (state_) {
        case 0: return "strongly not taken";
        case 1: return "weakly not taken";
        case 2: return "weakly taken";
        default: return "strongly taken";
      }
  }
  return "unknown";
}

PatternHistoryTable::PatternHistoryTable(const config::PredictorConfig& config)
    : entries_(config.phtSize, BitPredictor(config.type, config.defaultState)),
      mask_(config.phtSize - 1) {}

bool PatternHistoryTable::Predict(std::uint32_t index) const {
  return entries_[index & mask_].Predict();
}

void PatternHistoryTable::Update(std::uint32_t index, bool taken) {
  entries_[index & mask_].Update(taken);
}

BranchTargetBuffer::BranchTargetBuffer(std::uint32_t size)
    : entries_(size), mask_(size - 1) {}

std::optional<std::uint32_t> BranchTargetBuffer::Lookup(std::uint32_t pc) const {
  const Entry& entry = entries_[(pc >> 2) & mask_];
  if (entry.valid && entry.pc == pc) return entry.target;
  return std::nullopt;
}

void BranchTargetBuffer::Insert(std::uint32_t pc, std::uint32_t target) {
  Entry& entry = entries_[(pc >> 2) & mask_];
  entry.valid = true;
  entry.pc = pc;
  entry.target = target;
}

PredictorUnit::PredictorUnit(const config::PredictorConfig& config)
    : config_(config),
      pht_(config),
      btb_(config.btbSize),
      historyMask_((config.historyBits >= 32
                        ? 0xffffffffu
                        : (1u << config.historyBits) - 1u)) {
  if (config_.history == config::HistoryKind::kLocal &&
      config_.historyBits > 0) {
    localHistories_.assign(config_.phtSize, 0);
  }
}

std::uint32_t PredictorUnit::HistoryFor(std::uint32_t pc) const {
  if (config_.historyBits == 0) return 0;
  if (config_.history == config::HistoryKind::kGlobal) return globalHistory_;
  return localHistories_[(pc >> 2) & (config_.phtSize - 1)];
}

void PredictorUnit::SetHistoryFor(std::uint32_t pc, std::uint32_t history) {
  if (config_.historyBits == 0) return;
  if (config_.history == config::HistoryKind::kGlobal) {
    globalHistory_ = history & historyMask_;
  } else {
    localHistories_[(pc >> 2) & (config_.phtSize - 1)] = history & historyMask_;
  }
}

std::uint32_t PredictorUnit::PhtIndex(std::uint32_t pc,
                                      std::uint32_t history) const {
  // gshare-style XOR mix; with historyBits == 0 this degenerates to plain
  // PC indexing, the paper's base design.
  return ((pc >> 2) ^ history) & (config_.phtSize - 1);
}

PredictorUnit::Prediction PredictorUnit::Predict(std::uint32_t pc) {
  Prediction prediction;
  const std::uint32_t history = HistoryFor(pc);
  prediction.historyCheckpoint = history;
  prediction.predictTaken = pht_.Predict(PhtIndex(pc, history));
  prediction.target = btb_.Lookup(pc);
  return prediction;
}

void PredictorUnit::SpeculateOutcome(std::uint32_t pc, bool taken) {
  if (config_.historyBits == 0) return;
  const std::uint32_t history = HistoryFor(pc);
  SetHistoryFor(pc, (history << 1) | (taken ? 1u : 0u));
}

void PredictorUnit::Resolve(std::uint32_t pc, bool taken, std::uint32_t target,
                            bool mispredicted, std::uint32_t checkpoint) {
  pht_.Update(PhtIndex(pc, checkpoint), taken);
  if (taken) btb_.Insert(pc, target);
  if (mispredicted && config_.historyBits != 0) {
    // Squash the wrong speculative history and re-apply the real outcome.
    SetHistoryFor(pc, (checkpoint << 1) | (taken ? 1u : 0u));
  }
}

}  // namespace rvss::predictor
