// Branch-prediction tests: saturating counters, PHT, BTB and history.
#include <gtest/gtest.h>

#include "predictor/predictors.h"

namespace rvss::predictor {
namespace {

using config::HistoryKind;
using config::PredictorType;

TEST(BitPredictor, ZeroBitIsStatic) {
  BitPredictor notTaken(PredictorType::kZeroBit, 0);
  BitPredictor taken(PredictorType::kZeroBit, 1);
  for (bool outcome : {true, false, true, true}) {
    notTaken.Update(outcome);
    taken.Update(outcome);
  }
  EXPECT_FALSE(notTaken.Predict());
  EXPECT_TRUE(taken.Predict());
}

TEST(BitPredictor, OneBitFollowsLastOutcome) {
  BitPredictor predictor(PredictorType::kOneBit, 0);
  EXPECT_FALSE(predictor.Predict());
  predictor.Update(true);
  EXPECT_TRUE(predictor.Predict());
  predictor.Update(false);
  EXPECT_FALSE(predictor.Predict());
}

TEST(BitPredictor, TwoBitHysteresis) {
  BitPredictor predictor(PredictorType::kTwoBit, 3);  // strongly taken
  predictor.Update(false);
  EXPECT_TRUE(predictor.Predict()) << "one miss must not flip a strong state";
  predictor.Update(false);
  EXPECT_FALSE(predictor.Predict());
  EXPECT_STREQ(predictor.StateName(), "weakly not taken");
  predictor.Update(true);
  EXPECT_STREQ(predictor.StateName(), "weakly taken");
}

TEST(BitPredictor, CountersSaturate) {
  BitPredictor predictor(PredictorType::kTwoBit, 0);
  for (int i = 0; i < 10; ++i) predictor.Update(false);
  EXPECT_EQ(predictor.state(), 0u);
  for (int i = 0; i < 10; ++i) predictor.Update(true);
  EXPECT_EQ(predictor.state(), 3u);
}

TEST(Btb, StoresAndEvictsByIndex) {
  BranchTargetBuffer btb(16);
  EXPECT_FALSE(btb.Lookup(0x40).has_value());
  btb.Insert(0x40, 0x100);
  EXPECT_EQ(btb.Lookup(0x40).value(), 0x100u);
  // Same index (pc/4 mod 16), different tag: evicts.
  btb.Insert(0x40 + 16 * 4, 0x200);
  EXPECT_FALSE(btb.Lookup(0x40).has_value());
  EXPECT_EQ(btb.Lookup(0x40 + 64).value(), 0x200u);
}

config::PredictorConfig TwoBitConfig(std::uint32_t historyBits = 0,
                                     HistoryKind kind = HistoryKind::kLocal) {
  config::PredictorConfig config;
  config.btbSize = 16;
  config.phtSize = 64;
  config.type = PredictorType::kTwoBit;
  config.defaultState = 0;
  config.history = kind;
  config.historyBits = historyBits;
  return config;
}

TEST(PredictorUnit, LearnsAlwaysTakenLoopBranch) {
  PredictorUnit unit(TwoBitConfig());
  int correct = 0;
  for (int i = 0; i < 100; ++i) {
    auto prediction = unit.Predict(0x80);
    const bool taken = true;
    if (prediction.predictTaken == taken) ++correct;
    unit.Resolve(0x80, taken, 0x40, prediction.predictTaken != taken,
                 prediction.historyCheckpoint);
  }
  EXPECT_GE(correct, 97);
  EXPECT_EQ(unit.Predict(0x80).target.value(), 0x40u);
}

TEST(PredictorUnit, PlainPhtFailsOnAlternatingPattern) {
  // Without history, a strictly alternating branch defeats a two-bit
  // counter; with history bits it becomes perfectly predictable.
  auto accuracyWith = [](std::uint32_t historyBits) {
    PredictorUnit unit(TwoBitConfig(historyBits, HistoryKind::kGlobal));
    int correct = 0;
    for (int i = 0; i < 400; ++i) {
      const bool taken = (i % 2) == 0;
      auto prediction = unit.Predict(0x80);
      if (prediction.predictTaken == taken) ++correct;
      unit.SpeculateOutcome(0x80, prediction.predictTaken);
      unit.Resolve(0x80, taken, 0x40, prediction.predictTaken != taken,
                   prediction.historyCheckpoint);
    }
    return correct;
  };
  EXPECT_LE(accuracyWith(0), 240);
  EXPECT_GE(accuracyWith(4), 380);
}

TEST(PredictorUnit, MispredictRestoresHistoryCheckpoint) {
  PredictorUnit unit(TwoBitConfig(4, HistoryKind::kGlobal));
  auto p1 = unit.Predict(0x10);
  unit.SpeculateOutcome(0x10, true);   // speculate taken
  auto p2 = unit.Predict(0x10);
  // Resolution says not-taken: history rolls back to the checkpoint plus
  // the real outcome, so a fresh prediction sees consistent history.
  unit.Resolve(0x10, false, 0x40, /*mispredicted=*/true, p1.historyCheckpoint);
  auto p3 = unit.Predict(0x10);
  EXPECT_EQ(p3.historyCheckpoint, (p1.historyCheckpoint << 1) & 0xf);
  (void)p2;
}

TEST(PredictorUnit, LocalHistoriesAreIndependent) {
  PredictorUnit unit(TwoBitConfig(4, HistoryKind::kLocal));
  // Train branch A to taken; branch B at a different PC stays untrained.
  for (int i = 0; i < 8; ++i) {
    auto p = unit.Predict(0x100);
    unit.SpeculateOutcome(0x100, true);
    unit.Resolve(0x100, true, 0x0, p.predictTaken != true,
                 p.historyCheckpoint);
  }
  EXPECT_TRUE(unit.Predict(0x100).predictTaken);
  EXPECT_FALSE(unit.Predict(0x104).predictTaken);
}

TEST(PatternHistoryTable, DefaultStateIsConfigurable) {
  config::PredictorConfig config = TwoBitConfig();
  config.defaultState = 3;  // strongly taken
  PatternHistoryTable pht(config);
  EXPECT_TRUE(pht.Predict(0));
  EXPECT_TRUE(pht.Predict(63));
  config.defaultState = 0;
  PatternHistoryTable cold(config);
  EXPECT_FALSE(cold.Predict(0));
}

}  // namespace
}  // namespace rvss::predictor
