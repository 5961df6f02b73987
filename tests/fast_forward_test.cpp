// Fast-forward correctness: Simulation::FastForwardTo executes a prefix
// on the reference ISS and seeds the detailed model; the observable final
// state must be byte-identical to a detailed run from reset, on the ISS's
// authority. Also covers the session seam (export/import of a
// fast-forwarded session, rewind inside the detailed window, the
// unreachable-prefix error) and the snapshot-format cost of the seed.
//
// RVSS_DIFF_SEEDS widens the differential seed set (default 12).
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "assembler/loader.h"
#include "core/simulation.h"
#include "ref/interpreter.h"
#include "ref/progen.h"
#include "snapshot/codec.h"
#include "snapshot/session.h"

namespace rvss {
namespace {

const char* kLoop = R"(
main:
    li t0, 2000
loop:
    addi t1, t1, 1
    xori t2, t1, 3
    addi t0, t0, -1
    bnez t0, loop
    ret
)";

std::uint64_t SeedCount() {
  const char* env = std::getenv("RVSS_DIFF_SEEDS");
  if (env == nullptr) return 12;
  const long long parsed = std::atoll(env);
  if (parsed < 1) return 1;
  if (parsed > 100'000) return 100'000;
  return static_cast<std::uint64_t>(parsed);
}

void ExpectSameArchState(const core::Simulation& a, const core::Simulation& b,
                         const std::string& label) {
  for (unsigned i = 0; i < 32; ++i) {
    EXPECT_EQ(a.ReadIntReg(i), b.ReadIntReg(i)) << label << " x" << i;
    EXPECT_EQ(a.ReadFpReg(i), b.ReadFpReg(i)) << label << " f" << i;
  }
  EXPECT_EQ(0, std::memcmp(a.memorySystem().memory().Bytes().data(),
                           b.memorySystem().memory().Bytes().data(),
                           a.memorySystem().memory().size()))
      << label << ": memory images differ";
}

// --- differential: detailed-from-reset vs fast-forward-then-detailed --------

class FastForwardDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FastForwardDifferential, FinalStateMatchesDetailedRunAndIss) {
  const std::uint64_t seed = GetParam();
  const std::string source = ref::GenerateProgram(seed);
  const config::CpuConfig config = config::DefaultConfig();

  // Golden ISS run, for the total instruction count and as the authority
  // both detailed runs are checked against.
  memory::MainMemory issMemory(config.memory.sizeBytes);
  auto loaded = assembler::LoadProgram(source, {}, config, issMemory, "main");
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToText();
  ref::Interpreter iss(loaded.value().program, issMemory);
  iss.InitRegisters(loaded.value().initialSp);
  ASSERT_EQ(iss.Run(20'000'000), ref::ExitReason::kMainReturned)
      << "seed " << seed;
  const std::uint64_t totalInstructions = iss.stats().executedInstructions;
  const std::uint64_t prefix = totalInstructions / 2;
  if (prefix == 0) GTEST_SKIP() << "program too short to fast-forward";

  // Detailed from reset.
  auto fromReset = core::Simulation::Create(config, source, {{}, "main"});
  ASSERT_TRUE(fromReset.ok()) << fromReset.error().ToText();
  fromReset.value()->Run(20'000'000);
  ASSERT_EQ(fromReset.value()->status(), core::SimStatus::kFinished);

  // Fast-forward half the program on the ISS, then detailed to the end.
  auto ff = core::Simulation::Create(config, source, {{}, "main"});
  ASSERT_TRUE(ff.ok()) << ff.error().ToText();
  core::Simulation& ffSim = *ff.value();
  ASSERT_TRUE(ffSim.FastForwardTo(prefix).ok());
  EXPECT_EQ(ffSim.cycle(), 0u) << "detailed window must start at cycle 0";
  EXPECT_EQ(ffSim.statistics().fastForwardedInstructions, prefix);
  ffSim.Run(20'000'000);
  ASSERT_EQ(ffSim.status(), core::SimStatus::kFinished);

  ExpectSameArchState(*fromReset.value(), ffSim,
                      "seed " + std::to_string(seed));
  EXPECT_EQ(fromReset.value()->statistics().committedInstructions,
            ffSim.statistics().committedInstructions +
                ffSim.statistics().fastForwardedInstructions)
      << "detailed + fast-forwarded instructions must cover the program";

  // Both must equal the ISS's architectural state.
  for (unsigned i = 0; i < 32; ++i) {
    EXPECT_EQ(ffSim.ReadIntReg(i), iss.ReadIntReg(i)) << "x" << i;
    EXPECT_EQ(ffSim.ReadFpReg(i), iss.ReadFpReg(i)) << "f" << i;
  }
  EXPECT_EQ(0, std::memcmp(issMemory.Bytes().data(),
                           ffSim.memorySystem().memory().Bytes().data(),
                           issMemory.size()));
}

std::vector<std::uint64_t> MakeSeeds() {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t seed = 1; seed <= SeedCount(); ++seed) {
    seeds.push_back(seed);
  }
  return seeds;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastForwardDifferential,
                         ::testing::ValuesIn(MakeSeeds()));

// --- guards ------------------------------------------------------------------

TEST(FastForward, RejectsAfterSteppingAndDoubleForward) {
  auto sim = core::Simulation::Create(config::DefaultConfig(), kLoop,
                                      {{}, "main"});
  ASSERT_TRUE(sim.ok());
  EXPECT_TRUE(sim.value()->FastForwardTo(0).ok()) << "0 instructions is a no-op";
  ASSERT_TRUE(sim.value()->FastForwardTo(100).ok());
  EXPECT_FALSE(sim.value()->FastForwardTo(100).ok())
      << "a session fast-forwards at most once";

  auto stepped = core::Simulation::Create(config::DefaultConfig(), kLoop,
                                          {{}, "main"});
  ASSERT_TRUE(stepped.ok());
  stepped.value()->Step();
  EXPECT_FALSE(stepped.value()->FastForwardTo(100).ok())
      << "fast-forward only precedes the detailed window";
}

TEST(FastForward, RunningPastTheProgramFinishesTheSession) {
  auto sim = core::Simulation::Create(config::DefaultConfig(), kLoop,
                                      {{}, "main"});
  ASSERT_TRUE(sim.ok());
  ASSERT_TRUE(sim.value()->FastForwardTo(100'000'000).ok());
  EXPECT_EQ(sim.value()->status(), core::SimStatus::kFinished);
  EXPECT_EQ(sim.value()->finishReason(), core::FinishReason::kMainReturned);
}

// --- rewind and reset inside the original fast-forwarded session -------------

TEST(FastForward, StepBackAndResetStayInsideTheDetailedWindow) {
  config::CpuConfig config = config::DefaultConfig();
  config.checkpoint.intervalCycles = 64;
  auto sim = core::Simulation::Create(config, kLoop, {{}, "main"});
  ASSERT_TRUE(sim.ok());
  core::Simulation& s = *sim.value();
  ASSERT_TRUE(s.FastForwardTo(1000).ok());
  const std::uint64_t seededX5 = s.ReadIntReg(5);  // t0, the loop counter

  for (int i = 0; i < 200; ++i) s.Step();
  ASSERT_EQ(s.cycle(), 200u);
  ASSERT_TRUE(s.StepBack().ok());
  EXPECT_EQ(s.cycle(), 199u);

  // Reset returns to the seeded cycle-0 state, not to a cold program start.
  s.Reset();
  EXPECT_EQ(s.cycle(), 0u);
  EXPECT_EQ(s.ReadIntReg(5), seededX5)
      << "Reset of a fast-forwarded session must re-apply the ISS seed";
  EXPECT_EQ(s.statistics().fastForwardedInstructions, 1000u);
}

// --- the export/import seam --------------------------------------------------

TEST(FastForward, SessionSeamPreservesWindowAndRejectsTheSkippedPrefix) {
  config::CpuConfig config = config::DefaultConfig();
  config.checkpoint.intervalCycles = 64;
  auto sim = core::Simulation::Create(config, kLoop, {{}, "main"});
  ASSERT_TRUE(sim.ok());
  core::Simulation& s = *sim.value();
  ASSERT_TRUE(s.FastForwardTo(1000).ok());
  for (int i = 0; i < 150; ++i) s.Step();

  const snapshot::SessionIdentity identity =
      snapshot::MakeIdentity(s, kLoop, "main", "");
  auto imported =
      snapshot::ImportSessionBlob(snapshot::EncodeSessionBlob(s, identity));
  ASSERT_TRUE(imported.ok()) << imported.error().ToText();
  core::Simulation& t = *imported.value().sim;

  ASSERT_EQ(t.cycle(), 150u);
  EXPECT_EQ(t.earliestReachableCycle(), 150u)
      << "an imported fast-forwarded session cannot reach cycles it has "
         "no checkpoints or replayable prefix for";
  EXPECT_EQ(t.statistics().fastForwardedInstructions, 1000u);
  ASSERT_TRUE(t.fastForwardSeed().has_value());
  EXPECT_EQ(t.fastForwardSeed(), s.fastForwardSeed());

  // Below the window: a clean error, not a silent wrong answer.
  EXPECT_FALSE(t.StepBack().ok());
  EXPECT_FALSE(t.SeekTo(0).ok());

  // Inside the window: step forward, rewind back to the import anchor.
  for (int i = 0; i < 40; ++i) t.Step();
  ASSERT_TRUE(t.SeekTo(155).ok());
  EXPECT_EQ(t.cycle(), 155u);
  ASSERT_TRUE(t.StepBack().ok());
  EXPECT_EQ(t.cycle(), 154u);

  // The imported window replays to the same state as the original.
  ASSERT_TRUE(t.SeekTo(190).ok());
  ASSERT_TRUE(s.SeekTo(190).ok());
  ExpectSameArchState(s, t, "imported window at cycle 190");

  // Both runs finish in the same state.
  s.Run(20'000'000);
  t.Run(20'000'000);
  ASSERT_EQ(s.status(), core::SimStatus::kFinished);
  ASSERT_EQ(t.status(), core::SimStatus::kFinished);
  ExpectSameArchState(s, t, "completed imported session");
}

// --- snapshot cost -----------------------------------------------------------

TEST(FastForward, SnapshotGrowsOnlyByTheExplicitSeedField) {
  auto sim = core::Simulation::Create(config::DefaultConfig(), kLoop,
                                      {{}, "main"});
  ASSERT_TRUE(sim.ok());
  core::Simulation& s = *sim.value();
  for (int i = 0; i < 50; ++i) s.Step();

  const snapshot::CodecContext context{&s.config(), &s.program()};
  core::SimSnapshot snapshot = s.SaveState();
  ASSERT_FALSE(snapshot.ffSeed.has_value());
  const std::size_t withoutSeed =
      snapshot::EncodeSnapshot(snapshot, context).size();

  snapshot.ffSeed = core::FastForwardSeed{};
  const std::size_t withSeed =
      snapshot::EncodeSnapshot(snapshot, context).size();

  // The seed costs exactly its wire payload: 64 registers, pc,
  // instruction count. The predecode tables (core and ISS) contribute
  // zero bytes — they are derived state, rebuilt on create.
  EXPECT_EQ(withSeed, withoutSeed + 32 * 8 + 32 * 8 + 4 + 8);
}

TEST(FastForward, SeedSurvivesTheSnapshotCodec) {
  auto sim = core::Simulation::Create(config::DefaultConfig(), kLoop,
                                      {{}, "main"});
  ASSERT_TRUE(sim.ok());
  core::Simulation& s = *sim.value();
  ASSERT_TRUE(s.FastForwardTo(500).ok());
  for (int i = 0; i < 20; ++i) s.Step();

  const snapshot::CodecContext context{&s.config(), &s.program()};
  const core::SimSnapshot snapshot = s.SaveState();
  ASSERT_TRUE(snapshot.ffSeed.has_value());
  auto decoded = snapshot::DecodeSnapshot(
      snapshot::EncodeSnapshot(snapshot, context), context);
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToText();
  ASSERT_TRUE(decoded.value().ffSeed.has_value());
  EXPECT_EQ(decoded.value().ffSeed, snapshot.ffSeed);
  EXPECT_EQ(decoded.value().stats.fastForwardedInstructions, 500u);
}

}  // namespace
}  // namespace rvss
