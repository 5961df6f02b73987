// Checkpoint tests: explicit simulation state objects, the checkpoint
// ring, and the O(interval) StepBack/SeekTo paths. The differential suite
// asserts that StepBack-via-checkpoint lands in byte-identical state —
// architectural registers, memory, statistics, rendered pipeline state and
// forward commit trace — versus full re-execution from reset, including
// across checkpoint boundaries and right after flush/mispredict cycles.
#include <cstring>
#include <set>

#include <gtest/gtest.h>

#include "core/checkpoint_ring.h"
#include "ref/progen.h"
#include "server/state_renderer.h"
#include "snapshot/session.h"
#include "test_util.h"

namespace rvss::core {
namespace {

/// Integer loop with data-dependent branches and loads/stores: plenty of
/// mispredicts, flushes and memory traffic over ~2000 cycles.
const char* kBranchyMemory = R"(
main:
    li s0, 0
    li s1, 24
    addi s2, sp, -256
outer:
    li t0, 16
    mv t1, s2
fill:
    mul t2, t0, s1
    sw t2, 0(t1)
    addi t1, t1, 4
    addi t0, t0, -1
    bnez t0, fill
    li t0, 16
    mv t1, s2
scan:
    lw t2, 0(t1)
    andi t3, t2, 1
    beqz t3, even
    add s0, s0, t2
    j next
even:
    sub s0, s0, t2
next:
    addi t1, t1, 4
    addi t0, t0, -1
    bnez t0, scan
    addi s1, s1, -1
    bnez s1, outer
    mv a0, s0
    ret
)";

config::CpuConfig CheckpointedConfig(std::uint64_t intervalCycles) {
  config::CpuConfig config = config::DefaultConfig();
  config.checkpoint.intervalCycles = intervalCycles;
  return config;
}

std::unique_ptr<Simulation> MustCreate(const std::string& source,
                                       const config::CpuConfig& config) {
  auto sim = Simulation::Create(config, source, {{}, "main"});
  EXPECT_TRUE(sim.ok()) << (sim.ok() ? "" : sim.error().ToText());
  return sim.ok() ? std::move(sim).value() : nullptr;
}

void StepN(Simulation& sim, std::uint64_t cycles) {
  for (std::uint64_t i = 0; i < cycles; ++i) sim.Step();
}

std::string StatsDump(const Simulation& sim) {
  return sim.statistics()
      .ToJson(sim.memorySystem().stats(), sim.config().coreClockHz)
      .Dump();
}

std::string RenderDump(const Simulation& sim) {
  server::RenderOptions options;
  options.logTail = 1u << 20;  // the complete log, not just the tail
  return server::RenderJson(sim, options).Dump();
}

/// The byte-identical check: registers, memory, statistics and the full
/// rendered state (pipeline contents, rename tags, cache lines, log).
void ExpectIdenticalState(const Simulation& a, const Simulation& b,
                          const std::string& label) {
  ASSERT_EQ(a.cycle(), b.cycle()) << label;
  for (unsigned reg = 0; reg < 32; ++reg) {
    EXPECT_EQ(a.ReadIntReg(reg), b.ReadIntReg(reg)) << label << " x" << reg;
    EXPECT_EQ(a.ReadFpReg(reg), b.ReadFpReg(reg)) << label << " f" << reg;
  }
  const auto aBytes = a.memorySystem().memory().Bytes();
  const auto bBytes = b.memorySystem().memory().Bytes();
  ASSERT_EQ(aBytes.size(), bBytes.size()) << label;
  EXPECT_EQ(std::memcmp(aBytes.data(), bBytes.data(), aBytes.size()), 0)
      << label << ": memory images differ";
  EXPECT_EQ(StatsDump(a), StatsDump(b)) << label;
  EXPECT_EQ(RenderDump(a), RenderDump(b)) << label;
}

// ---- CheckpointRing unit tests ---------------------------------------------

std::shared_ptr<const SimSnapshot> DummySnapshot() {
  return std::make_shared<const SimSnapshot>();
}

TEST(CheckpointRing, WantsCheckpointOnIntervalGridOnce) {
  CheckpointRing ring(32, 1u << 20);
  EXPECT_TRUE(ring.WantsCheckpoint(0));
  EXPECT_FALSE(ring.WantsCheckpoint(31));
  EXPECT_TRUE(ring.WantsCheckpoint(32));
  ring.Add(32, 100, DummySnapshot());
  EXPECT_FALSE(ring.WantsCheckpoint(32)) << "already present";
  CheckpointRing disabled(0, 1u << 20);
  EXPECT_FALSE(disabled.WantsCheckpoint(0));
  EXPECT_FALSE(disabled.enabled());
}

TEST(CheckpointRing, FindAtOrBeforePicksNewestNotAfter) {
  CheckpointRing ring(32, 1u << 20);
  ring.Add(0, 10, DummySnapshot());
  ring.Add(64, 10, DummySnapshot());
  ring.Add(32, 10, DummySnapshot());  // out-of-order insert stays sorted
  EXPECT_EQ(ring.FindAtOrBefore(31)->cycle, 0u);
  EXPECT_EQ(ring.FindAtOrBefore(32)->cycle, 32u);
  EXPECT_EQ(ring.FindAtOrBefore(1000)->cycle, 64u);
  EXPECT_EQ(ring.origin().cycle, 0u);
  CheckpointRing empty(32, 1u << 20);
  EXPECT_EQ(empty.FindAtOrBefore(1000), nullptr);
}

TEST(CheckpointRing, DuplicateCycleIsNoOp) {
  CheckpointRing ring(32, 1u << 20);
  ring.Add(32, 100, DummySnapshot());
  ring.Add(32, 100, DummySnapshot());
  EXPECT_EQ(ring.checkpointCount(), 1u);
  EXPECT_EQ(ring.totalBytes(), 100u);
}

TEST(CheckpointRing, EvictsOldestButPinsOriginAndNewest) {
  CheckpointRing ring(32, 250);
  ring.Add(0, 100, DummySnapshot());
  ring.Add(32, 100, DummySnapshot());
  ring.Add(64, 100, DummySnapshot());  // 300 bytes: evict cycle 32
  EXPECT_EQ(ring.checkpointCount(), 2u);
  EXPECT_EQ(ring.totalBytes(), 200u);
  EXPECT_EQ(ring.FindAtOrBefore(63)->cycle, 0u);
  EXPECT_EQ(ring.FindAtOrBefore(64)->cycle, 64u);
  // Even a budget too small for two entries keeps origin + newest.
  CheckpointRing tiny(32, 50);
  tiny.Add(0, 100, DummySnapshot());
  tiny.Add(32, 100, DummySnapshot());
  tiny.Add(64, 100, DummySnapshot());
  EXPECT_EQ(tiny.checkpointCount(), 2u);
  EXPECT_EQ(tiny.origin().cycle, 0u);
  // The origin need not sit at cycle 0: an imported fast-forwarded
  // session's starts at the import point, and a budget that fits nothing
  // still keeps it and the newest entry.
  CheckpointRing imported(32, 0);
  for (const std::uint64_t cycle : {150, 160, 192, 224}) {
    imported.Add(cycle, 100, DummySnapshot());
  }
  ASSERT_EQ(imported.checkpointCount(), 2u);
  EXPECT_EQ(imported.origin().cycle, 150u);
  EXPECT_EQ(imported.FindAtOrBefore(223)->cycle, 150u);
  EXPECT_EQ(imported.FindAtOrBefore(224)->cycle, 224u);
}

using Pages = std::vector<std::shared_ptr<const memory::MainMemory::Page>>;
constexpr std::size_t kPageBytes = memory::MainMemory::kPageSizeBytes;

std::shared_ptr<const SimSnapshot> SnapshotHolding(const Pages& pages) {
  auto snapshot = std::make_shared<SimSnapshot>();
  snapshot->memory.memory.pages = pages;
  snapshot->memory.memory.sizeBytes =
      static_cast<std::uint32_t>(pages.size() * kPageBytes);
  return snapshot;
}

/// The ring's entries, oldest first.
std::vector<const CheckpointRing::Entry*> EntriesOf(
    const CheckpointRing& ring) {
  std::vector<const CheckpointRing::Entry*> entries;
  for (const CheckpointRing::Entry* entry = ring.FindAtOrBefore(UINT64_MAX);
       entry != nullptr;
       entry = entry->cycle == 0 ? nullptr
                                 : ring.FindAtOrBefore(entry->cycle - 1)) {
    entries.insert(entries.begin(), entry);
  }
  return entries;
}

/// The ring never charges less than it keeps alive: its entries' own
/// bytes plus 4 KiB per distinct page they hold.
void ExpectChargeCoversDistinctPages(const CheckpointRing& ring,
                                     const std::string& label) {
  std::size_t floor = 0;
  std::set<const memory::MainMemory::Page*> pages;
  for (const CheckpointRing::Entry* entry : EntriesOf(ring)) {
    floor += entry->ownBytes;
    for (const auto& page : entry->snapshot->memory.memory.pages) {
      pages.insert(page.get());
    }
  }
  floor += pages.size() * kPageBytes;
  EXPECT_GE(ring.totalBytes(), floor) << label;
}

TEST(CheckpointRing, ChargesThePagesAnEntryDoesNotShareWithTheOneBefore) {
  constexpr std::size_t kOwn = 100;
  const auto page = [] { return std::make_shared<memory::MainMemory::Page>(); };
  // Four pages, then two entries that each replace one page of the entry
  // before.
  const Pages first = {page(), page(), page(), page()};
  Pages second = first;
  second[0] = page();
  Pages third = second;
  third[1] = page();
  using Entries = std::vector<std::pair<std::uint64_t, Pages>>;
  const auto addAll = [](CheckpointRing& ring, const Entries& entries) {
    for (const auto& [cycle, pages] : entries) {
      ring.Add(cycle, kOwn, SnapshotHolding(pages));
      ExpectChargeCoversDistinctPages(
          ring, "after adding cycle " + std::to_string(cycle));
    }
  };

  CheckpointRing ring(32, 1u << 20);
  addAll(ring, {{0, first}, {32, second}, {64, third}});
  EXPECT_EQ(ring.FindAtOrBefore(0)->bytes, kOwn + 4 * kPageBytes);
  EXPECT_EQ(ring.FindAtOrBefore(32)->bytes, kOwn + 1 * kPageBytes);
  EXPECT_EQ(ring.FindAtOrBefore(64)->bytes, kOwn + 1 * kPageBytes);
  EXPECT_EQ(ring.totalBytes(), 3 * kOwn + 6 * kPageBytes);

  // An insert recharges the entry after it.
  CheckpointRing outOfOrder(32, 1u << 20);
  addAll(outOfOrder, {{0, first}, {64, third}, {32, second}});
  EXPECT_EQ(outOfOrder.FindAtOrBefore(64)->bytes, kOwn + 1 * kPageBytes);
  EXPECT_EQ(outOfOrder.totalBytes(), ring.totalBytes());

  // Evicting the middle entry recharges the last one against the first.
  CheckpointRing tight(32, 3 * kOwn + 6 * kPageBytes - 1);
  addAll(tight, {{0, first}, {32, second}, {64, third}});
  ASSERT_EQ(tight.checkpointCount(), 2u);
  EXPECT_EQ(tight.FindAtOrBefore(63)->cycle, 0u);
  EXPECT_EQ(tight.FindAtOrBefore(64)->bytes, kOwn + 2 * kPageBytes);
  EXPECT_EQ(tight.totalBytes(), 2 * kOwn + 6 * kPageBytes);
}

// ---- explicit state objects ------------------------------------------------

TEST(SimState, SaveRestoreRoundTrip) {
  auto sim = MustCreate(kBranchyMemory, CheckpointedConfig(32));
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 100);
  const std::string before = RenderDump(*sim);
  const SimSnapshot snapshot = sim->SaveState();
  EXPECT_EQ(snapshot.cycle, 100u);

  StepN(*sim, 200);
  EXPECT_NE(RenderDump(*sim), before);
  sim->RestoreState(snapshot);
  EXPECT_EQ(RenderDump(*sim), before);
}

TEST(SimState, SnapshotSharesNothingWithLiveRun) {
  auto sim = MustCreate(kBranchyMemory, CheckpointedConfig(32));
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 70);
  const SimSnapshot snapshot = sim->SaveState();
  const std::string reference = RenderDump(*sim);
  // The render leaves memory out; the snapshot shares its pages with the
  // live run, which must copy a page before writing it.
  const std::vector<std::uint8_t> referenceMemory =
      sim->memorySystem().memory().Bytes();

  // Mutating the live run and restoring repeatedly must keep reproducing
  // the reference: the snapshot holds values and shared pages nobody
  // writes, and each restore copies them.
  int roundsThatChangedMemory = 0;
  for (int round = 0; round < 3; ++round) {
    StepN(*sim, 50 + 13 * static_cast<std::uint64_t>(round));
    if (sim->memorySystem().memory().Bytes() != referenceMemory) {
      ++roundsThatChangedMemory;
    }
    sim->RestoreState(snapshot);
    EXPECT_EQ(RenderDump(*sim), reference) << "round " << round;
    EXPECT_TRUE(sim->memorySystem().memory().Bytes() == referenceMemory)
        << "round " << round << ": memory image differs";
  }
  EXPECT_GT(roundsThatChangedMemory, 0) << "no round wrote memory";
}

TEST(SimState, ResetRestoresBaseCheckpoint) {
  auto sim = MustCreate(kBranchyMemory, CheckpointedConfig(32));
  auto fresh = MustCreate(kBranchyMemory, CheckpointedConfig(32));
  ASSERT_NE(sim, nullptr);
  ASSERT_NE(fresh, nullptr);
  StepN(*sim, 150);
  sim->Reset();
  EXPECT_EQ(sim->cycle(), 0u);
  ExpectIdenticalState(*sim, *fresh, "after Reset");
  // The ring survives Reset: determinism keeps old checkpoints valid.
  EXPECT_GT(sim->checkpoints().checkpointCount(), 1u);
}

TEST(SimState, CheckpointConfigJsonRoundTrip) {
  config::CpuConfig config = config::DefaultConfig();
  config.checkpoint.intervalCycles = 512;
  config.checkpoint.maxTotalBytes = 9 * 1024 * 1024;
  auto parsed = config::CpuConfigFromJson(config::ToJson(config));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().checkpoint.intervalCycles, 512u);
  EXPECT_EQ(parsed.value().checkpoint.maxTotalBytes, 9u * 1024 * 1024);

  // A config written while the section still had deltaPages and
  // fullSnapshotEvery parses and validates: unknown keys are ignored.
  auto old = json::Parse(R"({"checkpoint": {"intervalCycles": 512,
      "deltaPages": false, "fullSnapshotEvery": 4096}})");
  ASSERT_TRUE(old.ok());
  auto oldParsed = config::CpuConfigFromJson(old.value());
  ASSERT_TRUE(oldParsed.ok());
  EXPECT_EQ(oldParsed.value().checkpoint.intervalCycles, 512u);
  EXPECT_TRUE(config::Validate(oldParsed.value()).empty());
}

TEST(SimState, CheckpointConfigValidationBounds) {
  config::CpuConfig config = config::DefaultConfig();
  EXPECT_TRUE(config::Validate(config).empty());

  config.checkpoint.intervalCycles = 4;  // too dense: every step snapshots
  EXPECT_FALSE(config::Validate(config).empty());

  config.checkpoint.intervalCycles = 0;  // disabled: interval bounds lifted
  config.checkpoint.maxTotalBytes = 0;
  EXPECT_TRUE(config::Validate(config).empty());

  // ... but the budget ceiling still applies while disabled: manual
  // saveCheckpoint requests deposit into the ring regardless.
  config.checkpoint.maxTotalBytes = 1ull << 40;
  EXPECT_FALSE(config::Validate(config).empty());

  config.checkpoint.intervalCycles = 1024;
  config.checkpoint.maxTotalBytes = 0;
  EXPECT_FALSE(config::Validate(config).empty()) << "zero budget while enabled";

  config.checkpoint.maxTotalBytes = 1ull << 40;  // defeats the session cap
  EXPECT_FALSE(config::Validate(config).empty());

  // Negative JSON values are refused by the parse; they do not wrap to
  // huge unsigned ones that only the upper bounds would catch.
  auto wrappedJson = json::Parse(
      R"({"checkpoint": {"intervalCycles": -1, "maxTotalBytes": -1}})");
  ASSERT_TRUE(wrappedJson.ok());
  auto wrapped = config::CpuConfigFromJson(wrappedJson.value());
  ASSERT_FALSE(wrapped.ok());
  EXPECT_EQ(wrapped.error().kind, ErrorKind::kConfig);

  // Large memories with the untouched default checkpoint settings stay
  // valid (the budget is soft: the ring pins base + newest beyond it).
  config = config::DefaultConfig();
  config.memory.sizeBytes = 48 * 1024 * 1024;
  EXPECT_TRUE(config::Validate(config).empty());
}

// ---- StepBack differential: checkpoint path vs full re-execution -----------

constexpr std::uint64_t kInterval = 32;

/// StepBack at cycle N must land in the exact state of a fresh run to N-1,
/// replaying at most one checkpoint interval.
void CheckStepBackAt(const std::string& source, std::uint64_t n,
                     const std::string& label) {
  auto sim = MustCreate(source, CheckpointedConfig(kInterval));
  auto reference = MustCreate(source, CheckpointedConfig(kInterval));
  ASSERT_NE(sim, nullptr);
  ASSERT_NE(reference, nullptr);

  StepN(*sim, n);
  ASSERT_EQ(sim->cycle(), n) << label;
  ASSERT_TRUE(sim->StepBack().ok()) << label;
  EXPECT_LT(sim->lastSeekReplayedCycles(), kInterval)
      << label << ": StepBack must replay less than one interval, not "
      << "re-execute from reset";

  StepN(*reference, n - 1);
  ExpectIdenticalState(*sim, *reference, label);

  // The restored state must also behave identically going forward: same
  // commit trace and same final architectural state.
  std::vector<std::uint32_t> simTrace;
  std::vector<std::uint32_t> referenceTrace;
  sim->SetCommitTraceSink(&simTrace);
  reference->SetCommitTraceSink(&referenceTrace);
  sim->Run(5'000'000);
  reference->Run(5'000'000);
  EXPECT_EQ(simTrace, referenceTrace) << label << ": commit traces diverge";
  ExpectIdenticalState(*sim, *reference, label + " (run to completion)");
}

TEST(StepBackDifferential, AcrossCheckpointBoundaries) {
  auto scout = MustCreate(kBranchyMemory, CheckpointedConfig(kInterval));
  ASSERT_NE(scout, nullptr);
  scout->Run(5'000'000);
  const std::uint64_t total = scout->cycle();
  ASSERT_GT(total, 3 * kInterval) << "program too short to cross boundaries";

  for (std::uint64_t n :
       {std::uint64_t{1}, kInterval - 1, kInterval, kInterval + 1,
        2 * kInterval - 1, 2 * kInterval, 2 * kInterval + 1, total / 2,
        total - 1}) {
    if (n == 0 || n >= total) continue;
    CheckStepBackAt(kBranchyMemory, n,
                    "branchy N=" + std::to_string(n));
  }
}

TEST(StepBackDifferential, AfterFlushCycles) {
  // Find cycles where the ROB flushed (mispredict recovery) and step back
  // right across them: the restored state must include the undone renames
  // and squashed instructions exactly as a fresh run sees them.
  auto scout = MustCreate(kBranchyMemory, CheckpointedConfig(kInterval));
  ASSERT_NE(scout, nullptr);
  std::vector<std::uint64_t> flushCycles;
  std::uint64_t flushes = 0;
  while (scout->status() == SimStatus::kRunning && flushCycles.size() < 4) {
    scout->Step();
    if (scout->statistics().robFlushes > flushes) {
      flushes = scout->statistics().robFlushes;
      if (scout->cycle() > 1) flushCycles.push_back(scout->cycle());
    }
  }
  ASSERT_FALSE(flushCycles.empty()) << "program produced no mispredicts";
  for (std::uint64_t flushCycle : flushCycles) {
    CheckStepBackAt(kBranchyMemory, flushCycle,
                    "flush@" + std::to_string(flushCycle));
    CheckStepBackAt(kBranchyMemory, flushCycle + 1,
                    "flush+1@" + std::to_string(flushCycle + 1));
  }
}

TEST(StepBackDifferential, GeneratedPrograms) {
  for (std::uint64_t seed : {3u, 11u}) {
    const std::string source = ref::GenerateProgram(seed);
    auto scout = MustCreate(source, CheckpointedConfig(kInterval));
    ASSERT_NE(scout, nullptr);
    scout->Run(5'000'000);
    const std::uint64_t total = scout->cycle();
    if (total < 2 * kInterval) continue;
    for (std::uint64_t n : {kInterval, kInterval + 1, total / 2, total - 1}) {
      if (n == 0 || n >= total) continue;
      CheckStepBackAt(source, n,
                      "seed" + std::to_string(seed) + " N=" + std::to_string(n));
    }
  }
}

// ---- SeekTo scrubbing ------------------------------------------------------

TEST(SeekTo, ScrubsToArbitraryCyclesBidirectionally) {
  auto sim = MustCreate(kBranchyMemory, CheckpointedConfig(kInterval));
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 90);

  for (std::uint64_t target : {std::uint64_t{50}, std::uint64_t{10},
                               std::uint64_t{37}, std::uint64_t{90},
                               std::uint64_t{5}, std::uint64_t{64}}) {
    ASSERT_TRUE(sim->SeekTo(target).ok()) << "target " << target;
    EXPECT_EQ(sim->cycle(), target);
    EXPECT_LT(sim->lastSeekReplayedCycles(), kInterval) << "target " << target;
    auto reference = MustCreate(kBranchyMemory, CheckpointedConfig(kInterval));
    ASSERT_NE(reference, nullptr);
    StepN(*reference, target);
    ExpectIdenticalState(*sim, *reference, "seek " + std::to_string(target));
  }
}

TEST(SeekTo, RespectsReplayBudget) {
  auto sim = MustCreate(kBranchyMemory, CheckpointedConfig(kInterval));
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 40);
  // Forward seek needing 60 replayed cycles against a budget of 10 fails
  // without moving the simulation.
  EXPECT_FALSE(sim->SeekTo(100, 10).ok());
  EXPECT_EQ(sim->cycle(), 40u);
  EXPECT_TRUE(sim->SeekTo(100, 100).ok());
  EXPECT_EQ(sim->cycle(), 100u);
}

// ---- bounded ring + disabled fallback --------------------------------------

TEST(CheckpointBudget, EvictionDegradesToLongerReplay) {
  config::CpuConfig config = config::DefaultConfig();
  config.memory.sizeBytes = 16 * 1024;
  config.checkpoint.intervalCycles = 16;
  config.checkpoint.maxTotalBytes = 2 * config.memory.sizeBytes;
  auto sim = MustCreate(kBranchyMemory, config);
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 400);
  // The budget fits roughly one snapshot: only the pinned base + newest
  // survive, so backward seeks still work, just with longer replays (here
  // the newest checkpoint sits at the current cycle, past the target, so
  // StepBack replays from the base — the documented degradation mode).
  EXPECT_LE(sim->checkpoints().checkpointCount(), 3u);
  ASSERT_TRUE(sim->StepBack().ok());
  EXPECT_LE(sim->lastSeekReplayedCycles(), 399u);

  auto reference = MustCreate(kBranchyMemory, config);
  ASSERT_NE(reference, nullptr);
  StepN(*reference, 399);
  ExpectIdenticalState(*sim, *reference, "evicted ring");
}

TEST(CheckpointBudget, DisabledIntervalFallsBackToFullReplay) {
  config::CpuConfig config = config::DefaultConfig();
  config.checkpoint.intervalCycles = 0;
  auto sim = MustCreate(kBranchyMemory, config);
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 100);
  EXPECT_EQ(sim->checkpoints().checkpointCount(), 1u) << "the origin only";
  ASSERT_TRUE(sim->StepBack().ok());
  // The paper's path: re-execution of all 99 cycles from reset.
  EXPECT_EQ(sim->lastSeekReplayedCycles(), 99u);

  auto reference = MustCreate(kBranchyMemory, config);
  ASSERT_NE(reference, nullptr);
  StepN(*reference, 99);
  ExpectIdenticalState(*sim, *reference, "disabled checkpoints");
}

// ---- the in-flight table ---------------------------------------------------

/// The table's liveness invariant: its live entries are exactly the slots
/// the fetch queue, the ROB, the issue windows, the LS buffers and the busy
/// units hold, and it never grows past robSize + 2 * fetchWidth +
/// storeBufferSize entries.
void ExpectTableMatchesContainers(const Simulation& sim,
                                  const std::string& label) {
  std::set<Slot> live;
  for (Slot slot = 0; slot < sim.inFlight().size(); ++slot) {
    if (sim.inFlight()[slot].has_value()) live.insert(slot);
  }
  ASSERT_EQ(live, testutil::HeldSlots(sim))
      << label << " at cycle " << sim.cycle();
  const config::CpuConfig& config = sim.config();
  ASSERT_LE(sim.inFlight().size(),
            config.buffers.robSize + 2 * config.buffers.fetchWidth +
                config.memory.storeBufferSize)
      << label << " at cycle " << sim.cycle();
}

/// Steps `source` under `config` to the end (or 4,000 cycles), checking
/// the table after every step, after a step back every 97 steps, after
/// one restore of a ring checkpoint and after one export/import (under
/// the default configuration the generated programs run 230-690
/// cycles).
void CheckTableLiveness(const std::string& source, config::CpuConfig config,
                        const std::string& label) {
  config.checkpoint.intervalCycles = 64;
  std::unique_ptr<Simulation> sim = MustCreate(source, config);
  ASSERT_NE(sim, nullptr) << label;
  bool restored = false;
  bool imported = false;
  for (std::uint64_t steps = 1;
       sim->status() == SimStatus::kRunning && sim->cycle() < 4'000; ++steps) {
    sim->Step();
    ASSERT_NO_FATAL_FAILURE(ExpectTableMatchesContainers(*sim, label));
    if (steps % 97 == 0) {
      ASSERT_TRUE(sim->StepBack().ok()) << label;
      ASSERT_NO_FATAL_FAILURE(
          ExpectTableMatchesContainers(*sim, label + " stepBack"));
    }
    if (!restored && sim->cycle() >= 150) {
      restored = true;
      const CheckpointRing::Entry* entry =
          sim->checkpoints().FindAtOrBefore(sim->cycle() - 1);
      ASSERT_NE(entry, nullptr) << label;
      sim->RestoreState(*entry->snapshot);
      ASSERT_NO_FATAL_FAILURE(
          ExpectTableMatchesContainers(*sim, label + " restore"));
    }
    if (!imported && sim->cycle() >= 200) {
      imported = true;
      auto blob = snapshot::ImportSessionBlob(snapshot::EncodeSessionBlob(
          *sim, snapshot::MakeIdentity(*sim, source, "main", "")));
      ASSERT_TRUE(blob.ok()) << label << ": " << blob.error().ToText();
      sim = std::move(blob.value().sim);
      ASSERT_NO_FATAL_FAILURE(
          ExpectTableMatchesContainers(*sim, label + " import"));
    }
  }
}

TEST(InFlightTable, LiveEntriesAreExactlyTheHeldSlots) {
  const std::pair<const char*, config::CpuConfig> configs[] = {
      {"default", config::DefaultConfig()},
      {"scalar", config::ScalarConfig()},
      {"wide", config::WideConfig()}};
  for (const auto& [name, config] : configs) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      ASSERT_NO_FATAL_FAILURE(CheckTableLiveness(
          ref::GenerateProgram(seed), config,
          "seed" + std::to_string(seed) + "/" + name));
    }
    ASSERT_NO_FATAL_FAILURE(CheckTableLiveness(
        kBranchyMemory, config, std::string("branchyMemory/") + name));
  }
}

}  // namespace
}  // namespace rvss::core
