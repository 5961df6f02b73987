// Snapshot subsystem tests: the versioned binary codec (round trips,
// aliasing preservation, hostile-input rejection), portable session blobs
// (export -> import -> continue-execution differential), checkpoints
// sharing memory pages (ring bytes, byte-identical seeks), the
// server's exportSession/importSession commands including the
// SimServer::Limits checkpoint-budget override, and the CLI
// --save-snapshot/--load-snapshot flags.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <sstream>

#include <gtest/gtest.h>

#include "../bench/bench_common.h"
#include "cc/compiler.h"
#include "cli/cli.h"
#include "common/slz.h"
#include "common/strings.h"
#include "core/simulation.h"
#include "ref/progen.h"
#include "server/api.h"
#include "server/state_renderer.h"
#include "snapshot/codec.h"
#include "snapshot/session.h"
#include "test_util.h"

namespace rvss::snapshot {
namespace {

/// Branchy loads/stores: mispredicts, flushes and memory traffic keep the
/// pipeline full of aliased in-flight state — the hard case for the codec.
const char* kBranchyMemory = R"(
main:
    li s0, 0
    li s1, 24
outer:
    li t0, 16
    addi t1, sp, -256
fill:
    mul t2, t0, s1
    sw t2, 0(t1)
    addi t1, t1, 4
    addi t0, t0, -1
    bnez t0, fill
    li t0, 16
    addi t1, sp, -256
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

config::CpuConfig TestConfig(std::uint64_t intervalCycles = 32) {
  config::CpuConfig config = config::DefaultConfig();
  config.checkpoint.intervalCycles = intervalCycles;
  return config;
}

std::unique_ptr<core::Simulation> MustCreate(
    const std::string& source, const config::CpuConfig& config) {
  auto sim = core::Simulation::Create(config, source, {{}, "main"});
  EXPECT_TRUE(sim.ok()) << (sim.ok() ? "" : sim.error().ToText());
  return sim.ok() ? std::move(sim).value() : nullptr;
}

void StepN(core::Simulation& sim, std::uint64_t cycles) {
  for (std::uint64_t i = 0; i < cycles; ++i) sim.Step();
}

std::string RenderDump(const core::Simulation& sim) {
  server::RenderOptions options;
  options.logTail = 1u << 20;
  options.includeMemoryDump = true;
  return server::RenderJson(sim, options).Dump();
}

/// Registers, memory, statistics and the fully rendered state must match.
void ExpectIdenticalState(const core::Simulation& a,
                          const core::Simulation& b,
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
  EXPECT_EQ(RenderDump(a), RenderDump(b)) << label;
}

// ---- base64 ----------------------------------------------------------------

TEST(Base64, RoundTripsAllLengths) {
  std::string bytes;
  for (int i = 0; i < 300; ++i) {
    auto decoded = Base64Decode(Base64Encode(bytes));
    ASSERT_TRUE(decoded.has_value()) << "length " << i;
    EXPECT_EQ(*decoded, bytes) << "length " << i;
    bytes += static_cast<char>((i * 37) & 0xff);
  }
}

TEST(Base64, RejectsMalformedInput) {
  EXPECT_FALSE(Base64Decode("abc").has_value()) << "bad length";
  EXPECT_FALSE(Base64Decode("ab!?").has_value()) << "bad alphabet";
  EXPECT_FALSE(Base64Decode("=abc").has_value()) << "leading padding";
  EXPECT_FALSE(Base64Decode("a=bc").has_value()) << "data after padding";
  EXPECT_TRUE(Base64Decode("").has_value());
  EXPECT_EQ(*Base64Decode("aGk="), "hi");
}

// ---- codec round trips ------------------------------------------------------

TEST(SnapshotCodec, RoundTripsMidFlightState) {
  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 137);  // mid-flight, off the checkpoint grid

  const CodecContext context{&sim->config(), &sim->program()};
  const core::SimSnapshot original = sim->SaveState();
  const std::string blob = EncodeSnapshot(original, context);
  EXPECT_GT(blob.size(), 64u);

  // Decode into a *fresh* simulation built from the same inputs.
  auto restored = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(restored, nullptr);
  const CodecContext restoredContext{&restored->config(),
                                     &restored->program()};
  auto decoded = DecodeSnapshot(blob, restoredContext);
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToText();
  restored->RestoreState(decoded.value());
  ExpectIdenticalState(*sim, *restored, "after decode");

  // The restored run must continue byte-identically: same commit trace,
  // same final state.
  std::vector<std::uint32_t> simTrace;
  std::vector<std::uint32_t> restoredTrace;
  sim->SetCommitTraceSink(&simTrace);
  restored->SetCommitTraceSink(&restoredTrace);
  sim->Run(5'000'000);
  restored->Run(5'000'000);
  EXPECT_EQ(simTrace, restoredTrace) << "commit traces diverge";
  ExpectIdenticalState(*sim, *restored, "run to completion");
}

TEST(SnapshotCodec, EncodeIsDeterministic) {
  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 100);
  const CodecContext context{&sim->config(), &sim->program()};
  const core::SimSnapshot snapshot = sim->SaveState();
  EXPECT_EQ(EncodeSnapshot(snapshot, context),
            EncodeSnapshot(snapshot, context));
}

TEST(SnapshotCodec, PreservesInFlightAliasing) {
  // A load sits in the ROB and the load buffer simultaneously; after a
  // decode round trip both containers must hold one table slot, so a
  // mutation through one is visible through the other.
  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  for (int step = 0; step < 2000 && sim->loadBuffer().empty(); ++step) {
    sim->Step();
  }
  ASSERT_FALSE(sim->loadBuffer().empty()) << "no load in flight";

  const CodecContext context{&sim->config(), &sim->program()};
  auto decoded = DecodeSnapshot(EncodeSnapshot(sim->SaveState(), context),
                                context);
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToText();
  const core::SimSnapshot& snapshot = decoded.value();
  ASSERT_FALSE(snapshot.loadBuffer.empty());
  const core::Slot load = snapshot.loadBuffer.front();
  bool aliased = false;
  for (const core::Slot inst : snapshot.rob) {
    if (inst == load) aliased = true;
  }
  EXPECT_TRUE(aliased)
      << "load-buffer entry is not the same table entry as its ROB entry";
}

// ---- hostile input ----------------------------------------------------------

/// Adds a copy of the ROB head's instruction to `s`'s table and returns
/// the copy's slot.
core::Slot CopyOfRobHead(core::SimSnapshot& s) {
  s.inFlight.push_back(s.inFlight[s.rob.front()]);
  return static_cast<core::Slot>(s.inFlight.size() - 1);
}

TEST(SnapshotCodec, RejectsVersionBumpAndForeignConfigs) {
  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 50);
  const CodecContext context{&sim->config(), &sim->program()};
  std::string blob = EncodeSnapshot(sim->SaveState(), context);

  // Version bump: byte 4 holds the low byte of the format version.
  std::string bumped = blob;
  bumped[4] = static_cast<char>(kFormatVersion + 1);
  auto versioned = DecodeSnapshot(bumped, context);
  ASSERT_FALSE(versioned.ok());
  EXPECT_NE(versioned.error().message.find("version"), std::string::npos);

  // Mismatched configuration: a different predictor geometry.
  config::CpuConfig other = TestConfig();
  other.predictor.phtSize = 128;
  auto otherSim = MustCreate(kBranchyMemory, other);
  ASSERT_NE(otherSim, nullptr);
  const CodecContext otherContext{&otherSim->config(), &otherSim->program()};
  auto mismatch = DecodeSnapshot(blob, otherContext);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_NE(mismatch.error().message.find("configuration"),
            std::string::npos);

  // Mismatched program.
  auto otherProgram = MustCreate("main:\n    li a0, 7\n    ret\n",
                                 TestConfig());
  ASSERT_NE(otherProgram, nullptr);
  const CodecContext programContext{&otherProgram->config(),
                                    &otherProgram->program()};
  auto wrongProgram = DecodeSnapshot(blob, programContext);
  ASSERT_FALSE(wrongProgram.ok());
  EXPECT_NE(wrongProgram.error().message.find("program"), std::string::npos);

  // A checkpoint-budget difference must NOT invalidate the blob: servers
  // clamp budgets on import.
  config::CpuConfig clamped = TestConfig();
  clamped.checkpoint.maxTotalBytes = 1 << 20;
  clamped.name = "renamed";
  auto clampedSim = MustCreate(kBranchyMemory, clamped);
  ASSERT_NE(clampedSim, nullptr);
  const CodecContext clampedContext{&clampedSim->config(),
                                    &clampedSim->program()};
  EXPECT_TRUE(DecodeSnapshot(blob, clampedContext).ok());
}

TEST(SnapshotCodec, TruncatedBlobsAlwaysError) {
  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 80);
  const CodecContext context{&sim->config(), &sim->program()};
  const std::string blob = EncodeSnapshot(sim->SaveState(), context);

  for (std::size_t length = 0; length < blob.size();
       length += 1 + length / 7) {
    auto decoded = DecodeSnapshot(std::string_view(blob).substr(0, length),
                                  context);
    EXPECT_FALSE(decoded.ok()) << "truncation at " << length;
  }
}

TEST(SnapshotCodec, CorruptedBlobsAlwaysError) {
  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 80);
  const CodecContext context{&sim->config(), &sim->program()};
  const std::string blob = EncodeSnapshot(sim->SaveState(), context);

  // Flip a byte at a stride of positions across the whole blob (header
  // and payload): every mutant must fail decode, none may crash. The
  // payload checksum catches body corruption; explicit checks catch the
  // header fields.
  for (std::size_t pos = 0; pos < blob.size(); pos += 1 + pos / 11) {
    std::string mutant = blob;
    mutant[pos] = static_cast<char>(mutant[pos] ^ 0x5a);
    auto decoded = DecodeSnapshot(mutant, context);
    EXPECT_FALSE(decoded.ok()) << "corruption at " << pos;
  }
}

TEST(SnapshotCodec, RejectsDuplicateAndOversizedContainers) {
  // A checksum-correct blob can still describe impossible pipeline state;
  // the structural checks must catch it. Encoding a doctored snapshot
  // produces exactly such a blob.
  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  for (int step = 0; step < 2000 && sim->rob().empty(); ++step) sim->Step();
  ASSERT_FALSE(sim->rob().empty());
  const CodecContext context{&sim->config(), &sim->program()};

  // The same instruction twice in one container (would double-commit).
  core::SimSnapshot duplicated = sim->SaveState();
  duplicated.rob.push_back(duplicated.rob.front());
  auto dupDecoded = DecodeSnapshot(EncodeSnapshot(duplicated, context),
                                   context);
  ASSERT_FALSE(dupDecoded.ok());
  EXPECT_NE(dupDecoded.error().message.find("duplicate"), std::string::npos);

  // A ROB beyond its configured capacity.
  core::SimSnapshot oversized = sim->SaveState();
  while (oversized.rob.size() <= sim->config().buffers.robSize) {
    oversized.rob.push_back(CopyOfRobHead(oversized));
  }
  auto bigDecoded = DecodeSnapshot(EncodeSnapshot(oversized, context),
                                   context);
  ASSERT_FALSE(bigDecoded.ok());
  EXPECT_NE(bigDecoded.error().message.find("capacity"), std::string::npos);
}

TEST(SnapshotCodec, RejectsDuplicateFreeListTags) {
  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 60);
  const CodecContext context{&sim->config(), &sim->program()};
  core::SimSnapshot doctored = sim->SaveState();
  ASSERT_GE(doctored.rename.freeList.size(), 2u);
  doctored.rename.freeList[1] = doctored.rename.freeList[0];
  auto decoded = DecodeSnapshot(EncodeSnapshot(doctored, context), context);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().message.find("free-list"), std::string::npos);
}

// ---- golden codec table: the encoded bytes, pinned --------------------------

std::uint64_t Fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Decode context whose base image is `base`'s post-Create memory.
CodecContext BaseContext(const core::Simulation& base) {
  return CodecContext{&base.config(), &base.program(), &base.baseMemory(),
                      base.memoryBaseEpoch()};
}

struct Blob {
  std::string label;
  std::string bytes;
};

/// Appends the v3 full, v3 delta and session blobs of `sim`'s state, each
/// checked to decode and re-encode to the same bytes. `base` is a fresh
/// simulation of the same (config, source): the delta's base image.
void AddBlobs(std::vector<Blob>& blobs, const std::string& label,
              const core::Simulation& sim, const core::Simulation& base,
              const std::string& source) {
  const CodecContext context{&sim.config(), &sim.program()};
  const core::SimSnapshot snapshot = sim.SaveState();

  std::string full = EncodeSnapshot(snapshot, context);
  auto decoded = DecodeSnapshot(full, context);
  EXPECT_TRUE(decoded.ok()) << label << ": " << decoded.error().ToText();
  if (decoded.ok()) {
    EXPECT_TRUE(EncodeSnapshot(decoded.value(), context) == full)
        << label << "/full does not re-encode to its bytes";
  }

  EncodeOptions deltaOptions;
  deltaOptions.deltaBase = &sim.baseMemory();
  deltaOptions.baseEpoch = sim.memoryBaseEpoch();
  std::string delta = EncodeSnapshot(snapshot, context, deltaOptions);
  const CodecContext baseContext = BaseContext(base);
  auto decodedDelta = DecodeSnapshot(delta, baseContext);
  EXPECT_TRUE(decodedDelta.ok())
      << label << ": " << decodedDelta.error().ToText();
  if (decodedDelta.ok()) {
    EncodeOptions again;
    again.deltaBase = &base.baseMemory();
    again.baseEpoch = base.memoryBaseEpoch();
    // Decoded instructions point into the base's program.
    EXPECT_TRUE(EncodeSnapshot(decodedDelta.value(), baseContext, again) ==
                delta)
        << label << "/delta does not re-encode to its bytes";
  }

  std::string session =
      EncodeSessionBlob(sim, MakeIdentity(sim, source, "main", ""));
  auto imported = ImportSessionBlob(session);
  EXPECT_TRUE(imported.ok()) << label << ": " << imported.error().ToText();
  if (imported.ok()) {
    EXPECT_TRUE(EncodeSessionBlob(*imported.value().sim,
                                  imported.value().identity) == session)
        << label << "/session does not re-encode to its bytes";
  }

  blobs.push_back({label + "/full", std::move(full)});
  blobs.push_back({label + "/delta", std::move(delta)});
  blobs.push_back({label + "/session", std::move(session)});
}

/// The golden table's five machine shapes. The Random replacement policy
/// and local histories put the cache RNG and the history table on the
/// wire.
std::vector<std::pair<const char*, config::CpuConfig>> GoldenConfigs() {
  config::CpuConfig localRandom = config::DefaultConfig();
  localRandom.predictor.history = config::HistoryKind::kLocal;
  localRandom.predictor.historyBits = 4;
  localRandom.cache.replacement = config::ReplacementPolicy::kRandom;
  return {{"default", config::DefaultConfig()},
          {"scalar", config::ScalarConfig()},
          {"wide", config::WideConfig()},
          {"nocache", config::NoCacheConfig()},
          {"localrandom", localRandom}};
}

/// Every blob the golden table pins, in table order: progen seeds 1-4 on
/// the five machine shapes, and the interactive benches' C programs
/// mid-run, finished and fast-forwarded (the seed record).
std::vector<Blob> GoldenBlobs() {
  const auto stepTo = [](core::Simulation& sim, std::uint64_t cycle) {
    while (sim.cycle() < cycle && sim.status() == core::SimStatus::kRunning) {
      sim.Step();
    }
  };
  std::vector<Blob> blobs;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const std::string source = ref::GenerateProgram(seed);
    for (const auto& [name, config] : GoldenConfigs()) {
      auto sim = MustCreate(source, config);
      auto base = MustCreate(source, config);
      if (sim == nullptr || base == nullptr) continue;
      for (const std::uint64_t cycle : {0, 17, 1000}) {
        stepTo(*sim, cycle);
        AddBlobs(blobs,
                 "seed" + std::to_string(seed) + "/" + name + "/cycle" +
                     std::to_string(cycle),
                 *sim, *base, source);
      }
    }
  }
  for (const auto& [name, program] :
       {std::pair{"sort", bench::kSortC}, std::pair{"float", bench::kFloatC}}) {
    auto compiled = cc::Compile(program, cc::CompileOptions{2});
    EXPECT_TRUE(compiled.ok()) << compiled.error().ToText();
    if (!compiled.ok()) continue;
    const std::string& source = compiled.value().assembly;
    for (const bool fastForward : {false, true}) {
      auto sim = MustCreate(source, config::DefaultConfig());
      auto base = MustCreate(source, config::DefaultConfig());
      if (sim == nullptr || base == nullptr) continue;
      if (fastForward) {
        EXPECT_TRUE(sim->FastForwardTo(1000).ok());
        sim->Run(25);
        AddBlobs(blobs, std::string(name) + "/ff/cycle25", *sim, *base,
                 source);
        continue;
      }
      stepTo(*sim, 300);
      AddBlobs(blobs, std::string(name) + "/cycle300", *sim, *base, source);
      sim->Run();
      AddBlobs(blobs, std::string(name) + "/end", *sim, *base, source);
    }
  }
  return blobs;
}

struct GoldenPin {
  const char* label;
  std::size_t bytes;
  std::uint64_t fnv1a64;
};

// Regenerate only for an intended change to the wire format: the test
// prints the table it computed when any entry differs.
constexpr GoldenPin kGoldenBlobs[] = {
    {"seed1/default/cycle0/full", 70617, 0xb0e76bd3d8a621b5ull},
    {"seed1/default/cycle0/delta", 5093, 0x0c51a5e0c94c07ecull},
    {"seed1/default/cycle0/session", 16607, 0x1a34c75aae555fc4ull},
    {"seed1/default/cycle17/full", 75049, 0x9ff5cc379cb32c58ull},
    {"seed1/default/cycle17/delta", 9525, 0x08a1b5667ebb2e90ull},
    {"seed1/default/cycle17/session", 18086, 0xb13d9f3b94a23102ull},
    {"seed1/default/cycle1000/full", 70826, 0x4c419aec219f7741ull},
    {"seed1/default/cycle1000/delta", 9402, 0xd8708c5b16164b3aull},
    {"seed1/default/cycle1000/session", 16978, 0xda642572ae6021f0ull},
    {"seed1/scalar/cycle0/full", 68963, 0xb05836248de289a0ull},
    {"seed1/scalar/cycle0/delta", 3439, 0x708e81053d1cf6b0ull},
    {"seed1/scalar/cycle0/session", 16100, 0xef537e51ee5c1670ull},
    {"seed1/scalar/cycle17/full", 69487, 0xe3c6b8dca616065dull},
    {"seed1/scalar/cycle17/delta", 3963, 0xa66ea5b72f2f57a6ull},
    {"seed1/scalar/cycle17/session", 16325, 0xb04aca2a8b03792aull},
    {"seed1/scalar/cycle1000/full", 70298, 0xa505caf320785239ull},
    {"seed1/scalar/cycle1000/delta", 8874, 0xfbe6257a7102124cull},
    {"seed1/scalar/cycle1000/session", 16781, 0x86e0192970c85121ull},
    {"seed1/wide/cycle0/full", 85448, 0xa3bba9d34b7e1df1ull},
    {"seed1/wide/cycle0/delta", 19924, 0x62d4142e116c70fcull},
    {"seed1/wide/cycle0/session", 20093, 0xc32d1ad4f618e55bull},
    {"seed1/wide/cycle17/full", 89476, 0x60c333595033a110ull},
    {"seed1/wide/cycle17/delta", 23952, 0xeada651a3d692c3dull},
    {"seed1/wide/cycle17/session", 21344, 0x5f79f372c7751750ull},
    {"seed1/wide/cycle1000/full", 85657, 0xe0348b79cd2f80e1ull},
    {"seed1/wide/cycle1000/delta", 24233, 0x08cc26a756e6651aull},
    {"seed1/wide/cycle1000/session", 20602, 0xd706ca9a4b584cfaull},
    {"seed1/nocache/cycle0/full", 69165, 0xe294287962443deeull},
    {"seed1/nocache/cycle0/delta", 3641, 0x9589ae23e246c80cull},
    {"seed1/nocache/cycle0/session", 16290, 0x58e335ff4244f324ull},
    {"seed1/nocache/cycle17/full", 73597, 0xcb960a24bad365aeull},
    {"seed1/nocache/cycle17/delta", 8073, 0x72169f54923484c0ull},
    {"seed1/nocache/cycle17/session", 17771, 0x05d683785a87ffeeull},
    {"seed1/nocache/cycle1000/full", 79506, 0x41c1ba875a9e4371ull},
    {"seed1/nocache/cycle1000/delta", 18082, 0xa63403fec3d7115eull},
    {"seed1/nocache/cycle1000/session", 19305, 0x3be0afe53401cb54ull},
    {"seed1/localrandom/cycle0/full", 70873, 0xa13dd5f763ccf49dull},
    {"seed1/localrandom/cycle0/delta", 5349, 0xeee5856686b40ad6ull},
    {"seed1/localrandom/cycle0/session", 16655, 0xa0fa662995202a04ull},
    {"seed1/localrandom/cycle17/full", 75305, 0x5e746158c0f07e88ull},
    {"seed1/localrandom/cycle17/delta", 9781, 0x8c6c3bb6b3549bd8ull},
    {"seed1/localrandom/cycle17/session", 18137, 0xf50d5ebd8bcfc8b8ull},
    {"seed1/localrandom/cycle1000/full", 70927, 0xdc9d5740efe535efull},
    {"seed1/localrandom/cycle1000/delta", 9503, 0x6f9c1ce774a21d58ull},
    {"seed1/localrandom/cycle1000/session", 16985, 0xa2df2abc8c2c7aa4ull},
    {"seed2/default/cycle0/full", 70617, 0x8d1256e99b708903ull},
    {"seed2/default/cycle0/delta", 5093, 0xe71086b133aa3529ull},
    {"seed2/default/cycle0/session", 16589, 0x0bbd2a18375e452bull},
    {"seed2/default/cycle17/full", 77710, 0x7cda1a3fc377d93full},
    {"seed2/default/cycle17/delta", 12186, 0x3efd3140eb896513ull},
    {"seed2/default/cycle17/session", 18915, 0x23c72a31761f2d84ull},
    {"seed2/default/cycle1000/full", 70671, 0x7cc38c2ac23920a3ull},
    {"seed2/default/cycle1000/delta", 9247, 0xab2f6f6bea2f37c9ull},
    {"seed2/default/cycle1000/session", 16845, 0x45302c004a4cd613ull},
    {"seed2/scalar/cycle0/full", 68963, 0x27ea37c4c6ad2936ull},
    {"seed2/scalar/cycle0/delta", 3439, 0x81706190bf4b6dc7ull},
    {"seed2/scalar/cycle0/session", 16089, 0xb27fe5b3a9ce754cull},
    {"seed2/scalar/cycle17/full", 69487, 0xbccfd1d5b5fac646ull},
    {"seed2/scalar/cycle17/delta", 3963, 0x0b5fd3c9e196e4efull},
    {"seed2/scalar/cycle17/session", 16290, 0xa6538ef33492ac8eull},
    {"seed2/scalar/cycle1000/full", 69017, 0xe6e4ba8b5d75c16bull},
    {"seed2/scalar/cycle1000/delta", 7593, 0x6ec450c4af022fb1ull},
    {"seed2/scalar/cycle1000/session", 16309, 0xb5db0731ecc4fc6cull},
    {"seed2/wide/cycle0/full", 85448, 0x7a686914074a8fe9ull},
    {"seed2/wide/cycle0/delta", 19924, 0x892e3ca1fe4729dbull},
    {"seed2/wide/cycle0/session", 20080, 0x1a9d32eb11fbbb55ull},
    {"seed2/wide/cycle17/full", 92580, 0x7de2a692bb53057aull},
    {"seed2/wide/cycle17/delta", 27056, 0x2bc080d37a134ea3ull},
    {"seed2/wide/cycle17/session", 22329, 0x0d52ceeb918652e8ull},
    {"seed2/wide/cycle1000/full", 85502, 0xbdee95a1a189f508ull},
    {"seed2/wide/cycle1000/delta", 24078, 0x3aca64098ca2fa2aull},
    {"seed2/wide/cycle1000/session", 20431, 0x581e3fd370a7417cull},
    {"seed2/nocache/cycle0/full", 69165, 0x5f6a7d4c31e91f14ull},
    {"seed2/nocache/cycle0/delta", 3641, 0x9ba9ca3fbfe33893ull},
    {"seed2/nocache/cycle0/session", 16272, 0xa5788fe4e0fbbfbdull},
    {"seed2/nocache/cycle17/full", 76258, 0xe12c704d6667e0bfull},
    {"seed2/nocache/cycle17/delta", 10734, 0x1c5c3d1d4301c651ull},
    {"seed2/nocache/cycle17/session", 18591, 0x6a6411b4a6c1dee2ull},
    {"seed2/nocache/cycle1000/full", 76197, 0x6ac22cbd68f1ffd4ull},
    {"seed2/nocache/cycle1000/delta", 14773, 0xbc6db019567f9e3full},
    {"seed2/nocache/cycle1000/session", 18622, 0x9159f6ca1178a696ull},
    {"seed2/localrandom/cycle0/full", 70873, 0xff986a9649bd6f79ull},
    {"seed2/localrandom/cycle0/delta", 5349, 0xeb0754602f0224feull},
    {"seed2/localrandom/cycle0/session", 16637, 0x3daabbac1349196bull},
    {"seed2/localrandom/cycle17/full", 77966, 0x5f7ba0e7edfa86beull},
    {"seed2/localrandom/cycle17/delta", 12442, 0xe54de97ffc68113dull},
    {"seed2/localrandom/cycle17/session", 18964, 0xf2ac879693052255ull},
    {"seed2/localrandom/cycle1000/full", 70927, 0x4480819a1f3fde81ull},
    {"seed2/localrandom/cycle1000/delta", 9503, 0x7d6d5b75671b1ad5ull},
    {"seed2/localrandom/cycle1000/session", 16914, 0x8e69deccf3922a17ull},
    {"seed3/default/cycle0/full", 70617, 0x97b9c87630e1ac49ull},
    {"seed3/default/cycle0/delta", 5093, 0x06473b359d147ef6ull},
    {"seed3/default/cycle0/session", 16571, 0xec08354c681762ffull},
    {"seed3/default/cycle17/full", 74735, 0x3f8d31cb061fce0dull},
    {"seed3/default/cycle17/delta", 9211, 0x5916e22e074422bdull},
    {"seed3/default/cycle17/session", 17976, 0x15a2c6c11536af8aull},
    {"seed3/default/cycle1000/full", 70826, 0x3733a3a4fde722acull},
    {"seed3/default/cycle1000/delta", 9402, 0xa5687970d82e9360ull},
    {"seed3/default/cycle1000/session", 16870, 0x1d7777d1cbbc8971ull},
    {"seed3/scalar/cycle0/full", 68963, 0xe4e2a4ddc60fedd2ull},
    {"seed3/scalar/cycle0/delta", 3439, 0x360223d2cd319bf1ull},
    {"seed3/scalar/cycle0/session", 16064, 0x0b608aa16c3c8502ull},
    {"seed3/scalar/cycle17/full", 69487, 0x8c13d31c348c1cc6ull},
    {"seed3/scalar/cycle17/delta", 3963, 0x58f859e191cd3e5full},
    {"seed3/scalar/cycle17/session", 16285, 0xa7f8fb33bcd06740ull},
    {"seed3/scalar/cycle1000/full", 69017, 0x37eb75ad2e6ea239ull},
    {"seed3/scalar/cycle1000/delta", 7593, 0x4155921ba6ed145bull},
    {"seed3/scalar/cycle1000/session", 16273, 0x09cd3da8dc031589ull},
    {"seed3/wide/cycle0/full", 85448, 0xccf5d16e5ab908a0ull},
    {"seed3/wide/cycle0/delta", 19924, 0xfdc7421990d6f425ull},
    {"seed3/wide/cycle0/session", 20060, 0x3936fc334b42ae61ull},
    {"seed3/wide/cycle17/full", 90211, 0x6abcfb9ffe0acda6ull},
    {"seed3/wide/cycle17/delta", 24687, 0x712959ebadb42d6dull},
    {"seed3/wide/cycle17/session", 21567, 0x7e0d9bcd8b7d5d6dull},
    {"seed3/wide/cycle1000/full", 85657, 0x7f701d3bd885f506ull},
    {"seed3/wide/cycle1000/delta", 24233, 0x7a4d068ca0bbb8d3ull},
    {"seed3/wide/cycle1000/session", 20431, 0x40cc8595faf9dec7ull},
    {"seed3/nocache/cycle0/full", 69165, 0x3a2d74a65825e2b5ull},
    {"seed3/nocache/cycle0/delta", 3641, 0x721c9d495664c92full},
    {"seed3/nocache/cycle0/session", 16256, 0x29a97b172bed8859ull},
    {"seed3/nocache/cycle17/full", 73283, 0x01f91013a29419a1ull},
    {"seed3/nocache/cycle17/delta", 7759, 0x600c77079e0c0c36ull},
    {"seed3/nocache/cycle17/session", 17650, 0xa372b2f14a4f61fcull},
    {"seed3/nocache/cycle1000/full", 69374, 0xe3e165ffe8a30c24ull},
    {"seed3/nocache/cycle1000/delta", 7950, 0xd3904aa398293ee3ull},
    {"seed3/nocache/cycle1000/session", 16517, 0xbb1bb3b77d5aca55ull},
    {"seed3/localrandom/cycle0/full", 70873, 0x3cc3886514c4b636ull},
    {"seed3/localrandom/cycle0/delta", 5349, 0x45d434a35b9cbfd1ull},
    {"seed3/localrandom/cycle0/session", 16620, 0xe8ea8f1fba518a46ull},
    {"seed3/localrandom/cycle17/full", 74991, 0x39b24e1ed896de89ull},
    {"seed3/localrandom/cycle17/delta", 9467, 0xe055386e557c52e1ull},
    {"seed3/localrandom/cycle17/session", 18032, 0x877c0792ca85e62eull},
    {"seed3/localrandom/cycle1000/full", 71082, 0xbb6dd5a41a945cafull},
    {"seed3/localrandom/cycle1000/delta", 9658, 0xab460d69f987c022ull},
    {"seed3/localrandom/cycle1000/session", 16912, 0xadee4fd38d25fe4cull},
    {"seed4/default/cycle0/full", 70617, 0xfc235c900cd567acull},
    {"seed4/default/cycle0/delta", 5093, 0x70f1217aa75612e8ull},
    {"seed4/default/cycle0/session", 16602, 0x69e79a93c8656783ull},
    {"seed4/default/cycle17/full", 77674, 0x391cd03ef63a45afull},
    {"seed4/default/cycle17/delta", 12150, 0xd18c5e16612e3378ull},
    {"seed4/default/cycle17/session", 18930, 0x8c838ea51c1c2039ull},
    {"seed4/default/cycle1000/full", 70671, 0x0d8998496d7234b9ull},
    {"seed4/default/cycle1000/delta", 9247, 0x149d60583c8db106ull},
    {"seed4/default/cycle1000/session", 16853, 0xc323f7183c4b92c5ull},
    {"seed4/scalar/cycle0/full", 68963, 0xb0f66d350377e896ull},
    {"seed4/scalar/cycle0/delta", 3439, 0x6255f743a2c73ac6ull},
    {"seed4/scalar/cycle0/session", 16092, 0xf6844a242d04e819ull},
    {"seed4/scalar/cycle17/full", 69487, 0x92f7248b799377f0ull},
    {"seed4/scalar/cycle17/delta", 3963, 0x8504108548b5e7d6ull},
    {"seed4/scalar/cycle17/session", 16305, 0xfd847812b0dac90eull},
    {"seed4/scalar/cycle1000/full", 70121, 0xbef3e080d2fc2e99ull},
    {"seed4/scalar/cycle1000/delta", 8697, 0xdda3be951a3e901eull},
    {"seed4/scalar/cycle1000/session", 16669, 0xab8f03be7c7be2f0ull},
    {"seed4/wide/cycle0/full", 85448, 0x8ee862625847cb04ull},
    {"seed4/wide/cycle0/delta", 19924, 0x7ba5c21594edee98ull},
    {"seed4/wide/cycle0/session", 20088, 0x6168c74d2f1980b0ull},
    {"seed4/wide/cycle17/full", 93921, 0xb614208e37597c8aull},
    {"seed4/wide/cycle17/delta", 28397, 0x46f4990e80807112ull},
    {"seed4/wide/cycle17/session", 22607, 0xa061ed7b9f3d8512ull},
    {"seed4/wide/cycle1000/full", 85502, 0xbe83fd167e250000ull},
    {"seed4/wide/cycle1000/delta", 24078, 0xe90d18dd563c3653ull},
    {"seed4/wide/cycle1000/session", 20384, 0xbae9ebba7d8a8fe0ull},
    {"seed4/nocache/cycle0/full", 69165, 0x160cb05fc37f6475ull},
    {"seed4/nocache/cycle0/delta", 3641, 0x42f06f36b9468dd1ull},
    {"seed4/nocache/cycle0/session", 16285, 0x334facd120546638ull},
    {"seed4/nocache/cycle17/full", 76222, 0xbb3066da0a0f3027ull},
    {"seed4/nocache/cycle17/delta", 10698, 0xa845e5ea06f278fcull},
    {"seed4/nocache/cycle17/session", 18605, 0x4c09067065620474ull},
    {"seed4/nocache/cycle1000/full", 77839, 0xb27c833e2ed97e55ull},
    {"seed4/nocache/cycle1000/delta", 16415, 0x083938516dae8dd2ull},
    {"seed4/nocache/cycle1000/session", 19194, 0x5fd70748fe63ccc9ull},
    {"seed4/localrandom/cycle0/full", 70873, 0x44e6772b09a4e0fdull},
    {"seed4/localrandom/cycle0/delta", 5349, 0x4d61dfb1d1dac2d6ull},
    {"seed4/localrandom/cycle0/session", 16650, 0x451f54c92ecdcb3full},
    {"seed4/localrandom/cycle17/full", 77930, 0xf037fc384a2fd844ull},
    {"seed4/localrandom/cycle17/delta", 12406, 0x6e9a53c653124e48ull},
    {"seed4/localrandom/cycle17/session", 18979, 0x874b86c718fd03b5ull},
    {"seed4/localrandom/cycle1000/full", 70927, 0x2e2d06db780b84cfull},
    {"seed4/localrandom/cycle1000/delta", 9503, 0xf5376e275b6cc81eull},
    {"seed4/localrandom/cycle1000/session", 16900, 0x849ffe9e84e63c34ull},
    {"sort/cycle300/full", 81647, 0x6109083fc95f1c85ull},
    {"sort/cycle300/delta", 24323, 0x222ab88994bef4f8ull},
    {"sort/cycle300/session", 19774, 0xcbaaed211a8666d0ull},
    {"sort/end/full", 70671, 0xfecb172b52f8d1c8ull},
    {"sort/end/delta", 13347, 0xd0a3bbd7fc19dc28ull},
    {"sort/end/session", 16764, 0x211412a2e56387abull},
    {"sort/ff/cycle25/full", 81541, 0x6d43edf0c5990ad4ull},
    {"sort/ff/cycle25/delta", 24217, 0x7f4671ab59cded3cull},
    {"sort/ff/cycle25/session", 19661, 0xbb7d965b536f98f7ull},
    {"float/cycle300/full", 80891, 0x20bcd9b37cdf9d63ull},
    {"float/cycle300/delta", 23567, 0x4cfafb508e8b2281ull},
    {"float/cycle300/session", 19307, 0x929abe309559f6feull},
    {"float/end/full", 70671, 0x7244143ea17ee802ull},
    {"float/end/delta", 13347, 0x2963ccf0e010ff36ull},
    {"float/end/session", 16533, 0x487c8e35e007322full},
    {"float/ff/cycle25/full", 81538, 0x305c0e9be0aff84full},
    {"float/ff/cycle25/delta", 24214, 0x0130ccdcaf76b60aull},
    {"float/ff/cycle25/session", 19466, 0x655b70f07978fae0ull},
};

TEST(GoldenCodec, EncodedBytesMatchThePinnedTable) {
  const std::vector<Blob> blobs = GoldenBlobs();
  EXPECT_EQ(blobs.size(), std::size(kGoldenBlobs));
  bool differs = blobs.size() != std::size(kGoldenBlobs);
  std::string table;
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    const Blob& blob = blobs[i];
    const std::uint64_t hash = Fnv1a64(blob.bytes);
    char line[160];
    std::snprintf(line, sizeof line, "    {\"%s\", %zu, 0x%016llxull},\n",
                  blob.label.c_str(), blob.bytes.size(),
                  static_cast<unsigned long long>(hash));
    table += line;
    if (i < std::size(kGoldenBlobs)) {
      const GoldenPin& pin = kGoldenBlobs[i];
      const bool same = blob.label == pin.label &&
                        blob.bytes.size() == pin.bytes &&
                        hash == pin.fnv1a64;
      EXPECT_TRUE(same) << "blob " << i << " differs: " << line;
      differs = differs || !same;
    }
  }
  if (differs) ADD_FAILURE() << "the table this build encodes:\n" << table;
}

// Every blob's header and every hello carry ConfigHash, so a change to the
// config JSON must not move it: saved blobs would stop importing.
TEST(GoldenCodec, ConfigHashesMatchThePinnedTable) {
  const std::map<std::string, std::uint64_t> pinned = {
      {"default", 0xa6d7329b284cbc0eull},
      {"scalar", 0x89e33ce4adec83e1ull},
      {"wide", 0x31a5da65cecfe1bfull},
      {"nocache", 0x37f51e1973ed6a49ull},
      {"localrandom", 0xa31081332522e22cull}};
  for (const auto& [name, config] : GoldenConfigs()) {
    EXPECT_EQ(ConfigHash(config), pinned.at(name)) << name;
  }
}

// ---- doctored snapshots: one per decode check -------------------------------

/// Rewrites the header's payload checksum and size around `payload`, so a
/// hand-edited payload reaches the structural checks.
std::string Reseal(std::string_view blob, std::string_view payload) {
  constexpr std::size_t kHeaderBytes = 40;  // see codec.cpp
  std::string out(blob.substr(0, kHeaderBytes));
  const auto put = [&out](std::size_t at, std::uint64_t value) {
    for (std::size_t i = 0; i < 8; ++i) {
      out[at + i] = static_cast<char>((value >> (8 * i)) & 0xff);
    }
  };
  put(24, Fnv1a64(payload));
  put(32, payload.size());
  out += payload;
  return out;
}

/// How a doctored case encodes the memory image.
enum class Image { kFull, kDelta, kDeltaOnAnotherBase };

struct DoctoredCase {
  const char* message;  ///< DecodeSnapshot's error, after "snapshot decode: "
  std::function<void(core::SimSnapshot&)> doctor;
  Image image = Image::kFull;
};

TEST(SnapshotCodec, EveryReachableDecodeCheckReportsItsOwnMessage) {
  // Encoding a doctored snapshot produces a checksum-correct blob that
  // describes impossible state; each case trips exactly one check.
  auto sim = MustCreate(kBranchyMemory, TestConfig());
  auto base = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  ASSERT_NE(base, nullptr);
  StepN(*sim, 137);
  ASSERT_GE(sim->rob().size(), 2u);
  const int renames =
      static_cast<int>(sim->config().memory.renameRegisterCount);
  const assembler::Program& program = sim->program();
  const auto robHead = [](core::SimSnapshot& s) -> core::InFlight& {
    return *s.inFlight[s.rob.front()];
  };
  const auto withOperand = [&](core::SimSnapshot& s) -> core::InFlight& {
    for (const core::Slot slot : s.rob) {
      if (s.inFlight[slot]->operandCount > 0) return *s.inFlight[slot];
    }
    return robHead(s);
  };
  const auto badError = [] {
    return Error{static_cast<ErrorKind>(200), "doctored"};
  };

  const DoctoredCase cases[] = {
      {"simulation status out of range",
       [](core::SimSnapshot& s) { s.status = static_cast<core::SimStatus>(200); }},
      {"finish reason out of range",
       [](core::SimSnapshot& s) {
         s.finishReason = static_cast<core::FinishReason>(200);
       }},
      {"malformed fault record",
       [&](core::SimSnapshot& s) { s.fault = badError(); }},
      {"in-flight instruction index out of range",
       [&](core::SimSnapshot& s) {
         robHead(s).inst =
             program.instructions.data() + program.instructions.size();
       }},
      {"in-flight phase out of range",
       [&](core::SimSnapshot& s) {
         robHead(s).phase = static_cast<core::Phase>(200);
       }},
      {"malformed in-flight exception",
       [&](core::SimSnapshot& s) { robHead(s).exception = badError(); }},
      {"operand value kind out of range",
       [&](core::SimSnapshot& s) {
         withOperand(s).operands[0].value =
             expr::Value::FromRaw(static_cast<expr::ValueKind>(200), 0);
       }},
      {"operand rename tag out of range",
       [&](core::SimSnapshot& s) { withOperand(s).operands[0].waitTag = renames; }},
      {"operand rename tag out of range",
       [&](core::SimSnapshot& s) { withOperand(s).operands[0].destTag = -2; }},
      {"operand rename tag out of range",
       [&](core::SimSnapshot& s) { withOperand(s).operands[0].prevTag = -3; }},
      {"container larger than its configured capacity",
       [&](core::SimSnapshot& s) {
         while (s.rob.size() <= sim->config().buffers.robSize) {
           s.rob.push_back(CopyOfRobHead(s));
         }
       }},
      {"unexpected null in-flight reference",
       [](core::SimSnapshot& s) { s.rob.push_back(core::kNoSlot); }},
      {"duplicate in-flight reference within one container",
       [](core::SimSnapshot& s) { s.rob.push_back(s.rob.front()); }},
      {"functional-unit count does not match configuration",
       [](core::SimSnapshot& s) { s.fuCurrent.pop_back(); }},
      {"functional-unit count does not match configuration",
       [](core::SimSnapshot& s) { s.fuBusyUntil.push_back(0); }},
      {"rename register count does not match configuration",
       [](core::SimSnapshot& s) { s.rename.regs.pop_back(); }},
      {"speculative register kind out of range",
       [](core::SimSnapshot& s) {
         s.rename.regs[0].arch.kind = static_cast<isa::RegisterKind>(200);
       }},
      {"speculative register target out of range",
       [](core::SimSnapshot& s) { s.rename.regs[0].arch.index = 32; }},
      {"rename free list longer than the register file",
       [&](core::SimSnapshot& s) {
         s.rename.freeList.resize(static_cast<std::size_t>(renames) + 1, 0);
       }},
      {"rename free-list tag out of range",
       [&](core::SimSnapshot& s) { s.rename.freeList.front() = renames; }},
      {"rename free-list tag out of range",
       [](core::SimSnapshot& s) { s.rename.freeList.front() = -1; }},
      {"duplicate rename free-list tag",
       [](core::SimSnapshot& s) {
         s.rename.freeList[1] = s.rename.freeList[0];
       }},
      {"rename free-list tag marked in use",
       [](core::SimSnapshot& s) {
         s.rename.regs[static_cast<std::size_t>(s.rename.freeList.front())]
             .inUse = true;
       }},
      {"rename free count out of range",
       [&](core::SimSnapshot& s) {
         s.rename.freeCount = static_cast<std::uint32_t>(renames) + 1;
       }},
      {"rename map tag out of range",
       [&](core::SimSnapshot& s) { s.rename.map[5] = renames; }},
      {"rename map tag out of range",
       [](core::SimSnapshot& s) { s.rename.map[5] = -2; }},
      {"PHT size does not match configuration",
       [](core::SimSnapshot& s) { s.predictor.pht.entries.pop_back(); }},
      {"BTB size does not match configuration",
       [](core::SimSnapshot& s) { s.predictor.btb.entries.pop_back(); }},
      {"local history size does not match configuration",
       [](core::SimSnapshot& s) { s.predictor.localHistories.push_back(0); }},
      {"memory size does not match configuration",
       [](core::SimSnapshot& s) { --s.memory.memory.sizeBytes; }},
      {"memory size does not match configuration",
       [](core::SimSnapshot& s) { --s.memory.memory.sizeBytes; },
       Image::kDelta},
      {"delta blob references a base image this side does not have "
       "(base-epoch mismatch)",
       [](core::SimSnapshot&) {}, Image::kDeltaOnAnotherBase},
      {"cache presence does not match configuration",
       [](core::SimSnapshot& s) { s.memory.cache.reset(); }},
      {"cache line count does not match configuration",
       [](core::SimSnapshot& s) { s.memory.cache->lines.pop_back(); }},
      {"unit usage count does not match configuration",
       [](core::SimSnapshot& s) { s.stats.unitUsage.pop_back(); }},
      {"log level out of range",
       [](core::SimSnapshot& s) {
         s.log.entries.push_back(
             {s.cycle, static_cast<LogLevel>(200), "Doctor", "doctored"});
       }},
  };
  const CodecContext context{&sim->config(), &sim->program()};
  for (const DoctoredCase& c : cases) {
    core::SimSnapshot doctored = sim->SaveState();
    c.doctor(doctored);
    EncodeOptions options;
    CodecContext decodeContext = context;
    if (c.image != Image::kFull) {
      options.deltaBase = &sim->baseMemory();
      options.baseEpoch = base->memoryBaseEpoch() +
                          (c.image == Image::kDeltaOnAnotherBase ? 1 : 0);
      decodeContext = BaseContext(*base);
    }
    auto decoded =
        DecodeSnapshot(EncodeSnapshot(doctored, context, options),
                       decodeContext);
    ASSERT_FALSE(decoded.ok()) << c.message;
    EXPECT_EQ(decoded.error().message,
              std::string("snapshot decode: ") + c.message);
  }

  // Payload edits an encoder cannot produce, resealed so the checksum
  // passes: a truncation inside the optional fault record, and a byte past
  // the last record.
  constexpr std::size_t kHeaderBytes = 40;
  core::SimSnapshot faulted = sim->SaveState();
  faulted.fault = Error{ErrorKind::kRuntime, "doctored fault"};
  const std::string blob = EncodeSnapshot(faulted, context);
  const std::string_view payload =
      std::string_view(blob).substr(kHeaderBytes);
  // cycle, nextSeq, pc, fetchResumeCycle, fetchStalledIndirect, status,
  // finishReason, then the fault's presence flag and kind: cut inside the
  // message's length prefix.
  constexpr std::size_t kFaultMessage = 8 + 8 + 4 + 8 + 1 + 1 + 1 + 1 + 1;
  auto truncated =
      DecodeSnapshot(Reseal(blob, payload.substr(0, kFaultMessage + 2)),
                     context);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.error().message,
            "snapshot decode: malformed fault record");
  auto trailing =
      DecodeSnapshot(Reseal(blob, std::string(payload) + '\0'), context);
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.error().message,
            "snapshot decode: trailing bytes after the snapshot payload");
  EXPECT_TRUE(DecodeSnapshot(Reseal(blob, payload), context).ok());
}

TEST(SnapshotCodec, DropsATableEntryNoContainerNames) {
  // Only a spliced blob lists an instruction that no container names. It
  // decodes, and the entry gets no slot: a restored session holds no
  // instruction beyond its containers'.
  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 137);
  const CodecContext context{&sim->config(), &sim->program()};
  const core::SimSnapshot snapshot = sim->SaveState();
  const auto idle = std::find(snapshot.fuCurrent.begin(),
                              snapshot.fuCurrent.end(), core::kNoSlot);
  ASSERT_NE(idle, snapshot.fuCurrent.end()) << "no idle functional unit";

  // An idle unit given a copy of the ROB head encodes the copy as the
  // table's last entry; the unit's index is then the only word, counted
  // from the end, that differs from the plain blob. Splicing the null
  // index back leaves the entry in the table and in no container.
  const auto unit =
      static_cast<std::size_t>(idle - snapshot.fuCurrent.begin());
  core::SimSnapshot named = snapshot;
  named.fuCurrent[unit] = CopyOfRobHead(named);
  const std::string plain = EncodeSnapshot(snapshot, context);
  std::string spliced = EncodeSnapshot(named, context);
  ASSERT_GT(spliced.size(), plain.size());
  std::size_t fromEnd = 1;
  while (plain[plain.size() - fromEnd] == spliced[spliced.size() - fromEnd]) {
    ++fromEnd;
  }
  // Little-endian: the index's high byte is the last one that differs.
  spliced.replace(spliced.size() - fromEnd - 3, 4, 4, '\xff');
  constexpr std::size_t kHeaderBytes = 40;
  auto decoded = DecodeSnapshot(
      Reseal(spliced, std::string_view(spliced).substr(kHeaderBytes)),
      context);
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToText();
  EXPECT_EQ(EncodeSnapshot(decoded.value(), context), plain);
  EXPECT_EQ(decoded.value().inFlight.size(),
            DecodeSnapshot(plain, context).value().inFlight.size());
  for (const std::optional<core::InFlight>& entry : decoded.value().inFlight) {
    EXPECT_TRUE(entry.has_value());
  }
  auto restored = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(restored, nullptr);
  restored->RestoreState(decoded.value());
  EXPECT_EQ(server::RenderJson(*restored).Dump(),
            server::RenderJson(*sim).Dump());
}

TEST(SnapshotCodec, EveryErrorKindRoundTripsAsFaultAndInFlightException) {
  // Whatever kind the encoder writes decodes back, in the fault record and
  // in an in-flight exception; one past the last kind is still refused.
  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 137);
  ASSERT_FALSE(sim->rob().empty());
  const CodecContext context{&sim->config(), &sim->program()};
  for (int raw = 0; raw <= static_cast<int>(kLastErrorKind) + 1; ++raw) {
    const auto kind = static_cast<ErrorKind>(raw);
    const bool known = raw <= static_cast<int>(kLastErrorKind);
    const Error error{kind, "doctored", {3, 7}};
    for (const bool inFlight : {false, true}) {
      core::SimSnapshot snapshot = sim->SaveState();
      std::optional<Error>& slot =
          inFlight ? snapshot.inFlight[snapshot.rob.front()]->exception
                   : snapshot.fault;
      slot = error;
      const std::string where = std::string(ToString(kind)) +
                                (inFlight ? " in-flight exception" : " fault");
      auto decoded =
          DecodeSnapshot(EncodeSnapshot(snapshot, context), context);
      if (!known) {
        ASSERT_FALSE(decoded.ok()) << where;
        EXPECT_EQ(decoded.error().message,
                  std::string("snapshot decode: malformed ") +
                      (inFlight ? "in-flight exception" : "fault record"));
        continue;
      }
      if (!decoded.ok()) {
        ADD_FAILURE() << where << ": " << decoded.error().ToText();
        continue;
      }
      const core::SimSnapshot& got = decoded.value();
      const std::optional<Error>& back =
          inFlight ? got.inFlight[got.rob.front()]->exception : got.fault;
      ASSERT_TRUE(back.has_value()) << where;
      EXPECT_EQ(back->kind, kind) << where;
      EXPECT_EQ(back->message, error.message) << where;
      EXPECT_EQ(back->pos, error.pos) << where;
    }
  }
}

// ---- session blobs ----------------------------------------------------------

TEST(SessionBlob, ExportImportContinuesByteIdentically) {
  auto original = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(original, nullptr);
  StepN(*original, 433);

  const SessionIdentity identity =
      MakeIdentity(*original, kBranchyMemory, "main", "");
  const std::string blob = EncodeSessionBlob(*original, identity);

  auto imported = ImportSessionBlob(blob);
  ASSERT_TRUE(imported.ok()) << imported.error().ToText();
  core::Simulation& resumed = *imported.value().sim;
  ExpectIdenticalState(*original, resumed, "after import");

  std::vector<std::uint32_t> originalTrace;
  std::vector<std::uint32_t> resumedTrace;
  original->SetCommitTraceSink(&originalTrace);
  resumed.SetCommitTraceSink(&resumedTrace);
  original->Run(5'000'000);
  resumed.Run(5'000'000);
  EXPECT_EQ(originalTrace, resumedTrace);
  ExpectIdenticalState(*original, resumed, "run to completion");

  // The imported session anchors a checkpoint at the restored cycle, so
  // backward stepping does not replay the whole prefix.
  auto anchored = ImportSessionBlob(blob);
  ASSERT_TRUE(anchored.ok());
  ASSERT_TRUE(anchored.value().sim->StepBack().ok());
  EXPECT_EQ(anchored.value().sim->cycle(), 432u);
}

TEST(SessionBlob, RejectsGarbageAndTruncation) {
  EXPECT_FALSE(ImportSessionBlob("").ok());
  EXPECT_FALSE(ImportSessionBlob("not a blob").ok());

  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 100);
  const std::string blob = EncodeSessionBlob(
      *sim, MakeIdentity(*sim, kBranchyMemory, "main", ""));
  for (std::size_t length = 0; length < blob.size();
       length += 1 + length / 5) {
    EXPECT_FALSE(
        ImportSessionBlob(std::string_view(blob).substr(0, length)).ok())
        << "truncation at " << length;
  }

  // Trailing garbage after the compressed stream fails closed.
  std::string padded = blob;
  padded += "excess";
  EXPECT_FALSE(ImportSessionBlob(padded).ok());

  // ... and so does garbage smuggled *inside* the compression, after the
  // container's last field.
  auto container = SlzDecompress(std::string_view(blob).substr(5));
  ASSERT_TRUE(container.has_value());
  std::string inner = blob.substr(0, 5) + SlzCompress(*container + "excess");
  auto rejected = ImportSessionBlob(inner);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.error().message.find("trailing"), std::string::npos);
}

// ---- log byte budget --------------------------------------------------------

/// One committed instruction per cycle forever: at debug level the ROB logs
/// every commit, so the log grows with cycles unless the byte budget caps it.
const char* kChattyLoop = R"(
main:
    li t0, 500000
spin:
    addi t0, t0, -1
    bnez t0, spin
    ret
)";

TEST(LogBudget, EncodedBlobStaysBoundedOnChattyRuns) {
  auto shortRun = MustCreate(kChattyLoop, TestConfig());
  auto longRun = MustCreate(kChattyLoop, TestConfig());
  ASSERT_NE(shortRun, nullptr);
  ASSERT_NE(longRun, nullptr);
  const std::size_t budget = 16 * 1024;
  for (core::Simulation* sim : {shortRun.get(), longRun.get()}) {
    sim->log().SetByteBudget(budget);
    sim->log().SetMinLevel(LogLevel::kDebug);
  }
  StepN(*shortRun, 2'000);
  StepN(*longRun, 20'000);
  ASSERT_EQ(longRun->status(), core::SimStatus::kRunning);

  EXPECT_FALSE(longRun->log().entries().empty());
  EXPECT_LE(shortRun->log().approxBytes(), budget);
  EXPECT_LE(longRun->log().approxBytes(), budget);

  // 10x the cycles must not grow the encoded session blob: the log is the
  // only cycle-proportional payload and the ring caps it.
  const std::string shortBlob = EncodeSessionBlob(
      *shortRun, MakeIdentity(*shortRun, kChattyLoop, "main", ""));
  const std::string longBlob = EncodeSessionBlob(
      *longRun, MakeIdentity(*longRun, kChattyLoop, "main", ""));
  EXPECT_LE(longBlob.size(), shortBlob.size() + budget);

  // The capped log still round-trips byte-identically.
  auto imported = ImportSessionBlob(longBlob);
  ASSERT_TRUE(imported.ok()) << imported.error().ToText();
  EXPECT_EQ(imported.value().sim->log().approxBytes(),
            longRun->log().approxBytes());
}

TEST(LogBudget, EvictsOldestAndKeepsNewest) {
  SimLog log(/*capacity=*/0, /*maxBytes=*/512);
  for (int i = 0; i < 1000; ++i) {
    log.Add(static_cast<std::uint64_t>(i), LogLevel::kInfo, "Block",
            "message " + std::to_string(i));
  }
  EXPECT_LE(log.approxBytes(), 512u);
  ASSERT_FALSE(log.entries().empty());
  EXPECT_EQ(log.entries().back().cycle, 999u);  // newest kept
  EXPECT_GT(log.entries().front().cycle, 0u);   // oldest evicted

  // An entry bigger than the whole budget still lands (newest survives).
  log.Add(1000, LogLevel::kError, "Huge", std::string(4096, 'x'));
  ASSERT_EQ(log.entries().size(), 1u);
  EXPECT_EQ(log.entries().back().cycle, 1000u);
}

TEST(LogBudget, ShrinkingBudgetMidRunTrimsOldestFirst) {
  // Shrinking the budget with entries already buffered must trim
  // immediately, oldest-first, not wait for the next Add.
  SimLog log(/*capacity=*/0, /*maxBytes=*/0);  // start unlimited
  for (int i = 0; i < 500; ++i) {
    log.Add(static_cast<std::uint64_t>(i), LogLevel::kInfo, "Block",
            "message " + std::to_string(i));
  }
  const std::size_t unbounded = log.approxBytes();
  ASSERT_GT(unbounded, 2048u);

  log.SetByteBudget(2048);
  EXPECT_LE(log.approxBytes(), 2048u);
  ASSERT_FALSE(log.entries().empty());
  // The survivors are the newest contiguous suffix, in order.
  EXPECT_EQ(log.entries().back().cycle, 499u);
  for (std::size_t i = 1; i < log.entries().size(); ++i) {
    EXPECT_EQ(log.entries()[i].cycle, log.entries()[i - 1].cycle + 1);
  }
  // Accounting matches reality after the trim.
  std::size_t recounted = 0;
  for (const LogEntry& entry : log.entries()) {
    recounted += SimLog::EntryBytes(entry);
  }
  EXPECT_EQ(log.approxBytes(), recounted);
}

TEST(LogBudget, ShrinkMidRunNeverCorruptsEncodedBlob) {
  // The simulation-level version of the shrink: a session logs chattily
  // under a generous budget, the budget is tightened mid-run, and the
  // encoded blob must still round-trip byte-identically.
  auto sim = MustCreate(kChattyLoop, TestConfig());
  ASSERT_NE(sim, nullptr);
  sim->log().SetByteBudget(64 * 1024);
  StepN(*sim, 5'000);
  ASSERT_EQ(sim->status(), core::SimStatus::kRunning);
  // The pipeline itself logs little on a well-predicted loop; buffer a
  // known volume of entries directly so the shrink has something to trim.
  for (int i = 0; i < 300; ++i) {
    sim->log().Add(sim->cycle(), LogLevel::kInfo, "Test",
                   "buffered entry " + std::to_string(i) +
                       std::string(64, '.'));
  }
  ASSERT_GT(sim->log().approxBytes(), 8u * 1024u);

  sim->log().SetByteBudget(8 * 1024);
  EXPECT_LE(sim->log().approxBytes(), 8u * 1024u);
  StepN(*sim, 1'000);  // keep running under the tighter budget
  EXPECT_LE(sim->log().approxBytes(), 8u * 1024u);

  const std::string blob =
      EncodeSessionBlob(*sim, MakeIdentity(*sim, kChattyLoop, "main", ""));
  auto imported = ImportSessionBlob(blob);
  ASSERT_TRUE(imported.ok()) << imported.error().ToText();
  EXPECT_EQ(imported.value().sim->log().approxBytes(),
            sim->log().approxBytes());
  EXPECT_EQ(imported.value().sim->log().ToText(), sim->log().ToText());
  // And the restored session re-encodes to the same bytes.
  const std::string reencoded = EncodeSessionBlob(
      *imported.value().sim, MakeIdentity(*sim, kChattyLoop, "main", ""));
  EXPECT_EQ(reencoded, blob);
}

// ---- shared-page checkpoints ------------------------------------------------

/// 1 MiB memory with a working set of a few pages: the configuration where
/// checkpoints sharing their unchanged pages pay off.
config::CpuConfig SharedPagesConfig() {
  config::CpuConfig config = TestConfig(64);
  config.memory.sizeBytes = 1 << 20;
  return config;
}

TEST(DeltaCheckpoints, ShrinkRingBytesAtLeast5x) {
  const config::CpuConfig config = SharedPagesConfig();
  auto sim = MustCreate(kBranchyMemory, config);
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 2000);

  const core::CheckpointRing& ring = sim->checkpoints();
  EXPECT_GT(ring.checkpointCount(), 20u);
  // At most a fifth of one memory image per entry.
  const std::size_t imagePerEntry =
      ring.checkpointCount() * config.memory.sizeBytes;
  EXPECT_GE(imagePerEntry, ring.totalBytes() * 5)
      << "shared ring " << ring.totalBytes() << " bytes vs "
      << imagePerEntry << " for one memory image per entry";
}

TEST(DeltaCheckpoints, SeeksMatchAFreshRun) {
  // Every seek target must land in a state byte-identical to a fresh run
  // to that cycle: checkpoints sharing pages are real restore points.
  auto sim = MustCreate(kBranchyMemory, SharedPagesConfig());
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 1500);

  for (std::uint64_t target : {1499ull, 1217ull, 640ull, 641ull, 639ull,
                               64ull, 65ull, 1ull, 1300ull}) {
    ASSERT_TRUE(sim->SeekTo(target).ok()) << "target " << target;
    auto fresh = MustCreate(kBranchyMemory, SharedPagesConfig());
    ASSERT_NE(fresh, nullptr);
    StepN(*fresh, target);
    ExpectIdenticalState(*sim, *fresh, "seek " + std::to_string(target));
  }
}

TEST(DeltaCheckpoints, RoundTripThroughCodec) {
  // Checkpoints sharing pages must not interfere with export/import.
  auto sim = MustCreate(kBranchyMemory, SharedPagesConfig());
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 700);
  const std::string blob = EncodeSessionBlob(
      *sim, MakeIdentity(*sim, kBranchyMemory, "main", ""));
  auto imported = ImportSessionBlob(blob);
  ASSERT_TRUE(imported.ok()) << imported.error().ToText();
  ExpectIdenticalState(*sim, *imported.value().sim, "shared-pages import");
}

TEST(AdaptiveInterval, GrowsUnderBudgetPressure) {
  config::CpuConfig config = TestConfig(16);
  config.memory.sizeBytes = 64 * 1024;
  config.checkpoint.adaptiveInterval = true;
  config.checkpoint.maxTotalBytes = 4 * config.memory.sizeBytes;
  auto sim = MustCreate(kBranchyMemory, config);
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 2000);
  // The budget fits a handful of 64 KiB snapshots; a fixed 16-cycle grid
  // would deposit 125 of them. Adaptive sizing must have stretched the
  // interval instead of thrashing evictions.
  EXPECT_GT(sim->checkpoints().effectiveIntervalCycles(), 16u);
  // Backward stepping still works and still lands exactly.
  ASSERT_TRUE(sim->StepBack().ok());
  auto reference = MustCreate(kBranchyMemory, config);
  ASSERT_NE(reference, nullptr);
  StepN(*reference, 1999);
  ExpectIdenticalState(*sim, *reference, "adaptive ring");
}

// ---- server commands --------------------------------------------------------

json::Json Cmd(server::SimServer& srv, std::string_view command,
               std::initializer_list<std::pair<const char*, json::Json>>
                   fields = {}) {
  json::Json request = json::Json::MakeObject();
  request.Set("command", std::string(command));
  for (const auto& [key, value] : fields) request.Set(key, value);
  return srv.Handle(request);
}

TEST(ServerSession, ExportImportIntoFreshServer) {
  server::SimServer source;
  json::Json created =
      Cmd(source, "createSession", {{"code", json::Json(kBranchyMemory)},
                                    {"entry", json::Json("main")}});
  ASSERT_EQ(created.GetString("status", ""), "ok") << created.Dump();
  const std::int64_t id = created.GetInt("sessionId", -1);

  json::Json stepped = Cmd(source, "step", {{"sessionId", json::Json(id)},
                                            {"count", json::Json(500)}});
  ASSERT_EQ(stepped.GetString("status", ""), "ok");

  json::Json exported =
      Cmd(source, "exportSession", {{"sessionId", json::Json(id)}});
  ASSERT_EQ(exported.GetString("status", ""), "ok") << exported.Dump();
  EXPECT_EQ(exported.GetInt("cycle", -1), 500);
  const std::string blob = exported.GetString("blob", "");
  ASSERT_FALSE(blob.empty());

  // A completely fresh server process stands in for the migration target.
  server::SimServer target;
  json::Json imported =
      Cmd(target, "importSession", {{"blob", json::Json(blob)}});
  ASSERT_EQ(imported.GetString("status", ""), "ok") << imported.Dump();
  EXPECT_EQ(imported.GetInt("cycle", -1), 500);
  const std::int64_t importedId = imported.GetInt("sessionId", -1);

  // Both sessions run another 400 cycles; states and statistics must stay
  // byte-identical (the JSON renders include registers, pipeline contents,
  // rename tags, cache lines and the log).
  for (int batch = 0; batch < 4; ++batch) {
    json::Json a = Cmd(source, "step", {{"sessionId", json::Json(id)},
                                        {"count", json::Json(100)}});
    json::Json b =
        Cmd(target, "step", {{"sessionId", json::Json(importedId)},
                             {"count", json::Json(100)}});
    ASSERT_EQ(a.GetString("status", ""), "ok");
    ASSERT_EQ(b.GetString("status", ""), "ok");
    EXPECT_EQ(a.Find("state")->Dump(), b.Find("state")->Dump())
        << "batch " << batch;
  }
  json::Json statsA = Cmd(source, "stats", {{"sessionId", json::Json(id)}});
  json::Json statsB =
      Cmd(target, "stats", {{"sessionId", json::Json(importedId)}});
  EXPECT_EQ(statsA.Find("statistics")->Dump(),
            statsB.Find("statistics")->Dump());
}

TEST(ServerSession, ImportRejectsGarbage) {
  server::SimServer srv;
  json::Json bad = Cmd(srv, "importSession", {{"blob", json::Json("@@@")}});
  EXPECT_EQ(bad.GetString("status", ""), "error");
  json::Json empty = Cmd(srv, "importSession", {{"blob", json::Json("")}});
  EXPECT_EQ(empty.GetString("status", ""), "error");
  // Valid base64, invalid contents.
  json::Json garbage = Cmd(srv, "importSession",
                           {{"blob", json::Json(Base64Encode("hello"))}});
  EXPECT_EQ(garbage.GetString("status", ""), "error");
  EXPECT_EQ(srv.sessionCount(), 0u);
}

TEST(ServerSession, LimitsOverrideCheckpointBudget) {
  server::SimServer::Limits limits;
  limits.maxCheckpointBytesPerSession = 1 << 20;
  server::SimServer srv(limits);

  // The session asks for a 64 MiB ring; the server's ceiling must win.
  config::CpuConfig config = TestConfig();
  config.checkpoint.maxTotalBytes = 64ull << 20;
  json::Json created = Cmd(
      srv, "createSession",
      {{"code", json::Json(kBranchyMemory)}, {"entry", json::Json("main")},
       {"config", config::ToJson(config)}});
  ASSERT_EQ(created.GetString("status", ""), "ok") << created.Dump();
  const std::int64_t id = created.GetInt("sessionId", -1);
  json::Json stats = Cmd(srv, "stats", {{"sessionId", json::Json(id)}});
  EXPECT_EQ(stats.Find("checkpoints")->GetInt("maxBytes", -1), 1 << 20);

  // The override also applies to imported sessions: export from an
  // unrestricted server, import into the limited one.
  server::SimServer unrestricted;
  json::Json other = Cmd(
      unrestricted, "createSession",
      {{"code", json::Json(kBranchyMemory)}, {"entry", json::Json("main")},
       {"config", config::ToJson(config)}});
  ASSERT_EQ(other.GetString("status", ""), "ok");
  json::Json exported =
      Cmd(unrestricted, "exportSession",
          {{"sessionId", json::Json(other.GetInt("sessionId", -1))}});
  ASSERT_EQ(exported.GetString("status", ""), "ok");
  json::Json imported =
      Cmd(srv, "importSession",
          {{"blob", json::Json(exported.GetString("blob", ""))}});
  ASSERT_EQ(imported.GetString("status", ""), "ok") << imported.Dump();
  json::Json importedStats =
      Cmd(srv, "stats",
          {{"sessionId", json::Json(imported.GetInt("sessionId", -1))}});
  EXPECT_EQ(importedStats.Find("checkpoints")->GetInt("maxBytes", -1),
            1 << 20);
}

/// The blob of `exportSession` for session `id` in `encoding`.
std::string ExportBlob(server::SimServer& srv, std::int64_t id,
                       const char* encoding) {
  json::Json exported =
      Cmd(srv, "exportSession",
          {{"sessionId", json::Json(id)}, {"encoding", json::Json(encoding)}});
  EXPECT_EQ(exported.GetString("status", ""), "ok") << exported.Dump();
  return exported.GetString("blob", "");
}

TEST(ServerSession, RestoredSessionExportsTheForwardRunsDelta) {
  // A restore shares the checkpoint's memory pages, so a session brought
  // back to cycle 2000 (by a stepBack, a restoreCheckpoint or an import of
  // its full blob) ships the same delta as a twin that only stepped
  // forward to it: the pages written since Create, not every page.
  server::SimServer srv;
  const auto step = [&](std::int64_t id, std::int64_t count) {
    json::Json stepped = Cmd(srv, "step", {{"sessionId", json::Json(id)},
                                           {"count", json::Json(count)}});
    ASSERT_EQ(stepped.GetString("status", ""), "ok") << stepped.Dump();
  };
  const std::int64_t forward =
      bench::CreateCSession(srv, bench::kSortC, config::DefaultConfig());
  const std::int64_t restored =
      bench::CreateCSession(srv, bench::kSortC, config::DefaultConfig());
  ASSERT_GE(forward, 0);
  ASSERT_GE(restored, 0);
  step(forward, 2000);
  const std::string expected = ExportBlob(srv, forward, "delta");
  ASSERT_FALSE(expected.empty());

  step(restored, 2001);
  json::Json back = Cmd(srv, "stepBack", {{"sessionId", json::Json(restored)}});
  ASSERT_EQ(back.GetString("status", ""), "ok") << back.Dump();
  EXPECT_TRUE(ExportBlob(srv, restored, "delta") == expected)
      << "after stepBack";

  step(restored, 300);
  json::Json seek = Cmd(srv, "restoreCheckpoint",
                        {{"sessionId", json::Json(restored)},
                         {"cycle", json::Json(2000)}});
  ASSERT_EQ(seek.GetString("status", ""), "ok") << seek.Dump();
  EXPECT_TRUE(ExportBlob(srv, restored, "delta") == expected)
      << "after restoreCheckpoint";

  json::Json imported =
      Cmd(srv, "importSession",
          {{"blob", json::Json(ExportBlob(srv, restored, "full"))}});
  ASSERT_EQ(imported.GetString("status", ""), "ok") << imported.Dump();
  EXPECT_TRUE(ExportBlob(srv, imported.GetInt("sessionId", -1), "delta") ==
              expected)
      << "after importSession";
}

// ---- CLI flags --------------------------------------------------------------


// ---- delta session blobs (format v3) ---------------------------------------

TEST(DeltaBlob, DeltaImportMatchesFullImportByteIdentically) {
  auto original = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(original, nullptr);
  StepN(*original, 433);

  const SessionIdentity identity =
      MakeIdentity(*original, kBranchyMemory, "main", "");
  const std::string full = EncodeSessionBlob(*original, identity);
  SessionBlobOptions deltaOptions;
  deltaOptions.delta = true;
  const std::string delta =
      EncodeSessionBlob(*original, identity, deltaOptions);
  EXPECT_LT(delta.size(), full.size());

  auto fromFull = ImportSessionBlob(full);
  ASSERT_TRUE(fromFull.ok()) << fromFull.error().ToText();
  auto fromDelta = ImportSessionBlob(delta);
  ASSERT_TRUE(fromDelta.ok()) << fromDelta.error().ToText();
  ExpectIdenticalState(*fromFull.value().sim, *fromDelta.value().sim,
                       "delta vs full import");

  // ... and they stay in lockstep through the rest of the program.
  std::vector<std::uint32_t> fullTrace;
  std::vector<std::uint32_t> deltaTrace;
  fromFull.value().sim->SetCommitTraceSink(&fullTrace);
  fromDelta.value().sim->SetCommitTraceSink(&deltaTrace);
  fromFull.value().sim->Run(5'000'000);
  fromDelta.value().sim->Run(5'000'000);
  EXPECT_EQ(fullTrace, deltaTrace);
  ExpectIdenticalState(*fromFull.value().sim, *fromDelta.value().sim,
                       "delta vs full after run");
}

TEST(DeltaBlob, ReExportAfterEitherImportStaysDeltaRestorable) {
  // Import shares the base's pages (every unshipped page for delta, the
  // pages with equal bytes for full), so a session that migrated once must
  // still delta-export from its new home — that is what keeps every later
  // hop of a multi-migration cheap.
  auto original = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(original, nullptr);
  StepN(*original, 433);
  const SessionIdentity identity =
      MakeIdentity(*original, kBranchyMemory, "main", "");
  SessionBlobOptions deltaOptions;
  deltaOptions.delta = true;

  for (const bool firstHopDelta : {false, true}) {
    const std::string hop1 = EncodeSessionBlob(
        *original, identity, firstHopDelta ? deltaOptions
                                           : SessionBlobOptions{});
    auto imported = ImportSessionBlob(hop1);
    ASSERT_TRUE(imported.ok()) << imported.error().ToText();
    const std::string hop2 = EncodeSessionBlob(
        *imported.value().sim, imported.value().identity, deltaOptions);
    auto again = ImportSessionBlob(hop2);
    ASSERT_TRUE(again.ok())
        << "firstHopDelta=" << firstHopDelta << ": "
        << again.error().ToText();
    ExpectIdenticalState(*original, *again.value().sim,
                         firstHopDelta ? "delta->delta" : "full->delta");
  }
}

TEST(DeltaBlob, CodecFailsClosedOnBaseMismatch) {
  auto base = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(base, nullptr);
  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 433);

  const CodecContext encodeContext{&sim->config(), &sim->program()};
  EncodeOptions options;
  options.deltaBase = &sim->baseMemory();
  options.baseEpoch = sim->memoryBaseEpoch();
  const std::string blob =
      EncodeSnapshot(sim->SaveState(), encodeContext, options);

  // With the matching base the delta decodes, and takes the pages it does
  // not ship from that base.
  const CodecContext withBase = BaseContext(*base);
  auto decoded = DecodeSnapshot(blob, withBase);
  ASSERT_TRUE(decoded.ok());
  const auto& decodedPages = decoded.value().memory.memory.pages;
  const auto& basePages = base->baseMemory().pages;
  ASSERT_EQ(decodedPages.size(), basePages.size());
  std::size_t sharedPages = 0;
  for (std::size_t page = 0; page < basePages.size(); ++page) {
    if (decodedPages[page] == basePages[page]) ++sharedPages;
  }
  EXPECT_GT(sharedPages, 0u);
  EXPECT_LT(sharedPages, basePages.size());

  // A different base epoch fails closed with a clear message.
  CodecContext wrongEpoch = withBase;
  wrongEpoch.baseEpoch ^= 1;
  auto rejected = DecodeSnapshot(blob, wrongEpoch);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.error().message.find("base-epoch"), std::string::npos);

  // No base at all fails closed too — a delta is never guessed against.
  CodecContext noBase{&base->config(), &base->program()};
  EXPECT_FALSE(DecodeSnapshot(blob, noBase).ok());
}

TEST(DeltaBlob, TruncatedAndCorruptedDeltaBlobsAlwaysError) {
  auto base = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(base, nullptr);
  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 250);

  const CodecContext encodeContext{&sim->config(), &sim->program()};
  EncodeOptions options;
  options.deltaBase = &sim->baseMemory();
  options.baseEpoch = sim->memoryBaseEpoch();
  const std::string blob =
      EncodeSnapshot(sim->SaveState(), encodeContext, options);

  const CodecContext context = BaseContext(*base);
  ASSERT_TRUE(DecodeSnapshot(blob, context).ok());

  for (std::size_t length = 0; length < blob.size();
       length += 1 + length / 7) {
    EXPECT_FALSE(
        DecodeSnapshot(std::string_view(blob).substr(0, length), context)
            .ok())
        << "truncation at " << length;
  }
  // The payload checksum catches every single-byte flip.
  for (std::size_t pos = 0; pos < blob.size(); pos += 1 + pos / 7) {
    std::string mutant = blob;
    mutant[pos] = static_cast<char>(mutant[pos] ^ 0x5a);
    EXPECT_FALSE(DecodeSnapshot(mutant, context).ok())
        << "byte flip at " << pos;
  }
}

/// A format-v2 session blob, written by the v2 writer that format 3 later
/// retired: kBranchyMemory on TestConfig() with 8 KiB of memory,
/// fast-forwarded 1000 instructions on the ISS (v2 added the seed record),
/// then stepped 40 cycles on the detailed core.
constexpr const char* kV2SessionBlob =
    "UlZTRQFcSgAAAAEAAABzBQAAAHsibmFtZSI6ACJydnNzLWRlAGZhdWx0IiwiAGNvcmVDbG9j"
    "gGtIeiI6MTAAYGAsIm1lbRbgFqBiAHVmZmVycyI6AHsicm9iU2l6AGUiOjY0LCJmAGV0Y2hX"
    "aWR0EGgiOjRVAG1taQJ0D8BmbHVzaFAAZW5hbHR5IjoCMi9gQnJhbmNoAEZvbGxvd0xpAG1p"
    "dCI6MSwiAGlzc3VlV2luCGRvd19AMTZ9LAAiZnVuY3RpbwBuYWxVbml0cwAiOlt7ImtpbgBk"
    "IjoiRlgiLAHdgEZYMSIsIm8wcGVyYS0AJ0BvcABDbGFzcyI6IgBrSW50QWx1IgAsImxhdGVu"
    "Y8B5IjoxfSwh4CEgyE11bCHgOjMh4CFgCERpdiHgOjEyfe5dJACQ4JDAMpDgkOCQ4EeQ4JAg"
    "S+AiRlBL4FAH3OBL4EuARnBBZGTfSuC54CCA2uAgADQg4CBAG9ngjCA2IeAhQEZtYRkh4Do1"
    "IOAgQE90aBRlciLgOh3hIjoi5ExT0cBMU9EA+uAm4Pkm4ExTRAEm4CbAQ0IqwAxCUlHgKuAi"
    "OiJNIGVtb3J5KsBNRQZNK+B4ISwiY2FjBGhl3gJlbmFibABlZCI6dHJ1ZQAsImxpbmVDbzh1"
    "bnTvQg4AnQJCeQB0ZXMiOjMyLAAiYXNzb2NpYRB0aXZp5GJyZXBAbGFjZW1lNQAiAExSVSIs"
    "InN0gG9yZVBvbGlxAAAid3JpdGUtYgBhY2siLCJhYwBjZXNzRGVsYZuMAGNAUkLAGIAwfZ0j"
    "IcoAOnsic4TAODEAOTIsImxvYWR+QqUjPYN0YBTgFCAoAEwd+6AwJWAR4AwBbGxTEHRhY2th"
    "YDQwOQY21gBAAVJlZ2lzCHRlchShfSwicAByZWRpY3RvcomZAGJ0H+RwaHQMwAh0eXB/AXR3"
    "by0MYmmEBI5kU3RhdABlIjowLCJoacOMACEBbG9jYbICEWAGQvsjAgFjaGVjawhwb2l8AHsi"
    "aW4AdGVydmFsQ3kEY2yQgW1heFRvCHRhbLxgNjcxMAQ4OH8AZGVsdGEYUGFnFQDdQWZ1bABs"
    "U25hcHNobzB0RXZleQAiAWFkgGFwdGl2ZUldYAAiOmZhbHNlfQAsInRyYXBPboBEaXZaZXJv"
    "FmAALCJyYW5kb20EU2U2AjF9wwEAAAAKbWFpbjoKACAgICBsaSBzEDAsIDAMoDEsIAAyNApv"
    "dXRlcoEhoHQwLCAxNg0gAGFkZGkgdDEsACBzcCwgLTI1QDYKZmlsbClAbUB1bCB0MiwuIHMS"
    "MRIgc3cRIDAodKQxKT/gMSwDIDQS4AowN0AtN0BibmV6Pw8gXQCG4IbghuCGAHNjLmHSgHPg"
    "LEBuLAAzLCMWIF9gZXF6EiBldpxlblGACSEDAHQyEiCAaiBuZXh0CiIA0VlAc3ViI+AKHQAY"
    "QJ/V4NXg1eDV4B0hY2F1oD9zQQMAJeAPIIQhEiBtdgwgYXcgDSByZXQKEAQAAADFAQAAAAAA"
    "CkMAAFJWUwBQAgAAAHtkhACdgHQw9tstdACsmWqi972isoDbFWhIp+JCKQBIAAAoBkAAWQdg"
    "IPAAAAAeC2AAAJkHACDQ8P///wggEB3gAOApKIA8DwdAFA9gpNv+/wAgD4AA4ADgAOAA4ADg"
    "/wDgAOAA4ADgAOAA4ADgAOD/AOAA4ADgAOAA4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADg/wDg"
    "AOAA4ADgAOAA4ADgAOADAOAA4AAAADAAAAgA6AMLQBcAAAD+VRdgcAIKYtrhAOBc4gDgqwDg"
    "AOBWB2AFTcAYHuBfAOBU4ADgAOAAwFcHYAb9TcAcHuAA4FTgAOAA4ADA+lgHYAdNwDIDAOAA"
    "wFTgtwDgAOAAgEYHYFOBAlPhqwDgACAiB2AjB2AmG+A5AOAAA/YAAEB+AwgAAAAA/v///wUA"
    "xgwV4ACABQATFeAAgEZHE2CVgQNAQJXhAF4Q6WMAIJbgACAkB2Al6wdgAIADUKQAkgCAwE2A"
    "3X/g/w8BFeAAYEgTYNeB+AMAQNfhAOCW4JbgACDDluAAIAMGABSA4HgAdy1BluAAoASoIRXg"
    "ACBJ4xNgGYIDAEAZ4gDgluAPloCOgMzhACADBgALvwpgYgCIAcThgOAAAAQN4B0AwEopYG0B"
    "jwADD0C/wYXJ5QBAJeEAII6AJwdg+QCAAwWW4ADAngAV4ABgbgQ6JgDgACBLKWDyggH/8uIA"
    "4AAgtOEA4ADgAGDy4n9iAGkC9QCs4ADg8uIA4Ez/E2Dy4vLiI6IAIJbgACAt4f8A4PLiJEeA"
    "wHHiAKDy4gDg/k0TYPLi8uIA4JbgluAAIMOW4AAgAwYAGIDgLAjffACW4ADg8uIA4E4TYPLi"
    "f/LiAOCW4JaAjoAk5QAgA/gGAAoKYGIAeQaMAcThNwDg8uIA4E8pYPKCAgf/6uIA4AAAJeEA"
    "II7gAODyIr+W4ACg8uIA4PLiAOBQKWD/8uLy4gDgjuC04QDgAMDy4n9iAIgBYwKs4ADg8uIA"
    "4FH7E2DyggJ75wDgACCW4AAg/y3hAODy4htCgMBx4gCg8uLtAOBSE2DyggK95wDgACD/luAA"
    "IJbgAOAt4WpADQD2Am+W4ADg8uIA4FMTYPKCAf//5wDgACCW4ADgAOAAYJbgP2IAEiDE4YDg"
    "8uIA4P//7P9UKWDyggHy4gDgACD/JeEA4ADgAGDE4QAAaoDy4j8A4PLiAOAwCgAAW4IEQHJY"
    "W+IAAE7lC6C3gBILB2CzghYHYAMFADB/mWBp4JYAxOEAgFviAOAqyxNglsBIluAABJbg8yqr"
    "AAAggBkHYBoHYB0HYLADBQAdluAAgAVNoOcU4JbgFOD/PRNgluCW4GwACJbgo60fB2CEgiHf"
    "B2BuhbcEluAAgAVNoBTgO5bgFOD/KW6W4JbgAAB+DJbghuAAQOjoACB7ggP4BQD3CmBp4NgI"
    "luAAgP+W4ADgFYDdAMUDMgM8AMRGlzhEpQMSAwkVDwAAQybBOgkNAAAADi9gbwL+EW9iQwAr"
    "ABsAEwAAgGMA74+CUwCTAgoBFZdibwBfAP9PAB8A4oWnABMABwBzADcAfR8AKUtgB4AAgA/g"
    "D+AA/AArE+AAAIzvAOAAwB6K+72Ka4GQjG9TgwDgAOAA4P8A4ADgAOAA4ADgAOAA4ADg/wDg"
    "AOAA4ADgAOAA4ADgAOD/AOAA4ADgAOAA4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADgDwDgAOAA"
    "4ADgAAAAQK9o8XYCCwAP4AcPIAHNhjECIwABAUaGpiIAAf4BxaofYFmJH2ANgB+AD8D/X0AP"
    "4AvgAAAaxgBASgMA4P8A4ADgAOAA4ADgAOAA4ADg/wDgAOAA4ADgAOAA4ADgAOD/AOAA4ADg"
    "AOAA4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADg/wDgAOAA4ADgAOAA4ADgAOD/AOAA4ADgAOAA"
    "4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADg/wDgAOAA4ADgAOAA4ADgAOD/AOAA4ADgAOAA4ADg"
    "AOAA4A8A4ADgAOAA4AAANwAAAAA/AAAAPgAEAAAxCDwAAAA7AAAAADoAAAA5EAAAADgjYDYA"
    "AAAANQAAADQAAAAAMwAAADIAAAQAMdBzLwAAAC4AAAAALQAAACz/X2YUCW8GFgqmB70KHQ1J"
    "CP++B8oH1gfiB3UIgQj8CAUL/hsQaRwJGwg0CRcHHwcnB/9vBj8HUweyBoAEYwcTB6sG/4EE"
    "pQQwBLsA5ucAoPsA04f/FuAA4ADgAOAA4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADg/wDgAOAA"
    "4ADgAADnBQDgAOD/AMCTdQDgm+UA4ADgH+AA4P8A4ADgAOAA4ADgAOAA4ADg/wDgAOAA4ADg"
    "AOAAgAPhAODfAOAA4ADgAOAAwAG0AivpNwDgAOAAYAExA33gAAD6AWMDRBDgAOAA4ADgAAD+"
    "AZQNfQoA4ADgAOAA4ADg/wDgAOAA4ADgAOAA4ADgAOD/AOAA4ADgAOAA4ADgAOAA4P8A4ADg"
    "AOAA4ADgAOAA4ADg/wDgAOAA4ADgAOAA4KPvAOD/AOAA4ADgAOAA4ADgAOAA4P8A4ADgAOAA"
    "4ADgAOAA4ADg/wDgAOAA4ADgAOAA4ADgAOD/AOAA4ADgAOAA4ADgAOAA4P8A4ADgAOAA4ADg"
    "AOAA4ADg/wDgAOAA4ADgAOAA4ADgAOD/AOAA4ADgAOAA4ADgAOAA4P8A4ADgAOAA4ADgAOAA"
    "4ADg/wDgAOAA4ADgAOAA4ADgAOD/AOAA4ADgAOAA4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADg"
    "/wDgAOAA4ADgAOAA4ADgAOD/AOAA4ADgAOAA4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADg/wDg"
    "AOAA4ADgAOAA4ADgAOD/AOAA4ADgAOAA4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADg/wDgAOAA"
    "4ADgAOAA4ADgAOD/AOAA4ADgAOAA4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADg/wDgAOAA4ADg"
    "AOAA4ADgAOD/AOAA4ADgAOAA4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADg/wDgAOAA4ADgAOAA"
    "4ADgAOD/AOAA4ADgAOAA4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADg/wDgAOAA4ADgAOAA4ADg"
    "AOD/AOAA4ADgAOAA4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADg/wDgAOAA4ADgAOAA4ADgAOD/"
    "AOAA4ADgAOAA4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADg/wDgAOAA4ADgAOAA4ADgAOD/AOAA"
    "4ADgAOAA4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADg/wDgAOAA4ADgAOAA4ADgAOD/AOAA4ADg"
    "AOAA4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADg/wDgAOAA4ADgAOAA4ADgAOD/AOAA4ADgAOAA"
    "4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADg/wDgAOAA4ADgAOAA4ADgAOD/AOAA4ADgAOAA4ADg"
    "AOAA4P8A4ADgAOAAQDQdoRwOHA8aAPAAAADcAAAAAMgAAAC0AAAAAKAAAACMAAAAAHgAAABk"
    "AAAA/lBbdA8UwxMA4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADg/wDgAOAA4ADgAOAA4ADgAOD/"
    "AOAA4ADgAOAA4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADg/wDgAOAA4ADgAOAA4ADgAOD/AOAA"
    "4ADgAOAA4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADg/wDgAOAA4ADgAOAA4ADgAOD/AOAA4ADg"
    "AOAA4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADg/wDgAOAA4ADgAOAA4ADgAOD/AOAA4ADgAOAA"
    "4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADg/wDgAOAA4ADgAOAA4ADgAOD/AOAA4ADgAOAA4ADg"
    "AOAA4P8A4ADgAOAA4ADgAOAA4ADg/wDgAOAA4ADgAOAA4ADgAOD/AOAA4ADgAOAA4ADgAOAA"
    "4P8A4ADgAOAA4ADgAOAA4ADg/wDgAOAA4ADgAOAA4ADgAOD/AOAA4ADgAOAA4ADgAOAA4P8A"
    "4ADgAOAA4ADgAOAA4ADg/wDgAOAA4ADgAOAA4ADgAOD/AOAA4ADgAOAA4ADgAOAA4P8A4ADg"
    "AOAA4ADgAOAA4ADg/wDgAOAA4ADgAOAA4ADgAOD/AOAA4ADgAOAA4ADgAOAA4P8A4ADgAOAA"
    "4ADgAOAA4ADg/wDgAOAA4ADgAOAA4ADgAOD/AOAA4ADgAOAA4ADgAOAA4P8A4ADgAOAA4ADg"
    "AOAA4ADg/wDgAOAA4ADgAOAA4ADgAOD/AOAA4ADgAOAA4ADgAOAA4P8A4ADgAOAA4ADgAOAA"
    "4ADg/wDgAOAA4ADgAOAA4ADgAOD/AOAA4ADgAOAA4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADg"
    "/wDgAOAA4ADgAOAA4ADgAOD/AOAA4ADgAOAA4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADg/wDg"
    "AOAA4ADgAOAA4ADgAOD/AOAA4ADgAOAA4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADg/wDgAOAA"
    "4ADgAOAA4ADgAOD/AOAA4ADgAOAA4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADg/wDgAOAA4ADg"
    "AOAA4ADgAOD/AOAA4ADgAOAA4ADgAOAA4PMA4ACgAUAM4ADgAOAA4P8A4ADgAOAA4ADgAOAA"
    "4ADg/wDgAOAA4ADgAOAA4ADgAOD/AOAA4ADgAOAA4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADg"
    "/wDgAOAA4ADgAOAA4ADgAOD/AOAA4ADgAOAA4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADg/wDg"
    "AOAA4ADgAOAA4ADgAOD/AOAA4ADgAOAA4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADg/wDgAOAA"
    "4ADgAOAA4ADgAOAfAOAA4ADgAOAkBAEDAPgAABYNgBngAOAA4ADg/wDgAOAA4ADgAOAA4ADg"
    "AOD/AOAA4ADgAOAA4ADgAOAA4P8A4ADgAOAA4ADgAOAA4ADgBwDgAOAAYMFcAonsAC0KkWfs"
    "jmWhAI3rvl5VMvvuAKKT+AvJQu6Q+IbBcXGBeeEP4A/gC+DZAOAAIAvgAAACB2DEFlUAAFgH"
    "YE4HYDEHYC1VB2AeB2ApB2DoDgIAaAAABA9gCgdgD4AH7xfgAAA5ggCADwdgr+AP4P8HwE+A"
    "r4A3gBeAAOAAIH/ghwDgD0CyAEZYMRUSYHYLB2AWQDLKlweAFiBQxweBAKAWAExTMV+AB4CN"
    "FkAyKOAWoEJSMWqAgweApQBNRU0xEw9gXwXhAOAA4ABgJ+AAkCNTAGltNQAAAGZhAHN0LWZv"
    "cndhAHJkZWQgMTAwADAgaW5zdHJ1AGN0aW9ucyBvAG4gdGhlIElTAFMgKHJ1bm5pAG5nKQ==";

TEST(DeltaBlob, V2FormatSessionBlobStillImports) {
  // The versioned reader: a blob persisted in format v2 (no memory-mode
  // byte) must keep importing after the v3 bump, so long-lived saved
  // sessions survive the upgrade.
  const auto blob = Base64Decode(kV2SessionBlob);
  ASSERT_TRUE(blob.has_value());
  auto imported = ImportSessionBlob(*blob);
  ASSERT_TRUE(imported.ok()) << imported.error().ToText();

  config::CpuConfig config = TestConfig();
  config.memory.sizeBytes = 8 * 1024;
  auto original = MustCreate(kBranchyMemory, config);
  ASSERT_NE(original, nullptr);
  ASSERT_TRUE(original->FastForwardTo(1000).ok());
  StepN(*original, 40);
  ExpectIdenticalState(*original, *imported.value().sim, "v2 import");

  // The v3 re-export, pinned while the v2 writer still existed.
  const std::string reexported = EncodeSessionBlob(
      *imported.value().sim, imported.value().identity);
  EXPECT_EQ(reexported.size(), 5237u);
  EXPECT_EQ(Fnv1a64(reexported), 0x333d927120ac0612ull);
}

TEST(CliSnapshot, SaveLoadRoundTripMatchesUninterruptedRun) {
  const std::string dir = ::testing::TempDir();
  const std::string programPath = dir + "/snap_prog.s";
  const std::string snapshotPath = dir + "/session.rvse";
  {
    std::ofstream file(programPath);
    file << kBranchyMemory;
  }

  auto run = [&](const std::vector<std::string>& args, std::string& out) {
    std::ostringstream outStream;
    std::ostringstream errStream;
    const int code = cli::RunCli(args, outStream, errStream);
    out = outStream.str();
    EXPECT_EQ(code, 0) << errStream.str();
    return code;
  };

  // Interrupted: run 300 cycles, save, resume from the snapshot.
  std::string ignored;
  run({"rvss", "--asm", programPath, "--max-cycles", "300",
       "--save-snapshot", snapshotPath, "--format", "json"},
      ignored);
  std::string resumed;
  run({"rvss", "--load-snapshot", snapshotPath, "--format", "json"}, resumed);

  // Uninterrupted reference.
  std::string reference;
  run({"rvss", "--asm", programPath, "--format", "json"}, reference);
  EXPECT_EQ(resumed, reference);

  // Conflicting flags are rejected.
  std::ostringstream outStream;
  std::ostringstream errStream;
  EXPECT_EQ(cli::RunCli({"rvss", "--load-snapshot", snapshotPath, "--asm",
                         programPath},
                        outStream, errStream),
            1);
  EXPECT_NE(errStream.str().find("cannot be combined"), std::string::npos);
}

}  // namespace
}  // namespace rvss::snapshot
