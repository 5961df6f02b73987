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

/// Every blob the golden table pins, in table order: progen seeds 1-4 on
/// five machine shapes (the Random replacement policy and local histories
/// put the cache RNG and the history table on the wire), and the
/// interactive benches' C programs mid-run, finished and fast-forwarded
/// (the seed record).
std::vector<Blob> GoldenBlobs() {
  const auto stepTo = [](core::Simulation& sim, std::uint64_t cycle) {
    while (sim.cycle() < cycle && sim.status() == core::SimStatus::kRunning) {
      sim.Step();
    }
  };
  config::CpuConfig localRandom = config::DefaultConfig();
  localRandom.predictor.history = config::HistoryKind::kLocal;
  localRandom.predictor.historyBits = 4;
  localRandom.cache.replacement = config::ReplacementPolicy::kRandom;
  const std::pair<const char*, config::CpuConfig> configs[] = {
      {"default", config::DefaultConfig()},
      {"scalar", config::ScalarConfig()},
      {"wide", config::WideConfig()},
      {"nocache", config::NoCacheConfig()},
      {"localrandom", localRandom}};

  std::vector<Blob> blobs;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const std::string source = ref::GenerateProgram(seed);
    for (const auto& [name, config] : configs) {
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
    {"seed1/default/cycle0/session", 16641, 0x881f1716a81e6b0eull},
    {"seed1/default/cycle17/full", 75049, 0x9f1ca431e225572cull},
    {"seed1/default/cycle17/delta", 9525, 0xc872fc433783cd1bull},
    {"seed1/default/cycle17/session", 18121, 0x40115f970e902dc4ull},
    {"seed1/default/cycle1000/full", 70826, 0xc3dfef776b4454f0ull},
    {"seed1/default/cycle1000/delta", 9402, 0xc737233ce3ac351cull},
    {"seed1/default/cycle1000/session", 17012, 0xf47dae9b1ac985d3ull},
    {"seed1/scalar/cycle0/full", 68963, 0xb05836248de289a0ull},
    {"seed1/scalar/cycle0/delta", 3439, 0x708e81053d1cf6b0ull},
    {"seed1/scalar/cycle0/session", 16132, 0x82024e95fd4a1de5ull},
    {"seed1/scalar/cycle17/full", 69487, 0xe3c6b8dca616065dull},
    {"seed1/scalar/cycle17/delta", 3963, 0xa66ea5b72f2f57a6ull},
    {"seed1/scalar/cycle17/session", 16355, 0xd4847b74abf0fccbull},
    {"seed1/scalar/cycle1000/full", 70298, 0x181930bc7c68538cull},
    {"seed1/scalar/cycle1000/delta", 8874, 0x2e54b6b67f05f32eull},
    {"seed1/scalar/cycle1000/session", 16811, 0xf59cf19124ccd096ull},
    {"seed1/wide/cycle0/full", 85448, 0xa3bba9d34b7e1df1ull},
    {"seed1/wide/cycle0/delta", 19924, 0x62d4142e116c70fcull},
    {"seed1/wide/cycle0/session", 20128, 0xeb703f0ba34cf507ull},
    {"seed1/wide/cycle17/full", 89476, 0xf86b9d87461c99a7ull},
    {"seed1/wide/cycle17/delta", 23952, 0xe8e25719cef62934ull},
    {"seed1/wide/cycle17/session", 21375, 0xe0b8b52e302377d6ull},
    {"seed1/wide/cycle1000/full", 85657, 0xc768355c8b5bd9fcull},
    {"seed1/wide/cycle1000/delta", 24233, 0x9f8d44cb3de597e0ull},
    {"seed1/wide/cycle1000/session", 20637, 0x0971c083e0c64d6bull},
    {"seed1/nocache/cycle0/full", 69165, 0xe294287962443deeull},
    {"seed1/nocache/cycle0/delta", 3641, 0x9589ae23e246c80cull},
    {"seed1/nocache/cycle0/session", 16326, 0x5672cbcd13f85a6bull},
    {"seed1/nocache/cycle17/full", 73597, 0xd76eb279e69e7d0aull},
    {"seed1/nocache/cycle17/delta", 8073, 0x5631946aff7a6860ull},
    {"seed1/nocache/cycle17/session", 17807, 0x2f623fe20ebc80d5ull},
    {"seed1/nocache/cycle1000/full", 79506, 0xbd4af012ec228595ull},
    {"seed1/nocache/cycle1000/delta", 18082, 0x80c7562313fa81b8ull},
    {"seed1/nocache/cycle1000/session", 19342, 0x1e8022b85726212cull},
    {"seed1/localrandom/cycle0/full", 70873, 0xa13dd5f763ccf49dull},
    {"seed1/localrandom/cycle0/delta", 5349, 0xeee5856686b40ad6ull},
    {"seed1/localrandom/cycle0/session", 16690, 0x2cdb29a75631c16full},
    {"seed1/localrandom/cycle17/full", 75305, 0xe828d2a306e3bb64ull},
    {"seed1/localrandom/cycle17/delta", 9781, 0xd7ecc8ce795dc60aull},
    {"seed1/localrandom/cycle17/session", 18172, 0x49c4168cfa457b72ull},
    {"seed1/localrandom/cycle1000/full", 70927, 0x08e482e9589edd2dull},
    {"seed1/localrandom/cycle1000/delta", 9503, 0xb62df87f2b7a9f4aull},
    {"seed1/localrandom/cycle1000/session", 17019, 0xc8c6c855310c5380ull},
    {"seed2/default/cycle0/full", 70617, 0x8d1256e99b708903ull},
    {"seed2/default/cycle0/delta", 5093, 0xe71086b133aa3529ull},
    {"seed2/default/cycle0/session", 16623, 0x88d53e95b8c54e22ull},
    {"seed2/default/cycle17/full", 77710, 0x7cda1a3fc377d93full},
    {"seed2/default/cycle17/delta", 12186, 0x3efd3140eb896513ull},
    {"seed2/default/cycle17/session", 18949, 0x2ecda80d5ae89c3eull},
    {"seed2/default/cycle1000/full", 70671, 0xcc7fef918f49da8dull},
    {"seed2/default/cycle1000/delta", 9247, 0x802f1eccb8f7a080ull},
    {"seed2/default/cycle1000/session", 16881, 0x9f063d74484df304ull},
    {"seed2/scalar/cycle0/full", 68963, 0x27ea37c4c6ad2936ull},
    {"seed2/scalar/cycle0/delta", 3439, 0x81706190bf4b6dc7ull},
    {"seed2/scalar/cycle0/session", 16121, 0xcf0bd6207fc8069dull},
    {"seed2/scalar/cycle17/full", 69487, 0xbccfd1d5b5fac646ull},
    {"seed2/scalar/cycle17/delta", 3963, 0x0b5fd3c9e196e4efull},
    {"seed2/scalar/cycle17/session", 16319, 0xe4eedf09c1eea6aaull},
    {"seed2/scalar/cycle1000/full", 69017, 0xfea2138831ff20c2ull},
    {"seed2/scalar/cycle1000/delta", 7593, 0xbccf45c6ab5c6362ull},
    {"seed2/scalar/cycle1000/session", 16340, 0x93cf7b5f84dacc4dull},
    {"seed2/wide/cycle0/full", 85448, 0x7a686914074a8fe9ull},
    {"seed2/wide/cycle0/delta", 19924, 0x892e3ca1fe4729dbull},
    {"seed2/wide/cycle0/session", 20114, 0x07ce6136bfa6fd5aull},
    {"seed2/wide/cycle17/full", 92580, 0x82e980de60f2f50bull},
    {"seed2/wide/cycle17/delta", 27056, 0x8d2a59431b3ae7e7ull},
    {"seed2/wide/cycle17/session", 22363, 0x7cbcdcc8e54359f6ull},
    {"seed2/wide/cycle1000/full", 85502, 0xbbb60e779b4a2ec9ull},
    {"seed2/wide/cycle1000/delta", 24078, 0x5e5dc993d4927bcaull},
    {"seed2/wide/cycle1000/session", 20464, 0xe10ead292fa56f66ull},
    {"seed2/nocache/cycle0/full", 69165, 0x5f6a7d4c31e91f14ull},
    {"seed2/nocache/cycle0/delta", 3641, 0x9ba9ca3fbfe33893ull},
    {"seed2/nocache/cycle0/session", 16308, 0x725f5b694215c166ull},
    {"seed2/nocache/cycle17/full", 76258, 0xe12c704d6667e0bfull},
    {"seed2/nocache/cycle17/delta", 10734, 0x1c5c3d1d4301c651ull},
    {"seed2/nocache/cycle17/session", 18627, 0x2bbf7d98a3006438ull},
    {"seed2/nocache/cycle1000/full", 76197, 0x0f51943748976d3full},
    {"seed2/nocache/cycle1000/delta", 14773, 0x95c0aa6adc22166dull},
    {"seed2/nocache/cycle1000/session", 18658, 0xbcc371e5585ff7deull},
    {"seed2/localrandom/cycle0/full", 70873, 0xff986a9649bd6f79ull},
    {"seed2/localrandom/cycle0/delta", 5349, 0xeb0754602f0224feull},
    {"seed2/localrandom/cycle0/session", 16672, 0xfbfbadc4061c6c20ull},
    {"seed2/localrandom/cycle17/full", 77966, 0x5f7ba0e7edfa86beull},
    {"seed2/localrandom/cycle17/delta", 12442, 0xe54de97ffc68113dull},
    {"seed2/localrandom/cycle17/session", 18998, 0x159e9563293fa50aull},
    {"seed2/localrandom/cycle1000/full", 70927, 0x8989542fdd44746cull},
    {"seed2/localrandom/cycle1000/delta", 9503, 0xb2aa27ab75addb89ull},
    {"seed2/localrandom/cycle1000/session", 16948, 0x54f9bac03fa6342bull},
    {"seed3/default/cycle0/full", 70617, 0x97b9c87630e1ac49ull},
    {"seed3/default/cycle0/delta", 5093, 0x06473b359d147ef6ull},
    {"seed3/default/cycle0/session", 16606, 0xf80be6e16ca952bbull},
    {"seed3/default/cycle17/full", 74735, 0xdf597743f55bae52ull},
    {"seed3/default/cycle17/delta", 9211, 0x8a0ec5e3c075781aull},
    {"seed3/default/cycle17/session", 18009, 0x619abd131318dce4ull},
    {"seed3/default/cycle1000/full", 70826, 0x74f839fa5da5fe83ull},
    {"seed3/default/cycle1000/delta", 9402, 0x2b7151976cf5692full},
    {"seed3/default/cycle1000/session", 16904, 0x186405682340d926ull},
    {"seed3/scalar/cycle0/full", 68963, 0xe4e2a4ddc60fedd2ull},
    {"seed3/scalar/cycle0/delta", 3439, 0x360223d2cd319bf1ull},
    {"seed3/scalar/cycle0/session", 16096, 0x7278dee273b9d1d8ull},
    {"seed3/scalar/cycle17/full", 69487, 0x8c13d31c348c1cc6ull},
    {"seed3/scalar/cycle17/delta", 3963, 0x58f859e191cd3e5full},
    {"seed3/scalar/cycle17/session", 16314, 0x22ee21ac03372b36ull},
    {"seed3/scalar/cycle1000/full", 69017, 0x31acb678ea7e4d9cull},
    {"seed3/scalar/cycle1000/delta", 7593, 0x55902fc172b50166ull},
    {"seed3/scalar/cycle1000/session", 16304, 0x6e1cbe3707d35f00ull},
    {"seed3/wide/cycle0/full", 85448, 0xccf5d16e5ab908a0ull},
    {"seed3/wide/cycle0/delta", 19924, 0xfdc7421990d6f425ull},
    {"seed3/wide/cycle0/session", 20095, 0xf804064082000d42ull},
    {"seed3/wide/cycle17/full", 90211, 0x1f9df54be65b3a47ull},
    {"seed3/wide/cycle17/delta", 24687, 0x64e6b84be315bcc1ull},
    {"seed3/wide/cycle17/session", 21601, 0x19cfcc3a4bd020a9ull},
    {"seed3/wide/cycle1000/full", 85657, 0x1e3f297bbbe3bddeull},
    {"seed3/wide/cycle1000/delta", 24233, 0x3793a01a9e272e3eull},
    {"seed3/wide/cycle1000/session", 20465, 0xd8de6f2b25e74784ull},
    {"seed3/nocache/cycle0/full", 69165, 0x3a2d74a65825e2b5ull},
    {"seed3/nocache/cycle0/delta", 3641, 0x721c9d495664c92full},
    {"seed3/nocache/cycle0/session", 16292, 0xa49fb0ab1dd03af0ull},
    {"seed3/nocache/cycle17/full", 73283, 0xf377081b1cfaf697ull},
    {"seed3/nocache/cycle17/delta", 7759, 0xb458fce8f5d02063ull},
    {"seed3/nocache/cycle17/session", 17687, 0xacab4c7bd4ee8528ull},
    {"seed3/nocache/cycle1000/full", 69374, 0x6674e68398f45addull},
    {"seed3/nocache/cycle1000/delta", 7950, 0xa1b19e80c0ae5424ull},
    {"seed3/nocache/cycle1000/session", 16554, 0x9c2ca13c72f938dcull},
    {"seed3/localrandom/cycle0/full", 70873, 0x3cc3886514c4b636ull},
    {"seed3/localrandom/cycle0/delta", 5349, 0x45d434a35b9cbfd1ull},
    {"seed3/localrandom/cycle0/session", 16654, 0xd862b9169117e069ull},
    {"seed3/localrandom/cycle17/full", 74991, 0x8067451921d71addull},
    {"seed3/localrandom/cycle17/delta", 9467, 0x82e993fa7e160be6ull},
    {"seed3/localrandom/cycle17/session", 18065, 0xc08f36472c34756cull},
    {"seed3/localrandom/cycle1000/full", 71082, 0x4e18cffdec777ebaull},
    {"seed3/localrandom/cycle1000/delta", 9658, 0x2e939840ededf571ull},
    {"seed3/localrandom/cycle1000/session", 16946, 0x25586c8709b60728ull},
    {"seed4/default/cycle0/full", 70617, 0xfc235c900cd567acull},
    {"seed4/default/cycle0/delta", 5093, 0x70f1217aa75612e8ull},
    {"seed4/default/cycle0/session", 16636, 0x2fa192942f8aedcfull},
    {"seed4/default/cycle17/full", 77674, 0x391cd03ef63a45afull},
    {"seed4/default/cycle17/delta", 12150, 0xd18c5e16612e3378ull},
    {"seed4/default/cycle17/session", 18965, 0xa4521418e147d523ull},
    {"seed4/default/cycle1000/full", 70671, 0x64d71c6b3261c230ull},
    {"seed4/default/cycle1000/delta", 9247, 0x3429f0f5ade0f4f6ull},
    {"seed4/default/cycle1000/session", 16887, 0xf443b53008f6ec1full},
    {"seed4/scalar/cycle0/full", 68963, 0xb0f66d350377e896ull},
    {"seed4/scalar/cycle0/delta", 3439, 0x6255f743a2c73ac6ull},
    {"seed4/scalar/cycle0/session", 16124, 0x0dede7583483a80aull},
    {"seed4/scalar/cycle17/full", 69487, 0x92f7248b799377f0ull},
    {"seed4/scalar/cycle17/delta", 3963, 0x8504108548b5e7d6ull},
    {"seed4/scalar/cycle17/session", 16335, 0x4afd62b194db2d8dull},
    {"seed4/scalar/cycle1000/full", 70121, 0x4c3c7a066268cb4aull},
    {"seed4/scalar/cycle1000/delta", 8697, 0x2ba90721bd386a6bull},
    {"seed4/scalar/cycle1000/session", 16700, 0x64a4ea39a87f9770ull},
    {"seed4/wide/cycle0/full", 85448, 0x8ee862625847cb04ull},
    {"seed4/wide/cycle0/delta", 19924, 0x7ba5c21594edee98ull},
    {"seed4/wide/cycle0/session", 20123, 0x7e41dc439498789eull},
    {"seed4/wide/cycle17/full", 93921, 0x4588eb670ca40e1dull},
    {"seed4/wide/cycle17/delta", 28397, 0x1db22a16fb129facull},
    {"seed4/wide/cycle17/session", 22641, 0xba274e896cea522eull},
    {"seed4/wide/cycle1000/full", 85502, 0x7acb1bd943b9c146ull},
    {"seed4/wide/cycle1000/delta", 24078, 0xaef3317228458d19ull},
    {"seed4/wide/cycle1000/session", 20418, 0x1872e9ea8f52e017ull},
    {"seed4/nocache/cycle0/full", 69165, 0x160cb05fc37f6475ull},
    {"seed4/nocache/cycle0/delta", 3641, 0x42f06f36b9468dd1ull},
    {"seed4/nocache/cycle0/session", 16322, 0xbe6cdc83dd01deb7ull},
    {"seed4/nocache/cycle17/full", 76222, 0xbb3066da0a0f3027ull},
    {"seed4/nocache/cycle17/delta", 10698, 0xa845e5ea06f278fcull},
    {"seed4/nocache/cycle17/session", 18642, 0x47fd25deb9ea6b09ull},
    {"seed4/nocache/cycle1000/full", 77839, 0x5bc52ca7ba81e85aull},
    {"seed4/nocache/cycle1000/delta", 16415, 0x7c6ce48b1b7b924full},
    {"seed4/nocache/cycle1000/session", 19230, 0xab62aa9e24263829ull},
    {"seed4/localrandom/cycle0/full", 70873, 0x44e6772b09a4e0fdull},
    {"seed4/localrandom/cycle0/delta", 5349, 0x4d61dfb1d1dac2d6ull},
    {"seed4/localrandom/cycle0/session", 16685, 0x75aad732d8138a35ull},
    {"seed4/localrandom/cycle17/full", 77930, 0xf037fc384a2fd844ull},
    {"seed4/localrandom/cycle17/delta", 12406, 0x6e9a53c653124e48ull},
    {"seed4/localrandom/cycle17/session", 19014, 0xc058df762034f012ull},
    {"seed4/localrandom/cycle1000/full", 70927, 0xc5884004d3b15a8full},
    {"seed4/localrandom/cycle1000/delta", 9503, 0x9693ac2c4b267b53ull},
    {"seed4/localrandom/cycle1000/session", 16935, 0xd010e28ad00ea25dull},
    {"sort/cycle300/full", 81647, 0x6109083fc95f1c85ull},
    {"sort/cycle300/delta", 24323, 0x222ab88994bef4f8ull},
    {"sort/cycle300/session", 19808, 0xb8f0fd3f50c417a0ull},
    {"sort/end/full", 70671, 0x977070534d80191aull},
    {"sort/end/delta", 13347, 0xa0718110a7c82a26ull},
    {"sort/end/session", 16799, 0xd7797eb7a5ab0925ull},
    {"sort/ff/cycle25/full", 81541, 0x6d43edf0c5990ad4ull},
    {"sort/ff/cycle25/delta", 24217, 0x7f4671ab59cded3cull},
    {"sort/ff/cycle25/session", 19696, 0x283ac2b67a1c55d4ull},
    {"float/cycle300/full", 80891, 0x20bcd9b37cdf9d63ull},
    {"float/cycle300/delta", 23567, 0x4cfafb508e8b2281ull},
    {"float/cycle300/session", 19341, 0xebc635cc0779d1a7ull},
    {"float/end/full", 70671, 0x4068558b75b37a44ull},
    {"float/end/delta", 13347, 0x9b904d7b53e6601cull},
    {"float/end/session", 16567, 0x6a56f3dc5e5530f3ull},
    {"float/ff/cycle25/full", 81538, 0x305c0e9be0aff84full},
    {"float/ff/cycle25/delta", 24214, 0x0130ccdcaf76b60aull},
    {"float/ff/cycle25/session", 19500, 0x179f30a375583135ull},
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
