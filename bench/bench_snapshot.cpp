// Snapshot subsystem benchmarks: codec encode/decode throughput, session
// blob size/compression, and the checkpoint ring's bytes with shared
// memory pages against one memory image per entry.
//
// The codec throughput bounds how fast sessions can migrate between
// server processes; the ring-bytes comparison quantifies what sharing
// pages saves (memory images dominate snapshot size, and checkpoints
// share every page the run did not write between them).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>

#include "bench_common.h"
#include "core/simulation.h"
#include "snapshot/codec.h"
#include "snapshot/session.h"

namespace rvss {
namespace {

/// Branchy loop with a small working set inside a large memory: the
/// page-sharing-friendly (and realistic) shape — programs rarely touch
/// most of their address space between checkpoints.
const char* kWorkload = R"(
main:
    li s0, 0
    li s1, 400
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
even:
    addi t1, t1, 4
    addi t0, t0, -1
    bnez t0, scan
    addi s1, s1, -1
    bnez s1, outer
    mv a0, s0
    ret
)";

config::CpuConfig BenchConfig() {
  config::CpuConfig config = config::DefaultConfig();
  config.memory.sizeBytes = 4 << 20;  // 4 MiB: memory dominates snapshots
  config.checkpoint.intervalCycles = 256;
  // The ring comparison measures what the run *deposits*; a tight budget
  // would evict down to the ceiling and hide the ratio.
  config.checkpoint.maxTotalBytes = 1ull << 30;
  return config;
}

}  // namespace
}  // namespace rvss

int main(int argc, char** argv) {
  using namespace rvss;
  bench::JsonReport report("snapshot", argc, argv);

  // --- encode / decode throughput -------------------------------------------
  auto sim = core::Simulation::Create(BenchConfig(), kWorkload, {{}, "main"});
  if (!sim.ok()) {
    std::fprintf(stderr, "create failed: %s\n", sim.error().ToText().c_str());
    return 1;
  }
  core::Simulation& simulation = *sim.value();
  simulation.Run(20'000);

  const snapshot::CodecContext context{&simulation.config(),
                                       &simulation.program()};
  const core::SimSnapshot state = simulation.SaveState();

  constexpr int kReps = 20;
  std::string blob;
  auto start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < kReps; ++rep) {
    blob = snapshot::EncodeSnapshot(state, context);
  }
  const double encodeSeconds = bench::SecondsSince(start) / kReps;

  start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < kReps; ++rep) {
    auto decoded = snapshot::DecodeSnapshot(blob, context);
    if (!decoded.ok()) {
      std::fprintf(stderr, "decode failed: %s\n",
                   decoded.error().ToText().c_str());
      return 1;
    }
  }
  const double decodeSeconds = bench::SecondsSince(start) / kReps;

  const double mib = static_cast<double>(blob.size()) / (1024.0 * 1024.0);
  std::printf("# snapshot codec (4 MiB memory, mid-run pipeline state)\n");
  std::printf("%-22s %10.2f MiB\n", "blob size", mib);
  std::printf("%-22s %10.1f MiB/s (%.2f ms)\n", "encode throughput",
              mib / encodeSeconds, encodeSeconds * 1e3);
  std::printf("%-22s %10.1f MiB/s (%.2f ms)\n", "decode throughput",
              mib / decodeSeconds, decodeSeconds * 1e3);
  report.Set("encode_mib_s", mib / encodeSeconds);
  report.Set("decode_mib_s", mib / decodeSeconds);

  const snapshot::SessionIdentity identity =
      snapshot::MakeIdentity(simulation, kWorkload, "main", "");
  start = std::chrono::steady_clock::now();
  const std::string session = snapshot::EncodeSessionBlob(simulation, identity);
  const double sessionSeconds = bench::SecondsSince(start);
  std::printf("%-22s %10.2f MiB (slz %.1fx, %.2f ms)\n", "session blob",
              static_cast<double>(session.size()) / (1024.0 * 1024.0),
              static_cast<double>(blob.size()) /
                  static_cast<double>(session.size()),
              sessionSeconds * 1e3);

  // --- shared pages vs one memory image per checkpoint ----------------------
  const config::CpuConfig ringConfig = BenchConfig();
  auto run = core::Simulation::Create(ringConfig, kWorkload, {{}, "main"});
  if (!run.ok()) return 1;
  run.value()->Run(20'000);
  const core::CheckpointRing& ring = run.value()->checkpoints();
  // What the same entries would cost if each held its own memory image.
  std::size_t imagePerEntry = 0;
  for (const core::CheckpointRing::Entry* entry =
           ring.FindAtOrBefore(UINT64_MAX);
       entry != nullptr;
       entry = entry->cycle == 0 ? nullptr
                                 : ring.FindAtOrBefore(entry->cycle - 1)) {
    imagePerEntry += entry->ownBytes + ringConfig.memory.sizeBytes;
  }
  const std::size_t count = std::max<std::size_t>(ring.checkpointCount(), 1);
  std::printf("\n# checkpoint ring bytes after 20k cycles (interval 256, "
              "1 GiB budget, %zu checkpoints)\n",
              ring.checkpointCount());
  std::printf("%-18s %12s %14s\n", "ring", "ring_bytes", "bytes/ckpt");
  std::printf("%-18s %12zu %14zu\n", "shared pages", ring.totalBytes(),
              ring.totalBytes() / count);
  std::printf("%-18s %12zu %14zu\n", "image per entry", imagePerEntry,
              imagePerEntry / count);
  if (ring.totalBytes() > 0) {
    const double reduction = static_cast<double>(imagePerEntry) /
                             static_cast<double>(ring.totalBytes());
    std::printf("\nring-bytes reduction: %.1fx\n", reduction);
    report.Set("ring_reduction_x", reduction);
  }
  return 0;
}
