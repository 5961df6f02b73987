// StepBack latency vs cycle depth: the checkpoint ring's O(interval)
// backward step against the paper's O(n) re-execution-from-reset.
//
// With automatic checkpoints off (intervalCycles = 0) the ring holds only
// the origin, so each StepBack restores cycle 0 and replays the whole
// prefix, and latency grows linearly with the current cycle. With the ring
// capturing, StepBack restores the nearest checkpoint and replays at most
// one interval, so latency is flat in depth — the property the
// interactive scrub-backward use case needs.
//
// --json also reports ckpt_replayed_cycles_max, the longest ring-mode
// replay over all depths. It is a count, so it does not depend on the
// host: CI gates it at interval - 1, and a ring that stops capturing
// trips the gate. A StepBack that fails exits non-zero rather than
// reporting an empty sample.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <optional>

#include "bench_common.h"
#include "core/simulation.h"

namespace rvss {
namespace {

// Long dependency-light loop: ~600k cycles, far past the deepest depth.
const char* kLoop = R"(
main:
    li t0, 200000
loop:
    addi t1, t1, 1
    xori t2, t1, 3
    addi t0, t0, -1
    bnez t0, loop
    ret
)";

struct Sample {
  double meanUs = 0.0;
  std::uint64_t replayedCycles = 0;
};

/// Mean StepBack latency at `depth`: each repetition steps back one cycle
/// and forward again, so every measurement starts from the same depth.
/// Nothing when a seek or a StepBack fails.
std::optional<Sample> MeasureAtDepth(core::Simulation& sim,
                                     std::uint64_t depth, int reps) {
  Sample sample;
  if (!sim.SeekTo(depth).ok()) return std::nullopt;
  double totalSeconds = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    if (!sim.StepBack().ok()) return std::nullopt;
    totalSeconds += bench::SecondsSince(start);
    sample.replayedCycles = sim.lastSeekReplayedCycles();
    sim.Step();  // back to `depth` for the next repetition
  }
  sample.meanUs = totalSeconds / reps * 1e6;
  return sample;
}

}  // namespace
}  // namespace rvss

int main(int argc, char** argv) {
  using namespace rvss;
  bench::JsonReport report("stepback", argc, argv);

  const std::uint64_t kDepths[] = {1024, 4096, 16384, 65536, 131072};
  const int kReps = 5;

  std::printf("# StepBack latency vs depth (mean of %d reps)\n", kReps);
  std::printf("%-10s %-12s %16s %16s\n", "depth", "mode", "stepback_us",
              "replayed_cycles");

  for (const std::uint64_t interval : {std::uint64_t{0}, std::uint64_t{1024}}) {
    config::CpuConfig config = config::DefaultConfig();
    config.checkpoint.intervalCycles = interval;
    auto sim = core::Simulation::Create(config, kLoop, {{}, "main"});
    if (!sim.ok()) {
      std::fprintf(stderr, "create failed: %s\n", sim.error().ToText().c_str());
      return 1;
    }
    const char* mode = interval == 0 ? "replay-O(n)" : "ckpt-O(K)";
    const char* metricMode = interval == 0 ? "replay" : "ckpt";
    std::uint64_t replayedMax = 0;
    for (const std::uint64_t depth : kDepths) {
      const std::optional<Sample> measured =
          MeasureAtDepth(*sim.value(), depth, kReps);
      if (!measured.has_value()) {
        std::fprintf(stderr, "%s: stepping back at depth %llu failed\n",
                     mode, static_cast<unsigned long long>(depth));
        return 1;
      }
      const Sample& sample = *measured;
      replayedMax = std::max(replayedMax, sample.replayedCycles);
      std::printf("%-10llu %-12s %16.1f %16llu\n",
                  static_cast<unsigned long long>(depth), mode, sample.meanUs,
                  static_cast<unsigned long long>(sample.replayedCycles));
      report.Set((std::string(metricMode) + "_stepback_us_" +
                  std::to_string(depth))
                     .c_str(),
                 sample.meanUs);
    }
    if (interval != 0) {
      report.Set("ckpt_replayed_cycles_max",
                 static_cast<double>(replayedMax));
    }
  }

  std::printf(
      "\nWith the checkpoint ring, stepback_us stays flat in depth and\n"
      "replayed_cycles stays below the interval; the replay mode grows\n"
      "linearly with depth.\n");
  return 0;
}
