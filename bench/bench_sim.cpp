// Raw simulation throughput: detailed out-of-order stepping vs the
// reference-ISS fast-forward path (Simulation::FastForwardTo).
//
// Two numbers matter. detailed_cycles_per_s is the hot-loop budget of the
// whole detailed model — predecode, issue, rename, commit — and is what
// the predecoded-pipeline work optimizes. fast_forward_mips is the ISS
// prefix-skip rate; its ratio to detailed_mips (ff_speedup) is the whole
// point of fast-forwarding and is pinned in bench/baselines.json.
//
// One fast-forward of the loop lasts only ~0.03 s against ~0.25 s for the
// detailed run, so one scheduling hiccup would move a single ratio by 30%.
// Each pair's ISS leg therefore fast-forwards kFastForwardsPerPair fresh
// simulations and divides their summed instructions by their summed
// FastForwardTo time. The two legs run as kPairs alternating pairs, and
// each timed metric reports the median of the pairs, with its _min and
// _max beside it.
//
// Three counts ride along, exact where the timings are not: heap
// allocations per simulated cycle of the detailed leg, and the
// allocations and the bytes allocated by one SaveState plus one
// RestoreState at a mid-run state. This binary replaces the global
// operator new to count them.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/simulation.h"

namespace {

/// Heap allocations made so far by this (single-threaded) process, and
/// the bytes they asked for.
std::uint64_t gAllocations = 0;
std::uint64_t gAllocatedBytes = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++gAllocations;
  gAllocatedBytes += size;
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }

namespace rvss {
namespace {

// Dependency-light integer loop, ~1.6M dynamic instructions: long enough
// that session setup and the final drain are noise, small enough that the
// detailed run finishes in a couple of seconds on a laptop.
const char* kLoop = R"(
main:
    li t0, 400000
loop:
    addi t1, t1, 1
    xori t2, t1, 3
    addi t0, t0, -1
    bnez t0, loop
    ret
)";

/// Alternating detailed/ISS pairs per run.
constexpr int kPairs = 7;

/// Fresh simulations fast-forwarded per ISS leg: ~0.3 s, about as long as
/// one detailed leg.
constexpr int kFastForwardsPerPair = 10;

/// The cycle SaveState/RestoreState are counted at: the loop is in steady
/// state, with a full fetch queue and a busy ROB.
constexpr std::uint64_t kMidRunCycle = 1000;

struct RunResult {
  bool ok = false;
  double seconds = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t allocations = 0;
};

std::unique_ptr<core::Simulation> CreateLoop() {
  auto sim = core::Simulation::Create(config::DefaultConfig(), kLoop,
                                      {{}, "main"});
  if (!sim.ok()) {
    std::fprintf(stderr, "create failed: %s\n", sim.error().ToText().c_str());
    return nullptr;
  }
  return std::move(sim).value();
}

RunResult RunDetailed() {
  RunResult result;
  auto sim = CreateLoop();
  if (sim == nullptr) return result;
  const std::uint64_t allocationsBefore = gAllocations;
  const auto start = std::chrono::steady_clock::now();
  sim->Run(100'000'000);
  result.seconds = bench::SecondsSince(start);
  result.allocations = gAllocations - allocationsBefore;
  result.cycles = sim->cycle();
  result.instructions = sim->statistics().committedInstructions;
  result.ok = sim->status() == core::SimStatus::kFinished;
  return result;
}

/// kFastForwardsPerPair fast-forwards, each of a fresh simulation; the
/// time is theirs alone, without the simulations' creation.
RunResult RunFastForward(std::uint64_t instructionBudget) {
  RunResult result;
  for (int i = 0; i < kFastForwardsPerPair; ++i) {
    auto sim = CreateLoop();
    if (sim == nullptr) return result;
    const auto start = std::chrono::steady_clock::now();
    Status ff = sim->FastForwardTo(instructionBudget);
    result.seconds += bench::SecondsSince(start);
    if (!ff.ok()) {
      std::fprintf(stderr, "fast-forward failed: %s\n",
                   ff.error().ToText().c_str());
      return result;
    }
    result.instructions += sim->statistics().fastForwardedInstructions;
  }
  result.ok = result.instructions > 0;
  return result;
}

/// Allocations, and bytes allocated, by one SaveState and by one
/// RestoreState at kMidRunCycle.
struct StateAllocations {
  std::uint64_t save = 0;
  std::uint64_t restore = 0;
  std::uint64_t saveBytes = 0;
  std::uint64_t restoreBytes = 0;
  std::size_t robEntries = 0;
};

StateAllocations CountStateAllocations() {
  StateAllocations counts;
  auto sim = CreateLoop();
  if (sim == nullptr) return counts;
  sim->Run(kMidRunCycle);
  counts.robEntries = sim->rob().size();
  std::uint64_t before = gAllocations;
  std::uint64_t bytesBefore = gAllocatedBytes;
  const core::SimSnapshot snapshot = sim->SaveState();
  counts.save = gAllocations - before;
  counts.saveBytes = gAllocatedBytes - bytesBefore;
  before = gAllocations;
  bytesBefore = gAllocatedBytes;
  sim->RestoreState(snapshot);
  counts.restore = gAllocations - before;
  counts.restoreBytes = gAllocatedBytes - bytesBefore;
  return counts;
}

/// Median, minimum and maximum of one metric over the pairs.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread SpreadOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const double median = n % 2 == 1
                            ? values[n / 2]
                            : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  return {median, values.front(), values.back()};
}

void Report(bench::JsonReport& report, const std::string& metric,
            const Spread& spread) {
  report.Set(metric.c_str(), spread.median);
  report.Set((metric + "_min").c_str(), spread.min);
  report.Set((metric + "_max").c_str(), spread.max);
}

}  // namespace
}  // namespace rvss

int main(int argc, char** argv) {
  using namespace rvss;
  bench::JsonReport report("sim", argc, argv);

  // Warm-up run primes the allocator and the expression compiler caches so
  // the measured runs see steady state.
  (void)RunDetailed();

  std::vector<double> cyclesPerS;
  std::vector<double> detailedMips;
  std::vector<double> ffMips;
  std::vector<double> speedups;
  RunResult first;
  for (int pair = 0; pair < kPairs; ++pair) {
    const RunResult detailed = RunDetailed();
    if (!detailed.ok) return 1;
    // Fast-forward the same dynamic instruction count the detailed run
    // committed (stop just short of `ret` so the ISS never runs off the
    // end).
    const RunResult ff = RunFastForward(detailed.instructions - 2);
    if (!ff.ok) return 1;
    if (pair == 0) first = detailed;
    const double mips = static_cast<double>(detailed.instructions) /
                        detailed.seconds / 1e6;
    const double issMips =
        static_cast<double>(ff.instructions) / ff.seconds / 1e6;
    cyclesPerS.push_back(static_cast<double>(detailed.cycles) /
                         detailed.seconds);
    detailedMips.push_back(mips);
    ffMips.push_back(issMips);
    speedups.push_back(mips == 0.0 ? 0.0 : issMips / mips);
  }
  const Spread cycles = SpreadOf(cyclesPerS);
  const Spread detailed = SpreadOf(detailedMips);
  const Spread iss = SpreadOf(ffMips);
  const Spread speedup = SpreadOf(speedups);
  const double allocsPerCycle = static_cast<double>(first.allocations) /
                                static_cast<double>(first.cycles);
  const StateAllocations state = CountStateAllocations();

  std::printf("# Simulation throughput (loop of %llu dynamic instructions, "
              "median [min, max] of %d alternating pairs)\n",
              static_cast<unsigned long long>(first.instructions), kPairs);
  std::printf("%-22s %12.0f cycles/s [%.0f, %.0f]  %8.3f MIPS\n", "detailed",
              cycles.median, cycles.min, cycles.max, detailed.median);
  std::printf("%-22s %12.3f MIPS [%.3f, %.3f]\n", "fast-forward (ISS)",
              iss.median, iss.min, iss.max);
  std::printf("%-22s %12.1fx [%.1f, %.1f]\n", "ff speedup", speedup.median,
              speedup.min, speedup.max);
  std::printf("%-22s %12.3f per cycle\n", "heap allocations",
              allocsPerCycle);
  std::printf("%-22s %12llu + %llu (ROB of %zu at cycle %llu)\n",
              "save + restore allocs",
              static_cast<unsigned long long>(state.save),
              static_cast<unsigned long long>(state.restore), state.robEntries,
              static_cast<unsigned long long>(kMidRunCycle));
  std::printf("%-22s %12llu + %llu bytes\n", "save + restore alloc",
              static_cast<unsigned long long>(state.saveBytes),
              static_cast<unsigned long long>(state.restoreBytes));

  Report(report, "detailed_cycles_per_s", cycles);
  Report(report, "detailed_mips", detailed);
  Report(report, "fast_forward_mips", iss);
  Report(report, "ff_speedup", speedup);
  report.Set("allocs_per_cycle", allocsPerCycle);
  report.Set("save_restore_allocs",
             static_cast<double>(state.save + state.restore));
  report.Set("save_restore_bytes",
             static_cast<double>(state.saveBytes + state.restoreBytes));
  report.Set("hardware_cores",
             static_cast<double>(std::thread::hardware_concurrency()));
  return 0;
}
