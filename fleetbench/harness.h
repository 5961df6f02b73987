// Pieces of the fleet benchmark that do not need a fleet: seeded inputs,
// the latency-timed frame client, request outcome accounting and the
// percentile rule. Kept apart from the workloads so harness_test.cpp can
// pin each of them without standing up worker processes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/socket.h"
#include "common/status.h"
#include "json/json.h"

namespace fleetbench {

using rvss::Result;
using rvss::Status;

// ---- seeded inputs --------------------------------------------------------

/// splitmix64: every input of a run derives from --seed through this.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, n); n > 0.
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Mixes a stream id into a seed, so each session or kernel draws from its
/// own sequence and adding one does not shift the others.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream);

/// The paper's two load-test programs (bench/bench_common.h), scaled so an
/// interactive session cannot finish inside a run: an insertion sort of
/// kSortElements integers and an FP dot product repeated kDotRepeats times.
inline constexpr int kSortElements = 1024;
inline constexpr int kDotRepeats = 8192;
std::string SortProgram();
std::string DotProgram();

/// One interactive click: `step {count:1}` or `stepBack`.
enum class Click : std::uint8_t { kStep, kStepBack };

/// The click stream of one interactive session. Deterministic in (seed,
/// session): roughly one click in ten is a stepBack, drawn only while the
/// session's cycle is above 0, so a run's prefix never depends on timing.
class ClickStream {
 public:
  ClickStream(std::uint64_t seed, int session)
      : rng_(SubSeed(seed, 0x1000 + static_cast<std::uint64_t>(session))) {}
  Click Next(std::uint64_t cycle);

 private:
  Rng rng_;
};

/// One batch job's program: a C kernel plus the a0 its main returns,
/// computed natively from the same generated parameters.
struct Kernel {
  std::string name;             ///< family and size, e.g. "matmul-n24"
  std::string source;           ///< C, compiled at optLevel 2
  std::uint32_t expectedA0 = 0;
  std::size_t workingSetBytes = 0;
  /// Share of the program's instructions skipped on the ISS before the
  /// detailed window; fixed per kernel so repeats simulate identically.
  double fastForwardShare = 0.5;
};

/// `count` kernels cycling through three families — matrix multiply,
/// strided array walk, branchy insertion sort — whose working sets span
/// from under the 2 KiB modelled L1 to ~16x it. Each family's kernels
/// climb a fixed ladder of sizes; the seed draws every kernel's data and
/// its fast-forward share, so the work of a run varies little from seed
/// to seed while no two seeds simulate the same programs.
std::vector<Kernel> MakeKernels(std::uint64_t seed, int count);

// ---- the frame client -----------------------------------------------------

/// One response frame as the client saw it.
struct Reply {
  double latencyUs = 0;      ///< request write start -> last response byte
  std::size_t frameBytes = 0;  ///< header + both sections
  std::string text;          ///< the JSON section, unparsed
};

/// Sends one pre-serialized request frame and reads one response frame.
/// The clock starts just before the first byte is written and stops after
/// the last byte of the response frame is read; parsing is the caller's,
/// after the clock stopped. Any socket failure or timeout is an error.
Result<Reply> Exchange(rvss::net::Socket& socket, std::string_view request,
                       int timeoutMs);

/// Exchange plus parse, for untimed set-up and check traffic.
Result<rvss::json::Json> Call(rvss::net::Socket& socket,
                              const rvss::json::Json& request,
                              int timeoutMs);

// ---- outcomes -------------------------------------------------------------

/// How one attempted request ended. Only kOk counts as completed; every
/// other outcome counts once in failed_share.
enum class Outcome : std::uint8_t { kOk, kErrorEnvelope, kShed, kTransport };

/// Classifies a parsed response: "ok" status, a retryable "unavailable"
/// error (a load shed), or any other error envelope.
Outcome Classify(const rvss::json::Json& response);

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t errorEnvelopes = 0;
  std::uint64_t sheds = 0;
  std::uint64_t transportErrors = 0;

  void Count(Outcome outcome);
  void Merge(const Tally& other);
  std::uint64_t failed() const {
    return errorEnvelopes + sheds + transportErrors;
  }
  double FailedShare() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed()) / attempted;
  }
};

// ---- percentiles ----------------------------------------------------------

/// Nearest-rank percentile (q in (0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);

/// True when at least ten samples lie beyond the q-th percentile — the
/// rule for the highest percentile a sample set may report.
bool PercentileSupported(std::size_t samples, double q);

double Mean(const std::vector<double>& values);
double Median(std::vector<double> values);

}  // namespace fleetbench
