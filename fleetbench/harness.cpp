#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/framing.h"

namespace fleetbench {
namespace {

/// The LCG both the C kernels and their native twins draw data from; the
/// kernels compute it in 32-bit unsigned arithmetic, which wraps the same.
constexpr std::uint32_t kLcgMul = 1103515245u;
constexpr std::uint32_t kLcgAdd = 12345u;

std::uint32_t LcgNext(std::uint32_t& x) {
  x = x * kLcgMul + kLcgAdd;
  return x;
}

std::string Replace(std::string text, std::string_view key,
                    const std::string& value) {
  for (std::size_t at = text.find(key); at != std::string::npos;
       at = text.find(key, at + value.size())) {
    text.replace(at, key.size(), value);
  }
  return text;
}

// Templates keep the three kernels readable as C; the generator fills in
// the seeded sizes. Every kernel hashes its result into a 32-bit unsigned
// checksum, returned from main (a0).
constexpr const char* kMatmulC = R"(
int a[@NN]; int b[@NN]; int c[@NN];
int main() {
  unsigned x = @SEED;
  for (int i = 0; i < @NN; i++) {
    x = x * 1103515245 + 12345; a[i] = (x >> 16) & 255;
    x = x * 1103515245 + 12345; b[i] = (x >> 16) & 255;
  }
  for (int i = 0; i < @N; i++)
    for (int j = 0; j < @N; j++) {
      int s = 0;
      for (int k = 0; k < @N; k++) s += a[i * @N + k] * b[k * @N + j];
      c[i * @N + j] = s;
    }
  unsigned h = 0;
  for (int i = 0; i < @NN; i++) h = h * 31 + c[i];
  return h;
}
)";

constexpr const char* kWalkC = R"(
int v[@W];
int main() {
  unsigned x = @SEED;
  for (int i = 0; i < @W; i++) {
    x = x * 1103515245 + 12345;
    v[i] = (x >> 16) & 1023;
  }
  unsigned h = 0;
  for (int p = 0; p < @P; p++)
    for (int s = 0; s < @S; s++)
      for (int i = s; i < @W; i += @S) {
        h = h * 33 + v[i];
        v[i] = v[i] + p + 1;
      }
  return h;
}
)";

constexpr const char* kSortC = R"(
int v[@N];
int main() {
  unsigned x = @SEED;
  for (int i = 0; i < @N; i++) {
    x = x * 1103515245 + 12345;
    v[i] = (x >> 16) & 4095;
  }
  for (int i = 1; i < @N; i++) {
    int key = v[i];
    int j = i - 1;
    while (j >= 0 && v[j] > key) { v[j + 1] = v[j]; j--; }
    v[j + 1] = key;
  }
  unsigned h = 0;
  for (int i = 0; i < @N; i++) h = h * 31 + v[i];
  return h;
}
)";

/// Rung `stratum` of `strata` evenly spaced sizes in [lo, hi]. The ladder
/// is the same for every seed: sizes set how long a job runs, and a seed
/// that drew three large kernels instead of two moved the job-latency p90
/// by a third.
int Rung(int lo, int hi, int stratum, int strata) {
  return lo + stratum * (hi - lo + 1) / strata;
}

Kernel Matmul(std::uint32_t seed, int stratum, int strata) {
  const int n = Rung(6, 12, stratum, strata);
  std::vector<std::uint32_t> a(n * n), b(n * n), c(n * n);
  std::uint32_t x = seed;
  for (int i = 0; i < n * n; ++i) {
    a[i] = (LcgNext(x) >> 16) & 255;
    b[i] = (LcgNext(x) >> 16) & 255;
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      std::uint32_t s = 0;
      for (int k = 0; k < n; ++k) s += a[i * n + k] * b[k * n + j];
      c[i * n + j] = s;
    }
  }
  std::uint32_t h = 0;
  for (const std::uint32_t value : c) h = h * 31 + value;

  Kernel kernel;
  kernel.name = "matmul-n" + std::to_string(n);
  std::string source = Replace(kMatmulC, "@SEED", std::to_string(seed));
  source = Replace(std::move(source), "@NN", std::to_string(n * n));
  kernel.source = Replace(std::move(source), "@N", std::to_string(n));
  kernel.expectedA0 = h;
  kernel.workingSetBytes = 3u * n * n * 4u;
  return kernel;
}

Kernel Walk(std::uint32_t seed, int stratum, int strata) {
  static constexpr int kStrides[] = {1, 4, 8, 16};
  const int w = 256 << Rung(0, 5, stratum, strata);  // 1..32 KiB
  const int s = kStrides[stratum % 4];
  const int p = std::max(1, 1536 / w);
  std::vector<std::uint32_t> v(w);
  std::uint32_t x = seed;
  for (std::uint32_t& value : v) value = (LcgNext(x) >> 16) & 1023;
  std::uint32_t h = 0;
  for (int pass = 0; pass < p; ++pass) {
    for (int start = 0; start < s; ++start) {
      for (int i = start; i < w; i += s) {
        h = h * 33 + v[i];
        v[i] += static_cast<std::uint32_t>(pass + 1);
      }
    }
  }

  Kernel kernel;
  kernel.name = "walk-w" + std::to_string(w) + "-s" + std::to_string(s);
  std::string source = Replace(kWalkC, "@SEED", std::to_string(seed));
  source = Replace(std::move(source), "@W", std::to_string(w));
  source = Replace(std::move(source), "@P", std::to_string(p));
  kernel.source = Replace(std::move(source), "@S", std::to_string(s));
  kernel.expectedA0 = h;
  kernel.workingSetBytes = static_cast<std::size_t>(w) * 4u;
  return kernel;
}

Kernel Sort(std::uint32_t seed, int stratum, int strata) {
  const int n = Rung(48, 112, stratum, strata);
  std::vector<std::int32_t> v(n);
  std::uint32_t x = seed;
  for (std::int32_t& value : v) {
    value = static_cast<std::int32_t>((LcgNext(x) >> 16) & 4095);
  }
  std::sort(v.begin(), v.end());
  std::uint32_t h = 0;
  for (const std::int32_t value : v) {
    h = h * 31 + static_cast<std::uint32_t>(value);
  }

  Kernel kernel;
  kernel.name = "sort-n" + std::to_string(n);
  std::string source = Replace(kSortC, "@SEED", std::to_string(seed));
  kernel.source = Replace(std::move(source), "@N", std::to_string(n));
  kernel.expectedA0 = h;
  kernel.workingSetBytes = static_cast<std::size_t>(n) * 4u;
  return kernel;
}

}  // namespace

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed ^ (stream * 0xd1b54a32d192ed03ull));
  return rng.Next();
}

std::string SortProgram() {
  return Replace(R"(
int arr[@N];
int main() {
  for (int i = 0; i < @N; i++) arr[i] = (i * 37 + 11) % 101;
  for (int i = 1; i < @N; i++) {
    int key = arr[i];
    int j = i - 1;
    while (j >= 0 && arr[j] > key) { arr[j + 1] = arr[j]; j--; }
    arr[j + 1] = key;
  }
  return arr[0] + arr[@N - 1];
}
)",
                 "@N", std::to_string(kSortElements));
}

std::string DotProgram() {
  return Replace(R"(
float x[32]; float y[32];
int main() {
  for (int i = 0; i < 32; i++) {
    x[i] = (float)i * 0.25f;
    y[i] = (float)(32 - i);
  }
  float acc = 0.0f;
  for (int rep = 0; rep < @R; rep++)
    for (int i = 0; i < 32; i++) acc += x[i] * y[i];
  return (int)acc;
}
)",
                 "@R", std::to_string(kDotRepeats));
}

Click ClickStream::Next(std::uint64_t cycle) {
  // Draw on every click, so the stream stays aligned whatever the cycle.
  const bool back = rng_.Below(10) == 0;
  return back && cycle > 0 ? Click::kStepBack : Click::kStep;
}

std::vector<Kernel> MakeKernels(std::uint64_t seed, int count) {
  std::vector<Kernel> kernels;
  kernels.reserve(count);
  const int strata = (count + 2) / 3;
  for (int i = 0; i < count; ++i) {
    Rng rng(SubSeed(seed, 0x2000 + static_cast<std::uint64_t>(i)));
    const auto dataSeed = static_cast<std::uint32_t>(rng.Below(1u << 30));
    const int stratum = i / 3;
    Kernel kernel = i % 3 == 0   ? Matmul(dataSeed, stratum, strata)
                    : i % 3 == 1 ? Walk(dataSeed, stratum, strata)
                                 : Sort(dataSeed, stratum, strata);
    kernel.fastForwardShare = 0.48 + 0.04 * rng.Unit();
    kernels.push_back(std::move(kernel));
  }
  return kernels;
}

Result<Reply> Exchange(rvss::net::Socket& socket, std::string_view request,
                       int timeoutMs) {
  // The whole frame is assembled before the clock starts: building the
  // request is the client's cost, not the program's.
  std::string frame = rvss::net::EncodeFrameHeader(request.size(), 0);
  frame.append(request);
  char header[rvss::net::kFrameHeaderBytes];

  const rvss::net::Deadline deadline(timeoutMs);
  const auto start = std::chrono::steady_clock::now();
  RVSS_RETURN_IF_ERROR(
      rvss::net::SendAll(socket, frame, deadline.RemainingMs()));
  RVSS_RETURN_IF_ERROR(rvss::net::RecvAll(socket, header, sizeof header,
                                          deadline.RemainingMs()));
  RVSS_ASSIGN_OR_RETURN(
      const rvss::net::FrameHeader sections,
      rvss::net::DecodeFrameHeader(std::string_view(header, sizeof header),
                                   rvss::net::kDefaultMaxFrameBytes));
  std::string payload(sections.payloadBytes(), '\0');
  if (!payload.empty()) {
    RVSS_RETURN_IF_ERROR(rvss::net::RecvAll(socket, payload.data(),
                                            payload.size(),
                                            deadline.RemainingMs()));
  }
  const auto stop = std::chrono::steady_clock::now();

  Reply reply;
  reply.latencyUs =
      std::chrono::duration<double, std::micro>(stop - start).count();
  reply.frameBytes = sizeof header + payload.size();
  payload.resize(sections.jsonBytes);  // no command here returns a blob
  reply.text = std::move(payload);
  return reply;
}

Result<rvss::json::Json> Call(rvss::net::Socket& socket,
                              const rvss::json::Json& request,
                              int timeoutMs) {
  RVSS_ASSIGN_OR_RETURN(Reply reply,
                        Exchange(socket, request.Dump(), timeoutMs));
  return rvss::json::Parse(reply.text);
}

Outcome Classify(const rvss::json::Json& response) {
  if (response.GetString("status", "") == "ok") return Outcome::kOk;
  const rvss::json::Json* error = response.Find("error");
  if (error != nullptr && error->GetString("kind", "") == "unavailable") {
    return Outcome::kShed;
  }
  return Outcome::kErrorEnvelope;
}

void Tally::Count(Outcome outcome) {
  ++attempted;
  switch (outcome) {
    case Outcome::kOk: break;
    case Outcome::kErrorEnvelope: ++errorEnvelopes; break;
    case Outcome::kShed: ++sheds; break;
    case Outcome::kTransport: ++transportErrors; break;
  }
}

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  errorEnvelopes += other.errorEnvelopes;
  sheds += other.sheds;
  transportErrors += other.transportErrors;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

bool PercentileSupported(std::size_t samples, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples)));
  return samples >= rank + 10;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

}  // namespace fleetbench
