// Shared workloads and helpers for the benchmark binaries.
#pragma once

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cc/compiler.h"
#include "config/cpu_config.h"
#include "core/simulation.h"
#include "json/json.h"
#include "server/api.h"

namespace rvss::bench {

/// Machine-readable bench results. Every bench binary accepts --json;
/// when passed, the metrics recorded with Set() are written to
/// BENCH_<name>.json in the working directory on destruction — the
/// artifact the CI bench-regression job uploads and checks against the
/// numbers pinned in bench/baselines.json (ci/check_bench.py).
class JsonReport {
 public:
  JsonReport(std::string name, int argc, char** argv)
      : name_(std::move(name)) {
    for (int i = 1; i < argc; ++i) {
      if (std::string_view(argv[i]) == "--json") enabled_ = true;
    }
  }

  void Set(const char* metric, double value) { metrics_.Set(metric, value); }

  ~JsonReport() {
    if (!enabled_) return;
    json::Json document = json::Json::MakeObject();
    document.Set("bench", name_);
    document.Set("metrics", std::move(metrics_));
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream file(path);
    file << document.DumpPretty() << "\n";
    std::printf("\nwrote %s\n", path.c_str());
  }

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

 private:
  std::string name_;
  bool enabled_ = false;
  json::Json metrics_ = json::Json::MakeObject();
};

/// The two interactive programs used by the paper's load test: one
/// branchy integer sort, one floating-point kernel.
inline const char* kSortC = R"(
int arr[64];
int main() {
  for (int i = 0; i < 64; i++) arr[i] = (i * 37 + 11) % 101;
  for (int i = 1; i < 64; i++) {
    int key = arr[i];
    int j = i - 1;
    while (j >= 0 && arr[j] > key) { arr[j + 1] = arr[j]; j--; }
    arr[j + 1] = key;
  }
  return arr[0] + arr[63];
}
)";

inline const char* kFloatC = R"(
float x[32]; float y[32];
int main() {
  for (int i = 0; i < 32; i++) { x[i] = (float)i * 0.25f; y[i] = (float)(32 - i); }
  float acc = 0.0f;
  for (int rep = 0; rep < 8; rep++)
    for (int i = 0; i < 32; i++) acc += x[i] * y[i];
  return (int)acc;
}
)";

/// Compiles a C program and creates a simulation session for it on a
/// server; returns the session id (or -1).
inline std::int64_t CreateCSession(server::SimServer& server,
                                   const std::string& cSource,
                                   const config::CpuConfig& config) {
  json::Json request = json::Json::MakeObject();
  request.Set("command", "createSession");
  request.Set("code", cSource);
  request.Set("isC", true);
  request.Set("optLevel", 2);
  request.Set("config", config::ToJson(config));
  json::Json response = server.Handle(request);
  if (response.GetString("status", "") != "ok") {
    std::fprintf(stderr, "session error: %s\n",
                 server::ErrorMessage(response, "?").c_str());
    return -1;
  }
  return response.GetInt("sessionId", -1);
}

inline double SecondsSince(
    std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace rvss::bench
