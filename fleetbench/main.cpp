// fleetbench: the end-to-end benchmark of the gateway -> router -> lane ->
// socket transport -> worker path, driven by closed-loop socket clients.
//
//   fleetbench --workload interactive|batch --seed N --seconds S --trace 0|1
//
// Prints every metric with its unit, then, as the last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end set; with --trace 1 the per-layer set.
// Exits non-zero, printing no JSON, when nothing could be measured.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <sys/stat.h>
#include <unistd.h>

#include "json/json.h"
#include "workloads.h"

namespace {

void PrintMetrics(const char* title,
                  const std::vector<fleetbench::Metric>& metrics) {
  std::printf("%s\n", title);
  for (const fleetbench::Metric& metric : metrics) {
    std::printf("  %-30s %14.4f %-10s %s\n", metric.name.c_str(),
                metric.value, metric.unit.c_str(), metric.note.c_str());
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: fleetbench --workload interactive|batch --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  fleetbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::string_view(value) == "1";
    } else {
      return Usage();
    }
  }
  if ((workload != "interactive" && workload != "batch") ||
      options.seconds <= 0 || argc % 2 == 0) {
    return Usage();
  }

  // Socket files live under the build directory of the checkout; unix
  // socket paths are short enough only as relative paths.
  options.runDir = ".bench_build/run-" + std::to_string(::getpid());
  ::mkdir(".bench_build", 0755);
  if (::mkdir(options.runDir.c_str(), 0755) != 0) {
    std::perror(options.runDir.c_str());
    return 1;
  }
  const fleetbench::RunResult result =
      workload == "interactive" ? fleetbench::RunInteractive(options)
                                : fleetbench::RunBatch(options);
  ::rmdir(options.runDir.c_str());

  std::printf("fleetbench %s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  PrintMetrics("end-to-end", result.endToEnd);
  PrintMetrics(("workload: " + workload).c_str(), result.report);
  if (options.trace) PrintMetrics("per-layer (traced window)", result.perLayer);
  const fleetbench::Tally& tally = result.tally;
  std::printf("  %-30s %14.4f %-10s %llu of %llu (error envelopes %llu, "
              "sheds %llu, transport %llu)\n",
              "failed_share", tally.FailedShare(), "fraction",
              static_cast<unsigned long long>(tally.failed()),
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.errorEnvelopes),
              static_cast<unsigned long long>(tally.sheds),
              static_cast<unsigned long long>(tally.transportErrors));
  for (const std::string& failure : result.failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  if (tally.attempted == 0) {
    std::fprintf(stderr, "fleetbench: nothing was measured\n");
    return 1;
  }

  rvss::json::Json metrics = rvss::json::Json::MakeObject();
  for (const fleetbench::Metric& metric :
       options.trace ? result.perLayer : result.endToEnd) {
    rvss::json::Json entry = rvss::json::Json::MakeObject();
    entry.Set("value", metric.value);
    entry.Set("unit", metric.unit);
    metrics.Set(metric.name, std::move(entry));
  }
  rvss::json::Json line = rvss::json::Json::MakeObject();
  line.Set("correct", result.failures.empty());
  line.Set("attempted", tally.attempted);
  line.Set("failed", tally.failed());
  line.Set("metrics", std::move(metrics));
  std::printf("%s\n", line.Dump().c_str());
  return 0;
}
