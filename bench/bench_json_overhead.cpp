// E2 — the paper's profiling conclusion (§IV-A): "about 60% of the request
// handling time is consumed by working with the JSON format".
//
// Replays representative interactive `step` requests through the raw
// byte-level server path and reports the time split between JSON work
// (request parse, the state's streamed render, and the copy of its text
// into the reply), the simulation itself, and compression. With --json
// it writes BENCH_json_overhead.json: step_request_us (parse + step +
// render + serialize, without compression; gated by a ceiling in
// bench/baselines.json) and render_us.
//
// A second table times the router hop of one serialized step reply,
// single-threaded: reading it the way server::ReadMessage does (the
// top-level "state" validated and kept as raw text) against a full
// json::Parse, and dumping it again with the state copied as raw text
// against a DOM dump. Report only; no gate reads it.
#include "bench_common.h"
#include "common/slz.h"
#include "server/state_renderer.h"

using namespace rvss;

namespace {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report("json_overhead", argc, argv);
  // Phase-by-phase measurement of one interactive `step` request:
  //   parse request JSON -> advance the simulation one cycle ->
  //   render the state (streamed straight to text) -> copy that text
  //   (the raw node's Dump) -> compress it.
  // "Working with the JSON format" (the paper's phrase) covers the
  // request parse, the state render and the copy.
  std::vector<std::unique_ptr<core::Simulation>> sims;
  for (const char* program : {bench::kSortC, bench::kFloatC}) {
    auto compiled = cc::Compile(program, cc::CompileOptions{2});
    sims.push_back(std::move(core::Simulation::Create(
                                 config::DefaultConfig(),
                                 compiled.value().assembly, {{}, "main"}))
                       .value());
  }

  const std::string request = R"({"command": "step", "sessionId": 1})";
  std::uint64_t parseNs = 0, simNs = 0, renderNs = 0, serializeNs = 0,
                compressNs = 0;
  std::size_t requests = 0;
  for (int round = 0; round < 400; ++round) {
    for (auto& sim : sims) {
      if (sim->status() != core::SimStatus::kRunning) sim->Reset();
      std::uint64_t t0 = NowNs();
      auto parsed = json::Parse(request);
      std::uint64_t t1 = NowNs();
      sim->Step();
      std::uint64_t t2 = NowNs();
      json::Json state = server::RenderJson(*sim);
      std::uint64_t t3 = NowNs();
      std::string serialized = state.Dump();
      std::uint64_t t4 = NowNs();
      std::string compressed = SlzCompress(serialized);
      std::uint64_t t5 = NowNs();
      if (!parsed.ok() || compressed.empty()) return 1;
      if (round < 20) continue;
      parseNs += t1 - t0;
      simNs += t2 - t1;
      renderNs += t3 - t2;
      serializeNs += t4 - t3;
      compressNs += t5 - t4;
      ++requests;
    }
  }

  const double total = static_cast<double>(parseNs + simNs + renderNs +
                                           serializeNs + compressNs);
  std::printf("bench_json_overhead (E2) — request-handling time split\n");
  std::printf("requests measured: %zu\n\n", requests);
  std::printf("%-30s %10s %8s\n", "component", "us/req", "share");
  const auto perRequestUs = [&](std::uint64_t ns) {
    return static_cast<double>(ns) / 1e3 / static_cast<double>(requests);
  };
  auto row = [&](const char* name, std::uint64_t ns) {
    std::printf("%-30s %10.1f %7.1f%%\n", name, perRequestUs(ns),
                100.0 * static_cast<double>(ns) / total);
  };
  row("JSON parse (request)", parseNs);
  row("simulation step", simNs);
  row("JSON render (streamed state)", renderNs);
  row("JSON serialize (raw copy)", serializeNs);
  row("compression (slz)", compressNs);
  const std::uint64_t stepRequestNs =
      parseNs + simNs + renderNs + serializeNs;
  const double jsonShare =
      static_cast<double>(parseNs + renderNs + serializeNs) / total;
  const double jsonShareNoGzip =
      static_cast<double>(parseNs + renderNs + serializeNs) /
      static_cast<double>(stepRequestNs);
  std::printf("\nJSON share of request handling:  %.1f%% (incl. compression "
              "in total)\n", 100.0 * jsonShare);
  std::printf("JSON share excluding compression: %.1f%%   [paper: ~60%%]\n",
              100.0 * jsonShareNoGzip);
  std::printf("step request without compression: %.1f us\n",
              perRequestUs(stepRequestNs));
  report.Set("step_request_us", perRequestUs(stepRequestNs));
  report.Set("render_us", perRequestUs(renderNs));

  // The router hop: each program's step reply as the worker serializes
  // it, read and dumped again as the router and gateway would.
  constexpr int kHopRounds = 200;
  std::uint64_t fullReadNs = 0, rawReadNs = 0, domDumpNs = 0, rawDumpNs = 0;
  std::size_t replyBytes = 0, replies = 0;
  for (auto& sim : sims) {
    json::Json response = server::OkResponse();
    response.Set("stepped", 1);
    response.Set("state", server::RenderJson(*sim));
    const std::string reply = response.Dump();
    for (int round = 0; round < kHopRounds; ++round) {
      std::uint64_t t0 = NowNs();
      auto full = json::Parse(reply);
      std::uint64_t t1 = NowNs();
      auto kept = json::ParseKeepingRaw(reply, "state");
      std::uint64_t t2 = NowNs();
      std::string domText = full.value().Dump();
      std::uint64_t t3 = NowNs();
      std::string rawText = kept.value().Dump();
      std::uint64_t t4 = NowNs();
      if (domText != reply || rawText != reply) return 1;
      fullReadNs += t1 - t0;
      rawReadNs += t2 - t1;
      domDumpNs += t3 - t2;
      rawDumpNs += t4 - t3;
      replyBytes += reply.size();
      ++replies;
    }
  }
  const auto hopUs = [&](std::uint64_t ns) {
    return static_cast<double>(ns) / 1e3 / static_cast<double>(replies);
  };
  std::printf("\nrouter hop, one step reply (%.1f KB, mean of %zu)\n",
              static_cast<double>(replyBytes) / 1e3 /
                  static_cast<double>(replies),
              replies);
  std::printf("%-30s %10s\n", "component", "us/reply");
  std::printf("%-30s %10.1f\n", "read: full json::Parse", hopUs(fullReadNs));
  std::printf("%-30s %10.1f\n", "read: wire (state kept raw)",
              hopUs(rawReadNs));
  std::printf("%-30s %10.1f\n", "dump: DOM", hopUs(domDumpNs));
  std::printf("%-30s %10.1f\n", "dump: raw state copied", hopUs(rawDumpNs));
  return 0;
}
