// Shared helpers for the rvss test suite.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "assembler/loader.h"
#include "config/cpu_config.h"
#include "core/simulation.h"
#include "json/json.h"
#include "ref/interpreter.h"

namespace rvss::testutil {

/// Every distinct in-flight slot the fetch queue, the ROB, the issue
/// windows, the LS buffers and the busy units of `sim` hold.
inline std::set<core::Slot> HeldSlots(const core::Simulation& sim) {
  std::set<core::Slot> held(sim.fetchQueue().begin(), sim.fetchQueue().end());
  held.insert(sim.rob().begin(), sim.rob().end());
  for (int kind = 0; kind < 4; ++kind) {
    const std::vector<core::Slot>& window =
        sim.window(static_cast<core::WindowKind>(kind));
    held.insert(window.begin(), window.end());
  }
  held.insert(sim.loadBuffer().begin(), sim.loadBuffer().end());
  held.insert(sim.storeBuffer().begin(), sim.storeBuffer().end());
  for (const core::FunctionalUnit& fu : sim.functionalUnits()) {
    if (fu.current != core::kNoSlot) held.insert(fu.current);
  }
  return held;
}

/// Asserts `response` is a well-formed error envelope (docs/api.md):
/// status "error", a nested `error` object with kind/message/retryable/
/// details, retryable true exactly for kind "unavailable", and nothing
/// else at the top level (apiVersion 2 dropped the flat kind/message/
/// detail mirror).
inline void CheckErrorEnvelope(const json::Json& response) {
  ASSERT_EQ(response.GetString("status", ""), "error") << response.Dump();
  const json::Json* error = response.Find("error");
  ASSERT_NE(error, nullptr) << "no error envelope: " << response.Dump();
  ASSERT_TRUE(error->IsObject()) << response.Dump();
  const std::string kind = error->GetString("kind", "");
  EXPECT_FALSE(kind.empty()) << response.Dump();
  EXPECT_FALSE(error->GetString("message", "").empty()) << response.Dump();
  ASSERT_NE(error->Find("retryable"), nullptr) << response.Dump();
  EXPECT_EQ(error->GetBool("retryable", false), kind == "unavailable")
      << "retryable must be true exactly for kind unavailable: "
      << response.Dump();
  const json::Json* details = error->Find("details");
  ASSERT_NE(details, nullptr) << response.Dump();
  EXPECT_TRUE(details->IsObject()) << response.Dump();
  for (const auto& [key, value] : response.AsObject()) {
    EXPECT_TRUE(key == "status" || key == "error")
        << "flat field '" << key << "' beside the envelope: "
        << response.Dump();
  }
}

/// Field `key` of the error envelope ("kind", "message"); "" when the
/// response carries no envelope.
inline std::string ErrorField(const json::Json& response,
                              std::string_view key) {
  const json::Json* error = response.Find("error");
  return error == nullptr ? "" : error->GetString(key, "");
}

/// Detail `key` of the error envelope; nullptr when absent.
inline const json::Json* ErrorDetail(const json::Json& response,
                                     std::string_view key) {
  const json::Json* error = response.Find("error");
  const json::Json* details =
      error == nullptr ? nullptr : error->Find("details");
  return details == nullptr ? nullptr : details->Find(key);
}

/// Runs a program on the golden-model ISS and returns the interpreter for
/// state inspection. Fails the current test on any error.
struct IssRun {
  memory::MainMemory memory{64 * 1024};
  assembler::LoadedProgram loaded;
  std::unique_ptr<ref::Interpreter> interp;
  ref::ExitReason reason = ref::ExitReason::kRunning;
};

inline IssRun RunOnIss(const std::string& source,
                       const std::string& entry = "",
                       bool expectClean = true) {
  IssRun run;
  config::CpuConfig config = config::DefaultConfig();
  auto loaded = assembler::LoadProgram(source, {}, config, run.memory, entry);
  EXPECT_TRUE(loaded.ok()) << (loaded.ok() ? "" : loaded.error().ToText());
  if (!loaded.ok()) return run;
  run.loaded = std::move(loaded).value();
  run.interp = std::make_unique<ref::Interpreter>(run.loaded.program,
                                                  run.memory);
  run.interp->InitRegisters(run.loaded.initialSp);
  run.reason = run.interp->Run(10'000'000);
  if (expectClean) {
    EXPECT_TRUE(run.reason == ref::ExitReason::kMainReturned ||
                run.reason == ref::ExitReason::kRanOffCode ||
                run.reason == ref::ExitReason::kHalted)
        << "exit: " << ref::ToString(run.reason)
        << (run.interp->fault() ? " " + run.interp->fault()->ToText() : "");
  }
  return run;
}

/// Runs a program on the out-of-order core with the given configuration.
inline std::unique_ptr<core::Simulation> RunOnCore(
    const std::string& source, const config::CpuConfig& config,
    const std::string& entry = "", std::uint64_t maxCycles = 5'000'000) {
  auto sim = core::Simulation::Create(config, source, {{}, entry});
  EXPECT_TRUE(sim.ok()) << (sim.ok() ? "" : sim.error().ToText());
  if (!sim.ok()) return nullptr;
  sim.value()->Run(maxCycles);
  return std::move(sim).value();
}

/// x-register index by ABI name for test readability.
inline unsigned Reg(const char* name) {
  auto id = isa::ParseRegisterName(name);
  EXPECT_TRUE(id.has_value()) << name;
  return id ? id->index : 0;
}

}  // namespace rvss::testutil
