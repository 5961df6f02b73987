#include "server/state_renderer.h"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <string_view>
#include <utility>
#include <vector>

#include "common/strings.h"

namespace rvss::server {
namespace {

void WriteInstruction(json::Writer& w, const core::InFlight* inst) {
  w.BeginObject();
  w.Key("seq").Int(static_cast<std::int64_t>(inst->seq));
  w.Key("pc").Int(inst->pc);
  w.Key("text").String(inst->inst->text);
  w.Key("phase").String(core::ToString(inst->phase));
  if (inst->isControl) {
    w.Key("predictedTaken").Bool(inst->predictedTaken);
    w.Key("btbHit").Bool(inst->btbHit);
  }
  if (inst->inst->def->IsMemory()) {
    w.Key("addressReady").Bool(inst->addressReady);
    if (inst->addressReady) {
      w.Key("address").Int(inst->effectiveAddress);
      w.Key("cacheHit").Bool(inst->cacheHit);
    }
  }
  w.Key("operands").BeginArray();
  for (std::size_t i = 0; i < inst->operandCount; ++i) {
    const core::OperandRuntime& operand = inst->operands[i];
    w.BeginObject();
    w.Key("name").String(inst->inst->def->args[i].name);
    if (operand.isSource) {
      w.Key("valid").Bool(operand.ready);
      if (operand.ready) w.Key("value").String(operand.value.ToText());
      if (operand.waitTag >= 0) w.Key("waitTag").Int(operand.waitTag);
    }
    if (operand.isDest && operand.destTag >= 0) {
      w.Key("renamedTo").Int(operand.destTag);
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("timestamps").BeginObject();
  w.Key("fetch").Int(static_cast<std::int64_t>(inst->fetchCycle));
  w.Key("decode").Int(static_cast<std::int64_t>(inst->decodeCycle));
  w.Key("issue").Int(static_cast<std::int64_t>(inst->issueCycle));
  w.Key("execute").Int(static_cast<std::int64_t>(inst->executeDoneCycle));
  w.Key("commit").Int(static_cast<std::int64_t>(inst->commitCycle));
  w.EndObject();
  w.EndObject();
}

/// A container as the `seq`s of its instructions, in container order.
template <typename Queue>
void WriteSeqs(json::Writer& w, const core::Simulation& sim,
               const Queue& queue) {
  w.BeginArray();
  for (const core::Slot slot : queue) {
    w.Int(static_cast<std::int64_t>(sim.inFlight(slot).seq));
  }
  w.EndArray();
}

/// The simulation's live in-flight instructions, in ascending `seq`. Two
/// entries that share a `seq` both stay, and a reader sees the fault.
std::vector<const core::InFlight*> InFlightBySeq(const core::Simulation& sim) {
  std::vector<const core::InFlight*> table;
  for (const std::optional<core::InFlight>& entry : sim.inFlight()) {
    if (entry.has_value()) table.push_back(&*entry);
  }
  std::stable_sort(table.begin(), table.end(),
                   [](const core::InFlight* a, const core::InFlight* b) {
                     return a->seq < b->seq;
                   });
  return table;
}

/// A register value as "0x%llx" text.
void WriteHex(json::Writer& w, std::uint64_t value) {
  char text[18] = {'0', 'x'};
  const char* end = std::to_chars(text + 2, std::end(text), value, 16).ptr;
  w.String(std::string_view(text, static_cast<std::size_t>(end - text)));
}

const char* WindowName(core::WindowKind kind) {
  switch (kind) {
    case core::WindowKind::kFx: return "FX";
    case core::WindowKind::kFp: return "FP";
    case core::WindowKind::kLs: return "LS";
    case core::WindowKind::kBranch: return "Branch";
  }
  return "?";
}

}  // namespace

json::Json RenderJson(const core::Simulation& sim,
                      const RenderOptions& options) {
  json::Writer w;
  w.BeginObject();
  w.Key("cycle").Int(static_cast<std::int64_t>(sim.cycle()));
  w.Key("status").String(core::ToString(sim.status()));
  w.Key("finishReason").String(core::ToString(sim.finishReason()));
  w.Key("fetchPc").Int(sim.fetchPc());

  w.Key("instructions").BeginArray();
  for (const core::InFlight* inst : InFlightBySeq(sim)) {
    WriteInstruction(w, inst);
  }
  w.EndArray();
  WriteSeqs(w.Key("fetchQueue"), sim, sim.fetchQueue());
  WriteSeqs(w.Key("reorderBuffer"), sim, sim.rob());
  WriteSeqs(w.Key("loadBuffer"), sim, sim.loadBuffer());
  WriteSeqs(w.Key("storeBuffer"), sim, sim.storeBuffer());

  w.Key("issueWindows").BeginObject();
  for (int kind = 0; kind < 4; ++kind) {
    const auto window = static_cast<core::WindowKind>(kind);
    WriteSeqs(w.Key(WindowName(window)), sim, sim.window(window));
  }
  w.EndObject();

  w.Key("functionalUnits").BeginArray();
  for (const core::FunctionalUnit& fu : sim.functionalUnits()) {
    w.BeginObject();
    w.Key("name").String(fu.config.name);
    w.Key("kind").String(config::ToString(fu.config.kind));
    w.Key("busy").Bool(fu.current != core::kNoSlot);
    if (fu.current != core::kNoSlot) {
      w.Key("instruction")
          .Int(static_cast<std::int64_t>(sim.inFlight(fu.current).seq));
      w.Key("busyUntil").Int(static_cast<std::int64_t>(fu.busyUntil));
    }
    w.EndObject();
  }
  w.EndArray();

  // Registers with rename tags and valid bits (paper main-window panel).
  w.Key("registers").BeginObject();
  for (const auto& [kind, key] : {std::pair{isa::RegisterKind::kInt, "x"},
                                  std::pair{isa::RegisterKind::kFp, "f"}}) {
    w.Key(key).BeginArray();
    for (std::uint8_t i = 0; i < 32; ++i) {
      const isa::RegisterId id{kind, i};
      w.BeginObject();
      w.Key("name").String(isa::RegisterAbiName(id));
      WriteHex(w.Key("value"), sim.archRegs().Read(id));
      const std::vector<int> renames = sim.rename().RenamesOf(id);
      if (!renames.empty()) {
        w.Key("renames").BeginArray();
        for (const int tag : renames) {
          const bool valid = sim.rename().reg(tag).valid;
          w.BeginObject();
          w.Key("tag").Int(tag);
          w.Key("valid").Bool(valid);
          if (valid) WriteHex(w.Key("value"), sim.rename().reg(tag).cell);
          w.EndObject();
        }
        w.EndArray();
      }
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();

  // Cache lines (paper main-window cache panel).
  if (const memory::Cache* cache = sim.memorySystem().cache()) {
    w.Key("cache").BeginObject();
    w.Key("sets").Int(cache->setCount());
    w.Key("ways").Int(cache->ways());
    w.Key("lineSize").Int(cache->lineSize());
    w.Key("lines").BeginArray();
    for (std::uint32_t set = 0; set < cache->setCount(); ++set) {
      for (std::uint32_t way = 0; way < cache->ways(); ++way) {
        const memory::CacheLineView view = cache->Inspect(set, way);
        w.BeginObject();
        w.Key("set").Int(set);
        w.Key("way").Int(way);
        w.Key("valid").Bool(view.valid);
        w.Key("dirty").Bool(view.dirty);
        if (view.valid) {
          w.Key("base").Int(view.baseAddress);
          w.Key("lastUse").Int(static_cast<std::int64_t>(view.lastUseCycle));
        }
        w.EndObject();
      }
    }
    w.EndArray();
    w.EndObject();
  }

  // Statistics sidebar (default + expanded views).
  const stats::SimulationStatistics& st = sim.statistics();
  w.Key("statistics").BeginObject();
  w.Key("cycles").Int(static_cast<std::int64_t>(st.cycles));
  w.Key("committed").Int(static_cast<std::int64_t>(st.committedInstructions));
  // Present whenever the session's timeline began with an ISS skip — the
  // `stats` statistics document reports the same field, and a GUI must be
  // able to tell a fresh session from a fast-forwarded one in either view.
  w.Key("fastForwardedInstructions")
      .Int(static_cast<std::int64_t>(st.fastForwardedInstructions));
  w.Key("ipc").Double(st.Ipc());
  w.Key("branchAccuracy").Double(st.BranchAccuracy());
  w.Key("flops").Int(static_cast<std::int64_t>(st.flops));
  w.Key("cacheHitRate").Double(sim.memorySystem().stats().HitRate());
  w.EndObject();

  // Debug log tail, cycle-stamped (paper right-hand panel).
  w.Key("log").BeginArray();
  const auto& entries = sim.log().entries();
  const std::size_t start =
      entries.size() > options.logTail ? entries.size() - options.logTail : 0;
  for (std::size_t i = start; i < entries.size(); ++i) {
    w.BeginObject();
    w.Key("cycle").Int(static_cast<std::int64_t>(entries[i].cycle));
    w.Key("level").String(ToString(entries[i].level));
    w.Key("block").String(entries[i].block);
    w.Key("text").String(entries[i].text);
    w.EndObject();
  }
  w.EndArray();

  if (options.includeMemoryDump) {
    // The paper's memory pop-up: pointers plus an expanded dump.
    w.Key("memory").BeginObject();
    w.Key("symbols").BeginObject();
    for (const auto& [name, address] : sim.program().labels) {
      w.Key(name).Int(address);
    }
    w.EndObject();
    const std::vector<std::uint8_t> bytes = sim.memorySystem().memory().Bytes();
    std::string hex;
    hex.reserve(bytes.size() * 2);
    static const char* kDigits = "0123456789abcdef";
    for (std::uint8_t b : bytes) {
      hex += kDigits[b >> 4];
      hex += kDigits[b & 0xf];
    }
    w.Key("dumpHex").String(hex);
    w.EndObject();
  }
  w.EndObject();
  return std::move(w).Finish();
}

std::string RenderText(const core::Simulation& sim) {
  std::string out;
  const stats::SimulationStatistics& st = sim.statistics();
  out += StrFormat(
      "=== cycle %llu === status: %s   PC: 0x%08x   IPC %.2f   bp %.1f%%\n",
      static_cast<unsigned long long>(sim.cycle()),
      core::ToString(sim.status()), sim.fetchPc(), st.Ipc(),
      100.0 * st.BranchAccuracy());

  auto renderQueue = [&](const char* name, const auto& queue) {
    out += StrFormat("[%s]", name);
    for (const core::Slot slot : queue) {
      const core::InFlight& inst = sim.inFlight(slot);
      out += StrFormat(" {%llu:0x%x %s}",
                       static_cast<unsigned long long>(inst.seq), inst.pc,
                       inst.inst->text.c_str());
    }
    out += '\n';
  };
  renderQueue("Fetch ", sim.fetchQueue());
  for (int w = 0; w < 4; ++w) {
    const auto kind = static_cast<core::WindowKind>(w);
    renderQueue(WindowName(kind), sim.window(kind));
  }
  out += "[Units ]";
  for (const core::FunctionalUnit& fu : sim.functionalUnits()) {
    if (fu.current != core::kNoSlot) {
      out += StrFormat(" %s<%s until %llu>", fu.config.name.c_str(),
                       sim.inFlight(fu.current).inst->text.c_str(),
                       static_cast<unsigned long long>(fu.busyUntil));
    } else {
      out += StrFormat(" %s<idle>", fu.config.name.c_str());
    }
  }
  out += '\n';
  renderQueue("ROB   ", sim.rob());
  renderQueue("LoadB ", sim.loadBuffer());
  renderQueue("StoreB", sim.storeBuffer());

  // Architectural registers, ABI names, with rename markers.
  out += "[Regs  ]";
  for (std::uint8_t i = 0; i < 32; ++i) {
    const isa::RegisterId id{isa::RegisterKind::kInt, i};
    const std::uint64_t value = sim.archRegs().Read(id);
    std::vector<int> renames = sim.rename().RenamesOf(id);
    if (value != 0 || !renames.empty()) {
      out += StrFormat(" %s=0x%llx", isa::RegisterAbiName(id).c_str(),
                       static_cast<unsigned long long>(value));
      for (int tag : renames) {
        out += StrFormat("(t%d%s)", tag,
                         sim.rename().reg(tag).valid ? "*" : "");
      }
    }
  }
  out += '\n';
  return out;
}

}  // namespace rvss::server
