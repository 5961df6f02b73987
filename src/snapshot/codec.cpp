#include "snapshot/codec.h"

#include <algorithm>
#include <array>
#include <type_traits>
#include <vector>

#include "common/strings.h"
#include "memory/main_memory.h"
#include "snapshot/wire.h"

namespace rvss::snapshot {
namespace {

constexpr char kMagic[4] = {'R', 'V', 'S', 'P'};
/// magic + version + configHash + programHash + payloadHash + payloadSize.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 8 + 8;
constexpr std::uint32_t kNullIndex = 0xffffffffu;

std::uint64_t Fnv1a(std::string_view bytes,
                    std::uint64_t hash = 14695981039346656037ull) {
  for (const char c : bytes) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::uint64_t Fnv1aU64(std::uint64_t value, std::uint64_t hash) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 1099511628211ull;
  }
  return hash;
}

Error CodecError(std::string message) {
  return Error{ErrorKind::kInvalidArgument,
               "snapshot decode: " + std::move(message)};
}

// --- records ----------------------------------------------------------------
//
// Each record lists its fields once, in wire order, as a template over the
// direction: a Writer (with a const snapshot) encodes them, a Reader decodes
// and checks them. A failed check latches its message into the Reader and
// ends the record before the bad value is used; a record returns whether
// the transfer may go on.

template <typename IO>
constexpr bool kDecoding = std::is_same_v<IO, Reader>;

template <typename IO, typename... Fields>
void U64s(IO& io, Fields&... fields) {
  (io.U64(fields), ...);
}

/// A rename tag that indexes the speculative register file, or one of the
/// sentinels from `minimum` up.
bool TagInRange(std::int32_t tag, std::int32_t minimum, std::uint32_t renames) {
  return tag >= minimum && tag < static_cast<std::int32_t>(renames);
}

/// A truncation anywhere in the record so far is reported as `malformed`,
/// as is an error kind out of range.
template <typename IO, typename OptionalError>
bool OptionalErrorRecord(IO& io, OptionalError& error, const char* malformed) {
  if (io.Present(error)) {
    io.Enum(error->kind, kLastErrorKind, malformed);
    io.Str(error->message);
    io.U32(error->pos.line);
    io.U32(error->pos.column);
  }
  io.FailAs(malformed);
  return io.ok();
}

template <typename IO, typename Snapshot>
bool Scalars(IO& io, Snapshot& s) {
  U64s(io, s.cycle, s.nextSeq);
  io.U32(s.pc);
  io.U64(s.fetchResumeCycle);
  io.Bool(s.fetchStalledIndirect);
  return io.Enum(s.status, core::SimStatus::kFault,
                 "simulation status out of range") &&
         io.Enum(s.finishReason, core::FinishReason::kException,
                 "finish reason out of range") &&
         OptionalErrorRecord(io, s.fault, "malformed fault record");
}

/// The ISS architectural state the detailed window was seeded from, when
/// the session used FastForwardTo (v2).
template <typename IO, typename Snapshot>
bool Seed(IO& io, Snapshot& s) {
  if (io.Present(s.ffSeed)) {
    for (auto& cell : s.ffSeed->x) io.U64(cell);
    for (auto& cell : s.ffSeed->f) io.U64(cell);
    io.U32(s.ffSeed->pc);
    io.U64(s.ffSeed->instructions);
  }
  return io.ok();
}

/// One in-flight instruction. Its rename tags must index the speculative
/// register file, so a hostile blob cannot plant tags out of range.
template <typename IO, typename InFlight>
bool InFlightRecord(IO& io, InFlight& inst, const CodecContext& context) {
  const auto& instructions = context.program->instructions;
  io.U64(inst.seq);
  if constexpr (kDecoding<IO>) {
    const std::uint32_t index = io.U32();
    if (!io.Check(index < instructions.size(),
                  "in-flight instruction index out of range")) {
      return false;
    }
    inst.inst = io.ok() ? &instructions[index] : nullptr;
  } else {
    io.U32(static_cast<std::uint32_t>(inst.inst - instructions.data()));
  }
  io.U32(inst.pc);
  if (!io.Enum(inst.phase, core::Phase::kSquashed,
               "in-flight phase out of range")) {
    return false;
  }
  io.Bits(inst.isControl, inst.predictedTaken, inst.btbHit, inst.branchTaken,
          inst.mispredicted, inst.isExit, inst.addressReady,
          inst.memoryStarted, inst.memoryDone, inst.cacheHit, inst.forwarded,
          inst.drainPending, inst.drainStarted, inst.stalledFetch,
          inst.resultsReady);
  io.U32(inst.predictedNextPc);
  io.U32(inst.historyCheckpoint);
  io.U32(inst.branchTarget);
  io.U32(inst.effectiveAddress);
  io.U64(inst.forwardedRaw);
  if (!OptionalErrorRecord(io, inst.exception,
                           "malformed in-flight exception")) {
    return false;
  }
  U64s(io, inst.fetchCycle, inst.decodeCycle, inst.issueCycle,
       inst.executeDoneCycle, inst.commitCycle);

  io.U8(inst.operandCount);
  if (!io.Check(inst.operandCount <= inst.operands.size(),
                "in-flight operand count out of range")) {
    return false;
  }
  const std::uint32_t renames = context.config->memory.renameRegisterCount;
  for (std::size_t i = 0; i < inst.operandCount; ++i) {
    auto& operand = inst.operands[i];
    io.Bits(operand.isSource, operand.isDest, operand.ready);
    expr::ValueKind kind = operand.value.kind();
    std::uint64_t bits = operand.value.bits();
    if (!io.Enum(kind, expr::ValueKind::kBool,
                 "operand value kind out of range")) {
      return false;
    }
    io.U64(bits);
    if constexpr (kDecoding<IO>) {
      operand.value = expr::Value::FromRaw(kind, bits);
    }
    io.I32(operand.waitTag);
    io.I32(operand.destTag);
    io.I32(operand.prevTag);
    if (!io.Check(TagInRange(operand.waitTag, -1, renames) &&
                      TagInRange(operand.destTag, -1, renames) &&
                      TagInRange(operand.prevTag, core::kPrevWasArchitectural,
                                 renames),
                  "operand rename tag out of range")) {
      return false;
    }
  }
  return io.ok();
}

/// Calls `visit(container, capacity, allowNull)` for each pipeline
/// container, in wire order. `capacity` is the live container's configured
/// bound; only functional-unit slots may hold the null sentinel.
template <typename Snapshot, typename Visit>
void ForEachContainer(Snapshot& s, const config::CpuConfig& config,
                      Visit&& visit) {
  // StageFetch tops the queue up by one fetch group past the width check,
  // so the live fetch queue can briefly hold up to 2*fetchWidth - 1.
  visit(s.fetchQueue, std::size_t{2} * config.buffers.fetchWidth, false);
  visit(s.rob, config.buffers.robSize, false);
  for (auto& window : s.windows) {
    visit(window, config.buffers.issueWindowSize, false);
  }
  visit(s.loadBuffer, config.memory.loadBufferSize, false);
  visit(s.storeBuffer, config.memory.storeBufferSize, false);
  visit(s.fuCurrent, config.functionalUnits.size(), true);
}

/// Every in-flight instruction the containers hold, in first-seen order;
/// the containers then travel as index lists into this table, so an
/// instruction held by several containers is one entry.
bool InFlightTable(Writer& w, const core::SimSnapshot& s,
                   const CodecContext& context) {
  std::vector<core::Slot> entries;
  std::vector<std::uint32_t> indexOf(s.inFlight.size(), kNullIndex);
  ForEachContainer(s, *context.config, [&](const auto& container, auto, auto) {
    for (const core::Slot slot : container) {
      if (slot != core::kNoSlot && indexOf[slot] == kNullIndex) {
        indexOf[slot] = static_cast<std::uint32_t>(entries.size());
        entries.push_back(slot);
      }
    }
  });
  w.U32(static_cast<std::uint32_t>(entries.size()));
  for (const core::Slot slot : entries) {
    InFlightRecord(w, *s.inFlight[slot], context);
  }
  ForEachContainer(s, *context.config, [&](const auto& container, auto, auto) {
    w.U32(static_cast<std::uint32_t>(container.size()));
    for (const core::Slot slot : container) {
      w.U32(slot == core::kNoSlot ? kNullIndex : indexOf[slot]);
    }
  });
  return true;
}

/// A list may not exceed its container's capacity, and may not name one
/// instruction twice (aliasing is only legitimate *across* containers), so
/// a checksum-correct but hostile blob cannot oversize a buffer or
/// double-commit an instruction. An entry takes a slot at its first
/// reference; one that no container names is dropped.
bool InFlightTable(Reader& r, core::SimSnapshot& s,
                   const CodecContext& context) {
  const std::uint32_t count = r.Count(40);
  std::vector<core::InFlight> table;
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    InFlightRecord(r, table.emplace_back(), context);
  }
  std::vector<core::Slot> slotOf(table.size(), core::kNoSlot);
  ForEachContainer(s, *context.config, [&](auto& container,
                                          std::size_t capacity,
                                          bool allowNull) {
    if (!r.ok()) return;
    const std::uint32_t size = r.Count(4);
    if (!r.Check(size <= capacity,
                 "container larger than its configured capacity")) {
      return;
    }
    std::vector<bool> seen(table.size(), false);
    for (std::uint32_t i = 0; i < size; ++i) {
      const std::uint32_t index = r.U32();
      if (!r.ok()) return;
      if (index == kNullIndex) {
        if (!r.Check(allowNull, "unexpected null in-flight reference")) return;
        container.push_back(core::kNoSlot);
        continue;
      }
      if (!r.Check(index < table.size(), "in-flight table index out of range") ||
          !r.Check(!seen[index],
                   "duplicate in-flight reference within one container")) {
        return;
      }
      seen[index] = true;
      if (slotOf[index] == core::kNoSlot) {
        slotOf[index] = static_cast<core::Slot>(s.inFlight.size());
        s.inFlight.emplace_back(std::move(table[index]));
      }
      container.push_back(slotOf[index]);
    }
  });
  return r.ok();
}

template <typename IO, typename Snapshot>
bool FunctionalUnits(IO& io, Snapshot& s, const config::CpuConfig& config) {
  const std::size_t units = config.functionalUnits.size();
  if (!io.Check(io.Size(s.fuBusyUntil, 8) == units &&
                    s.fuCurrent.size() == units,
                "functional-unit count does not match configuration")) {
    return false;
  }
  for (auto& busy : s.fuBusyUntil) io.U64(busy);
  return io.ok();
}

template <typename IO, typename Snapshot>
bool ArchRegisters(IO& io, Snapshot& s) {
  for (auto& cell : s.arch.x) io.U64(cell);
  for (auto& cell : s.arch.f) io.U64(cell);
  return io.ok();
}

/// Sizes must match the configuration: RestoreState swaps these vectors in
/// wholesale, and the pipeline indexes them by tag.
template <typename IO, typename Snapshot>
bool Rename(IO& io, Snapshot& s, const config::CpuConfig& config) {
  auto& rename = s.rename;
  const std::uint32_t renames = config.memory.renameRegisterCount;
  if (!io.Check(io.Size(rename.regs, 16) == renames,
                "rename register count does not match configuration")) {
    return false;
  }
  for (auto& reg : rename.regs) {
    io.Bool(reg.inUse);
    io.Bool(reg.valid);
    io.U64(reg.cell);
    if (!io.Enum(reg.arch.kind, isa::RegisterKind::kFp,
                 "speculative register kind out of range")) {
      return false;
    }
    io.U8(reg.arch.index);
    if (!io.Check(reg.arch.index < 32,
                  "speculative register target out of range")) {
      return false;
    }
    io.U32(reg.references);
  }
  if (!io.Check(io.Size(rename.freeList, 4) <= renames,
                "rename free list longer than the register file")) {
    return false;
  }
  std::vector<bool> freeSeen(renames, false);
  for (auto& tag : rename.freeList) {
    io.I32(tag);
    if (!io.Check(TagInRange(tag, 0, renames),
                  "rename free-list tag out of range")) {
      return false;
    }
    // A tag listed twice (or free while marked in use) would hand one
    // speculative register to two instructions after a few allocations.
    if constexpr (kDecoding<IO>) {
      if (!io.ok()) break;
      const auto index = static_cast<std::size_t>(tag);
      if (!io.Check(!freeSeen[index], "duplicate rename free-list tag") ||
          !io.Check(!rename.regs[index].inUse,
                    "rename free-list tag marked in use")) {
        return false;
      }
      freeSeen[index] = true;
    }
  }
  io.U32(rename.freeCount);
  if (!io.Check(rename.freeCount <= renames,
                "rename free count out of range")) {
    return false;
  }
  for (auto& tag : rename.map) {
    io.I32(tag);
    if (!io.Check(TagInRange(tag, -1, renames),
                  "rename map tag out of range")) {
      return false;
    }
  }
  return io.ok();
}

/// Sizes are fixed by the configuration; the predictor's index masks
/// assume them.
template <typename IO, typename Snapshot>
bool Predictor(IO& io, Snapshot& s, const config::CpuConfig& config) {
  auto& p = s.predictor;
  const config::PredictorConfig& geometry = config.predictor;
  if (!io.Check(io.Size(p.pht.entries, 4,
                        predictor::BitPredictor(geometry.type, 0)) ==
                    geometry.phtSize,
                "PHT size does not match configuration")) {
    return false;
  }
  for (auto& entry : p.pht.entries) {
    std::uint32_t state = entry.state();
    io.U32(state);
    if constexpr (kDecoding<IO>) {
      // The BitPredictor constructor clamps out-of-range counters.
      entry = predictor::BitPredictor(geometry.type, state);
    }
  }
  if (!io.Check(io.Size(p.btb.entries, 9) == geometry.btbSize,
                "BTB size does not match configuration")) {
    return false;
  }
  for (auto& entry : p.btb.entries) {
    io.Bool(entry.valid);
    io.U32(entry.pc);
    io.U32(entry.target);
  }
  io.U32(p.globalHistory);
  const std::uint32_t localHistories =
      geometry.history == config::HistoryKind::kLocal && geometry.historyBits > 0
          ? geometry.phtSize
          : 0;
  if (!io.Check(io.Size(p.localHistories, 4) == localHistories,
                "local history size does not match configuration")) {
    return false;
  }
  for (auto& history : p.localHistories) io.U32(history);
  return io.ok();
}

/// What the memory image needs besides the snapshot: the encoder's delta
/// request, and on decode the blob's version.
struct MemorySide {
  const EncodeOptions* options = nullptr;
  std::uint32_t version = kFormatVersion;
};

using memory::MainMemory;
constexpr std::uint32_t kPage = MainMemory::kPageSizeBytes;

/// Bytes of `page` inside a memory of `sizeBytes`: the last page may be
/// short.
std::uint32_t PageBytes(std::uint32_t sizeBytes, std::uint32_t page) {
  return std::min(kPage, sizeBytes - page * kPage);
}

/// The raw memory image: v3 leads with a mode byte, then either the full
/// image (mode 0) or, against the negotiated base, the 4 KiB pages that
/// are not the base's (mode 1).
bool MemoryImage(Writer& w, const core::SimSnapshot& s,
                 const CodecContext& /*context*/, const MemorySide& side) {
  const MainMemory::State& memory = s.memory.memory;
  const std::uint32_t pageTotal = MainMemory::PageCountFor(memory.sizeBytes);
  const MainMemory::State* base = side.options->deltaBase;
  w.U8(base != nullptr ? 1 : 0);
  if (base == nullptr) {
    w.U32(memory.sizeBytes);
    for (std::uint32_t page = 0; page < pageTotal; ++page) {
      w.Bytes(memory.pages[page]->data(), PageBytes(memory.sizeBytes, page));
    }
    return true;
  }
  const auto shipped = [&](std::uint32_t page) {
    return page >= base->pages.size() ||
           base->pages[page] != memory.pages[page];
  };
  std::uint32_t shippedCount = 0;
  for (std::uint32_t page = 0; page < pageTotal; ++page) {
    if (shipped(page)) ++shippedCount;
  }
  w.U64(side.options->baseEpoch);
  w.U32(memory.sizeBytes);
  w.U32(shippedCount);
  for (std::uint32_t page = 0; page < pageTotal; ++page) {
    if (!shipped(page)) continue;
    w.U32(page);
    w.Bytes(memory.pages[page]->data(), PageBytes(memory.sizeBytes, page));
  }
  return true;
}

bool MemoryImage(Reader& r, core::SimSnapshot& s, const CodecContext& context,
                 const MemorySide& side) {
  const std::uint32_t configured = context.config->memory.sizeBytes;
  const MainMemory::State* base = context.baseMemory;
  MainMemory::State& memory = s.memory.memory;
  std::uint8_t mode = 0;  // v2 is always a full image
  if (side.version >= 3) {
    r.U8(mode);
    if (!r.Check(mode <= 1, "memory mode out of range")) return false;
  }
  if (mode == 0) {
    const std::uint32_t size = r.Count(1);
    if (!r.Check(size == configured,
                 "memory size does not match configuration")) {
      return false;
    }
    memory.sizeBytes = size;
    memory.pages.resize(MainMemory::PageCountFor(size));
    for (std::uint32_t page = 0; page < memory.pages.size(); ++page) {
      auto bytes = std::make_shared<MainMemory::Page>();
      r.BytesInto(bytes->data(), PageBytes(size, page));
      // Share the base's page wherever the bytes are equal.
      const bool baseEqual = base != nullptr && page < base->pages.size() &&
                             *base->pages[page] == *bytes;
      memory.pages[page] = baseEqual ? base->pages[page] : std::move(bytes);
    }
    return r.ok();
  }
  const std::uint64_t baseEpoch = r.U64();
  const std::uint32_t totalSize = r.U32();
  // Fail closed: a delta is only restorable over the exact base it was
  // computed against. No base (or a different one) means this side must
  // ask for a full image instead — never patch over the wrong bytes.
  if (!r.Check(totalSize == configured,
               "memory size does not match configuration") ||
      !r.Check(base != nullptr && base->sizeBytes == totalSize &&
                   context.baseEpoch == baseEpoch,
               "delta blob references a base image this side does not have "
               "(base-epoch mismatch)")) {
    return false;
  }
  const std::uint32_t pageTotal = MainMemory::PageCountFor(totalSize);
  const std::uint32_t pageCount = r.Count(4);
  if (!r.Check(pageCount <= pageTotal,
               "delta page count exceeds the memory's page count")) {
    return false;
  }
  // Every page the delta does not ship is the base's.
  memory = *base;
  std::int64_t lastPage = -1;
  for (std::uint32_t i = 0; i < pageCount; ++i) {
    const std::uint32_t page = r.U32();
    if (!r.ok()) break;
    if (!r.Check(page < pageTotal && static_cast<std::int64_t>(page) > lastPage,
                 "delta page index out of order or out of range")) {
      return false;
    }
    lastPage = page;
    auto shipped = std::make_shared<MainMemory::Page>();
    r.BytesInto(shipped->data(), PageBytes(totalSize, page));
    memory.pages[page] = std::move(shipped);
  }
  return r.ok();
}

template <typename IO, typename Snapshot>
bool Cache(IO& io, Snapshot& s, const config::CpuConfig& config) {
  const bool present = io.Present(s.memory.cache);
  if (!io.Check(present == config.cache.enabled,
                "cache presence does not match configuration")) {
    return false;
  }
  if (!present) return io.ok();
  auto& cache = *s.memory.cache;
  const config::CacheConfig& geometry = config.cache;
  const std::uint32_t lines =
      geometry.associativity == 0
          ? 0
          : (geometry.lineCount / geometry.associativity) *
                geometry.associativity;
  if (!io.Check(io.Size(cache.lines, 22) == lines,
                "cache line count does not match configuration")) {
    return false;
  }
  for (auto& line : cache.lines) {
    io.Bool(line.valid);
    io.Bool(line.dirty);
    io.U32(line.tag);
    U64s(io, line.lastUse, line.insertTime);
  }
  std::array<std::uint64_t, 4> rng = cache.rng.SaveState();
  for (std::uint64_t& word : rng) io.U64(word);
  if constexpr (kDecoding<IO>) cache.rng.RestoreState(rng);
  io.U64(cache.insertCounter);
  return io.ok();
}

/// Memory and simulation statistics.
template <typename IO, typename Snapshot>
bool Counters(IO& io, Snapshot& s, const config::CpuConfig& config) {
  auto& m = s.memory.stats;
  U64s(io, m.accesses, m.loads, m.stores, m.cacheHits, m.cacheMisses,
       m.evictions, m.dirtyEvictions, m.bytesReadFromMemory,
       m.bytesWrittenToMemory, s.memory.nextTransactionId);
  auto& st = s.stats;
  U64s(io, st.cycles, st.fetchedInstructions, st.decodedInstructions,
       st.issuedInstructions, st.executedInstructions,
       st.committedInstructions, st.squashedInstructions,
       st.fastForwardedInstructions, st.robFlushes, st.branchesResolved,
       st.branchesMispredicted, st.branchesTaken, st.btbHits, st.btbLookups,
       st.flops);
  for (auto& count : st.staticMix) io.U64(count);
  for (auto& count : st.dynamicMix) io.U64(count);
  if (!io.Check(io.Size(st.unitUsage, 20) == config.functionalUnits.size(),
                "unit usage count does not match configuration")) {
    return false;
  }
  for (auto& usage : st.unitUsage) {
    io.Str(usage.name);
    U64s(io, usage.busyCycles, usage.instructions);
  }
  U64s(io, st.stallCyclesRobFull, st.stallCyclesRenameFull,
       st.stallCyclesWindowFull, st.stallCyclesLsBufferFull);
  return io.ok();
}

template <typename IO, typename Snapshot>
bool Log(IO& io, Snapshot& s) {
  io.Size(s.log.entries, 17);
  for (auto& entry : s.log.entries) {
    io.U64(entry.cycle);
    if (!io.Enum(entry.level, LogLevel::kError, "log level out of range")) {
      return false;
    }
    io.Str(entry.block);
    io.Str(entry.text);
  }
  return io.ok();
}

/// The whole payload, record by record in wire order; stops at the first
/// record that fails.
template <typename IO, typename Snapshot>
bool Payload(IO& io, Snapshot& s, const CodecContext& context,
             const MemorySide& side) {
  const config::CpuConfig& config = *context.config;
  return Scalars(io, s) && Seed(io, s) && InFlightTable(io, s, context) &&
         FunctionalUnits(io, s, config) && ArchRegisters(io, s) &&
         Rename(io, s, config) && Predictor(io, s, config) &&
         MemoryImage(io, s, context, side) && Cache(io, s, config) &&
         Counters(io, s, config) && Log(io, s);
}

}  // namespace

// --- hashes -----------------------------------------------------------------

std::uint64_t ConfigHash(const config::CpuConfig& config) {
  // Checkpoint settings and the display name tune ring behaviour and UI
  // labels, not simulation state, so they are normalized out: a server may
  // clamp a session's checkpoint budget on import without breaking blobs.
  config::CpuConfig normalized = config;
  normalized.checkpoint = config::CheckpointConfig{};
  normalized.name.clear();
  return Fnv1a(config::ToJson(normalized).Dump());
}

std::uint64_t ProgramHash(const assembler::Program& program) {
  std::uint64_t hash = Fnv1aU64(program.instructions.size(),
                                14695981039346656037ull);
  for (const assembler::Instruction& inst : program.instructions) {
    hash = Fnv1a(inst.text, hash);
    hash = Fnv1aU64(inst.pc, hash);
  }
  hash = Fnv1aU64(program.entryPc, hash);
  hash = Fnv1aU64(program.dataBase, hash);
  if (!program.dataImage.empty()) {
    hash = Fnv1a(std::string_view(
                     reinterpret_cast<const char*>(program.dataImage.data()),
                     program.dataImage.size()),
                 hash);
  }
  return hash;
}

// --- encode -----------------------------------------------------------------

std::string EncodeSnapshot(const core::SimSnapshot& snapshot,
                           const CodecContext& context) {
  return EncodeSnapshot(snapshot, context, EncodeOptions{});
}

std::string EncodeSnapshot(const core::SimSnapshot& snapshot,
                           const CodecContext& context,
                           const EncodeOptions& options) {
  Writer w;
  Payload(w, snapshot, context, MemorySide{&options});
  const std::string payload = w.Take();
  Writer header;
  header.Bytes(kMagic, sizeof(kMagic));
  header.U32(kFormatVersion);
  header.U64(ConfigHash(*context.config));
  header.U64(ProgramHash(*context.program));
  header.U64(Fnv1a(payload));
  header.U64(payload.size());
  std::string out = header.Take();
  out += payload;
  return out;
}

// --- decode -----------------------------------------------------------------

Result<core::SimSnapshot> DecodeSnapshot(std::string_view blob,
                                         const CodecContext& context) {
  if (blob.size() < kHeaderBytes) {
    return CodecError("blob shorter than the snapshot header");
  }
  Reader r(blob);
  char magic[4];
  for (char& c : magic) c = static_cast<char>(r.U8());
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return CodecError("bad magic (not a snapshot blob)");
  }
  const std::uint32_t version = r.U32();
  if (version < kMinFormatVersion || version > kFormatVersion) {
    return CodecError(
        StrFormat("unsupported format version %u (this build reads %u..%u)",
                  version, kMinFormatVersion, kFormatVersion));
  }
  if (r.U64() != ConfigHash(*context.config)) {
    return CodecError(
        "configuration hash mismatch (snapshot taken with a different "
        "architecture configuration)");
  }
  if (r.U64() != ProgramHash(*context.program)) {
    return CodecError(
        "program hash mismatch (snapshot taken with a different program)");
  }
  const std::uint64_t payloadHash = r.U64();
  const std::uint64_t payloadSize = r.U64();
  if (payloadSize != blob.size() - kHeaderBytes) {
    return CodecError("payload size mismatch (truncated or padded blob)");
  }
  if (Fnv1a(blob.substr(kHeaderBytes)) != payloadHash) {
    return CodecError("payload checksum mismatch (corrupted blob)");
  }

  core::SimSnapshot snapshot;
  if (!Payload(r, snapshot, context, MemorySide{nullptr, version})) {
    return CodecError(r.failReason());
  }
  if (r.remaining() != 0) {
    return CodecError("trailing bytes after the snapshot payload");
  }
  return snapshot;
}

}  // namespace rvss::snapshot
