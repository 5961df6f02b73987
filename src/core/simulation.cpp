#include "core/simulation.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/strings.h"
#include "isa/abi.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "ref/interpreter.h"

namespace rvss::core {

const char* ToString(Phase phase) {
  switch (phase) {
    case Phase::kFetched: return "fetched";
    case Phase::kDecoded: return "decoded";
    case Phase::kExecuting: return "executing";
    case Phase::kDone: return "done";
    case Phase::kCommitted: return "committed";
    case Phase::kSquashed: return "squashed";
  }
  return "unknown";
}

const char* ToString(SimStatus status) {
  switch (status) {
    case SimStatus::kRunning: return "running";
    case SimStatus::kFinished: return "finished";
    case SimStatus::kFault: return "fault";
  }
  return "unknown";
}

const char* ToString(FinishReason reason) {
  switch (reason) {
    case FinishReason::kNone: return "none";
    case FinishReason::kMainReturned: return "main returned";
    case FinishReason::kHalted: return "halted";
    case FinishReason::kPipelineEmpty: return "pipeline empty";
    case FinishReason::kException: return "exception";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Result<std::unique_ptr<Simulation>> Simulation::Create(
    const config::CpuConfig& config, std::string_view source,
    const CreateOptions& options) {
  std::vector<Error> problems = config::Validate(config);
  if (!problems.empty()) {
    std::string message = "invalid configuration:";
    for (const Error& problem : problems) {
      message += "\n  - " + problem.message;
    }
    return Error{ErrorKind::kConfig, std::move(message)};
  }

  auto memorySystem = std::make_unique<memory::MemorySystem>(config);
  RVSS_ASSIGN_OR_RETURN(
      assembler::LoadedProgram loaded,
      assembler::LoadProgram(source, options.arrays, config,
                             memorySystem->memory(), options.entryLabel));

  std::unique_ptr<Simulation> sim(
      new Simulation(config, std::move(loaded)));
  sim->memory_ = std::move(memorySystem);
  sim->BuildPredecode();
  // The loaded memory is the base of delta session blobs and the memory
  // ResetHard rebuilds; both share its pages with the live run.
  const memory::MainMemory& loadedMemory = sim->memory_->memory();
  sim->baseMemory_ = loadedMemory.SaveState();
  sim->cycleZeroMemory_ = sim->baseMemory_;
  // Base-epoch id for delta session blobs: any process Creating the same
  // (config, program, arrays) reproduces this exact image, so the hash
  // alone proves base availability across the wire.
  std::uint64_t hash = 14695981039346656037ull;
  for (std::uint32_t address = 0; address < loadedMemory.size(); ++address) {
    hash = (hash ^ loadedMemory.Read8(address)) * 1099511628211ull;
  }
  sim->memoryBaseEpoch_ = hash;
  sim->ResetHard();
  // The cycle-0 base checkpoint: Reset()'s restore point, pinned in the
  // ring.
  if (sim->checkpoints_.enabled()) sim->CaptureCheckpointNow();
  return sim;
}

Simulation::Simulation(config::CpuConfig config, assembler::LoadedProgram loaded)
    : config_(std::move(config)),
      loaded_(std::move(loaded)),
      predictor_(config_.predictor),
      rename_(config_.memory.renameRegisterCount),
      checkpoints_(config_.checkpoint.intervalCycles,
                   config_.checkpoint.maxTotalBytes) {
  checkpoints_.SetAdaptive(config_.checkpoint.adaptiveInterval);
  // Instantiate functional units and their statistics slots.
  std::size_t statsIndex = 0;
  for (const config::FunctionalUnitConfig& fuConfig : config_.functionalUnits) {
    FunctionalUnit fu;
    fu.config = fuConfig;
    if (fu.config.name.empty()) {
      fu.config.name = std::string(config::ToString(fuConfig.kind)) +
                       std::to_string(statsIndex);
    }
    fu.statsIndex = statsIndex++;
    for (std::size_t c = 0; c < FunctionalUnit::kOpClassCount; ++c) {
      fu.latencyByClass[c] =
          fu.config.LatencyFor(static_cast<isa::OpClass>(c));
    }
    fus_.push_back(std::move(fu));
  }
  // Group unit indices by the window that feeds them, so issue scans only
  // the units a window can actually use.
  for (std::size_t w = 0; w < fusByWindow_.size(); ++w) {
    const auto kind = FuKindFor(static_cast<WindowKind>(w));
    for (std::size_t i = 0; i < fus_.size(); ++i) {
      if (fus_[i].config.kind == kind) {
        fusByWindow_[w].push_back(static_cast<std::uint32_t>(i));
      }
    }
  }
}

void Simulation::Reset() {
  lastSeekReplayedCycles_ = 0;
  if (earliestReachableCycle_ > 0) {
    // Imported fast-forwarded session: cycle 0 of this timeline cannot be
    // rebuilt here (the pre-import prefix lives in another process), so
    // "reset" means the oldest state we can reconstruct.
    (void)SeekTo(earliestReachableCycle_);
    return;
  }
  if (const CheckpointRing::Entry* base = checkpoints_.base()) {
    RestoreState(*base->snapshot);
    return;
  }
  ResetHard();
}

void Simulation::ResetHard() {
  cycle_ = 0;
  nextSeq_ = 1;
  pc_ = loaded_.program.entryPc;
  fetchResumeCycle_ = 0;
  fetchStalledIndirect_ = false;
  status_ = SimStatus::kRunning;
  finishReason_ = FinishReason::kNone;
  fault_.reset();

  inFlight_.clear();
  freeSlots_.clear();
  fetchQueue_.clear();
  rob_.clear();
  for (auto& window : windows_) window.clear();
  loadBuffer_.clear();
  storeBuffer_.clear();
  for (FunctionalUnit& fu : fus_) {
    fu.current = kNoSlot;
    fu.busyUntil = 0;
  }

  arch_.Reset();
  arch_.Write(isa::RegisterId{isa::RegisterKind::kInt, isa::kSpReg},
              loaded_.initialSp);
  arch_.Write(isa::RegisterId{isa::RegisterKind::kInt, isa::kRaReg},
              loaded_.initialRa);
  rename_.Reset();
  predictor_.Reset();
  log_.Clear();

  if (memory_) {
    memory_->Reset();
    memory_->memory().RestoreState(cycleZeroMemory_);
  }

  stats_ = stats::SimulationStatistics{};
  stats_.unitUsage.clear();
  for (const FunctionalUnit& fu : fus_) {
    stats_.unitUsage.push_back(stats::UnitUsage{fu.config.name, 0, 0});
  }
  for (const assembler::Instruction& inst : loaded_.program.instructions) {
    ++stats_.staticMix[static_cast<std::size_t>(inst.def->type)];
  }

  // A fast-forwarded timeline's cycle 0 is the post-skip state: the seed's
  // registers/PC on top of the (re-imaged) post-skip memory.
  if (ffSeed_.has_value()) ApplyFastForwardSeed(*ffSeed_);
}

void Simulation::ApplyFastForwardSeed(const FastForwardSeed& seed) {
  for (unsigned i = 0; i < 32; ++i) {
    arch_.Write(isa::RegisterId{isa::RegisterKind::kInt,
                                static_cast<std::uint8_t>(i)},
                seed.x[i]);
    arch_.Write(isa::RegisterId{isa::RegisterKind::kFp,
                                static_cast<std::uint8_t>(i)},
                seed.f[i]);
  }
  pc_ = seed.pc;
  stats_.fastForwardedInstructions = seed.instructions;
}

Status Simulation::FastForwardTo(std::uint64_t instructionCount) {
  if (cycle_ != 0 || status_ != SimStatus::kRunning) {
    return Status::Fail(ErrorKind::kInvalidArgument,
                        "fast-forward is only valid on a freshly created or "
                        "Reset simulation (cycle 0, running)");
  }
  if (ffSeed_.has_value()) {
    return Status::Fail(ErrorKind::kInvalidArgument,
                        "simulation was already fast-forwarded");
  }
  if (instructionCount == 0) return Status::Ok();

  obs::ScopedSpan span("sim", "fastForward");
  span.SetDetail(StrFormat(
      "requested=%llu", static_cast<unsigned long long>(instructionCount)));

  // The ISS executes directly on this simulation's memory (functional
  // stores land in place) and starts from the detailed model's reset
  // register state.
  ref::Interpreter iss(loaded_.program, memory_->memory(),
                       config_.trapOnDivZero);
  ref::Interpreter::ArchState start;
  for (unsigned i = 0; i < 32; ++i) {
    start.x[i] = ReadIntReg(i);
    start.f[i] = ReadFpReg(i);
  }
  start.pc = pc_;
  iss.RestoreArchState(start);

  const ref::ExitReason reason = iss.Run(instructionCount);

  // Hand the architectural state back to the detailed model.
  const ref::Interpreter::ArchState end = iss.SaveArchState();
  FastForwardSeed seed;
  seed.x = end.x;
  seed.f = end.f;
  seed.pc = end.pc;
  seed.instructions = iss.stats().executedInstructions;
  ffSeed_ = seed;
  ApplyFastForwardSeed(seed);
  span.SetDetail(StrFormat(
      "requested=%llu executed=%llu",
      static_cast<unsigned long long>(instructionCount),
      static_cast<unsigned long long>(seed.instructions)));

  log_.Add(cycle_, LogLevel::kInfo, "Sim",
           StrFormat("fast-forwarded %llu instructions on the ISS (%s)",
                     static_cast<unsigned long long>(seed.instructions),
                     ref::ToString(reason)));

  switch (reason) {
    case ref::ExitReason::kRunning:
      break;  // detailed execution resumes from here
    case ref::ExitReason::kMainReturned:
      Finish(FinishReason::kMainReturned);
      break;
    case ref::ExitReason::kHalted:
      Finish(FinishReason::kHalted);
      break;
    case ref::ExitReason::kRanOffCode:
      Finish(FinishReason::kPipelineEmpty);
      break;
    case ref::ExitReason::kFault:
      fault_ = iss.fault();
      Finish(FinishReason::kException);
      break;
  }

  // Rebase the cycle-0 restore points onto the post-fast-forward state:
  // the skipped prefix is not part of this timeline, so Reset/SeekTo must
  // never rebuild the pre-skip state.
  cycleZeroMemory_ = memory_->memory().SaveState();
  if (checkpoints_.enabled()) {
    checkpoints_.Clear();
    CaptureCheckpointNow();
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Explicit state: snapshots and the checkpoint ring
// ---------------------------------------------------------------------------

std::size_t SimSnapshot::SizeBytes() const {
  std::size_t bytes = sizeof(SimSnapshot);
  bytes += memory.memory.pages.capacity() * sizeof(memory.memory.pages[0]);
  if (memory.cache.has_value()) {
    bytes += memory.cache->lines.capacity() * sizeof(memory.cache->lines[0]);
  }
  bytes += rename.regs.capacity() * sizeof(SpecRegister);
  bytes += rename.freeList.capacity() * sizeof(int);
  bytes += predictor.pht.entries.capacity() *
           sizeof(predictor.pht.entries[0]);
  bytes += predictor.btb.entries.capacity() *
           sizeof(predictor.btb.entries[0]);
  bytes += predictor.localHistories.capacity() * sizeof(std::uint32_t);
  for (const stats::UnitUsage& usage : stats.unitUsage) {
    bytes += sizeof(usage) + usage.name.capacity();
  }
  for (const LogEntry& entry : log.entries) {
    bytes += sizeof(entry) + entry.block.capacity() + entry.text.capacity();
  }
  std::size_t slots = fetchQueue.size() + rob.size() + loadBuffer.size() +
                      storeBuffer.size() + fuCurrent.size();
  for (const auto& window : windows) slots += window.size();
  bytes += inFlight.capacity() * sizeof(inFlight[0]);
  bytes += slots * sizeof(Slot);
  bytes += fuBusyUntil.capacity() * sizeof(std::uint64_t);
  return bytes;
}

SimSnapshot Simulation::SaveState() const {
  SimSnapshot snapshot;
  snapshot.cycle = cycle_;
  snapshot.nextSeq = nextSeq_;
  snapshot.pc = pc_;
  snapshot.fetchResumeCycle = fetchResumeCycle_;
  snapshot.fetchStalledIndirect = fetchStalledIndirect_;
  snapshot.status = status_;
  snapshot.finishReason = finishReason_;
  snapshot.fault = fault_;

  snapshot.inFlight = inFlight_;
  snapshot.fetchQueue = fetchQueue_;
  snapshot.rob = rob_;
  snapshot.windows = windows_;
  snapshot.loadBuffer = loadBuffer_;
  snapshot.storeBuffer = storeBuffer_;
  snapshot.fuCurrent.reserve(fus_.size());
  snapshot.fuBusyUntil.reserve(fus_.size());
  for (const FunctionalUnit& fu : fus_) {
    snapshot.fuCurrent.push_back(fu.current);
    snapshot.fuBusyUntil.push_back(fu.busyUntil);
  }

  snapshot.arch = arch_.SaveState();
  snapshot.rename = rename_.SaveState();
  snapshot.predictor = predictor_.SaveState();
  snapshot.memory = memory_->SaveState();
  snapshot.stats = stats_.SaveState();
  snapshot.log = log_.SaveState();
  snapshot.ffSeed = ffSeed_;
  return snapshot;
}

void Simulation::RestoreState(const SimSnapshot& snapshot) {
  if (snapshot.ffSeed != ffSeed_) {
    // The snapshot belongs to a differently-seeded timeline (an imported
    // fast-forwarded session). Every restore point this process built so
    // far — the Create-time base checkpoint, the pre-import ring, the
    // initial memory image — describes the *pre*-fast-forward timeline and
    // must never be replayed from again; the snapshot itself becomes the
    // oldest reachable state.
    ffSeed_ = snapshot.ffSeed;
    checkpoints_.Clear();
    earliestReachableCycle_ = snapshot.ffSeed.has_value() ? snapshot.cycle : 0;
  }
  cycle_ = snapshot.cycle;
  nextSeq_ = snapshot.nextSeq;
  pc_ = snapshot.pc;
  fetchResumeCycle_ = snapshot.fetchResumeCycle;
  fetchStalledIndirect_ = snapshot.fetchStalledIndirect;
  status_ = snapshot.status;
  finishReason_ = snapshot.finishReason;
  fault_ = snapshot.fault;

  inFlight_ = snapshot.inFlight;
  freeSlots_.clear();
  for (Slot slot = 0; slot < inFlight_.size(); ++slot) {
    if (!inFlight_[slot].has_value()) freeSlots_.push_back(slot);
  }
  fetchQueue_ = snapshot.fetchQueue;
  rob_ = snapshot.rob;
  windows_ = snapshot.windows;
  loadBuffer_ = snapshot.loadBuffer;
  storeBuffer_ = snapshot.storeBuffer;
  for (std::size_t i = 0; i < fus_.size(); ++i) {
    fus_[i].current = snapshot.fuCurrent[i];
    fus_[i].busyUntil = snapshot.fuBusyUntil[i];
  }

  arch_.RestoreState(snapshot.arch);
  rename_.RestoreState(snapshot.rename);
  predictor_.RestoreState(snapshot.predictor);
  memory_->RestoreState(snapshot.memory);
  stats_.RestoreState(snapshot.stats);
  log_.RestoreState(snapshot.log);
}

void Simulation::CaptureCheckpointNow() {
  // Skip the copy when this cycle is already in the ring (Add would
  // discard the duplicate anyway).
  const CheckpointRing::Entry* existing = checkpoints_.FindAtOrBefore(cycle_);
  if (existing != nullptr && existing->cycle == cycle_) return;
  auto snapshot = std::make_shared<const SimSnapshot>(SaveState());
  const std::size_t ownBytes = snapshot->SizeBytes();
  checkpoints_.Add(cycle_, ownBytes, std::move(snapshot));
  if (obs::Enabled()) {
    static obs::Counter& captured =
        obs::Registry::Instance().GetCounter("sim.checkpoints");
    static obs::Gauge& ringBytes =
        obs::Registry::Instance().GetGauge("sim.checkpointRingBytes");
    captured.Increment();
    ringBytes.Set(static_cast<double>(checkpoints_.totalBytes()));
  }
}

void Simulation::MaybeCheckpoint() {
  if (checkpoints_.WantsCheckpoint(cycle_)) CaptureCheckpointNow();
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

WindowKind Simulation::WindowFor(isa::OpClass opClass) const {
  switch (opClass) {
    case isa::OpClass::kIntAlu:
    case isa::OpClass::kIntMul:
    case isa::OpClass::kIntDiv:
      return WindowKind::kFx;
    case isa::OpClass::kFpAdd:
    case isa::OpClass::kFpMul:
    case isa::OpClass::kFpDiv:
    case isa::OpClass::kFpFma:
    case isa::OpClass::kFpOther:
      return WindowKind::kFp;
    case isa::OpClass::kMemAddr:
      return WindowKind::kLs;
    case isa::OpClass::kBranch:
      return WindowKind::kBranch;
  }
  return WindowKind::kFx;
}

config::FunctionalUnitConfig::Kind Simulation::FuKindFor(
    WindowKind kind) const {
  switch (kind) {
    case WindowKind::kFx: return config::FunctionalUnitConfig::Kind::kFx;
    case WindowKind::kFp: return config::FunctionalUnitConfig::Kind::kFp;
    case WindowKind::kLs: return config::FunctionalUnitConfig::Kind::kLs;
    case WindowKind::kBranch:
      return config::FunctionalUnitConfig::Kind::kBranch;
  }
  return config::FunctionalUnitConfig::Kind::kFx;
}

Slot Simulation::AddInFlight() {
  if (freeSlots_.empty()) {
    inFlight_.emplace_back(std::in_place);
    return static_cast<Slot>(inFlight_.size() - 1);
  }
  const Slot slot = freeSlots_.back();
  freeSlots_.pop_back();
  inFlight_[slot].emplace();
  return slot;
}

void Simulation::ReleaseInFlight(Slot slot) {
  inFlight_[slot].reset();
  freeSlots_.push_back(slot);
}

bool Simulation::StoreDataReady(const InFlight& inst) const {
  // Store definitions put the data register (rs2) first.
  return inst.operands[0].ready;
}

std::uint64_t Simulation::StoreRawData(const InFlight& inst) const {
  const isa::ArgumentDescription& arg = inst.inst->def->args[0];
  const std::uint64_t cell = expr::ValueToCell(inst.operands[0].value, arg.type);
  if (inst.inst->def->mem.isFloat && inst.inst->def->mem.sizeBytes == 4) {
    return UnboxFloat(cell);
  }
  return cell;
}

std::span<const expr::Value> Simulation::GatherArgs(
    const InFlight& inst, std::array<expr::Value, 4>& scratch) const {
  for (std::size_t i = 0; i < inst.operandCount; ++i) {
    scratch[i] = inst.operands[i].value;
  }
  return {scratch.data(), inst.operandCount};
}

namespace {

/// Resolves one FastForm leaf exactly as the stack machine would push it.
inline expr::Value FastOperand(const expr::Expression::FastForm::Operand& op,
                               const InFlight& inst) {
  switch (op.src) {
    case expr::Expression::FastForm::Operand::Src::kArg:
      return inst.operands[op.arg].value;
    case expr::Expression::FastForm::Operand::Src::kLiteral:
      return expr::Value::Int(op.literal);
    case expr::Expression::FastForm::Operand::Src::kPc:
      return expr::Value::Int(static_cast<std::int32_t>(inst.pc));
  }
  return expr::Value();
}

}  // namespace

void Simulation::BuildPredecode() {
  predecoded_.clear();
  predecoded_.reserve(loaded_.program.instructions.size());
  for (const assembler::Instruction& inst : loaded_.program.instructions) {
    const isa::InstructionDescription& def = *inst.def;
    PredecodedOp op;
    op.def = &def;
    auto compiled = expressions_.Get(def);
    if (compiled.ok()) {
      op.expr = compiled.value();
      op.fast = compiled.value()->fastForm();
    } else {
      op.exprError = compiled.error();
    }
    op.window = WindowFor(def.opClass);
    op.operandCount = static_cast<std::uint8_t>(def.args.size());
    op.isControl = def.IsControlFlow();
    if (def.branch == isa::BranchKind::kConditional ||
        def.branch == isa::BranchKind::kUnconditionalDirect) {
      const int immIndex = def.ArgIndex("imm");
      if (immIndex >= 0) {
        op.branchImm = inst.operands[static_cast<std::size_t>(immIndex)].imm;
      }
    }
    for (std::size_t i = 0; i < def.args.size() && i < op.operands.size();
         ++i) {
      const isa::ArgumentDescription& arg = def.args[i];
      const assembler::Operand& operand = inst.operands[i];
      PredecodedOperand& slot = op.operands[i];
      slot.type = arg.type;
      const bool isX0 = operand.isRegister &&
                        operand.reg.kind == isa::RegisterKind::kInt &&
                        operand.reg.index == 0;
      if (arg.writeBack) {
        if (operand.isRegister && !isX0) {
          slot.kind = PredecodedOperand::Kind::kDest;
          slot.reg = operand.reg;
          ++op.destsNeeded;
        } else {
          slot.kind = PredecodedOperand::Kind::kDestX0;
        }
      } else if (!operand.isRegister) {
        slot.kind = PredecodedOperand::Kind::kImmediate;
        slot.fixed = expr::ImmediateToValue(operand.imm, arg.type);
      } else if (isX0) {
        slot.kind = PredecodedOperand::Kind::kZeroSource;
        slot.fixed = expr::CellToValue(0, arg.type);
      } else {
        slot.kind = PredecodedOperand::Kind::kRegSource;
        slot.reg = operand.reg;
      }
    }
    predecoded_.push_back(std::move(op));
  }
}

void Simulation::Finish(FinishReason reason) {
  finishReason_ = reason;
  status_ = reason == FinishReason::kException ? SimStatus::kFault
                                               : SimStatus::kFinished;
  log_.Add(cycle_, LogLevel::kInfo, "Sim",
           std::string("simulation finished: ") + ToString(reason));
}

// ---------------------------------------------------------------------------
// Wakeup / write-back
// ---------------------------------------------------------------------------

void Simulation::WakeUp(int tag, std::uint64_t cell) {
  // The rename register counts its waiting consumers; most writes have
  // none, and the scan can stop as soon as the last waiter is satisfied.
  SpecRegister& reg = rename_.reg(tag);
  if (reg.references == 0) return;
  auto wake = [&](Slot slot) {
    InFlight& inst = *inFlight_[slot];
    for (std::size_t i = 0; i < inst.operandCount; ++i) {
      OperandRuntime& operand = inst.operands[i];
      if (operand.isSource && !operand.ready && operand.waitTag == tag) {
        operand.value =
            expr::CellToValue(cell, inst.inst->def->args[i].type);
        operand.ready = true;
        operand.waitTag = -1;
        if (reg.references > 0) --reg.references;
      }
    }
  };
  for (const auto& window : windows_) {
    for (const Slot slot : window) {
      wake(slot);
      if (reg.references == 0) return;
    }
  }
  // Stores waiting for data have already left the LS window.
  for (const Slot slot : storeBuffer_) {
    wake(slot);
    if (reg.references == 0) return;
  }
}

void Simulation::WriteDestinations(InFlight& inst,
                                   const expr::EvalResult& result) {
  for (const expr::WriteEffect& write : result.writes) {
    WriteDest(inst, write.argIndex, write.value);
  }
}

void Simulation::WriteDest(InFlight& inst, int argIndex,
                           const expr::Value& value) {
  OperandRuntime& operand = inst.operands[static_cast<std::size_t>(argIndex)];
  operand.value = value;
  if (operand.destTag < 0) return;  // x0: discard
  const isa::ArgumentDescription& arg =
      inst.inst->def->args[static_cast<std::size_t>(argIndex)];
  SpecRegister& reg = rename_.reg(operand.destTag);
  reg.cell = expr::ValueToCell(value, arg.type);
  reg.valid = true;
  WakeUp(operand.destTag, reg.cell);
}

// ---------------------------------------------------------------------------
// Execution finalizers (complete stage)
// ---------------------------------------------------------------------------

void Simulation::FinalizeAlu(InFlight& inst) {
  const PredecodedOp& pre = Predecoded(inst);
  if (pre.expr == nullptr) {
    inst.exception = pre.exprError;
    inst.resultsReady = true;
    inst.phase = Phase::kDone;
    return;
  }
  using FastKind = expr::Expression::FastForm::Kind;
  if (pre.fast.kind == FastKind::kBinaryAssign) {
    // `a OP b -> rd` recognized at compile time: apply the operator and the
    // `=` conversion directly, skipping the stack machine.
    expr::EvalFlags flags;
    const expr::Value value =
        expr::Expression::ApplyBinary(pre.fast.op,
                                      FastOperand(pre.fast.a, inst),
                                      FastOperand(pre.fast.b, inst), flags)
            .ConvertTo(pre.fast.dstKind);
    if (config_.trapOnDivZero && flags.divByZero) {
      inst.exception = Error{
          ErrorKind::kRuntime,
          StrFormat("division by zero at pc 0x%08x", inst.pc)};
    }
    WriteDest(inst, pre.fast.dstArg, value);
  } else {
    std::array<expr::Value, 4> argScratch;
    pre.expr->EvaluateInto(GatherArgs(inst, argScratch), inst.pc,
                           evalScratch_);
    const expr::EvalResult& result = evalScratch_;
    if (config_.trapOnDivZero && result.flags.divByZero) {
      inst.exception = Error{
          ErrorKind::kRuntime,
          StrFormat("division by zero at pc 0x%08x", inst.pc)};
    }
    WriteDestinations(inst, result);
  }
  inst.resultsReady = true;
  inst.executeDoneCycle = cycle_;
  inst.phase = Phase::kDone;
  ++stats_.executedInstructions;
}

void Simulation::FinalizeAddressGen(InFlight& inst) {
  const PredecodedOp& pre = Predecoded(inst);
  if (pre.expr == nullptr) {
    inst.exception = pre.exprError;
    inst.resultsReady = true;
    inst.phase = Phase::kDone;
    return;
  }
  using FastKind = expr::Expression::FastForm::Kind;
  if (pre.fast.kind == FastKind::kBinaryValue) {
    // `\rs1 \imm +` — every RV32 load/store address: add directly.
    expr::EvalFlags flags;
    inst.effectiveAddress =
        expr::Expression::ApplyBinary(pre.fast.op,
                                      FastOperand(pre.fast.a, inst),
                                      FastOperand(pre.fast.b, inst), flags)
            .ConvertTo(expr::ValueKind::kUInt)
            .AsUInt32();
  } else {
    std::array<expr::Value, 4> argScratch;
    pre.expr->EvaluateInto(GatherArgs(inst, argScratch), inst.pc,
                           evalScratch_);
    inst.effectiveAddress =
        evalScratch_.stackTop->ConvertTo(expr::ValueKind::kUInt).AsUInt32();
  }
  inst.addressReady = true;
  inst.executeDoneCycle = cycle_;
  ++stats_.executedInstructions;

  const std::uint32_t size = inst.inst->def->mem.sizeBytes;
  if (!memory_->memory().InBounds(inst.effectiveAddress, size)) {
    inst.exception = Error{
        ErrorKind::kRuntime,
        StrFormat("memory access out of bounds: 0x%08x (size %u) at pc 0x%08x",
                  inst.effectiveAddress, size, inst.pc)};
    inst.resultsReady = true;
    inst.memoryDone = true;
    inst.phase = Phase::kDone;
    // Unblock speculative consumers; the exception stops commit anyway.
    if (inst.IsLoad()) {
      for (std::size_t i = 0; i < inst.operandCount; ++i) {
        OperandRuntime& operand = inst.operands[i];
        if (operand.isDest && operand.destTag >= 0) {
          SpecRegister& reg = rename_.reg(operand.destTag);
          reg.cell = 0;
          reg.valid = true;
          WakeUp(operand.destTag, 0);
        }
      }
    }
    return;
  }

  if (inst.IsStore()) {
    // A store's "execution" is its address generation; data may still be
    // pending, which commit waits for.
    inst.resultsReady = true;
    inst.phase = Phase::kDone;
  }
}

bool Simulation::ResolveBranch(InFlight& inst) {
  const PredecodedOp& pre = Predecoded(inst);
  if (pre.expr == nullptr) {
    inst.exception = pre.exprError;
    inst.resultsReady = true;
    inst.phase = Phase::kDone;
    return false;
  }
  const isa::InstructionDescription& def = *pre.def;
  using FastKind = expr::Expression::FastForm::Kind;
  std::uint32_t actualNext = inst.pc + 4;
  if (def.branch == isa::BranchKind::kConditional &&
      pre.fast.kind == FastKind::kBinaryValue) {
    // `\rs1 \rs2 CMP` — every conditional branch: compare directly. The
    // 3-token form has no `=`, so there are no write effects to apply.
    expr::EvalFlags flags;
    inst.branchTaken =
        expr::Expression::ApplyBinary(pre.fast.op,
                                      FastOperand(pre.fast.a, inst),
                                      FastOperand(pre.fast.b, inst), flags)
            .AsBool();
    inst.branchTarget = inst.pc + static_cast<std::uint32_t>(pre.branchImm);
    if (inst.branchTaken) actualNext = inst.branchTarget;
    ++stats_.branchesResolved;
    if (inst.branchTaken) ++stats_.branchesTaken;
  } else {
    std::array<expr::Value, 4> argScratch;
    pre.expr->EvaluateInto(GatherArgs(inst, argScratch), inst.pc,
                           evalScratch_);
    const expr::EvalResult& result = evalScratch_;
    if (def.branch == isa::BranchKind::kConditional) {
      inst.branchTaken = result.stackTop->AsBool();
      inst.branchTarget =
          inst.pc + static_cast<std::uint32_t>(pre.branchImm);
      if (inst.branchTaken) actualNext = inst.branchTarget;
      ++stats_.branchesResolved;
      if (inst.branchTaken) ++stats_.branchesTaken;
    } else {
      // jal / jalr: the expression leaves the absolute target on the stack
      // and link-register writes ride along as write effects.
      inst.branchTaken = true;
      inst.branchTarget =
          result.stackTop->ConvertTo(expr::ValueKind::kUInt).AsUInt32();
      actualNext = inst.branchTarget;
      if (inst.branchTarget == isa::kExitAddress) {
        inst.isExit = true;
      } else if (inst.branchTarget % 4 != 0 ||
                 inst.branchTarget / 4 >
                     loaded_.program.instructions.size()) {
        inst.exception =
            Error{ErrorKind::kRuntime,
                  StrFormat("jump to invalid address 0x%08x at pc 0x%08x",
                            inst.branchTarget, inst.pc)};
      }
    }
    WriteDestinations(inst, result);
  }
  inst.resultsReady = true;
  inst.executeDoneCycle = cycle_;
  inst.phase = Phase::kDone;
  ++stats_.executedInstructions;

  // Train the predictor.
  if (def.branch == isa::BranchKind::kConditional) {
    const bool mispredicted = inst.predictedNextPc != actualNext;
    inst.mispredicted = mispredicted;
    predictor_.Resolve(inst.pc, inst.branchTaken, inst.branchTarget,
                       mispredicted, inst.historyCheckpoint);
    if (mispredicted) ++stats_.branchesMispredicted;
    return mispredicted;
  }
  if (!inst.isExit && !inst.exception.has_value()) {
    predictor_.TrainIndirect(inst.pc, inst.branchTarget);
  }
  ++stats_.branchesResolved;
  if (inst.stalledFetch) {
    // Fetch was parked on this BTB-missing jalr: redirect without a
    // flush (nothing younger was fetched).
    return true;
  }
  if (inst.predictedNextPc != actualNext) {
    inst.mispredicted = true;
    ++stats_.branchesMispredicted;
    return true;
  }
  return false;
}

void Simulation::CompleteLoad(InFlight& inst) {
  const isa::MemAccess& mem = inst.inst->def->mem;
  std::uint64_t raw;
  if (inst.forwarded) {
    // Forwarded store data is a full register cell; narrow it to the
    // access width exactly as the memory write would have.
    raw = inst.forwardedRaw;
    if (mem.sizeBytes < 8) {
      raw &= (std::uint64_t{1} << (8 * mem.sizeBytes)) - 1;
    }
  } else {
    raw = memory_->memory().ReadBytes(inst.effectiveAddress, mem.sizeBytes);
  }

  std::uint64_t cell;
  if (mem.isFloat) {
    cell = mem.sizeBytes == 4 ? NanBoxFloat(static_cast<std::uint32_t>(raw))
                              : raw;
  } else if (mem.isSigned) {
    cell = static_cast<std::uint64_t>(SignExtend(raw, mem.sizeBytes * 8));
  } else {
    cell = raw;
  }

  OperandRuntime& dest = inst.operands[0];
  if (dest.destTag >= 0) {
    SpecRegister& reg = rename_.reg(dest.destTag);
    reg.cell = cell;
    reg.valid = true;
    WakeUp(dest.destTag, cell);
  }
  inst.memoryDone = true;
  inst.resultsReady = true;
  inst.phase = Phase::kDone;
}

// ---------------------------------------------------------------------------
// Flush
// ---------------------------------------------------------------------------

void Simulation::FlushYoungerThan(std::uint64_t seq, std::uint32_t newPc) {
  ++stats_.robFlushes;
  const auto younger = [&](Slot slot) { return inFlight_[slot]->seq > seq; };

  // LS buffers: everything younger goes.
  std::size_t squashedCount = std::erase_if(loadBuffer_, younger) +
                              std::erase_if(storeBuffer_, younger);

  // Issue windows. Waiting-consumer reference counts are NOT released
  // here: every window entry also sits in the ROB, and the youngest-first
  // ROB walk below is the single place that undoes them — decrementing in
  // both passes would strand a live waiter once WakeUp trusts the count.
  for (auto& window : windows_) std::erase_if(window, younger);

  // Functional units: abort younger in-flight work.
  for (FunctionalUnit& fu : fus_) {
    if (fu.current != kNoSlot && younger(fu.current)) {
      fu.current = kNoSlot;
      fu.busyUntil = 0;
    }
  }

  // Fetch queue, then ROB, youngest first, undoing renames (a fetched
  // instruction has no operands yet). Every squashed instruction sits in
  // exactly one of the two, so this is where it is released.
  for (std::deque<Slot>* queue : {&fetchQueue_, &rob_}) {
    while (!queue->empty() && younger(queue->back())) {
      const Slot slot = queue->back();
      queue->pop_back();
      const InFlight& inst = *inFlight_[slot];
      for (std::size_t i = inst.operandCount; i-- > 0;) {
        const OperandRuntime& operand = inst.operands[i];
        if (operand.isDest && operand.destTag >= 0) {
          rename_.SquashAndFree(operand.destTag, operand.prevTag);
        }
        if (operand.isSource && !operand.ready && operand.waitTag >= 0) {
          // Source still waiting: the producer may itself be squashed; the
          // reference bookkeeping is cleared either way.
          SpecRegister& reg = rename_.reg(operand.waitTag);
          if (reg.references > 0) --reg.references;
        }
      }
      ReleaseInFlight(slot);
      ++squashedCount;
    }
  }

  stats_.squashedInstructions += squashedCount;
  pc_ = newPc;
  fetchResumeCycle_ = cycle_ + config_.buffers.flushPenalty;
  fetchStalledIndirect_ = false;
  log_.Add(cycle_, LogLevel::kDebug, "ROB",
           StrFormat("flush: %zu squashed, refetch from 0x%08x", squashedCount,
                     newPc));
}

// ---------------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------------

void Simulation::StageCommit() {
  for (std::uint32_t i = 0; i < config_.buffers.commitWidth; ++i) {
    if (rob_.empty()) return;
    // The ROB head is only popped once commit is certain (every early
    // return below must leave the ROB untouched).
    const Slot slot = rob_.front();
    InFlight& inst = *inFlight_[slot];
    if (!inst.resultsReady) return;

    if (inst.exception.has_value()) {
      fault_ = inst.exception;
      log_.Add(cycle_, LogLevel::kError, "Commit",
               "exception: " + inst.exception->message);
      Finish(FinishReason::kException);
      return;
    }

    if (inst.IsStore()) {
      if (!StoreDataReady(inst)) return;
      // Functional write happens at commit, in program order; the cache /
      // memory timing drains through the memory unit afterwards.
      memory_->memory().WriteBytes(inst.effectiveAddress,
                                   inst.inst->def->mem.sizeBytes,
                                   StoreRawData(inst));
      inst.drainPending = true;
    }

    for (std::size_t i = 0; i < inst.operandCount; ++i) {
      OperandRuntime& operand = inst.operands[i];
      if (operand.isDest && operand.destTag >= 0) {
        const int tag = operand.destTag;
        rename_.CommitAndFree(tag, arch_);
        // The freed tag may be recycled immediately. Any younger in-flight
        // instruction whose rename-undo checkpoint (prevTag) references it
        // must now restore to "architectural" instead — the committed value
        // lives in the architectural file from this point on. At most one
        // such instruction exists (the tag mapped one architectural
        // register, and only that register's next writer recorded it), so
        // the scan stops at the first hit instead of walking the whole ROB.
        [&] {
          for (const Slot younger : rob_) {
            InFlight& next = *inFlight_[younger];
            for (std::size_t j = 0; j < next.operandCount; ++j) {
              OperandRuntime& other = next.operands[j];
              if (other.isDest && other.prevTag == tag) {
                other.prevTag = kPrevWasArchitectural;
                return;
              }
            }
          }
        }();
      }
    }

    inst.phase = Phase::kCommitted;
    inst.commitCycle = cycle_;
    if (commitTraceSink_ != nullptr) commitTraceSink_->push_back(inst.pc);
    ++stats_.committedInstructions;
    ++stats_.dynamicMix[static_cast<std::size_t>(inst.inst->def->type)];
    stats_.flops += inst.inst->def->flops;

    rob_.pop_front();
    if (inst.IsLoad()) {
      // Loads leave their buffer at commit.
      auto it = std::find(loadBuffer_.begin(), loadBuffer_.end(), slot);
      if (it != loadBuffer_.end()) loadBuffer_.erase(it);
    }
    const bool exits = inst.isExit;
    const bool halts = inst.inst->def->isHalt;
    // A store stays in its buffer until its drain completes.
    if (!inst.IsStore()) ReleaseInFlight(slot);

    if (exits) {
      Finish(FinishReason::kMainReturned);
      return;
    }
    if (halts) {
      Finish(FinishReason::kHalted);
      return;
    }
  }
}

void Simulation::StageComplete() {
  // Sub-step 1 of the paper's functional-unit cycle: everything whose
  // latency elapsed publishes its result; the unit is free for re-issue
  // later this same cycle.
  Slot redirect = kNoSlot;  // the oldest branch that redirects fetch
  for (FunctionalUnit& fu : fus_) {
    if (fu.current == kNoSlot || cycle_ < fu.busyUntil) continue;
    const Slot slot = std::exchange(fu.current, kNoSlot);
    InFlight& inst = *inFlight_[slot];

    switch (fu.config.kind) {
      case config::FunctionalUnitConfig::Kind::kFx:
      case config::FunctionalUnitConfig::Kind::kFp:
        FinalizeAlu(inst);
        break;
      case config::FunctionalUnitConfig::Kind::kLs:
        FinalizeAddressGen(inst);
        break;
      case config::FunctionalUnitConfig::Kind::kBranch:
        if (ResolveBranch(inst) &&
            (redirect == kNoSlot || inst.seq < inFlight_[redirect]->seq)) {
          redirect = slot;
        }
        break;
      case config::FunctionalUnitConfig::Kind::kMemory:
        if (inst.IsLoad()) {
          CompleteLoad(inst);
        } else {
          // Store drain finished: release the buffer slot and the store.
          auto it = std::find(storeBuffer_.begin(), storeBuffer_.end(), slot);
          if (it != storeBuffer_.end()) storeBuffer_.erase(it);
          ReleaseInFlight(slot);
        }
        break;
    }
  }

  // Apply at most one redirect: the oldest one wins (it squashes the rest).
  if (redirect != kNoSlot) {
    const InFlight& oldest = *inFlight_[redirect];
    const std::uint32_t target =
        oldest.branchTaken ? oldest.branchTarget : oldest.pc + 4;
    if (oldest.stalledFetch && !oldest.mispredicted) {
      // BTB-miss jalr: fetch was parked, nothing to squash.
      pc_ = target;
      fetchStalledIndirect_ = false;
    } else {
      FlushYoungerThan(oldest.seq, target);
    }
  }
}

void Simulation::StageMemory() {
  for (FunctionalUnit& fu : fus_) {
    if (fu.config.kind != config::FunctionalUnitConfig::Kind::kMemory ||
        fu.current != kNoSlot) {
      continue;
    }

    // Gather the oldest eligible job: a committed store waiting to drain
    // or a load whose dependences allow it to run.
    Slot job = kNoSlot;

    for (const Slot store : storeBuffer_) {
      if (inFlight_[store]->drainPending && !inFlight_[store]->drainStarted) {
        job = store;
        break;
      }
    }

    for (const Slot loadSlot : loadBuffer_) {
      InFlight& load = *inFlight_[loadSlot];
      if (!load.addressReady || load.memoryStarted ||
          load.exception.has_value()) {
        continue;
      }
      // Dependence check against older, not-yet-committed stores.
      bool blocked = false;
      const InFlight* forwardFrom = nullptr;
      for (const Slot storeSlot : storeBuffer_) {
        const InFlight& store = *inFlight_[storeSlot];
        if (store.seq > load.seq) break;
        if (store.phase == Phase::kCommitted) continue;  // memory is current
        if (!store.addressReady) {
          blocked = true;  // unknown address: conservative stall
          break;
        }
        const std::uint32_t loadSize = load.inst->def->mem.sizeBytes;
        const std::uint32_t storeSize = store.inst->def->mem.sizeBytes;
        const bool overlap =
            store.effectiveAddress < load.effectiveAddress + loadSize &&
            load.effectiveAddress < store.effectiveAddress + storeSize;
        if (!overlap) continue;
        if (store.effectiveAddress == load.effectiveAddress &&
            storeSize == loadSize && StoreDataReady(store)) {
          forwardFrom = &store;  // youngest exact match wins (keep scanning)
        } else {
          blocked = true;
          break;
        }
      }
      if (blocked) continue;

      if (forwardFrom != nullptr) {
        load.forwarded = true;
        load.forwardedRaw = StoreRawData(*forwardFrom);
      }
      if (job == kNoSlot || load.seq < inFlight_[job]->seq) job = loadSlot;
      break;  // loads scanned oldest-first; the first eligible is oldest
    }

    if (job == kNoSlot) return;
    InFlight& inst = *inFlight_[job];

    if (inst.IsLoad()) {
      inst.memoryStarted = true;
      if (inst.forwarded) {
        // Store-to-load forwarding bypasses the cache entirely.
        fu.busyUntil = cycle_ + fu.config.latency;
        inst.cacheHit = true;
      } else {
        memory::MemoryTransaction txn = memory_->Register(
            inst.effectiveAddress, inst.inst->def->mem.sizeBytes,
            /*isStore=*/false, cycle_);
        inst.cacheHit = txn.cacheHit;
        fu.busyUntil = std::max(txn.completesAtCycle,
                                cycle_ + static_cast<std::uint64_t>(
                                             fu.config.latency));
      }
    } else {
      inst.drainStarted = true;
      memory::MemoryTransaction txn = memory_->Register(
          inst.effectiveAddress, inst.inst->def->mem.sizeBytes,
          /*isStore=*/true, cycle_);
      inst.cacheHit = txn.cacheHit;
      fu.busyUntil = std::max(
          txn.completesAtCycle,
          cycle_ + static_cast<std::uint64_t>(fu.config.latency));
    }
    fu.current = job;
    ++stats_.unitUsage[fu.statsIndex].instructions;
  }
}

void Simulation::StageIssue() {
  for (std::size_t windowIndex = 0; windowIndex < windows_.size();
       ++windowIndex) {
    auto& window = windows_[windowIndex];
    if (window.empty()) continue;
    const auto fuKind = FuKindFor(static_cast<WindowKind>(windowIndex));
    const std::vector<std::uint32_t>& kindFus = fusByWindow_[windowIndex];

    // Count the free units of this kind up front: when they run out, no
    // further instruction in this window can issue this cycle, so the
    // readiness scan stops instead of walking every waiting entry.
    int freeUnits = 0;
    for (const std::uint32_t fuIndex : kindFus) {
      if (fus_[fuIndex].current == kNoSlot) ++freeUnits;
    }
    if (freeUnits == 0) continue;

    std::size_t issued = 0;
    for (const Slot slot : window) {
      if (freeUnits == 0) break;
      InFlight& inst = *inFlight_[slot];
      // Readiness: all source operands captured. Stores only need their
      // address inputs here; the data operand (index 0) may arrive later.
      bool ready = true;
      const bool isStore = inst.IsStore();
      for (std::size_t i = 0; i < inst.operandCount; ++i) {
        if (isStore && i == 0) continue;
        if (inst.operands[i].isSource && !inst.operands[i].ready) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;

      // Find a free functional unit able to execute this op class.
      FunctionalUnit* chosen = nullptr;
      std::uint32_t latency = 0;
      for (const std::uint32_t fuIndex : kindFus) {
        FunctionalUnit& fu = fus_[fuIndex];
        if (fu.current != kNoSlot) continue;
        if (fuKind == config::FunctionalUnitConfig::Kind::kFx ||
            fuKind == config::FunctionalUnitConfig::Kind::kFp) {
          const std::uint32_t opLatency =
              fu.latencyByClass[static_cast<std::size_t>(
                  inst.inst->def->opClass)];
          if (opLatency == 0) continue;  // unit does not support the op
          chosen = &fu;
          latency = opLatency;
        } else {
          chosen = &fu;
          latency = fu.config.latency;
        }
        break;
      }
      if (chosen == nullptr) continue;

      chosen->current = slot;
      chosen->busyUntil = cycle_ + latency;
      inst.phase = Phase::kExecuting;
      inst.issueCycle = cycle_;
      ++stats_.issuedInstructions;
      ++stats_.unitUsage[chosen->statsIndex].instructions;
      --freeUnits;
      ++issued;
    }
    if (issued > 0) {
      // One compaction pass instead of an O(n) vector erase per issue.
      std::erase_if(window, [&](Slot slot) {
        return inFlight_[slot]->phase == Phase::kExecuting;
      });
    }
  }
}

void Simulation::StageDecode() {
  for (std::uint32_t i = 0; i < config_.buffers.fetchWidth; ++i) {
    if (fetchQueue_.empty()) return;
    // The queue head moves into the ROB at dispatch (every early return
    // below must leave the queue untouched).
    const Slot slot = fetchQueue_.front();
    InFlight& inst = *inFlight_[slot];
    const PredecodedOp& pre = Predecoded(inst);
    const isa::InstructionDescription& def = *pre.def;

    // ---- resource checks (all-or-nothing, then mutate) ----
    if (rob_.size() >= config_.buffers.robSize) {
      ++stats_.stallCyclesRobFull;
      return;
    }
    auto& window = windows_[static_cast<std::size_t>(pre.window)];
    if (window.size() >= config_.buffers.issueWindowSize) {
      ++stats_.stallCyclesWindowFull;
      return;
    }
    if (def.mem.isLoad && loadBuffer_.size() >= config_.memory.loadBufferSize) {
      ++stats_.stallCyclesLsBufferFull;
      return;
    }
    if (def.mem.isStore &&
        storeBuffer_.size() >= config_.memory.storeBufferSize) {
      ++stats_.stallCyclesLsBufferFull;
      return;
    }
    if (rename_.FreeCount() < pre.destsNeeded) {
      ++stats_.stallCyclesRenameFull;
      return;
    }

    // ---- rename ----
    inst.operandCount = pre.operandCount;
    // Sources first: an instruction reading and writing the same register
    // must see the *previous* mapping for its source.
    for (std::size_t i = 0; i < pre.operandCount; ++i) {
      const PredecodedOperand& arg = pre.operands[i];
      OperandRuntime& runtime = inst.operands[i];
      runtime = OperandRuntime{};
      switch (arg.kind) {
        case PredecodedOperand::Kind::kDest:
        case PredecodedOperand::Kind::kDestX0:
          runtime.isDest = true;
          break;  // allocated below
        case PredecodedOperand::Kind::kImmediate:
          runtime.value = arg.fixed;
          break;
        case PredecodedOperand::Kind::kZeroSource:
          runtime.isSource = true;
          runtime.value = arg.fixed;
          break;
        case PredecodedOperand::Kind::kRegSource: {
          runtime.isSource = true;
          if (auto tag = rename_.Lookup(arg.reg); tag.has_value()) {
            SpecRegister& reg = rename_.reg(*tag);
            if (reg.valid) {
              runtime.value = expr::CellToValue(reg.cell, arg.type);
            } else {
              runtime.ready = false;
              runtime.waitTag = *tag;
              ++reg.references;
            }
          } else {
            runtime.value = expr::CellToValue(arch_.Read(arg.reg), arg.type);
          }
          break;
        }
      }
    }
    // Destinations. kDestX0 keeps the default destTag = -1 (discarded).
    for (std::size_t i = 0; i < pre.operandCount; ++i) {
      if (pre.operands[i].kind != PredecodedOperand::Kind::kDest) continue;
      auto allocation = rename_.AllocateAndMap(pre.operands[i].reg);
      // FreeCount was checked above; allocation cannot fail here.
      inst.operands[i].destTag = allocation->first;
      inst.operands[i].prevTag = allocation->second;
    }

    // ---- dispatch ----
    inst.phase = Phase::kDecoded;
    inst.decodeCycle = cycle_;
    window.push_back(slot);
    if (def.mem.isLoad) loadBuffer_.push_back(slot);
    if (def.mem.isStore) storeBuffer_.push_back(slot);
    ++stats_.decodedInstructions;
    rob_.push_back(slot);
    fetchQueue_.pop_front();
  }
}

void Simulation::StageFetch() {
  if (fetchStalledIndirect_ || cycle_ < fetchResumeCycle_) return;
  // Keep the fetch queue bounded to one extra fetch group.
  if (fetchQueue_.size() >= config_.buffers.fetchWidth) return;

  std::uint32_t jumpsFollowed = 0;
  for (std::uint32_t i = 0; i < config_.buffers.fetchWidth; ++i) {
    if (pc_ % 4 != 0) return;  // wild redirect target: fetch nothing
    const std::uint32_t index = pc_ / 4;
    if (index >= loaded_.program.instructions.size()) return;

    const assembler::Instruction& decoded = loaded_.program.instructions[index];
    const PredecodedOp& pre = predecoded_[index];
    const Slot slot = AddInFlight();
    InFlight& inst = *inFlight_[slot];
    inst.seq = nextSeq_++;
    inst.inst = &decoded;
    inst.pc = pc_;
    inst.phase = Phase::kFetched;
    inst.fetchCycle = cycle_;
    inst.isControl = pre.isControl;

    std::uint32_t nextPc = pc_ + 4;
    bool stopAfter = false;

    switch (pre.def->branch) {
      case isa::BranchKind::kNone:
        break;
      case isa::BranchKind::kConditional: {
        predictor::PredictorUnit::Prediction prediction =
            predictor_.Predict(pc_);
        ++stats_.btbLookups;
        if (prediction.target.has_value()) ++stats_.btbHits;
        inst.predictedTaken = prediction.predictTaken;
        inst.historyCheckpoint = prediction.historyCheckpoint;
        inst.btbHit = prediction.target.has_value();
        predictor_.SpeculateOutcome(pc_, prediction.predictTaken);
        if (prediction.predictTaken) {
          nextPc = pc_ + static_cast<std::uint32_t>(pre.branchImm);
          if (++jumpsFollowed >= config_.buffers.fetchBranchFollowLimit) {
            stopAfter = true;
          }
        }
        break;
      }
      case isa::BranchKind::kUnconditionalDirect: {
        // jal: the fetch unit decodes the target directly.
        inst.predictedTaken = true;
        nextPc = pc_ + static_cast<std::uint32_t>(pre.branchImm);
        if (++jumpsFollowed >= config_.buffers.fetchBranchFollowLimit) {
          stopAfter = true;
        }
        break;
      }
      case isa::BranchKind::kUnconditionalIndirect: {
        predictor::PredictorUnit::Prediction prediction =
            predictor_.Predict(pc_);
        ++stats_.btbLookups;
        if (prediction.target.has_value()) {
          ++stats_.btbHits;
          inst.predictedTaken = true;
          inst.btbHit = true;
          nextPc = *prediction.target;
          if (++jumpsFollowed >= config_.buffers.fetchBranchFollowLimit) {
            stopAfter = true;
          }
        } else {
          // Unknown target: park fetch until the jalr resolves.
          inst.stalledFetch = true;
          fetchStalledIndirect_ = true;
          stopAfter = true;
          nextPc = pc_;  // placeholder; resolution redirects
        }
        break;
      }
    }

    inst.predictedNextPc = nextPc;
    fetchQueue_.push_back(slot);
    ++stats_.fetchedInstructions;
    pc_ = nextPc;
    if (stopAfter) return;
  }
}

// ---------------------------------------------------------------------------
// Step / Run / StepBack
// ---------------------------------------------------------------------------

void Simulation::Step() {
  if (status_ != SimStatus::kRunning) return;
  ++cycle_;
  ++stats_.cycles;

  StageCommit();
  if (status_ != SimStatus::kRunning) {
    MaybeCheckpoint();
    return;
  }
  StageComplete();
  StageMemory();
  StageIssue();
  StageDecode();
  StageFetch();

  // Busy-cycle accounting: a unit occupied at end-of-cycle was busy.
  for (const FunctionalUnit& fu : fus_) {
    if (fu.current != kNoSlot) ++stats_.unitUsage[fu.statsIndex].busyCycles;
  }

  // Termination: the pipeline drained with nothing left to fetch.
  if (rob_.empty() && fetchQueue_.empty() && !fetchStalledIndirect_ &&
      (pc_ % 4 != 0 || pc_ / 4 >= loaded_.program.instructions.size())) {
    Finish(FinishReason::kPipelineEmpty);
  }

  MaybeCheckpoint();
}

SimStatus Simulation::Run(std::uint64_t maxCycles) {
  // Metrics are batched at Run() granularity: one clock read and a couple
  // of relaxed adds per slice, never per Step() — the predecoded inner
  // loop stays untouched.
  const std::uint64_t startCycle = cycle_;
  const std::uint64_t startCommitted = statistics().committedInstructions;
  const std::uint64_t startNs = obs::MonotonicNowNs();
  for (std::uint64_t i = 0; i < maxCycles && status_ == SimStatus::kRunning;
       ++i) {
    Step();
  }
  if (obs::Enabled()) {
    static obs::Counter& cycles =
        obs::Registry::Instance().GetCounter("sim.cycles");
    static obs::Counter& committed =
        obs::Registry::Instance().GetCounter("sim.committedInstructions");
    cycles.Add(cycle_ - startCycle);
    committed.Add(statistics().committedInstructions - startCommitted);
    const std::uint64_t elapsedNs = obs::MonotonicNowNs() - startNs;
    // The throughput gauge only trusts slices long enough to average out
    // scheduler noise; short interactive slices would thrash it.
    if (elapsedNs >= 10'000'000 && cycle_ > startCycle) {
      static obs::Gauge& cyclesPerS =
          obs::Registry::Instance().GetGauge("sim.cyclesPerS");
      cyclesPerS.Set(static_cast<double>(cycle_ - startCycle) * 1e9 /
                     static_cast<double>(elapsedNs));
    }
  }
  return status_;
}

Status Simulation::StepBack(std::uint64_t maxReplayCycles) {
  if (cycle_ == 0) {
    return Status::Fail(ErrorKind::kInvalidArgument,
                        "already at cycle 0; cannot step back");
  }
  return SeekTo(cycle_ - 1, maxReplayCycles);
}

std::uint64_t Simulation::SeekReplayCost(std::uint64_t targetCycle) const {
  if (targetCycle == cycle_) return 0;
  // Mirror SeekTo's choice of replay start exactly — this function is
  // the planning half of the same decision.
  const CheckpointRing::Entry* from = checkpoints_.FindAtOrBefore(targetCycle);
  const bool restore =
      targetCycle < cycle_ || (from != nullptr && from->cycle > cycle_);
  const std::uint64_t replayFrom =
      restore ? (from != nullptr ? from->cycle : 0) : cycle_;
  return targetCycle - replayFrom;
}

Status Simulation::SeekTo(std::uint64_t targetCycle,
                          std::uint64_t maxReplayCycles) {
  if (targetCycle == cycle_) {
    lastSeekReplayedCycles_ = 0;
    return Status::Ok();
  }
  if (targetCycle < earliestReachableCycle_) {
    return Status::Fail(
        ErrorKind::kInvalidArgument,
        StrFormat("cycle %llu predates this session's detailed window "
                  "(earliest reachable cycle is %llu)",
                  static_cast<unsigned long long>(targetCycle),
                  static_cast<unsigned long long>(earliestReachableCycle_)));
  }

  // Pick the replay start: for backward seeks the best checkpoint at or
  // before the target (or a hard reset when checkpointing is disabled);
  // for forward seeks a checkpoint is only worth restoring when it skips
  // ahead of the current position — checkpoints from a previous forward
  // pass stay valid after seeking backward because the simulation is
  // deterministic.
  const CheckpointRing::Entry* from = checkpoints_.FindAtOrBefore(targetCycle);
  const bool restore =
      targetCycle < cycle_ || (from != nullptr && from->cycle > cycle_);
  const std::uint64_t replayFrom =
      restore ? (from != nullptr ? from->cycle : 0) : cycle_;
  if (targetCycle - replayFrom > maxReplayCycles) {
    return Status::Fail(
        ErrorKind::kInvalidArgument,
        StrFormat("seek to cycle %llu requires replaying %llu cycles "
                  "(limit %llu)",
                  static_cast<unsigned long long>(targetCycle),
                  static_cast<unsigned long long>(targetCycle - replayFrom),
                  static_cast<unsigned long long>(maxReplayCycles)));
  }

  if (restore) {
    if (from != nullptr) {
      RestoreState(*from->snapshot);
    } else if (earliestReachableCycle_ > 0) {
      // ResetHard would rebuild the pre-import timeline; without the
      // import anchor (evicted from the ring) the target is unreachable.
      return Status::Fail(
          ErrorKind::kInvalidArgument,
          "no checkpoint covers the target cycle and the session's origin "
          "predates this process (fast-forwarded import)");
    } else {
      ResetHard();
    }
  }
  std::uint64_t replayed = 0;
  while (cycle_ < targetCycle && status_ == SimStatus::kRunning) {
    Step();
    ++replayed;
  }
  lastSeekReplayedCycles_ = replayed;
  return Status::Ok();
}

}  // namespace rvss::core
