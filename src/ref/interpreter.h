// Golden-model instruction-set simulator.
//
// A deliberately simple in-order, one-instruction-at-a-time interpreter
// over the *same* instruction definitions and expression semantics as the
// out-of-order core. It serves three purposes:
//   1. differential oracle — the OoO core must produce the identical
//      architectural state on every program and configuration,
//   2. fast batch execution for the compiler's own tests,
//   3. a reference for the per-instruction semantics test suite.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "assembler/loader.h"
#include "assembler/program.h"
#include "common/status.h"
#include "expr/expression_cache.h"
#include "expr/reg_value.h"
#include "isa/abi.h"
#include "memory/main_memory.h"

namespace rvss::ref {

enum class ExitReason : std::uint8_t {
  kRunning,       ///< budget exhausted before completion
  kMainReturned,  ///< jump to the exit sentinel (ret from entry routine)
  kHalted,        ///< ecall / ebreak committed
  kRanOffCode,    ///< PC advanced past the last instruction
  kFault,         ///< runtime exception (bad access, misaligned jump, ...)
};

const char* ToString(ExitReason reason);

/// Dynamic execution counters (a subset of the paper's statistics that is
/// meaningful without a microarchitecture).
struct InterpreterStats {
  std::uint64_t executedInstructions = 0;
  std::uint64_t flops = 0;
  std::uint64_t takenBranches = 0;
  std::uint64_t notTakenBranches = 0;
  std::array<std::uint64_t, 7> mixByType{};  ///< indexed by InstructionType
};

class Interpreter {
 public:
  /// `memory` must already contain the program's data (see LoadProgram).
  Interpreter(const assembler::Program& program, memory::MainMemory& memory,
              bool trapOnDivZero = false);

  /// Installs sp / ra and the entry PC. Call before Run/StepOne.
  void InitRegisters(std::uint32_t initialSp);

  /// Runs until completion or until `maxInstructions` executed.
  ExitReason Run(std::uint64_t maxInstructions = 100'000'000);

  /// Executes one instruction; returns kRunning while there is more.
  ExitReason StepOne();

  std::uint32_t pc() const { return pc_; }
  const InterpreterStats& stats() const { return stats_; }
  /// Fault details when the exit reason was kFault.
  const std::optional<Error>& fault() const { return fault_; }

  /// Architectural register access (tests, differential comparison).
  std::uint64_t ReadIntReg(unsigned index) const { return x_[index]; }
  std::uint64_t ReadFpReg(unsigned index) const { return f_[index]; }

  /// Complete architectural state (registers + PC) — the fast-forward
  /// hand-off between the ISS and the detailed model. Memory is shared by
  /// reference and not part of this struct.
  struct ArchState {
    std::array<std::uint64_t, 32> x{};
    std::array<std::uint64_t, 32> f{};
    std::uint32_t pc = 0;
  };
  ArchState SaveArchState() const { return ArchState{x_, f_, pc_}; }
  void RestoreArchState(const ArchState& state) {
    x_ = state.x;
    x_[0] = 0;
    f_ = state.f;
    pc_ = state.pc;
  }

 private:
  ExitReason Fault(std::string message);

  /// One leaf of a fast-form expression with its routing resolved at
  /// predecode time: immediates are already converted to a Value, register
  /// reads know their file and conversion kind.
  struct FastOperand {
    enum class Src : std::uint8_t { kConst, kReg, kPc };
    Src src = Src::kConst;
    bool isInt = true;        ///< integer vs floating-point register file
    std::uint8_t index = 0;   ///< register index for kReg
    isa::ArgType type = isa::ArgType::kInt;  ///< CellToValue conversion
    expr::Value constant;     ///< pre-converted value for kConst
  };

  /// Which specialized execute path a static instruction takes; resolved
  /// once at predecode so StepOne dispatches on one byte instead of
  /// re-deriving it from the instruction description every step.
  enum class FastPath : std::uint8_t {
    kSlow,        ///< full gather / stack machine / write-effect path
    kAlu,         ///< kBinaryAssign, no memory, no branch
    kCondBranch,  ///< kBinaryValue conditional branch
    kMemAddress,  ///< kBinaryValue effective address of a load/store
    kHalt,        ///< ecall / ebreak
  };

  /// Everything StepOne would otherwise re-derive on every dynamic
  /// instance of a static instruction: the compiled expression, the
  /// recognized fast form with resolved operands, and the branch offset.
  /// Indexed by pc / 4, built once in the constructor.
  struct Predecoded {
    const expr::Expression* expr = nullptr;  ///< null: semantics rejected
    expr::Expression::FastForm fast{};
    FastOperand fastA, fastB;
    FastPath path = FastPath::kSlow;
    bool dstIsInt = true;     ///< fast-form destination register routing
    std::uint8_t dstIndex = 0;
    isa::ArgType dstType = isa::ArgType::kInt;
    std::uint8_t typeIndex = 0;  ///< def.type, for the dynamic mix
    std::uint8_t flops = 0;      ///< def.flops
    std::int32_t branchImm = 0;  ///< conditional-branch offset
  };

  expr::Value FastOperandValue(const FastOperand& op) const;
  /// Bounds-checks `address` and performs the load or store of `def`.
  ExitReason FinishMemory(const assembler::Instruction& inst,
                          const isa::InstructionDescription& def,
                          std::uint32_t address);

  const assembler::Program& program_;
  memory::MainMemory& memory_;
  bool trapOnDivZero_;
  expr::ExpressionCache expressions_;
  std::vector<Predecoded> pre_;
  expr::EvalResult evalScratch_;

  std::array<std::uint64_t, 32> x_{};
  std::array<std::uint64_t, 32> f_{};
  std::uint32_t pc_ = 0;
  InterpreterStats stats_;
  std::optional<Error> fault_;
};

}  // namespace rvss::ref
