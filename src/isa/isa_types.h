// Shared enums and small structs describing RISC-V instructions.
//
// The paper defines its instruction set in a JSON configuration file
// (Listing 1): every instruction carries a type, a list of typed arguments
// (with a write-back flag) and a postfix expression ("interpretableAs")
// giving its semantics. We keep exactly that data model; the canonical
// table lives in instruction_set.cpp and can be exported to / imported
// from the paper's JSON schema (instruction_set_json.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace rvss::isa {

/// Coarse category used for the static/dynamic instruction-mix statistics
/// (the paper's Runtime Statistics window shows this mix as table + chart).
enum class InstructionType : std::uint8_t {
  kArithmetic,  ///< integer ALU (add, xor, slt, lui, ...)
  kMulDiv,      ///< integer multiply / divide (M extension)
  kFloat,       ///< floating-point arithmetic (F/D extensions)
  kLoad,        ///< memory loads, integer and FP
  kStore,       ///< memory stores, integer and FP
  kBranch,      ///< conditional branches
  kJump,        ///< unconditional jumps (jal, jalr)
};

const char* ToString(InstructionType type);

/// Functional-unit capability class. Architecture configuration assigns a
/// set of these (with a latency each) to every functional unit; an
/// instruction may only issue to a unit whose set contains its op class.
enum class OpClass : std::uint8_t {
  kIntAlu,
  kIntMul,
  kIntDiv,
  kFpAdd,    ///< fadd / fsub
  kFpMul,
  kFpDiv,    ///< fdiv / fsqrt
  kFpFma,    ///< fused multiply-add family
  kFpOther,  ///< compares, converts, sign-injection, min/max, moves, class
  kBranch,   ///< handled by the branch unit
  kMemAddr,  ///< address generation for loads/stores (LS issue window)
};

const char* ToString(OpClass opClass);
std::optional<OpClass> OpClassFromString(std::string_view name);

/// Argument value type, from the paper's JSON argument schema.
enum class ArgType : std::uint8_t {
  kInt,     ///< 32-bit signed register or immediate
  kUInt,    ///< 32-bit unsigned view of a register
  kFloat,   ///< single-precision FP register
  kDouble,  ///< double-precision FP register
  kBool,    ///< condition output
};

const char* ToString(ArgType type);

/// Control-flow behaviour consumed by the fetch and branch units.
enum class BranchKind : std::uint8_t {
  kNone,
  kConditional,          ///< beq/bne/...: semantics yield the condition,
                         ///< target is PC + imm
  kUnconditionalDirect,  ///< jal: semantics yield the absolute target
  kUnconditionalIndirect ///< jalr: target depends on a register
};

/// Memory behaviour of loads and stores.
struct MemAccess {
  bool isLoad = false;
  bool isStore = false;
  std::uint8_t sizeBytes = 0;  ///< 1, 2, 4 or 8
  bool isSigned = false;       ///< sign-extend loaded value (lb/lh/lw)
  bool isFloat = false;        ///< targets the FP register file (flw/fld/fsw/fsd)
};

/// One operand in an instruction definition (paper Listing 1).
struct ArgumentDescription {
  std::string name;            ///< "rd", "rs1", "rs2", "rs3", "imm"
  ArgType type = ArgType::kInt;
  bool writeBack = false;      ///< true for destination registers
  bool isImmediate = false;    ///< encoded constant / label, not a register

  /// True when the operand lives in the FP register file.
  bool IsFpRegister() const {
    return !isImmediate &&
           (type == ArgType::kFloat || type == ArgType::kDouble);
  }
};

}  // namespace rvss::isa
