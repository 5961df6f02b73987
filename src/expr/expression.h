// The Expression class: a compiled stack-based postfix interpreter for the
// `interpretableAs` semantics strings of instruction definitions.
//
// Mirrors the paper's §III-B: the interpreter's two possible outputs are
// (1) the value remaining on the stack — used for jump targets, branch
// conditions and load/store effective addresses — and (2) assignments made
// by the `=` operator, whose side effect is a register write-back.
//
// An Expression is compiled once per instruction description (tokenized,
// argument references resolved to indices) and then evaluated with plain
// value arrays, so evaluation allocates nothing on the hot path.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "expr/value.h"
#include "isa/instruction_set.h"

namespace rvss::expr {

/// One register write requested by an `=` operator.
struct WriteEffect {
  int argIndex = -1;  ///< index into the instruction's argument list
  Value value;
};

/// Outcome of evaluating an expression.
struct EvalResult {
  /// Value left on the stack, if any (branch condition, jump target, or
  /// memory effective address).
  std::optional<Value> stackTop;
  /// Register write-backs in evaluation order.
  std::vector<WriteEffect> writes;
  /// Arithmetic side flags (division by zero, invalid FP conversion).
  EvalFlags flags;
};

/// A compiled postfix expression.
class Expression {
 public:
  enum class Op : std::uint8_t {
    kPushArg, kPushRef, kPushPc, kPushLiteral,
    kAdd, kSub, kMul, kDiv, kRem,
    kAnd, kOr, kXor, kShl, kShr,
    kEq, kNe, kLt, kLe, kGt, kGe,
    kAssign,
    kNeg, kSqrt, kFma, kMin, kMax,
    kSgnj, kSgnjn, kSgnjx, kClass,
    kI2L, kU2L, kL2I, kI2F, kI2D, kU2F, kU2D,
    kF2I, kF2U, kD2I, kD2U, kF2D, kD2F,
    kFBits, kIFBits,
  };

  /// Recognized shape of the whole expression, analyzed once at compile
  /// time so per-PC callers (the simulator's predecode cache) can execute
  /// the overwhelmingly common instruction semantics — `a OP b -> rd` and
  /// `a OP b` — directly, without running the stack machine.
  struct FastForm {
    enum class Kind : std::uint8_t {
      kNone,          ///< no recognized shape; use Evaluate/EvaluateInto
      kBinaryAssign,  ///< [a, b, binop, ref, =]  (ALU write-back)
      kBinaryValue,   ///< [a, b, binop]          (branch cond / address)
    };
    /// One leaf operand of the recognized shape.
    struct Operand {
      enum class Src : std::uint8_t { kArg, kLiteral, kPc };
      Src src = Src::kArg;
      std::uint8_t arg = 0;        ///< argument index for kArg
      std::int32_t literal = 0;    ///< for kLiteral
    };
    Kind kind = Kind::kNone;
    Op op = Op::kAdd;              ///< the binary operator
    Operand a;
    Operand b;
    std::uint8_t dstArg = 0;       ///< write-back argument (kBinaryAssign)
    ValueKind dstKind = ValueKind::kInt;  ///< conversion applied by `=`
  };

  /// Applies one side-effect-free binary operator (exactly the kAdd..kGe,
  /// kMin..kSgnjx subset FastForm recognizes).
  static Value ApplyBinary(Op op, const Value& a, const Value& b,
                           EvalFlags& flags);

  const FastForm& fastForm() const { return fastForm_; }

  /// Compiles `text` against an instruction's argument list. Fails on
  /// unknown tokens, references to undeclared arguments, or stack-arity
  /// errors detectable statically (every operator's arity is fixed).
  static Result<Expression> Compile(std::string_view text,
                                    const isa::InstructionDescription& def);

  /// Evaluates with `argValues[i]` bound to `def.args[i]`. `pc` feeds the
  /// `\pc` token. `argValues.size()` must equal the compiled arg count.
  EvalResult Evaluate(std::span<const Value> argValues, std::uint32_t pc) const;

  /// Evaluate variant for the simulator's hot path: resets `out` but keeps
  /// the heap storage of `out.writes`, so a caller that reuses one
  /// EvalResult across calls evaluates without allocating.
  void EvaluateInto(std::span<const Value> argValues, std::uint32_t pc,
                    EvalResult& out) const;

 private:
  struct Token {
    Op op;
    int arg = 0;              ///< argument index for kPushArg / kPushRef
    std::int32_t literal = 0; ///< for kPushLiteral
  };

  /// Net stack effect and required depth per op, for static checking.
  static int Arity(Op op);

  /// Maps token text to an operator; nullopt for non-operator tokens.
  static std::optional<Op> LookupOperator(std::string_view text);

  /// Computes fastForm_ from the finished token stream.
  void AnalyzeFastForm();

  std::vector<Token> tokens_;
  /// Declared value kind of each argument, captured at compile time so the
  /// compiled expression does not dangle on the InstructionDescription.
  std::vector<ValueKind> argKinds_;
  std::size_t maxStackDepth_ = 0;
  FastForm fastForm_;
};

}  // namespace rvss::expr
