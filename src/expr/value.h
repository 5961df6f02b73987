// Tagged runtime value for the postfix semantics interpreter.
//
// The paper stores registers as 64-bit arrays whose interpretation depends
// on the executing instruction; Value is the in-flight equivalent: 64 bits
// of payload plus a kind tag. All RISC-V arithmetic corner cases (division
// by zero, signed overflow division, NaN-propagating min/max, clamping
// float-to-int conversion, the canonical NaN as every NaN result) are
// implemented here, in one place, so both the out-of-order core and the
// golden-model ISS share them.
#pragma once

#include <cstdint>
#include <string>

#include "common/bitops.h"
#include "isa/isa_types.h"

namespace rvss::expr {

enum class ValueKind : std::uint8_t {
  kInt,     ///< 32-bit signed
  kUInt,    ///< 32-bit unsigned
  kLong,    ///< 64-bit signed (intermediate for mulh etc.)
  kULong,   ///< 64-bit unsigned
  kFloat,
  kDouble,
  kBool,
};

const char* ToString(ValueKind kind);

/// Maps an ISA argument type to the interpreter's value kind.
ValueKind KindForArgType(isa::ArgType type);

class Value {
 public:
  Value() = default;

  static Value Int(std::int32_t v) {
    return Value(ValueKind::kInt,
                 static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  static Value UInt(std::uint32_t v) { return Value(ValueKind::kUInt, v); }
  static Value Long(std::int64_t v) {
    return Value(ValueKind::kLong, static_cast<std::uint64_t>(v));
  }
  static Value ULong(std::uint64_t v) { return Value(ValueKind::kULong, v); }
  static Value Float(float v) { return Value(ValueKind::kFloat, FloatToBits(v)); }
  static Value Double(double v) {
    return Value(ValueKind::kDouble, DoubleToBits(v));
  }
  static Value Bool(bool v) { return Value(ValueKind::kBool, v ? 1 : 0); }

  /// Rebuilds a value from its serialized (kind, bits) pair exactly — the
  /// snapshot codec must reproduce bit patterns (NaN payloads, upper
  /// halves) that the typed factories would canonicalize away.
  static Value FromRaw(ValueKind kind, std::uint64_t bits) {
    return Value(kind, bits);
  }

  ValueKind kind() const { return kind_; }
  std::uint64_t bits() const { return bits_; }

  std::int32_t AsInt32() const { return static_cast<std::int32_t>(bits_); }
  std::uint32_t AsUInt32() const { return static_cast<std::uint32_t>(bits_); }
  std::int64_t AsInt64() const { return static_cast<std::int64_t>(bits_); }
  std::uint64_t AsUInt64() const { return bits_; }
  float AsFloat() const { return BitsToFloat(static_cast<std::uint32_t>(bits_)); }
  double AsDouble() const { return BitsToDouble(bits_); }
  bool AsBool() const { return bits_ != 0; }

  /// Converts to `target` preserving *numeric* value for Bool/int widths
  /// and bit patterns within same-width reinterpretations. Explicit
  /// float<->int conversions use the dedicated conversion operators, not
  /// this function.
  Value ConvertTo(ValueKind target) const;

  /// Human-readable rendering, e.g. "42", "3.5f", "0x1p3".
  std::string ToText() const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.kind_ == b.kind_ && a.bits_ == b.bits_;
  }

 private:
  Value(ValueKind kind, std::uint64_t bits) : kind_(kind), bits_(bits) {}

  ValueKind kind_ = ValueKind::kInt;
  std::uint64_t bits_ = 0;
};

/// Side flags raised while evaluating operators.
struct EvalFlags {
  bool divByZero = false;        ///< integer division by zero occurred
  bool invalidConversion = false;///< NaN/out-of-range float->int conversion
};

/// Binary arithmetic with RISC-V semantics; operands are promoted to a
/// common kind (Double > Float > ULong > Long > UInt > Int; Bool promotes
/// to Int). An FP result that is NaN is the canonical NaN (0x7fc00000,
/// 0x7ff8000000000000), here and in Sqrt, Fma, Min, Max, F2D and D2F;
/// Negate, the sign injections and the fmv pair keep the operand's bits.
Value Add(Value a, Value b);
Value Sub(Value a, Value b);
Value Mul(Value a, Value b);
Value Div(Value a, Value b, EvalFlags& flags);
Value Rem(Value a, Value b, EvalFlags& flags);
Value BitAnd(Value a, Value b);
Value BitOr(Value a, Value b);
Value BitXor(Value a, Value b);
Value Shl(Value a, Value b);
Value Shr(Value a, Value b);  ///< arithmetic for signed, logical for unsigned

/// Comparisons (IEEE unordered semantics on NaN operands).
Value CmpEq(Value a, Value b);
Value CmpNe(Value a, Value b);
Value CmpLt(Value a, Value b);
Value CmpLe(Value a, Value b);
Value CmpGt(Value a, Value b);
Value CmpGe(Value a, Value b);

/// Unary and FP-specific operations.
Value Negate(Value a);
Value Sqrt(Value a);
Value Fma(Value a, Value b, Value c);  ///< a*b + c, single rounding
Value Min(Value a, Value b);           ///< RISC-V fmin: NaN yields the other
Value Max(Value a, Value b);
Value SignInject(Value a, Value b);    ///< |a| with sign of b
Value SignInjectNeg(Value a, Value b);
Value SignInjectXor(Value a, Value b);
Value Classify(Value a);               ///< RISC-V fclass bit

/// Explicit conversions (names match the expression-language tokens).
Value I2L(Value a);
Value U2L(Value a);
Value L2I(Value a);
Value I2F(Value a);
Value I2D(Value a);
Value U2F(Value a);
Value U2D(Value a);
Value F2I(Value a, EvalFlags& flags);  ///< RTZ, clamping, NaN -> INT32_MAX
Value F2U(Value a, EvalFlags& flags);
Value D2I(Value a, EvalFlags& flags);
Value D2U(Value a, EvalFlags& flags);
Value F2D(Value a);
Value D2F(Value a);
Value FloatBits(Value a);   ///< fmv.x.w
Value BitsToFloatValue(Value a);  ///< fmv.w.x

}  // namespace rvss::expr
