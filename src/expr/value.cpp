#include "expr/value.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace rvss::expr {

const char* ToString(ValueKind kind) {
  switch (kind) {
    case ValueKind::kInt: return "int";
    case ValueKind::kUInt: return "uint";
    case ValueKind::kLong: return "long";
    case ValueKind::kULong: return "ulong";
    case ValueKind::kFloat: return "float";
    case ValueKind::kDouble: return "double";
    case ValueKind::kBool: return "bool";
  }
  return "unknown";
}

ValueKind KindForArgType(isa::ArgType type) {
  switch (type) {
    case isa::ArgType::kInt: return ValueKind::kInt;
    case isa::ArgType::kUInt: return ValueKind::kUInt;
    case isa::ArgType::kFloat: return ValueKind::kFloat;
    case isa::ArgType::kDouble: return ValueKind::kDouble;
    case isa::ArgType::kBool: return ValueKind::kBool;
  }
  return ValueKind::kInt;
}

Value Value::ConvertTo(ValueKind target) const {
  if (target == kind_) return *this;
  switch (target) {
    case ValueKind::kInt:
      switch (kind_) {
        case ValueKind::kBool: return Int(bits_ != 0 ? 1 : 0);
        case ValueKind::kUInt: return Int(static_cast<std::int32_t>(AsUInt32()));
        case ValueKind::kLong:
        case ValueKind::kULong: return Int(static_cast<std::int32_t>(bits_));
        case ValueKind::kFloat: return Int(static_cast<std::int32_t>(AsFloat()));
        case ValueKind::kDouble: return Int(static_cast<std::int32_t>(AsDouble()));
        default: return Int(AsInt32());
      }
    case ValueKind::kUInt:
      switch (kind_) {
        case ValueKind::kBool: return UInt(bits_ != 0 ? 1 : 0);
        case ValueKind::kFloat: return UInt(static_cast<std::uint32_t>(AsFloat()));
        case ValueKind::kDouble:
          return UInt(static_cast<std::uint32_t>(AsDouble()));
        default: return UInt(static_cast<std::uint32_t>(bits_));
      }
    case ValueKind::kLong:
      switch (kind_) {
        case ValueKind::kInt: return Long(AsInt32());
        case ValueKind::kUInt: return Long(AsUInt32());
        case ValueKind::kBool: return Long(bits_ != 0 ? 1 : 0);
        case ValueKind::kFloat: return Long(static_cast<std::int64_t>(AsFloat()));
        case ValueKind::kDouble:
          return Long(static_cast<std::int64_t>(AsDouble()));
        default: return Long(AsInt64());
      }
    case ValueKind::kULong:
      switch (kind_) {
        case ValueKind::kInt:
          return ULong(static_cast<std::uint64_t>(
              static_cast<std::int64_t>(AsInt32())));
        case ValueKind::kUInt: return ULong(AsUInt32());
        case ValueKind::kBool: return ULong(bits_ != 0 ? 1 : 0);
        default: return ULong(bits_);
      }
    case ValueKind::kFloat:
      switch (kind_) {
        case ValueKind::kInt: return Float(static_cast<float>(AsInt32()));
        case ValueKind::kUInt: return Float(static_cast<float>(AsUInt32()));
        case ValueKind::kLong: return Float(static_cast<float>(AsInt64()));
        case ValueKind::kULong: return Float(static_cast<float>(AsUInt64()));
        case ValueKind::kBool: return Float(bits_ != 0 ? 1.0f : 0.0f);
        case ValueKind::kDouble: return Float(static_cast<float>(AsDouble()));
        default: return Float(AsFloat());
      }
    case ValueKind::kDouble:
      switch (kind_) {
        case ValueKind::kInt: return Double(AsInt32());
        case ValueKind::kUInt: return Double(AsUInt32());
        case ValueKind::kLong: return Double(static_cast<double>(AsInt64()));
        case ValueKind::kULong: return Double(static_cast<double>(AsUInt64()));
        case ValueKind::kBool: return Double(bits_ != 0 ? 1.0 : 0.0);
        case ValueKind::kFloat: return Double(AsFloat());
        default: return Double(AsDouble());
      }
    case ValueKind::kBool:
      return Bool(bits_ != 0);
  }
  return *this;
}

std::string Value::ToText() const {
  char buffer[48];
  switch (kind_) {
    case ValueKind::kInt:
      std::snprintf(buffer, sizeof buffer, "%d", AsInt32());
      break;
    case ValueKind::kUInt:
      std::snprintf(buffer, sizeof buffer, "%u", AsUInt32());
      break;
    case ValueKind::kLong:
      std::snprintf(buffer, sizeof buffer, "%lld",
                    static_cast<long long>(AsInt64()));
      break;
    case ValueKind::kULong:
      std::snprintf(buffer, sizeof buffer, "%llu",
                    static_cast<unsigned long long>(AsUInt64()));
      break;
    case ValueKind::kFloat:
      std::snprintf(buffer, sizeof buffer, "%gf", AsFloat());
      break;
    case ValueKind::kDouble:
      std::snprintf(buffer, sizeof buffer, "%g", AsDouble());
      break;
    case ValueKind::kBool:
      return AsBool() ? "true" : "false";
  }
  return buffer;
}

namespace {

/// Promotion lattice: Double > Float > ULong > Long > UInt > Int > Bool.
ValueKind CommonKind(ValueKind a, ValueKind b) {
  auto rank = [](ValueKind k) {
    switch (k) {
      case ValueKind::kBool: return 0;
      case ValueKind::kInt: return 1;
      case ValueKind::kUInt: return 2;
      case ValueKind::kLong: return 3;
      case ValueKind::kULong: return 4;
      case ValueKind::kFloat: return 5;
      case ValueKind::kDouble: return 6;
    }
    return 1;
  };
  ValueKind winner = rank(a) >= rank(b) ? a : b;
  if (winner == ValueKind::kBool) winner = ValueKind::kInt;
  return winner;
}

struct Promoted {
  ValueKind kind;
  Value a;
  Value b;
};

Promoted Promote(Value a, Value b) {
  // Same-kind operands (the overwhelmingly common case) skip the lattice
  // walk; Bool still promotes to Int.
  if (a.kind() == b.kind() && a.kind() != ValueKind::kBool) {
    return Promoted{a.kind(), a, b};
  }
  ValueKind kind = CommonKind(a.kind(), b.kind());
  return Promoted{kind, a.ConvertTo(kind), b.ConvertTo(kind)};
}

bool IsSignallingNan(float f) {
  std::uint32_t bits = FloatToBits(f);
  return std::isnan(f) && (bits & 0x00400000u) == 0;
}

bool IsSignallingNan(double d) {
  std::uint64_t bits = DoubleToBits(d);
  return std::isnan(d) && (bits & 0x0008000000000000ULL) == 0;
}

// RISC-V writes the canonical NaN (positive, quiet, zero payload) wherever
// an arithmetic result is NaN. A host FPU passes an operand's payload
// through instead, and which operand it picks depends on the order the
// compiler gave them, so FP results go through here.
Value FpResult(float f) {
  return Value::Float(std::isnan(f) ? BitsToFloat(0x7fc00000u) : f);
}

Value FpResult(double d) {
  return Value::Double(std::isnan(d) ? BitsToDouble(0x7ff8000000000000ULL) : d);
}

template <typename T>
std::int32_t ClassifyFp(T v) {
  const bool neg = std::signbit(v);
  switch (std::fpclassify(v)) {
    case FP_INFINITE: return neg ? (1 << 0) : (1 << 7);
    case FP_NORMAL: return neg ? (1 << 1) : (1 << 6);
    case FP_SUBNORMAL: return neg ? (1 << 2) : (1 << 5);
    case FP_ZERO: return neg ? (1 << 3) : (1 << 4);
    default: return IsSignallingNan(v) ? (1 << 8) : (1 << 9);
  }
}

}  // namespace

Value Add(Value a, Value b) {
  auto [kind, x, y] = Promote(a, b);
  switch (kind) {
    case ValueKind::kFloat: return FpResult(x.AsFloat() + y.AsFloat());
    case ValueKind::kDouble: return FpResult(x.AsDouble() + y.AsDouble());
    case ValueKind::kLong:
      return Value::Long(static_cast<std::int64_t>(
          x.AsUInt64() + y.AsUInt64()));
    case ValueKind::kULong: return Value::ULong(x.AsUInt64() + y.AsUInt64());
    case ValueKind::kUInt: return Value::UInt(x.AsUInt32() + y.AsUInt32());
    default:
      return Value::Int(static_cast<std::int32_t>(x.AsUInt32() + y.AsUInt32()));
  }
}

Value Sub(Value a, Value b) {
  auto [kind, x, y] = Promote(a, b);
  switch (kind) {
    case ValueKind::kFloat: return FpResult(x.AsFloat() - y.AsFloat());
    case ValueKind::kDouble: return FpResult(x.AsDouble() - y.AsDouble());
    case ValueKind::kLong:
      return Value::Long(static_cast<std::int64_t>(
          x.AsUInt64() - y.AsUInt64()));
    case ValueKind::kULong: return Value::ULong(x.AsUInt64() - y.AsUInt64());
    case ValueKind::kUInt: return Value::UInt(x.AsUInt32() - y.AsUInt32());
    default:
      return Value::Int(static_cast<std::int32_t>(x.AsUInt32() - y.AsUInt32()));
  }
}

Value Mul(Value a, Value b) {
  auto [kind, x, y] = Promote(a, b);
  switch (kind) {
    case ValueKind::kFloat: return FpResult(x.AsFloat() * y.AsFloat());
    case ValueKind::kDouble: return FpResult(x.AsDouble() * y.AsDouble());
    case ValueKind::kLong:
      return Value::Long(static_cast<std::int64_t>(
          x.AsUInt64() * y.AsUInt64()));
    case ValueKind::kULong: return Value::ULong(x.AsUInt64() * y.AsUInt64());
    case ValueKind::kUInt: return Value::UInt(x.AsUInt32() * y.AsUInt32());
    default:
      return Value::Int(static_cast<std::int32_t>(x.AsUInt32() * y.AsUInt32()));
  }
}

Value Div(Value a, Value b, EvalFlags& flags) {
  auto [kind, x, y] = Promote(a, b);
  switch (kind) {
    case ValueKind::kFloat: return FpResult(x.AsFloat() / y.AsFloat());
    case ValueKind::kDouble: return FpResult(x.AsDouble() / y.AsDouble());
    case ValueKind::kUInt: {
      if (y.AsUInt32() == 0) {
        flags.divByZero = true;
        return Value::UInt(std::numeric_limits<std::uint32_t>::max());
      }
      return Value::UInt(x.AsUInt32() / y.AsUInt32());
    }
    case ValueKind::kULong: {
      if (y.AsUInt64() == 0) {
        flags.divByZero = true;
        return Value::ULong(std::numeric_limits<std::uint64_t>::max());
      }
      return Value::ULong(x.AsUInt64() / y.AsUInt64());
    }
    case ValueKind::kLong: {
      if (y.AsInt64() == 0) {
        flags.divByZero = true;
        return Value::Long(-1);
      }
      if (x.AsInt64() == std::numeric_limits<std::int64_t>::min() &&
          y.AsInt64() == -1) {
        return x;
      }
      return Value::Long(x.AsInt64() / y.AsInt64());
    }
    default: {
      // RV32M div: x/0 == -1; INT_MIN / -1 == INT_MIN (no trap).
      if (y.AsInt32() == 0) {
        flags.divByZero = true;
        return Value::Int(-1);
      }
      if (x.AsInt32() == std::numeric_limits<std::int32_t>::min() &&
          y.AsInt32() == -1) {
        return x;
      }
      return Value::Int(x.AsInt32() / y.AsInt32());
    }
  }
}

Value Rem(Value a, Value b, EvalFlags& flags) {
  auto [kind, x, y] = Promote(a, b);
  switch (kind) {
    case ValueKind::kFloat:
      return FpResult(std::fmod(x.AsFloat(), y.AsFloat()));
    case ValueKind::kDouble:
      return FpResult(std::fmod(x.AsDouble(), y.AsDouble()));
    case ValueKind::kUInt: {
      if (y.AsUInt32() == 0) {
        flags.divByZero = true;
        return x;
      }
      return Value::UInt(x.AsUInt32() % y.AsUInt32());
    }
    case ValueKind::kULong: {
      if (y.AsUInt64() == 0) {
        flags.divByZero = true;
        return x;
      }
      return Value::ULong(x.AsUInt64() % y.AsUInt64());
    }
    case ValueKind::kLong: {
      if (y.AsInt64() == 0) {
        flags.divByZero = true;
        return x;
      }
      if (x.AsInt64() == std::numeric_limits<std::int64_t>::min() &&
          y.AsInt64() == -1) {
        return Value::Long(0);
      }
      return Value::Long(x.AsInt64() % y.AsInt64());
    }
    default: {
      // RV32M rem: x%0 == x; INT_MIN % -1 == 0.
      if (y.AsInt32() == 0) {
        flags.divByZero = true;
        return x;
      }
      if (x.AsInt32() == std::numeric_limits<std::int32_t>::min() &&
          y.AsInt32() == -1) {
        return Value::Int(0);
      }
      return Value::Int(x.AsInt32() % y.AsInt32());
    }
  }
}

namespace {

template <typename F>
Value BitwiseOp(Value a, Value b, F op) {
  auto [kind, x, y] = Promote(a, b);
  switch (kind) {
    case ValueKind::kLong:
      return Value::Long(static_cast<std::int64_t>(op(x.AsUInt64(), y.AsUInt64())));
    case ValueKind::kULong:
      return Value::ULong(op(x.AsUInt64(), y.AsUInt64()));
    case ValueKind::kUInt:
      return Value::UInt(static_cast<std::uint32_t>(
          op(x.AsUInt32(), y.AsUInt32())));
    default:
      return Value::Int(static_cast<std::int32_t>(
          static_cast<std::uint32_t>(op(x.AsUInt32(), y.AsUInt32()))));
  }
}

}  // namespace

Value BitAnd(Value a, Value b) {
  return BitwiseOp(a, b, [](auto x, auto y) { return x & y; });
}
Value BitOr(Value a, Value b) {
  return BitwiseOp(a, b, [](auto x, auto y) { return x | y; });
}
Value BitXor(Value a, Value b) {
  return BitwiseOp(a, b, [](auto x, auto y) { return x ^ y; });
}

Value Shl(Value a, Value b) {
  switch (a.kind()) {
    case ValueKind::kLong:
      return Value::Long(static_cast<std::int64_t>(
          a.AsUInt64() << (b.ConvertTo(ValueKind::kUInt).AsUInt32() & 63)));
    case ValueKind::kULong:
      return Value::ULong(a.AsUInt64()
                          << (b.ConvertTo(ValueKind::kUInt).AsUInt32() & 63));
    case ValueKind::kUInt:
      return Value::UInt(a.AsUInt32()
                         << (b.ConvertTo(ValueKind::kUInt).AsUInt32() & 31));
    default:
      return Value::Int(static_cast<std::int32_t>(
          a.ConvertTo(ValueKind::kUInt).AsUInt32()
          << (b.ConvertTo(ValueKind::kUInt).AsUInt32() & 31)));
  }
}

Value Shr(Value a, Value b) {
  const std::uint32_t amount64 = b.ConvertTo(ValueKind::kUInt).AsUInt32() & 63;
  const std::uint32_t amount32 = amount64 & 31;
  switch (a.kind()) {
    case ValueKind::kLong:
      return Value::Long(a.AsInt64() >> amount64);
    case ValueKind::kULong:
      return Value::ULong(a.AsUInt64() >> amount64);
    case ValueKind::kUInt:
      return Value::UInt(a.AsUInt32() >> amount32);
    default:
      return Value::Int(a.ConvertTo(ValueKind::kInt).AsInt32() >> amount32);
  }
}

namespace {

enum class CmpResult { kLess, kEqual, kGreater, kUnordered };

CmpResult Compare(Value a, Value b) {
  auto [kind, x, y] = Promote(a, b);
  switch (kind) {
    case ValueKind::kFloat: {
      float fx = x.AsFloat(), fy = y.AsFloat();
      if (std::isnan(fx) || std::isnan(fy)) return CmpResult::kUnordered;
      if (fx < fy) return CmpResult::kLess;
      if (fx > fy) return CmpResult::kGreater;
      return CmpResult::kEqual;
    }
    case ValueKind::kDouble: {
      double dx = x.AsDouble(), dy = y.AsDouble();
      if (std::isnan(dx) || std::isnan(dy)) return CmpResult::kUnordered;
      if (dx < dy) return CmpResult::kLess;
      if (dx > dy) return CmpResult::kGreater;
      return CmpResult::kEqual;
    }
    case ValueKind::kULong:
      if (x.AsUInt64() < y.AsUInt64()) return CmpResult::kLess;
      if (x.AsUInt64() > y.AsUInt64()) return CmpResult::kGreater;
      return CmpResult::kEqual;
    case ValueKind::kLong:
      if (x.AsInt64() < y.AsInt64()) return CmpResult::kLess;
      if (x.AsInt64() > y.AsInt64()) return CmpResult::kGreater;
      return CmpResult::kEqual;
    case ValueKind::kUInt:
      if (x.AsUInt32() < y.AsUInt32()) return CmpResult::kLess;
      if (x.AsUInt32() > y.AsUInt32()) return CmpResult::kGreater;
      return CmpResult::kEqual;
    default:
      if (x.AsInt32() < y.AsInt32()) return CmpResult::kLess;
      if (x.AsInt32() > y.AsInt32()) return CmpResult::kGreater;
      return CmpResult::kEqual;
  }
}

}  // namespace

Value CmpEq(Value a, Value b) { return Value::Bool(Compare(a, b) == CmpResult::kEqual); }
Value CmpNe(Value a, Value b) {
  CmpResult r = Compare(a, b);
  return Value::Bool(r != CmpResult::kEqual);
}
Value CmpLt(Value a, Value b) { return Value::Bool(Compare(a, b) == CmpResult::kLess); }
Value CmpLe(Value a, Value b) {
  CmpResult r = Compare(a, b);
  return Value::Bool(r == CmpResult::kLess || r == CmpResult::kEqual);
}
Value CmpGt(Value a, Value b) { return Value::Bool(Compare(a, b) == CmpResult::kGreater); }
Value CmpGe(Value a, Value b) {
  CmpResult r = Compare(a, b);
  return Value::Bool(r == CmpResult::kGreater || r == CmpResult::kEqual);
}

Value Negate(Value a) {
  switch (a.kind()) {
    case ValueKind::kFloat: return Value::Float(-a.AsFloat());
    case ValueKind::kDouble: return Value::Double(-a.AsDouble());
    case ValueKind::kLong: return Value::Long(-a.AsInt64());
    case ValueKind::kULong: return Value::ULong(0 - a.AsUInt64());
    case ValueKind::kUInt: return Value::UInt(0 - a.AsUInt32());
    default:
      return Value::Int(static_cast<std::int32_t>(
          0 - a.ConvertTo(ValueKind::kUInt).AsUInt32()));
  }
}

Value Sqrt(Value a) {
  if (a.kind() == ValueKind::kDouble) return FpResult(std::sqrt(a.AsDouble()));
  return FpResult(std::sqrt(a.ConvertTo(ValueKind::kFloat).AsFloat()));
}

Value Fma(Value a, Value b, Value c) {
  if (a.kind() == ValueKind::kDouble || b.kind() == ValueKind::kDouble ||
      c.kind() == ValueKind::kDouble) {
    return FpResult(std::fma(a.ConvertTo(ValueKind::kDouble).AsDouble(),
                             b.ConvertTo(ValueKind::kDouble).AsDouble(),
                             c.ConvertTo(ValueKind::kDouble).AsDouble()));
  }
  return FpResult(std::fmaf(a.ConvertTo(ValueKind::kFloat).AsFloat(),
                            b.ConvertTo(ValueKind::kFloat).AsFloat(),
                            c.ConvertTo(ValueKind::kFloat).AsFloat()));
}

namespace {

// Two NaN operands return a NaN here, which FpResult makes canonical.
template <typename T>
T RiscvMin(T a, T b) {
  if (std::isnan(a)) return b;
  if (std::isnan(b)) return a;
  if (a == 0 && b == 0) return std::signbit(a) ? a : b;  // -0 < +0
  return a < b ? a : b;
}

template <typename T>
T RiscvMax(T a, T b) {
  if (std::isnan(a)) return b;
  if (std::isnan(b)) return a;
  if (a == 0 && b == 0) return std::signbit(a) ? b : a;  // +0 > -0
  return a > b ? a : b;
}

}  // namespace

Value Min(Value a, Value b) {
  auto [kind, x, y] = Promote(a, b);
  switch (kind) {
    case ValueKind::kFloat: return FpResult(RiscvMin(x.AsFloat(), y.AsFloat()));
    case ValueKind::kDouble:
      return FpResult(RiscvMin(x.AsDouble(), y.AsDouble()));
    case ValueKind::kUInt:
      return Value::UInt(std::min(x.AsUInt32(), y.AsUInt32()));
    default: return Value::Int(std::min(x.AsInt32(), y.AsInt32()));
  }
}

Value Max(Value a, Value b) {
  auto [kind, x, y] = Promote(a, b);
  switch (kind) {
    case ValueKind::kFloat: return FpResult(RiscvMax(x.AsFloat(), y.AsFloat()));
    case ValueKind::kDouble:
      return FpResult(RiscvMax(x.AsDouble(), y.AsDouble()));
    case ValueKind::kUInt:
      return Value::UInt(std::max(x.AsUInt32(), y.AsUInt32()));
    default: return Value::Int(std::max(x.AsInt32(), y.AsInt32()));
  }
}

namespace {

Value InjectSign(Value a, Value b, int mode) {
  if (a.kind() == ValueKind::kDouble) {
    std::uint64_t abits = a.bits();
    std::uint64_t bbits = b.ConvertTo(ValueKind::kDouble).bits();
    std::uint64_t sign;
    switch (mode) {
      case 0: sign = bbits & 0x8000000000000000ULL; break;
      case 1: sign = ~bbits & 0x8000000000000000ULL; break;
      default: sign = (abits ^ bbits) & 0x8000000000000000ULL; break;
    }
    return Value::Double(BitsToDouble((abits & 0x7fffffffffffffffULL) | sign));
  }
  std::uint32_t abits = FloatToBits(a.ConvertTo(ValueKind::kFloat).AsFloat());
  std::uint32_t bbits = FloatToBits(b.ConvertTo(ValueKind::kFloat).AsFloat());
  std::uint32_t sign;
  switch (mode) {
    case 0: sign = bbits & 0x80000000u; break;
    case 1: sign = ~bbits & 0x80000000u; break;
    default: sign = (abits ^ bbits) & 0x80000000u; break;
  }
  return Value::Float(BitsToFloat((abits & 0x7fffffffu) | sign));
}

}  // namespace

Value SignInject(Value a, Value b) { return InjectSign(a, b, 0); }
Value SignInjectNeg(Value a, Value b) { return InjectSign(a, b, 1); }
Value SignInjectXor(Value a, Value b) { return InjectSign(a, b, 2); }

Value Classify(Value a) {
  if (a.kind() == ValueKind::kDouble) return Value::Int(ClassifyFp(a.AsDouble()));
  return Value::Int(ClassifyFp(a.ConvertTo(ValueKind::kFloat).AsFloat()));
}

Value I2L(Value a) { return Value::Long(a.ConvertTo(ValueKind::kInt).AsInt32()); }
Value U2L(Value a) { return Value::Long(a.ConvertTo(ValueKind::kUInt).AsUInt32()); }
Value L2I(Value a) { return Value::Int(static_cast<std::int32_t>(a.bits())); }
Value I2F(Value a) {
  return Value::Float(static_cast<float>(a.ConvertTo(ValueKind::kInt).AsInt32()));
}
Value I2D(Value a) {
  return Value::Double(a.ConvertTo(ValueKind::kInt).AsInt32());
}
Value U2F(Value a) {
  return Value::Float(static_cast<float>(a.ConvertTo(ValueKind::kUInt).AsUInt32()));
}
Value U2D(Value a) {
  return Value::Double(a.ConvertTo(ValueKind::kUInt).AsUInt32());
}

namespace {

template <typename T>
Value FpToInt32(T v, EvalFlags& flags) {
  if (std::isnan(v)) {
    flags.invalidConversion = true;
    return Value::Int(std::numeric_limits<std::int32_t>::max());
  }
  if (v >= static_cast<T>(2147483648.0)) {
    flags.invalidConversion = true;
    return Value::Int(std::numeric_limits<std::int32_t>::max());
  }
  if (v < static_cast<T>(-2147483648.0)) {
    flags.invalidConversion = true;
    return Value::Int(std::numeric_limits<std::int32_t>::min());
  }
  return Value::Int(static_cast<std::int32_t>(v));  // truncation == RTZ
}

template <typename T>
Value FpToUInt32(T v, EvalFlags& flags) {
  if (std::isnan(v) || v >= static_cast<T>(4294967296.0)) {
    flags.invalidConversion = true;
    return Value::UInt(std::numeric_limits<std::uint32_t>::max());
  }
  if (v <= static_cast<T>(-1.0)) {
    flags.invalidConversion = true;
    return Value::UInt(0);
  }
  if (v < 0) return Value::UInt(0);  // (-1,0) truncates to 0, no flag per RTZ
  return Value::UInt(static_cast<std::uint32_t>(v));
}

}  // namespace

Value F2I(Value a, EvalFlags& flags) {
  return FpToInt32(a.ConvertTo(ValueKind::kFloat).AsFloat(), flags);
}
Value F2U(Value a, EvalFlags& flags) {
  return FpToUInt32(a.ConvertTo(ValueKind::kFloat).AsFloat(), flags);
}
Value D2I(Value a, EvalFlags& flags) {
  return FpToInt32(a.ConvertTo(ValueKind::kDouble).AsDouble(), flags);
}
Value D2U(Value a, EvalFlags& flags) {
  return FpToUInt32(a.ConvertTo(ValueKind::kDouble).AsDouble(), flags);
}
Value F2D(Value a) {
  return FpResult(static_cast<double>(a.ConvertTo(ValueKind::kFloat).AsFloat()));
}
Value D2F(Value a) {
  return FpResult(static_cast<float>(a.ConvertTo(ValueKind::kDouble).AsDouble()));
}

Value FloatBits(Value a) {
  return Value::Int(static_cast<std::int32_t>(
      FloatToBits(a.ConvertTo(ValueKind::kFloat).AsFloat())));
}

Value BitsToFloatValue(Value a) {
  return Value::Float(BitsToFloat(a.ConvertTo(ValueKind::kUInt).AsUInt32()));
}

}  // namespace rvss::expr
