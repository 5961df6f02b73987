// Bit manipulation helpers used by the ISA decoder, cache indexing and the
// expression interpreter. Header-only; everything is constexpr.
#pragma once

#include <bit>
#include <cstdint>

namespace rvss {

/// Sign-extends the low `bits` bits of `value` to 64 bits.
constexpr std::int64_t SignExtend(std::uint64_t value, unsigned bits) {
  if (bits == 0 || bits >= 64) return static_cast<std::int64_t>(value);
  const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
  const std::uint64_t sign = std::uint64_t{1} << (bits - 1);
  value &= mask;
  return static_cast<std::int64_t>((value ^ sign) - sign);
}

/// True if `value` is a power of two (0 is not).
constexpr bool IsPowerOfTwo(std::uint64_t value) {
  return value != 0 && (value & (value - 1)) == 0;
}

/// log2 of a power of two.
constexpr unsigned Log2(std::uint64_t value) {
  return static_cast<unsigned>(std::bit_width(value) - 1);
}

/// Rounds `value` up to the next multiple of `alignment` (a power of two).
constexpr std::uint64_t AlignUp(std::uint64_t value, std::uint64_t alignment) {
  return (value + alignment - 1) & ~(alignment - 1);
}

/// Reinterprets float bits <-> integer bits without UB.
constexpr std::uint32_t FloatToBits(float f) { return std::bit_cast<std::uint32_t>(f); }
constexpr float BitsToFloat(std::uint32_t b) { return std::bit_cast<float>(b); }
constexpr std::uint64_t DoubleToBits(double d) { return std::bit_cast<std::uint64_t>(d); }
constexpr double BitsToDouble(std::uint64_t b) { return std::bit_cast<double>(b); }

/// NaN-boxes a 32-bit float payload into a 64-bit FP register value, as
/// required by the RISC-V F-on-D register file model.
constexpr std::uint64_t NanBoxFloat(std::uint32_t bits) {
  return 0xffffffff00000000ULL | bits;
}

/// Recovers a float payload from a 64-bit FP register; a value that is not
/// properly NaN-boxed reads as the canonical quiet NaN, per the RISC-V spec.
constexpr std::uint32_t UnboxFloat(std::uint64_t reg) {
  if ((reg >> 32) == 0xffffffffULL) return static_cast<std::uint32_t>(reg);
  return 0x7fc00000u;  // canonical qNaN
}

}  // namespace rvss
