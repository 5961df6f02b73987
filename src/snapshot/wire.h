// Wire primitives for the snapshot codec: a little-endian byte writer and
// a bounds-checked reader with the same methods, so a codec record can
// list its fields once, as a template the writer runs to encode and the
// reader runs to decode (snapshot/codec.cpp).
//
// Everything is explicit-width and little-endian regardless of host
// endianness, so blobs are portable between machines (the session
// migration path). The reader is designed for hostile input: every read
// checks bounds, failure latches (subsequent reads return zero values),
// and length-prefixed fields validate the prefix against the bytes
// actually remaining before allocating — a truncated or corrupted blob
// produces an error, never undefined behaviour or an absurd allocation.
// The reader's Check (and Enum, which uses it) is where a decoder
// validates; the writer's counterparts write the value and check nothing.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

namespace rvss::snapshot {

class Writer {
 public:
  void U8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(std::uint32_t v) { Raw(v, 4); }
  void U64(std::uint64_t v) { Raw(v, 8); }
  void I32(std::int32_t v) { U32(static_cast<std::uint32_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }

  void Bytes(const void* data, std::size_t size) {
    if (size > 0) out_.append(static_cast<const char*>(data), size);
  }

  /// u32 length prefix + raw bytes.
  void Str(std::string_view s) {
    U32(static_cast<std::uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }

  /// Flags packed into the fewest whole bytes, the first flag lowest.
  template <typename... Flags>
  void Bits(const Flags&... flags) {
    std::uint64_t word = 0;
    int bit = 0;
    ((word |= static_cast<std::uint64_t>(flags ? 1 : 0) << bit++), ...);
    Raw(word, (sizeof...(Flags) + 7) / 8);
  }

  /// An enum as one byte.
  template <typename E>
  bool Enum(E v, E /*last*/, const char* /*why*/) {
    U8(static_cast<std::uint8_t>(v));
    return true;
  }

  /// A presence flag; true when the value follows.
  template <typename T>
  bool Present(const std::optional<T>& v) {
    Bool(v.has_value());
    return v.has_value();
  }

  /// A container's u32 element count; returns it.
  template <typename Container>
  std::uint32_t Size(const Container& c, std::size_t /*minBytesPerElement*/,
                     const typename Container::value_type& /*fill*/ = {}) {
    U32(static_cast<std::uint32_t>(c.size()));
    return static_cast<std::uint32_t>(c.size());
  }

  bool Check(bool /*good*/, const char* /*why*/) { return true; }
  void FailAs(const char* /*why*/) {}
  bool ok() const { return true; }

  const std::string& out() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void Raw(std::uint64_t v, std::size_t bytes) {
    for (std::size_t i = 0; i < bytes; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  std::string out_;
};

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  std::uint8_t U8() { return static_cast<std::uint8_t>(Raw(1)); }
  std::uint32_t U32() { return static_cast<std::uint32_t>(Raw(4)); }
  std::uint64_t U64() { return Raw(8); }
  std::int32_t I32() { return static_cast<std::int32_t>(U32()); }
  bool Bool() { return U8() != 0; }

  /// Length-prefixed string; fails when the prefix exceeds the remaining
  /// bytes (so corrupt prefixes cannot trigger huge allocations).
  std::string Str() {
    const std::uint32_t size = U32();
    if (failed_ || size > remaining()) {
      Fail("string length exceeds remaining bytes");
      return {};
    }
    std::string out(data_.substr(pos_, size));
    pos_ += size;
    return out;
  }

  // The writer's methods, reading into their argument.
  void U8(std::uint8_t& v) { v = U8(); }
  void U32(std::uint32_t& v) { v = U32(); }
  void U64(std::uint64_t& v) { v = U64(); }
  void I32(std::int32_t& v) { v = I32(); }
  void Bool(bool& v) { v = Bool(); }
  void Str(std::string& v) { v = Str(); }

  template <typename... Flags>
  void Bits(Flags&... flags) {
    const std::uint64_t word = Raw((sizeof...(Flags) + 7) / 8);
    int bit = 0;
    ((flags = ((word >> bit++) & 1) != 0), ...);
  }

  /// Fails with `why` when the byte is past `last`.
  template <typename E>
  bool Enum(E& v, E last, const char* why) {
    const std::uint8_t raw = U8();
    if (!Check(raw <= static_cast<std::uint8_t>(last), why)) return false;
    v = static_cast<E>(raw);
    return true;
  }

  template <typename T>
  bool Present(std::optional<T>& v) {
    if (!Bool()) {
      v.reset();
      return false;
    }
    v.emplace();
    return true;
  }

  /// Reads a Count and refills `c` with that many copies of `fill`.
  template <typename Container>
  std::uint32_t Size(Container& c, std::size_t minBytesPerElement,
                     const typename Container::value_type& fill = {}) {
    const std::uint32_t count = Count(minBytesPerElement);
    c.assign(count, fill);
    return count;
  }

  /// Bulk copy of `size` raw bytes into `dst`; no-op after failure.
  void BytesInto(void* dst, std::size_t size) {
    if (failed_ || remaining() < size) {
      Fail("raw byte range exceeds remaining bytes");
      return;
    }
    if (size > 0) std::memcpy(dst, data_.data() + pos_, size);
    pos_ += size;
  }

  /// Element count for a fixed-stride array; fails when even one byte per
  /// element would run past the end of the blob.
  std::uint32_t Count(std::size_t minBytesPerElement) {
    const std::uint32_t count = U32();
    if (failed_ ||
        static_cast<std::uint64_t>(count) * minBytesPerElement > remaining()) {
      Fail("element count exceeds remaining bytes");
      return 0;
    }
    return count;
  }

  /// A structural check: fails with `why` when `good` is false. After an
  /// earlier failure it checks nothing (the values read since are zeros),
  /// so it returns false only when this check failed; callers stop there,
  /// before the bad value is used.
  bool Check(bool good, const char* why) {
    if (failed_ || good) return true;
    Fail(why);
    return false;
  }

  /// Reports a failure so far as `why`: a record's name for a truncation
  /// inside it.
  void FailAs(const char* why) {
    if (failed_) failReason_ = why;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool ok() const { return !failed_; }
  const char* failReason() const { return failReason_; }

  void Fail(const char* why) {
    if (!failed_) failReason_ = why;
    failed_ = true;
  }

 private:
  std::uint64_t Raw(std::size_t bytes) {
    if (failed_ || remaining() < bytes) {
      Fail("read past end of blob");
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += bytes;
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  const char* failReason_ = "";
};

}  // namespace rvss::snapshot
