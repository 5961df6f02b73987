// Wire primitives for the snapshot codec: a little-endian byte writer and
// a bounds-checked reader.
//
// Everything is explicit-width and little-endian regardless of host
// endianness, so blobs are portable between machines (the session
// migration path). The reader is designed for hostile input: every read
// checks bounds, failure latches (subsequent reads return zero values),
// and length-prefixed fields validate the prefix against the bytes
// actually remaining before allocating — a truncated or corrupted blob
// produces an error, never undefined behaviour or an absurd allocation.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace rvss::snapshot {

class Writer {
 public:
  void U8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U16(std::uint16_t v) { Raw(v, 2); }
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

  const std::string& out() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void Raw(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  std::string out_;
};

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  std::uint8_t U8() { return static_cast<std::uint8_t>(Raw(1)); }
  std::uint16_t U16() { return static_cast<std::uint16_t>(Raw(2)); }
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

  std::size_t remaining() const { return data_.size() - pos_; }
  bool ok() const { return !failed_; }
  const char* failReason() const { return failReason_; }

  void Fail(const char* why) {
    if (!failed_) failReason_ = why;
    failed_ = true;
  }

 private:
  std::uint64_t Raw(int bytes) {
    if (failed_ || remaining() < static_cast<std::size_t>(bytes)) {
      Fail("read past end of blob");
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(data_[pos_ + static_cast<std::size_t>(i)]))
           << (8 * i);
    }
    pos_ += static_cast<std::size_t>(bytes);
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  const char* failReason_ = "";
};

}  // namespace rvss::snapshot
