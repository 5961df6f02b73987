// One field list per JSON record, run in both directions.
//
// A record that is written as a JSON object and read back (an
// architecture configuration, an instruction definition) lists its keys
// once, as a template over the direction: a FieldWriter runs the list
// over a const record to build the object, and a FieldReader runs the
// same list over a record holding its current values to read an object
// back. No key can be written without being read, or read without being
// written. The snapshot codec does the same for its binary records
// (snapshot/wire.h).
//
// A list calls, for each key in the order it is written:
//   Field(key, value)                  a bool, string or integer
//   Enum(key, value, table, why)       a name from an EnumName table
//   Object(key, record, list)          a nested object, read by `list`
//   Records(key, vector, list)         an array of objects, one per element
// and may test IO::kReading to hold a check only the reader runs, or to
// leave a key out when writing.
//
// Reading keeps a field's current value when its key is absent or holds
// another JSON type, so the record's defaults are the defaults of its
// keys. It fails, and the first failure is the one reported, on a number
// whose integer part the field's type cannot hold (naming the key's path,
// e.g. `buffers.robSize`), on an enum name the table does not list (with
// the list's `why`, its "{}" replaced by the name), on a Records key that
// is not an array, and on a check a list makes with Fail. An Object key
// that is present is read even when it is not an object: every field
// then keeps its value.
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/enum_names.h"
#include "common/status.h"
#include "json/json.h"

namespace rvss::json {

/// Builds a record's object.
class FieldWriter {
 public:
  static constexpr bool kReading = false;

  void Field(std::string_view key, bool value) { node_.Set(key, value); }
  void Field(std::string_view key, const std::string& value) {
    node_.Set(key, value);
  }
  template <std::integral T>
  void Field(std::string_view key, T value) {
    node_.Set(key, static_cast<std::int64_t>(value));
  }

  template <typename E, std::size_t N>
  void Enum(std::string_view key, E value, const EnumName<E> (&table)[N],
            std::string_view /*why*/) {
    node_.Set(key, NameOf(table, value));
  }

  template <typename T, typename List>
  void Object(std::string_view key, const T& record, List list) {
    node_.Set(key, Run(record, list));
  }

  template <typename T, typename List>
  void Records(std::string_view key, const std::vector<T>& records,
               List list) {
    Json array = Json::MakeArray();
    for (const T& record : records) array.Append(Run(record, list));
    node_.Set(key, std::move(array));
  }

  /// The object built.
  Json Finish() && { return std::move(node_); }

 private:
  template <typename T, typename List>
  static Json Run(const T& record, List list) {
    FieldWriter io;
    list(io, record);
    return std::move(io).Finish();
  }

  Json node_ = Json::MakeObject();
};

/// Reads an object back over a record's current values.
class FieldReader {
 public:
  static constexpr bool kReading = true;

  /// Reads the members of `node`, whose keys are named below `path` in
  /// messages; a failure is an error of `kind`.
  FieldReader(const Json& node, ErrorKind kind, std::string path = "")
      : node_(node), kind_(kind), path_(std::move(path)) {}

  void Field(std::string_view key, bool& value) {
    const Json* member = node_.Find(key);
    if (member != nullptr && member->IsBool()) value = member->AsBool();
  }
  void Field(std::string_view key, std::string& value) {
    const Json* member = node_.Find(key);
    if (member != nullptr && member->IsString()) value = member->AsString();
  }
  /// A number is refused, not narrowed, when its integer part is out of
  /// the field's range. A document carries integers as int64, as the
  /// writer writes them, so a 64-bit unsigned field reads up to 2^63 - 1.
  template <std::integral T>
  void Field(std::string_view key, T& value) {
    const Json* member = node_.Find(key);
    if (member == nullptr || !member->IsNumber()) return;
    using Limits = std::numeric_limits<T>;
    constexpr auto lo = static_cast<std::int64_t>(Limits::min());
    constexpr auto hi = static_cast<std::int64_t>(std::min<std::uint64_t>(
        Limits::max(), std::numeric_limits<std::int64_t>::max()));
    if (const std::optional<std::int64_t> number = IntegerIn(*member, lo, hi)) {
      value = static_cast<T>(*number);
    } else {
      Fail(Path(key) + ": " + member->Dump() + " is out of range [" +
           std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
  }

  template <typename E, std::size_t N>
  void Enum(std::string_view key, E& value, const EnumName<E> (&table)[N],
            std::string_view why) {
    const Json* member = node_.Find(key);
    if (member == nullptr || !member->IsString()) return;
    if (auto known = ValueOf(table, member->AsString())) {
      value = *known;
      return;
    }
    std::string message(why);
    if (const std::size_t at = message.find("{}"); at != std::string::npos) {
      message.replace(at, 2, member->AsString());
    }
    Fail(std::move(message));
  }

  template <typename T, typename List>
  void Object(std::string_view key, T& record, List list) {
    if (const Json* member = node_.Find(key);
        member != nullptr && status_.ok()) {
      Run(*member, record, list, Path(key));
    }
  }

  /// Replaces `records` with one record per element, each read over a
  /// default-constructed T.
  template <typename T, typename List>
  void Records(std::string_view key, std::vector<T>& records, List list) {
    const Json* member = node_.Find(key);
    if (member == nullptr || !status_.ok()) return;
    if (!member->IsArray()) {
      std::string message(1, '\'');
      return Fail(message.append(key).append("' must be an array"));
    }
    records.clear();
    for (const Json& element : member->AsArray()) {
      const std::string path =
          Path(key) + "[" + std::to_string(records.size()) + "]";
      if (!Run(element, records.emplace_back(), list, path)) return;
    }
  }

  /// Fails the read with `message`, unless it has failed already.
  void Fail(std::string message) {
    if (status_.ok()) status_ = Status::Fail(kind_, std::move(message));
  }

  const Status& status() const { return status_; }

 private:
  /// The integer part of `number`, when it lies in [lo, hi].
  static std::optional<std::int64_t> IntegerIn(const Json& number,
                                               std::int64_t lo,
                                               std::int64_t hi) {
    if (number.IsInt()) {
      const std::int64_t n = number.AsInt();
      if (n >= lo && n <= hi) return n;
      return std::nullopt;
    }
    // Compared as a double first: the cast is undefined out of range.
    // hi + 1 is exact below 2^53, and rounds to 2^63 for hi = 2^63 - 1.
    const double d = std::trunc(number.AsDouble());
    if (d >= static_cast<double>(lo) && d < static_cast<double>(hi) + 1.0) {
      return static_cast<std::int64_t>(d);
    }
    return std::nullopt;
  }

  std::string Path(std::string_view key) const {
    return path_.empty() ? std::string(key) : path_ + "." + std::string(key);
  }

  /// Reads `node`, named `path`, into `record` with `list`; false once
  /// the read failed.
  template <typename T, typename List>
  bool Run(const Json& node, T& record, List list, std::string path) {
    FieldReader io(node, kind_, std::move(path));
    list(io, record);
    if (!io.status_.ok()) status_ = std::move(io.status_);
    return status_.ok();
  }

  const Json& node_;
  ErrorKind kind_;
  std::string path_;  ///< "" for the document's top-level object
  Status status_;
};

}  // namespace rvss::json
