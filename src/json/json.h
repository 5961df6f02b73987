// Self-contained JSON value, parser and writer.
//
// The paper's system leans on JSON in three places: the architecture
// configuration files (import/export in the settings window), the
// instruction-set definition file (Listing 1), and the client-server API —
// whose serialization cost turns out to dominate request handling (the
// paper's E2 observation). This module is therefore both a substrate and a
// measurement subject; bench_json_overhead times exactly these routines.
//
// Design notes:
//  * Objects preserve insertion order (config files round-trip cleanly).
//  * Numbers are stored as int64 when the literal is integral and fits;
//    otherwise as double. `AsDouble()` converts transparently.
//  * The parser is a single-pass recursive-descent parser with a depth
//    limit; it reports line/column on errors.
//  * A raw node (Type::kRaw) is a value kept as the serialized text the
//    parser accepted, so a hop that only forwards it never builds or
//    dumps its DOM. Only ParseKeepingRaw makes one, and only for the
//    top-level members it names; json::Parse never does. The grammar is
//    the parser's own: validating and DOM building are the same code, so
//    a raw node holds exactly the text Parse would accept at that depth.
//    Semantics:
//      - Dump and DumpSize copy the text.
//      - DumpPretty prints the parsed value, so pretty output does not
//        change.
//      - operator== compares by value: it parses the raw side.
//      - Find, Get* and Is* see an opaque leaf (no members, every Is*
//        false). To read inside one, call json::Parse(node.Dump()).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace rvss::json {

class Json;

/// Ordered key-value storage for objects. Lookup is linear; rvss objects are
/// small (tens of keys), and preserving author order matters more here.
using Object = std::vector<std::pair<std::string, Json>>;
using Array = std::vector<Json>;

enum class Type : std::uint8_t {
  kNull, kBool, kInt, kDouble, kString, kArray, kObject,
  kRaw,  ///< validated, already-serialized JSON text (see the notes above)
};

const char* ToString(Type type);

/// A JSON document node.
class Json {
 public:
  Json() : type_(Type::kNull) {}
  /*implicit*/ Json(std::nullptr_t) : type_(Type::kNull) {}
  /*implicit*/ Json(bool value) : type_(Type::kBool), bool_(value) {}
  /*implicit*/ Json(int value) : type_(Type::kInt), int_(value) {}
  /*implicit*/ Json(unsigned value) : type_(Type::kInt), int_(value) {}
  /*implicit*/ Json(std::int64_t value) : type_(Type::kInt), int_(value) {}
  /*implicit*/ Json(std::uint64_t value)
      : type_(Type::kInt), int_(static_cast<std::int64_t>(value)) {}
  /*implicit*/ Json(double value) : type_(Type::kDouble), double_(value) {}
  /*implicit*/ Json(const char* value) : type_(Type::kString), string_(value) {}
  /*implicit*/ Json(std::string value)
      : type_(Type::kString), string_(std::move(value)) {}
  /*implicit*/ Json(std::string_view value)
      : type_(Type::kString), string_(value) {}
  /*implicit*/ Json(Array value)
      : type_(Type::kArray), array_(std::move(value)) {}
  /*implicit*/ Json(Object value)
      : type_(Type::kObject), object_(std::move(value)) {}

  static Json MakeObject() { return Json(Object{}); }
  static Json MakeArray() { return Json(Array{}); }

  Type type() const { return type_; }
  bool IsNull() const { return type_ == Type::kNull; }
  bool IsBool() const { return type_ == Type::kBool; }
  bool IsInt() const { return type_ == Type::kInt; }
  bool IsNumber() const { return type_ == Type::kInt || type_ == Type::kDouble; }
  bool IsString() const { return type_ == Type::kString; }
  bool IsArray() const { return type_ == Type::kArray; }
  bool IsObject() const { return type_ == Type::kObject; }

  /// Typed accessors; behaviour is checked (aborts) in debug builds and
  /// defined (returns zero value) otherwise. Prefer the Get* forms below
  /// for untrusted input.
  bool AsBool() const { return IsBool() ? bool_ : false; }
  std::int64_t AsInt() const {
    if (IsInt()) return int_;
    if (type_ == Type::kDouble) return static_cast<std::int64_t>(double_);
    return 0;
  }
  double AsDouble() const {
    if (type_ == Type::kDouble) return double_;
    if (IsInt()) return static_cast<double>(int_);
    return 0.0;
  }
  const std::string& AsString() const { return string_; }
  /// Mutable access for callers that move large strings (session blobs)
  /// in or out of a document without copying.
  std::string& AsString() { return string_; }
  const Array& AsArray() const { return array_; }
  Array& AsArray() { return array_; }
  const Object& AsObject() const { return object_; }
  Object& AsObject() { return object_; }

  /// Object field access. `Find` returns nullptr when missing or when this
  /// node is not an object.
  const Json* Find(std::string_view key) const;
  Json* Find(std::string_view key);

  /// Sets (or replaces) an object field; converts a null node to an object.
  void Set(std::string_view key, Json value);

  /// Appends to an array; converts a null node to an array.
  void Append(Json value);

  /// Convenience typed getters with defaults, for config parsing.
  bool GetBool(std::string_view key, bool fallback) const;
  std::int64_t GetInt(std::string_view key, std::int64_t fallback) const;
  double GetDouble(std::string_view key, double fallback) const;
  std::string GetString(std::string_view key, std::string_view fallback) const;

  /// Structural equality. Int and double nodes compare equal when their
  /// numeric values are equal (2 == 2.0), matching round-trip expectations.
  /// A raw node compares by the value its text parses to.
  friend bool operator==(const Json& a, const Json& b);
  friend bool operator!=(const Json& a, const Json& b) { return !(a == b); }

  /// Compact serialization ({"a":1}). A raw node's text is copied as is.
  std::string Dump() const;

  /// Pretty serialization with two-space indentation.
  std::string DumpPretty() const;

  /// Serialized size in bytes without building the string (used by the
  /// load model to cost payloads cheaply).
  std::size_t DumpSize() const;

 private:
  friend class Parser;

  /// A raw node over `text`; only the parser makes one, from text it
  /// has just accepted.
  static Json Raw(std::string_view text);

  void DumpTo(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;  ///< a string's value, or a raw node's text
  Array array_;
  Object object_;
};

/// Parses a JSON document. Accepts exactly one top-level value; trailing
/// whitespace is allowed, trailing content is an error.
Result<Json> Parse(std::string_view text);

/// Parses like Parse, with the same grammar, depth limit and errors, but
/// when the document is an object its members named `rawKey` are only
/// validated and kept as raw nodes holding their text. The wire
/// (server::ReadMessage) is its caller: a hop that forwards a large
/// member unread pays a validating scan instead of a DOM build and dump.
Result<Json> ParseKeepingRaw(std::string_view text, std::string_view rawKey);

/// Escapes `text` as the body of a JSON string literal (no quotes added).
void EscapeStringInto(std::string_view text, std::string& out);

}  // namespace rvss::json
