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
//  * One serializer: a json::Writer appends a document's text to one
//    buffer as it is written, without building a DOM. Json::Dump and
//    DumpPretty are a walk of the DOM into a Writer, so a streamed
//    document and a DOM dump format each key, string, int and double in
//    the same place and cannot differ byte for byte.
//  * A raw node (Type::kRaw) is a value kept as serialized text, so a hop
//    that only forwards it never builds or dumps its DOM. Two things make
//    one, and nothing else does:
//      - the parser, from text it has just accepted: ParseKeepingRaw keeps
//        the top-level members it names raw (json::Parse never does). The
//        grammar is the parser's own: validating and DOM building are the
//        same code, so such a node holds exactly the text Parse would
//        accept at that depth;
//      - Writer::Finish, from the text the Writer wrote (the rendered
//        machine state is one, server/state_renderer.h).
//    Semantics:
//      - Dump copies the text.
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
class Writer;

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

  /// Typed accessors. None checks the type or aborts: on another type
  /// AsBool returns false, AsInt and AsDouble return 0 (between int and
  /// double they convert), and AsString, AsArray and AsObject return this
  /// node's own member, which is empty unless the node has that type (a
  /// raw node's AsString is its text). Prefer the Get* forms below for
  /// untrusted input.
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

 private:
  friend class Parser;
  friend class Writer;

  /// A raw node holding `text`; only the parser and Writer::Finish make
  /// one (see the notes above).
  static Json Raw(std::string text);

  /// Writes this value into `writer`: the one walk behind Dump and
  /// DumpPretty.
  void WriteTo(Writer& writer) const;

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

/// Streams one JSON value into a buffer, writing exactly the bytes
/// Json::Dump writes for the equivalent DOM (same member order, same
/// number and string formatting). Calls describe one value: inside an
/// object each value follows its Key, and each Begin* is closed by the
/// matching End*. A call out of that order is a program bug, not an
/// input error: debug builds assert that every container was closed
/// and that no End* closes a key or an unopened container; release
/// builds check nothing.
class Writer {
 public:
  Writer() = default;

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();
  /// Writes an object member's key; the next call writes its value.
  Writer& Key(std::string_view key);
  void Null();
  void Bool(bool value);
  void Int(std::int64_t value);
  /// NaN is written as null and an infinity as +-1e999; a finite value
  /// as the shortest %g text that reads back to it, with ".0" appended
  /// when that text would read back as an int.
  void Double(double value);
  void String(std::string_view value);

  /// The text written, as a raw node; the buffer is moved into the node,
  /// not copied.
  Json Finish() &&;

 private:
  friend class Json;

  /// Pretty output indented `indent` spaces per level: only DumpPretty
  /// selects it.
  explicit Writer(int indent) : indent_(indent) {}

  /// Writes what precedes a value or a key: a comma after the previous
  /// member, and in pretty output a line break and the indentation.
  void BeginValue();
  void Open(char bracket);
  void Close(char bracket);
  /// Copies a raw node's text as one value.
  void Raw(std::string_view text);

  std::string out_;
  int indent_ = 0;
  int depth_ = 0;          ///< containers open
  bool comma_ = false;     ///< a value at this level precedes the next
  bool afterKey_ = false;  ///< the next value belongs to the key just written
};

}  // namespace rvss::json
