#include "json/json.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace rvss::json {

const char* ToString(Type type) {
  switch (type) {
    case Type::kNull: return "null";
    case Type::kBool: return "bool";
    case Type::kInt: return "int";
    case Type::kDouble: return "double";
    case Type::kString: return "string";
    case Type::kArray: return "array";
    case Type::kObject: return "object";
    case Type::kRaw: return "raw";
  }
  return "unknown";
}

Json Json::Raw(std::string text) {
  Json node;
  node.type_ = Type::kRaw;
  node.string_ = std::move(text);
  return node;
}

const Json* Json::Find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json* Json::Find(std::string_view key) {
  return const_cast<Json*>(static_cast<const Json*>(this)->Find(key));
}

void Json::Set(std::string_view key, Json value) {
  if (type_ == Type::kNull) *this = MakeObject();
  if (type_ != Type::kObject) return;
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::string(key), std::move(value));
}

void Json::Append(Json value) {
  if (type_ == Type::kNull) *this = MakeArray();
  if (type_ != Type::kArray) return;
  array_.push_back(std::move(value));
}

bool Json::GetBool(std::string_view key, bool fallback) const {
  const Json* node = Find(key);
  return node != nullptr && node->IsBool() ? node->AsBool() : fallback;
}

std::int64_t Json::GetInt(std::string_view key, std::int64_t fallback) const {
  const Json* node = Find(key);
  return node != nullptr && node->IsNumber() ? node->AsInt() : fallback;
}

double Json::GetDouble(std::string_view key, double fallback) const {
  const Json* node = Find(key);
  return node != nullptr && node->IsNumber() ? node->AsDouble() : fallback;
}

std::string Json::GetString(std::string_view key,
                            std::string_view fallback) const {
  const Json* node = Find(key);
  return node != nullptr && node->IsString() ? node->AsString()
                                             : std::string(fallback);
}

bool operator==(const Json& a, const Json& b) {
  // A raw node's text was accepted by the parser at a nesting depth of at
  // least one, or written by a Writer, so parsing it again as a document
  // cannot fail (nothing writes a document past the parser's depth limit).
  if (a.type_ == Type::kRaw) return Parse(a.string_).value() == b;
  if (b.type_ == Type::kRaw) return a == Parse(b.string_).value();
  if (a.IsNumber() && b.IsNumber()) {
    if (a.type_ == Type::kInt && b.type_ == Type::kInt) return a.int_ == b.int_;
    return a.AsDouble() == b.AsDouble();
  }
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Type::kNull: return true;
    case Type::kBool: return a.bool_ == b.bool_;
    case Type::kInt: return a.int_ == b.int_;
    case Type::kDouble: return a.double_ == b.double_;
    case Type::kString: return a.string_ == b.string_;
    case Type::kArray: return a.array_ == b.array_;
    case Type::kObject: return a.object_ == b.object_;
    case Type::kRaw: return false;  // handled above
  }
  return false;
}

namespace {

void AppendEscaped(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the plain characters not yet copied
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xf];
    }
  }
  out.append(text, run, text.size() - run);
}

void AppendDouble(std::string& out, double value) {
  if (std::isnan(value)) {
    out += "null";  // JSON has no NaN; null is the conventional stand-in.
    return;
  }
  if (std::isinf(value)) {
    out += value > 0 ? "1e999" : "-1e999";
    return;
  }
  // The shortest %g precision that reads back to the value; 17 digits
  // always do. to_chars with a precision writes exactly printf's bytes.
  char buffer[32];
  char* end = buffer;
  for (int precision = 1; precision <= 17; ++precision) {
    end = std::to_chars(buffer, buffer + sizeof buffer, value,
                        std::chars_format::general, precision)
              .ptr;
    double parsed = 0;
    std::from_chars(buffer, end, parsed);
    if (parsed == value) break;
  }
  out.append(buffer, end);
  // Ensure the text re-parses as a double, not an int.
  if (std::none_of(buffer, end,
                   [](char c) { return c == '.' || c == 'e' || c == 'E'; })) {
    out += ".0";
  }
}

void NewLine(std::string& out, int indent) {
  out += '\n';
  out.append(static_cast<std::size_t>(indent), ' ');
}

}  // namespace

void Writer::BeginValue() {
  if (afterKey_) {
    afterKey_ = false;
  } else {
    if (comma_) out_ += ',';
    if (indent_ != 0 && depth_ != 0) NewLine(out_, indent_ * depth_);
  }
  comma_ = true;
}

void Writer::Open(char bracket) {
  BeginValue();
  out_ += bracket;
  ++depth_;
  comma_ = false;
}

void Writer::Close(char bracket) {
  assert(depth_ > 0 && !afterKey_);
  --depth_;
  // A container that holds a value closes on its own line.
  if (indent_ != 0 && comma_) NewLine(out_, indent_ * depth_);
  out_ += bracket;
  comma_ = true;
}

void Writer::BeginObject() { Open('{'); }
void Writer::EndObject() { Close('}'); }
void Writer::BeginArray() { Open('['); }
void Writer::EndArray() { Close(']'); }

Writer& Writer::Key(std::string_view key) {
  BeginValue();
  out_ += '"';
  AppendEscaped(out_, key);
  out_ += indent_ != 0 ? "\": " : "\":";
  afterKey_ = true;
  return *this;
}

void Writer::Null() {
  BeginValue();
  out_ += "null";
}

void Writer::Bool(bool value) {
  BeginValue();
  out_ += value ? "true" : "false";
}

void Writer::Int(std::int64_t value) {
  BeginValue();
  char buffer[24];
  out_.append(buffer,
              std::to_chars(buffer, buffer + sizeof buffer, value).ptr);
}

void Writer::Double(double value) {
  BeginValue();
  AppendDouble(out_, value);
}

void Writer::String(std::string_view value) {
  BeginValue();
  out_ += '"';
  AppendEscaped(out_, value);
  out_ += '"';
}

void Writer::Raw(std::string_view text) {
  BeginValue();
  out_ += text;
}

Json Writer::Finish() && {
  assert(depth_ == 0 && !out_.empty() && "one value, every container closed");
  return Json::Raw(std::move(out_));
}

void Json::WriteTo(Writer& writer) const {
  switch (type_) {
    case Type::kNull: writer.Null(); return;
    case Type::kBool: writer.Bool(bool_); return;
    case Type::kInt: writer.Int(int_); return;
    case Type::kDouble: writer.Double(double_); return;
    case Type::kString: writer.String(string_); return;
    case Type::kRaw:
      if (writer.indent_ != 0) {
        Parse(string_).value().WriteTo(writer);
      } else {
        writer.Raw(string_);
      }
      return;
    case Type::kArray:
      writer.BeginArray();
      for (const Json& item : array_) item.WriteTo(writer);
      writer.EndArray();
      return;
    case Type::kObject:
      writer.BeginObject();
      for (const auto& [key, value] : object_) {
        writer.Key(key);
        value.WriteTo(writer);
      }
      writer.EndObject();
      return;
  }
}

std::string Json::Dump() const {
  Writer writer;
  WriteTo(writer);
  return std::move(writer).Finish().string_;
}

std::string Json::DumpPretty() const {
  Writer writer(2);
  WriteTo(writer);
  return std::move(writer).Finish().string_;
}

/// Recursive-descent JSON parser tracking line/column for diagnostics.
/// Every method takes the node (or string) it fills; a null output only
/// validates, through the same code. So a value kept raw is exactly a
/// value the DOM parse accepts, and a rejected one fails with the same
/// error at the same position either way. Not in an anonymous namespace:
/// it is Json's friend, a maker of raw nodes.
class Parser {
 public:
  Parser(std::string_view text, std::string_view rawKey)
      : text_(text), rawKey_(rawKey) {}

  Status ParseDocument(Json* out) {
    SkipWhitespace();
    RVSS_RETURN_IF_ERROR(ParseValue(0, out));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing content after JSON document");
    }
    return Status::Ok();
  }

 private:
  static constexpr int kMaxDepth = 256;

  Error Fail(std::string message) const {
    return Error{ErrorKind::kParse, std::move(message),
                 SourcePos{line_, static_cast<std::uint32_t>(pos_ - lineStart_ + 1)}};
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  static bool IsDigit(char c) { return c >= '0' && c <= '9'; }

  char Advance() {
    char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      lineStart_ = pos_;
    }
    return c;
  }

  void SkipWhitespace() {
    while (!AtEnd()) {
      char c = Peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        Advance();
      } else {
        break;
      }
    }
  }

  bool Consume(char expected) {
    if (AtEnd() || Peek() != expected) return false;
    Advance();
    return true;
  }

  Status ParseValue(int depth, Json* out) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    if (AtEnd()) return Fail("unexpected end of input");
    switch (Peek()) {
      case '{': return ParseObject(depth, out);
      case '[': return ParseArray(depth, out);
      case '"':
        if (out != nullptr) *out = Json(std::string());
        return ParseString(out != nullptr ? &out->AsString() : nullptr);
      case 't': return ParseLiteral("true", true, out);
      case 'f': return ParseLiteral("false", false, out);
      case 'n': return ParseLiteral("null", nullptr, out);
      default: return ParseNumber(out);
    }
  }

  Status ParseLiteral(std::string_view keyword, Json value, Json* out) {
    if (text_.substr(pos_, keyword.size()) != keyword) {
      return Fail("invalid literal");
    }
    for (std::size_t i = 0; i < keyword.size(); ++i) Advance();
    if (out != nullptr) *out = std::move(value);
    return Status::Ok();
  }

  Status ParseObject(int depth, Json* out) {
    Advance();  // '{'
    if (out != nullptr) *out = Json::MakeObject();
    Object* object = out != nullptr ? &out->AsObject() : nullptr;
    SkipWhitespace();
    if (Consume('}')) return Status::Ok();
    while (true) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') return Fail("expected object key string");
      std::string key;
      RVSS_RETURN_IF_ERROR(ParseString(object != nullptr ? &key : nullptr));
      SkipWhitespace();
      if (!Consume(':')) return Fail("expected ':' after object key");
      SkipWhitespace();
      if (object == nullptr) {
        RVSS_RETURN_IF_ERROR(ParseValue(depth + 1, nullptr));
      } else if (depth == 0 && !rawKey_.empty() && key == rawKey_) {
        const std::size_t start = pos_;
        RVSS_RETURN_IF_ERROR(ParseValue(depth + 1, nullptr));
        object->emplace_back(
            std::move(key),
            Json::Raw(std::string(text_.substr(start, pos_ - start))));
      } else {
        Json& value = object->emplace_back(std::move(key), Json()).second;
        RVSS_RETURN_IF_ERROR(ParseValue(depth + 1, &value));
      }
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::Ok();
      return Fail("expected ',' or '}' in object");
    }
  }

  Status ParseArray(int depth, Json* out) {
    Advance();  // '['
    if (out != nullptr) *out = Json::MakeArray();
    Array* array = out != nullptr ? &out->AsArray() : nullptr;
    SkipWhitespace();
    if (Consume(']')) return Status::Ok();
    while (true) {
      SkipWhitespace();
      RVSS_RETURN_IF_ERROR(ParseValue(
          depth + 1, array != nullptr ? &array->emplace_back() : nullptr));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::Ok();
      return Fail("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    Advance();  // '"'
    while (true) {
      // A run of plain characters at once: no quote, escape or control
      // character (so no newline) inside it.
      const std::size_t run = pos_;
      while (!AtEnd() && Peek() != '"' && Peek() != '\\' &&
             static_cast<unsigned char>(Peek()) >= 0x20) {
        ++pos_;
      }
      if (out != nullptr) out->append(text_, run, pos_ - run);
      if (AtEnd()) return Fail("unterminated string");
      char c = Advance();
      if (c == '"') return Status::Ok();
      if (c != '\\') return Fail("raw control character in string");
      if (AtEnd()) return Fail("unterminated escape");
      char esc = Advance();
      unsigned cp = 0;
      switch (esc) {
        case '"': cp = '"'; break;
        case '\\': cp = '\\'; break;
        case '/': cp = '/'; break;
        case 'b': cp = '\b'; break;
        case 'f': cp = '\f'; break;
        case 'n': cp = '\n'; break;
        case 'r': cp = '\r'; break;
        case 't': cp = '\t'; break;
        case 'u': {
          RVSS_ASSIGN_OR_RETURN(cp, ParseHex4());
          // Surrogate pair handling.
          if (cp >= 0xd800 && cp <= 0xdbff) {
            if (!Consume('\\') || !Consume('u')) {
              return Fail("unpaired surrogate in \\u escape");
            }
            RVSS_ASSIGN_OR_RETURN(unsigned lo, ParseHex4());
            if (lo < 0xdc00 || lo > 0xdfff) {
              return Fail("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
          }
          break;
        }
        default:
          return Fail("invalid escape character");
      }
      if (out != nullptr) AppendUtf8(*out, cp);
    }
  }

  Result<unsigned> ParseHex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      if (AtEnd()) return Fail("truncated \\u escape");
      char c = Advance();
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else return Fail("invalid hex digit in \\u escape");
    }
    return value;
  }

  static void AppendUtf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xc0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xe0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    }
  }

  Status ParseNumber(Json* out) {
    const std::size_t start = pos_;
    bool isDouble = false;
    if (Consume('-')) {
    }
    if (AtEnd()) return Fail("truncated number");
    if (!IsDigit(Peek())) {
      return Fail("invalid number");
    }
    while (!AtEnd() && IsDigit(Peek())) Advance();
    if (!AtEnd() && Peek() == '.') {
      isDouble = true;
      Advance();
      if (AtEnd() || !IsDigit(Peek())) {
        return Fail("digit expected after decimal point");
      }
      while (!AtEnd() && IsDigit(Peek())) Advance();
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      isDouble = true;
      Advance();
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) Advance();
      if (AtEnd() || !IsDigit(Peek())) {
        return Fail("digit expected in exponent");
      }
      while (!AtEnd() && IsDigit(Peek())) Advance();
    }
    // The grammar is complete here: conversion cannot reject a literal
    // it accepted (strtod reads every such literal whole in the C locale,
    // which nothing in rvss changes), so validating stops here.
    if (out == nullptr) return Status::Ok();
    std::string literal(text_.substr(start, pos_ - start));
    if (!isDouble) {
      errno = 0;
      char* end = nullptr;
      long long value = std::strtoll(literal.c_str(), &end, 10);
      if (errno == 0 && end == literal.c_str() + literal.size()) {
        *out = Json(static_cast<std::int64_t>(value));
        return Status::Ok();
      }
      // Fall through to double for out-of-range integers.
    }
    char* end = nullptr;
    double value = std::strtod(literal.c_str(), &end);
    if (end != literal.c_str() + literal.size()) return Fail("invalid number");
    *out = Json(value);
    return Status::Ok();
  }

  std::string_view text_;
  std::string_view rawKey_;  ///< top-level member kept raw; empty: none
  std::size_t pos_ = 0;
  std::uint32_t line_ = 1;
  std::size_t lineStart_ = 0;
};

Result<Json> Parse(std::string_view text) {
  return ParseKeepingRaw(text, {});
}

Result<Json> ParseKeepingRaw(std::string_view text, std::string_view rawKey) {
  Json document;
  RVSS_RETURN_IF_ERROR(Parser(text, rawKey).ParseDocument(&document));
  return document;
}

}  // namespace rvss::json
