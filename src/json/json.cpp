#include "json/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

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

Json Json::Raw(std::string_view text) {
  Json node;
  node.type_ = Type::kRaw;
  node.string_ = text;
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
  // least one, so parsing it again as a document cannot fail.
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

void EscapeStringInto(std::string_view text, std::string& out) {
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
}

namespace {

void AppendDouble(std::string& out, double value) {
  if (std::isnan(value)) {
    out += "null";  // JSON has no NaN; null is the conventional stand-in.
    return;
  }
  if (std::isinf(value)) {
    out += value > 0 ? "1e999" : "-1e999";
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  // Trim to shortest representation that round-trips.
  for (int precision = 1; precision < 17; ++precision) {
    char candidate[32];
    std::snprintf(candidate, sizeof candidate, "%.*g", precision, value);
    double parsed = 0;
    std::sscanf(candidate, "%lf", &parsed);
    if (parsed == value) {
      std::memcpy(buffer, candidate, sizeof candidate);
      break;
    }
  }
  out += buffer;
  // Ensure the text re-parses as a double, not an int.
  if (out.find_first_of(".eE", out.size() - std::strlen(buffer)) ==
      std::string::npos) {
    out += ".0";
  }
}

}  // namespace

void Json::DumpTo(std::string& out, int indent, int depth) const {
  const bool pretty = indent > 0;
  auto newline = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type_) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += bool_ ? "true" : "false"; return;
    case Type::kInt: out += std::to_string(int_); return;
    case Type::kDouble: AppendDouble(out, double_); return;
    case Type::kRaw:
      if (pretty) {
        Parse(string_).value().DumpTo(out, indent, depth);
      } else {
        out += string_;
      }
      return;
    case Type::kString:
      out += '"';
      EscapeStringInto(string_, out);
      out += '"';
      return;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i != 0) out += ',';
        newline(depth + 1);
        array_[i].DumpTo(out, indent, depth + 1);
      }
      newline(depth);
      out += ']';
      return;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i != 0) out += ',';
        newline(depth + 1);
        out += '"';
        EscapeStringInto(object_[i].first, out);
        out += pretty ? "\": " : "\":";
        object_[i].second.DumpTo(out, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      return;
    }
  }
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(out, 0, 0);
  return out;
}

std::string Json::DumpPretty() const {
  std::string out;
  DumpTo(out, 2, 0);
  return out;
}

std::size_t Json::DumpSize() const {
  // Exact by construction: serialize into a reusable thread-local scratch
  // buffer instead of duplicating DumpTo with a counting variant.
  thread_local std::string scratch;
  scratch.clear();
  DumpTo(scratch, 0, 0);
  return scratch.size();
}

/// Recursive-descent JSON parser tracking line/column for diagnostics.
/// Every method takes the node (or string) it fills; a null output only
/// validates, through the same code. So a value kept raw is exactly a
/// value the DOM parse accepts, and a rejected one fails with the same
/// error at the same position either way. Not in an anonymous namespace:
/// it is Json's friend, the one maker of raw nodes.
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
        object->emplace_back(std::move(key),
                             Json::Raw(text_.substr(start, pos_ - start)));
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
