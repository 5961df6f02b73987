#include "common/strings.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace rvss {

std::vector<std::string_view> Split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string_view> SplitWhitespace(std::string_view text) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    std::size_t start = i;
    while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i > start) out.push_back(text.substr(start, i - start));
  }
  return out;
}

std::string_view Trim(std::string_view text) {
  std::size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  std::size_t end = text.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::optional<std::int64_t> ParseInt(std::string_view text) {
  text = Trim(text);
  if (text.empty()) return std::nullopt;
  bool negative = false;
  if (text[0] == '-' || text[0] == '+') {
    negative = text[0] == '-';
    text.remove_prefix(1);
    if (text.empty()) return std::nullopt;
  }
  int base = 10;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    base = 16;
    text.remove_prefix(2);
  } else if (text.size() > 2 && text[0] == '0' && (text[1] == 'b' || text[1] == 'B')) {
    base = 2;
    text.remove_prefix(2);
  } else if (text.size() > 1 && text[0] == '0') {
    base = 8;
  }
  std::uint64_t value = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return std::nullopt;
    if (digit >= base) return std::nullopt;
    value = value * static_cast<std::uint64_t>(base) + static_cast<std::uint64_t>(digit);
  }
  std::int64_t signedValue = static_cast<std::int64_t>(value);
  return negative ? -signedValue : signedValue;
}

std::optional<double> ParseDouble(std::string_view text) {
  text = Trim(text);
  if (text.empty()) return std::nullopt;
  std::string buffer(text);
  char* end = nullptr;
  double value = std::strtod(buffer.c_str(), &end);
  if (end != buffer.c_str() + buffer.size()) return std::nullopt;
  return value;
}

std::string FormatBytes(std::uint64_t bytes) {
  static constexpr const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double value = static_cast<double>(bytes);
  std::size_t unit = 0;
  while (value >= 1024.0 && unit + 1 < std::size(kUnits)) {
    value /= 1024.0;
    ++unit;
  }
  char buffer[64];
  if (unit == 0) {
    std::snprintf(buffer, sizeof buffer, "%llu B",
                  static_cast<unsigned long long>(bytes));
  } else {
    std::snprintf(buffer, sizeof buffer, "%.1f %s", value, kUnits[unit]);
  }
  return buffer;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list argsCopy;
  va_copy(argsCopy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, argsCopy);
  }
  va_end(argsCopy);
  return out;
}

namespace {

constexpr char kBase64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Value of a base64 character, or -1 when outside the alphabet.
int Base64Value(char c) {
  if (c >= 'A' && c <= 'Z') return c - 'A';
  if (c >= 'a' && c <= 'z') return c - 'a' + 26;
  if (c >= '0' && c <= '9') return c - '0' + 52;
  if (c == '+') return 62;
  if (c == '/') return 63;
  return -1;
}

}  // namespace

std::string Base64Encode(std::string_view bytes) {
  std::string out;
  out.reserve((bytes.size() + 2) / 3 * 4);
  std::size_t i = 0;
  for (; i + 3 <= bytes.size(); i += 3) {
    const std::uint32_t group =
        (static_cast<std::uint8_t>(bytes[i]) << 16) |
        (static_cast<std::uint8_t>(bytes[i + 1]) << 8) |
        static_cast<std::uint8_t>(bytes[i + 2]);
    out += kBase64Alphabet[(group >> 18) & 63];
    out += kBase64Alphabet[(group >> 12) & 63];
    out += kBase64Alphabet[(group >> 6) & 63];
    out += kBase64Alphabet[group & 63];
  }
  const std::size_t rest = bytes.size() - i;
  if (rest == 1) {
    const std::uint32_t group = static_cast<std::uint8_t>(bytes[i]) << 16;
    out += kBase64Alphabet[(group >> 18) & 63];
    out += kBase64Alphabet[(group >> 12) & 63];
    out += "==";
  } else if (rest == 2) {
    const std::uint32_t group =
        (static_cast<std::uint8_t>(bytes[i]) << 16) |
        (static_cast<std::uint8_t>(bytes[i + 1]) << 8);
    out += kBase64Alphabet[(group >> 18) & 63];
    out += kBase64Alphabet[(group >> 12) & 63];
    out += kBase64Alphabet[(group >> 6) & 63];
    out += '=';
  }
  return out;
}

std::optional<std::string> Base64Decode(std::string_view text) {
  if (text.size() % 4 != 0) return std::nullopt;
  std::string out;
  out.reserve(text.size() / 4 * 3);
  for (std::size_t i = 0; i < text.size(); i += 4) {
    const bool lastGroup = i + 4 == text.size();
    int pad = 0;
    std::uint32_t group = 0;
    for (int j = 0; j < 4; ++j) {
      const char c = text[i + static_cast<std::size_t>(j)];
      if (c == '=') {
        // Padding is only legal in the last one or two positions of the
        // final group.
        if (!lastGroup || j < 2) return std::nullopt;
        ++pad;
        group <<= 6;
        continue;
      }
      if (pad > 0) return std::nullopt;  // data after padding
      const int value = Base64Value(c);
      if (value < 0) return std::nullopt;
      group = (group << 6) | static_cast<std::uint32_t>(value);
    }
    out += static_cast<char>((group >> 16) & 0xff);
    if (pad < 2) out += static_cast<char>((group >> 8) & 0xff);
    if (pad < 1) out += static_cast<char>(group & 0xff);
  }
  return out;
}

}  // namespace rvss
