// Small string helpers shared by the assembler, compiler and JSON modules.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rvss {

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string_view> Split(std::string_view text, char sep);

/// Splits on any amount of whitespace, dropping empty fields.
std::vector<std::string_view> SplitWhitespace(std::string_view text);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// Case-sensitive join with separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Lower-cases ASCII letters.
std::string ToLower(std::string_view text);

/// Parses a signed 64-bit integer in C syntax: decimal, 0x hex, 0b binary,
/// 0 octal, optional leading '-'. Returns nullopt on any trailing garbage.
std::optional<std::int64_t> ParseInt(std::string_view text);

/// Parses a double; returns nullopt on trailing garbage.
std::optional<double> ParseDouble(std::string_view text);

/// Formats a byte count as "12.3 KiB" style text (used by stats output).
std::string FormatBytes(std::uint64_t bytes);

/// Standard base64 (RFC 4648, with '=' padding). Binary-safe transport for
/// snapshot blobs inside JSON responses.
std::string Base64Encode(std::string_view bytes);

/// Decodes base64; returns nullopt on any character outside the alphabet
/// or a malformed length. Padding is required.
std::optional<std::string> Base64Decode(std::string_view text);

/// printf-style formatting into std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace rvss
