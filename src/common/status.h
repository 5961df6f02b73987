// Lightweight status / expected-value error handling used across rvss.
//
// The simulator is a library first: nothing in src/ throws across module
// boundaries. Fallible operations return Status (void results) or
// Result<T> (value results). Both carry a human-readable message plus an
// optional source location (line/column) so assembler and compiler
// diagnostics can point at user code.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace rvss {

/// Position inside a user-supplied text (assembly or C source).
/// Lines and columns are 1-based; 0 means "unknown".
struct SourcePos {
  std::uint32_t line = 0;
  std::uint32_t column = 0;

  friend bool operator==(const SourcePos&, const SourcePos&) = default;
};

/// Broad classification of an error, mirrored in JSON API responses.
enum class ErrorKind : std::uint8_t {
  kInvalidArgument,  ///< caller passed something malformed
  kParse,            ///< syntax error in asm / C / JSON input
  kSemantic,         ///< well-formed but meaningless (type error, bad label)
  kConfig,           ///< architecture configuration rejected by validation
  kRuntime,          ///< simulation-time fault (bad memory access, div fault)
  kUnsupported,      ///< feature intentionally outside the supported subset
  kInternal,         ///< invariant violation inside the simulator itself
  kUnavailable,      ///< transient capacity/transport failure — retryable:
                     ///< the same request may succeed later or elsewhere
};

/// The last ErrorKind: a reader of encoded kinds (the snapshot codec)
/// accepts every kind up to it. Keep it the enum's last value.
inline constexpr ErrorKind kLastErrorKind = ErrorKind::kUnavailable;

/// Returns a stable lower-case identifier for the kind ("parse", ...).
const char* ToString(ErrorKind kind);

/// Error value: kind + message + optional source position.
struct Error {
  ErrorKind kind = ErrorKind::kInternal;
  std::string message;
  SourcePos pos;

  Error() = default;
  Error(ErrorKind k, std::string msg, SourcePos p = {})
      : kind(k), message(std::move(msg)), pos(p) {}

  /// Formats "kind: message (line L, col C)" for logs and CLI output.
  std::string ToText() const;
};

/// Status of a void operation. Default-constructed status is OK.
class [[nodiscard]] Status {
 public:
  Status() = default;
  /*implicit*/ Status(Error error) : error_(std::move(error)) {}

  static Status Ok() { return Status(); }
  static Status Fail(ErrorKind kind, std::string message, SourcePos pos = {}) {
    return Status(Error{kind, std::move(message), pos});
  }

  bool ok() const { return !error_.has_value(); }
  explicit operator bool() const { return ok(); }

  /// Requires !ok().
  const Error& error() const { return *error_; }

  /// "ok" or the error text.
  std::string ToText() const;

 private:
  std::optional<Error> error_;
};

/// Expected-style result: either a value or an Error.
template <typename T>
class [[nodiscard]] Result {
 public:
  /*implicit*/ Result(T value) : data_(std::move(value)) {}
  /*implicit*/ Result(Error error) : data_(std::move(error)) {}

  static Result Fail(ErrorKind kind, std::string message, SourcePos pos = {}) {
    return Result(Error{kind, std::move(message), pos});
  }

  bool ok() const { return std::holds_alternative<T>(data_); }
  explicit operator bool() const { return ok(); }

  /// Requires ok().
  const T& value() const& { return std::get<T>(data_); }
  T& value() & { return std::get<T>(data_); }
  T&& value() && { return std::get<T>(std::move(data_)); }

  /// Requires !ok().
  const Error& error() const { return std::get<Error>(data_); }

  /// Drops the value, keeping only success/failure.
  Status status() const {
    return ok() ? Status::Ok() : Status(std::get<Error>(data_));
  }

 private:
  std::variant<T, Error> data_;
};

/// Propagate-on-error helper: `RVSS_RETURN_IF_ERROR(DoThing());`
#define RVSS_RETURN_IF_ERROR(expr)                  \
  do {                                              \
    ::rvss::Status rvss_status_ = (expr);           \
    if (!rvss_status_.ok()) return rvss_status_.error(); \
  } while (false)

/// `RVSS_ASSIGN_OR_RETURN(auto v, MakeThing());`
#define RVSS_ASSIGN_OR_RETURN(decl, expr)       \
  decl = ({                                     \
    auto rvss_result_ = (expr);                 \
    if (!rvss_result_.ok()) return rvss_result_.error(); \
    std::move(rvss_result_).value();            \
  })

}  // namespace rvss
