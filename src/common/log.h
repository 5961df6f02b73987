// Cycle-stamped debug log, mirroring the paper's right-hand panel log: each
// message is tagged with the simulation cycle in which it was generated so a
// GUI (or our pipeline_viewer example) can navigate to that cycle.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

namespace rvss {

enum class LogLevel : std::uint8_t { kDebug, kInfo, kWarning, kError };

const char* ToString(LogLevel level);

/// One emitted message.
struct LogEntry {
  std::uint64_t cycle = 0;
  LogLevel level = LogLevel::kInfo;
  std::string block;  ///< originating block name, e.g. "Fetch"
  std::string text;
};

/// Bounded in-memory log. Deterministic: no timestamps, only cycles.
///
/// The bound is two-dimensional: an entry-count capacity and a byte budget.
/// The byte budget is what keeps snapshot blobs small — on chatty runs the
/// log otherwise dominates the non-memory bytes of an encoded snapshot
/// (free-form text entries grow without limit while every other subsystem
/// is fixed-size). Oldest entries are evicted first; the newest entry is
/// always kept even if it alone exceeds the budget.
class SimLog {
 public:
  static constexpr std::size_t kDefaultMaxBytes = 256 * 1024;

  explicit SimLog(std::size_t capacity = 4096,
                  std::size_t maxBytes = kDefaultMaxBytes)
      : capacity_(capacity), maxBytes_(maxBytes) {}

  /// Appends a message; evicts the oldest entries beyond the entry
  /// capacity or the byte budget.
  void Add(std::uint64_t cycle, LogLevel level, std::string block,
           std::string text);

  /// Minimum level stored; lower-level messages are dropped at the source.
  void SetMinLevel(LogLevel level) { minLevel_ = level; }

  /// Byte budget for the stored entries (0 = unlimited). A setting, not
  /// simulation state: snapshots do not carry it.
  void SetByteBudget(std::size_t maxBytes);

  /// Approximate heap footprint of the stored entries — the quantity the
  /// byte budget bounds and checkpoint accounting charges.
  std::size_t approxBytes() const { return bytes_; }

  /// Cost one entry contributes to approxBytes().
  static std::size_t EntryBytes(const LogEntry& entry) {
    return sizeof(LogEntry) + entry.block.size() + entry.text.size();
  }

  const std::deque<LogEntry>& entries() const { return entries_; }
  void Clear() {
    entries_.clear();
    bytes_ = 0;
  }

  /// Copyable snapshot of the stored entries. The capacity, byte budget
  /// and minimum level are settings, not simulation state, and are left
  /// untouched by RestoreState.
  struct State {
    std::deque<LogEntry> entries;
  };
  State SaveState() const { return State{entries_}; }
  void RestoreState(const State& state);

  /// Renders "cycle [level] block: text" lines.
  std::string ToText() const;

 private:
  /// Drops oldest entries until both bounds hold (keeping >= 1 entry).
  void EvictToBounds();

  std::size_t capacity_;  // snapshot: derived
  std::size_t maxBytes_;  // snapshot: derived
  std::size_t bytes_ = 0;
  LogLevel minLevel_ = LogLevel::kInfo;  // snapshot: derived
  std::deque<LogEntry> entries_;
};

}  // namespace rvss
