// Main memory: a 1-D byte array with little-endian typed accessors.
//
// Matching the paper (§III-A), the simulator's memory is a flat byte array
// of predefined capacity. Functional correctness and timing are split:
// data reads/writes happen immediately on this array, while access *timing*
// is produced by MemorySystem (cache + latency model) through transaction
// objects. Stores are only performed at commit, in program order, so the
// immediate-write model is architecturally exact.
//
// The array also tracks which 4 KiB pages have been written since the last
// ClearDirtyFlags() call. The checkpoint system uses this to store *delta*
// checkpoints (only the pages touched since the last full snapshot) instead
// of whole memory images. Tracking is conservative: anything that mutates
// bytes outside the typed Write* accessors (the mutable bytes() span, Clear,
// RestoreState) marks every page dirty.
//
// A second, longer-lived accumulator tracks pages dirtied since the memory
// was last *rebased* — i.e. since it last provably equaled the session's
// base image (the post-load state a fresh Create reproduces). The snapshot
// codec's delta blob form ships only these pages. The accumulator is fed
// for free: ClearDirtyFlags() folds the per-interval dirt into it before
// clearing, so the write hot path pays nothing extra.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace rvss::memory {

class MainMemory {
 public:
  /// Dirty-tracking granularity. 4 KiB balances bitmap cost against delta
  /// precision for the 64 KiB..64 MiB memories the simulator configures.
  static constexpr std::uint32_t kPageSizeBytes = 4096;

  explicit MainMemory(std::uint32_t sizeBytes)
      : bytes_(sizeBytes, 0),
        dirtyPages_(PageCountFor(sizeBytes), 1),
        dirtySinceBase_(PageCountFor(sizeBytes), 1) {}

  std::uint32_t size() const { return static_cast<std::uint32_t>(bytes_.size()); }

  /// True when [address, address+size) lies inside memory.
  bool InBounds(std::uint32_t address, std::uint32_t accessSize) const {
    return accessSize <= bytes_.size() &&
           address <= bytes_.size() - accessSize;
  }

  /// Unchecked little-endian loads; callers bounds-check first (the LSU
  /// turns violations into runtime exceptions at commit).
  std::uint8_t Read8(std::uint32_t address) const { return bytes_[address]; }
  std::uint16_t Read16(std::uint32_t address) const;
  std::uint32_t Read32(std::uint32_t address) const;
  std::uint64_t Read64(std::uint32_t address) const;

  void Write8(std::uint32_t address, std::uint8_t value) {
    bytes_[address] = value;
    dirtyPages_[address / kPageSizeBytes] = 1;
  }
  void Write16(std::uint32_t address, std::uint16_t value);
  void Write32(std::uint32_t address, std::uint32_t value);
  void Write64(std::uint32_t address, std::uint64_t value);

  /// Generic accessors used by the load/store unit (size in {1,2,4,8}).
  std::uint64_t ReadBytes(std::uint32_t address, std::uint32_t accessSize) const;
  void WriteBytes(std::uint32_t address, std::uint32_t accessSize,
                  std::uint64_t value);

  /// Whole-memory views for dump import/export and the GUI memory pop-up.
  /// The mutable view can bypass dirty tracking, so handing it out marks
  /// everything dirty (conservative, correct).
  std::span<const std::uint8_t> bytes() const { return bytes_; }
  std::span<std::uint8_t> bytes() {
    MarkAllDirty();
    return bytes_;
  }

  /// Zeroes all contents (simulation reset).
  void Clear();

  // --- page-level dirty tracking -------------------------------------------

  std::uint32_t PageCount() const {
    return static_cast<std::uint32_t>(dirtyPages_.size());
  }

  /// ORs this memory's dirty flags into `accumulator` (one flag per page).
  /// The checkpoint system folds per-interval dirt into a dirty-since-full
  /// set this way.
  void FoldDirtyInto(std::vector<std::uint8_t>& accumulator) const;

  void ClearDirtyFlags();
  void MarkAllDirty();

  // --- dirty-since-base tracking (delta session blobs) ---------------------

  /// True when `page` may differ from the base image. Conservative: the
  /// union of the since-base accumulator and the current dirty window.
  bool PageDirtySinceBase(std::uint32_t page) const {
    return dirtySinceBase_[page] != 0 || dirtyPages_[page] != 0;
  }

  /// One flag per page, `PageDirtySinceBase` materialized.
  std::vector<std::uint8_t> DirtySinceBase() const;

  /// Declares the current contents to *be* the base image: both trackers
  /// clear. Call only at a point where the contents provably equal what a
  /// fresh Create would produce (end of Simulation::Create).
  void RebaseDirtyTracking();

  /// Declares the current contents to differ from the base image exactly at
  /// the pages flagged in `pages` (sized like the page count; excess pages
  /// are treated as dirty). Used after a delta import, where the overlaid
  /// page set is known precisely.
  void SetDirtySinceBase(const std::vector<std::uint8_t>& pages);

  /// Copyable snapshot of the full memory contents. Restoring a snapshot
  /// taken from a memory of a different capacity also restores that
  /// capacity (snapshots always come from the same configuration).
  struct State {
    std::vector<std::uint8_t> bytes;
  };
  State SaveState() const { return State{bytes_}; }
  void RestoreState(const State& state) {
    bytes_ = state.bytes;
    dirtyPages_.assign(PageCountFor(static_cast<std::uint32_t>(bytes_.size())),
                       1);
    dirtySinceBase_.assign(
        PageCountFor(static_cast<std::uint32_t>(bytes_.size())), 1);
  }

 private:
  static std::uint32_t PageCountFor(std::uint32_t sizeBytes) {
    return (sizeBytes + kPageSizeBytes - 1) / kPageSizeBytes;
  }
  void MarkDirtyRange(std::uint32_t address, std::uint32_t accessSize) {
    dirtyPages_[address / kPageSizeBytes] = 1;
    dirtyPages_[(address + accessSize - 1) / kPageSizeBytes] = 1;
  }

  std::vector<std::uint8_t> bytes_;
  std::vector<std::uint8_t> dirtyPages_;      ///< one flag per page
  std::vector<std::uint8_t> dirtySinceBase_;  ///< folded on ClearDirtyFlags
};

}  // namespace rvss::memory
