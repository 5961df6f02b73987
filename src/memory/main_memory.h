// Main memory: a byte array of fixed capacity, held as 4 KiB
// copy-on-write pages, with little-endian typed accessors.
//
// Matching the paper (§III-A), the simulator's memory is a flat byte array
// of predefined capacity. Functional correctness and timing are split:
// data reads/writes happen immediately on this array, while access *timing*
// is produced by MemorySystem (cache + latency model) through transaction
// objects. Stores are only performed at commit, in program order, so the
// immediate-write model is architecturally exact.
//
// The bytes live in pages held by shared_ptr. SaveState and RestoreState
// copy the page pointers, so a saved State shares every page with the
// memory it came from, and the first write to a page that a State still
// holds copies that page first. Checkpoints therefore share their
// unchanged pages with each other, and a page changed between two States
// exactly when the two hold different pointers for it: the checkpoint
// ring charges pages by that rule, and a delta session blob ships the
// pages whose pointer differs from the Create-time base's.
//
// Only the thread serving a session touches that session's pages, so a
// page's use_count is exact there; no page is shared between sessions
// (imports rebuild pages from blob bytes).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace rvss::memory {

class MainMemory {
 public:
  static constexpr std::uint32_t kPageSizeBytes = 4096;
  using Page = std::array<std::uint8_t, kPageSizeBytes>;

  /// The contents as shared pages. The last page may reach past
  /// sizeBytes; that tail stays zero.
  struct State {
    std::vector<std::shared_ptr<const Page>> pages;
    std::uint32_t sizeBytes = 0;
  };

  /// A zeroed memory: every page is one shared zero page, so a page that
  /// is never written costs nothing.
  explicit MainMemory(std::uint32_t sizeBytes) {
    state_.sizeBytes = sizeBytes;
    Clear();
  }

  std::uint32_t size() const { return state_.sizeBytes; }

  static std::uint32_t PageCountFor(std::uint32_t sizeBytes) {
    return static_cast<std::uint32_t>(
        (std::uint64_t{sizeBytes} + kPageSizeBytes - 1) / kPageSizeBytes);
  }

  /// True when [address, address+size) lies inside memory.
  bool InBounds(std::uint32_t address, std::uint32_t accessSize) const {
    return accessSize <= size() && address <= size() - accessSize;
  }

  /// Unchecked little-endian loads; callers bounds-check first (the LSU
  /// turns violations into runtime exceptions at commit).
  std::uint8_t Read8(std::uint32_t address) const {
    return (*state_.pages[address / kPageSizeBytes])[address % kPageSizeBytes];
  }
  std::uint16_t Read16(std::uint32_t address) const {
    return static_cast<std::uint16_t>(ReadLe<2>(address));
  }
  std::uint32_t Read32(std::uint32_t address) const {
    return static_cast<std::uint32_t>(ReadLe<4>(address));
  }
  std::uint64_t Read64(std::uint32_t address) const {
    return ReadLe<8>(address);
  }

  void Write8(std::uint32_t address, std::uint8_t value) {
    WritablePage(address / kPageSizeBytes)[address % kPageSizeBytes] = value;
  }
  void Write16(std::uint32_t address, std::uint16_t value) {
    WriteLe<2>(address, value);
  }
  void Write32(std::uint32_t address, std::uint32_t value) {
    WriteLe<4>(address, value);
  }
  void Write64(std::uint32_t address, std::uint64_t value) {
    WriteLe<8>(address, value);
  }

  /// Generic accessors used by the load/store unit (size in {1,2,4,8}).
  std::uint64_t ReadBytes(std::uint32_t address, std::uint32_t accessSize) const;
  void WriteBytes(std::uint32_t address, std::uint32_t accessSize,
                  std::uint64_t value);

  /// A copy of the whole contents, for dump export and the GUI memory
  /// pop-up.
  std::vector<std::uint8_t> Bytes() const;

  /// Zeroes all contents (simulation reset).
  void Clear();

  /// Restoring a State taken from a memory of a different capacity also
  /// restores that capacity (states always come from the same
  /// configuration).
  State SaveState() const { return state_; }
  void RestoreState(const State& state) { state_ = state; }

 private:
  /// The page at `index`, copied first unless this memory is its only
  /// holder.
  Page& WritablePage(std::uint32_t index) {
    std::shared_ptr<const Page>& page = state_.pages[index];
    if (page.use_count() != 1) page = std::make_shared<Page>(*page);
    // Every page is created non-const (make_shared<Page>), and no one
    // else holds this one.
    return const_cast<Page&>(*page);
  }

  /// An access inside one page reads or writes it in place; one that
  /// crosses a page boundary goes byte by byte.
  template <std::uint32_t N>
  std::uint64_t ReadLe(std::uint32_t address) const {
    std::uint64_t value = 0;
    const std::uint32_t offset = address % kPageSizeBytes;
    if (offset <= kPageSizeBytes - N) {
      const std::uint8_t* bytes =
          state_.pages[address / kPageSizeBytes]->data() + offset;
      for (std::uint32_t i = 0; i < N; ++i) {
        value |= std::uint64_t{bytes[i]} << (8 * i);
      }
      return value;
    }
    for (std::uint32_t i = 0; i < N; ++i) {
      value |= std::uint64_t{Read8(address + i)} << (8 * i);
    }
    return value;
  }
  template <std::uint32_t N>
  void WriteLe(std::uint32_t address, std::uint64_t value) {
    const std::uint32_t offset = address % kPageSizeBytes;
    if (offset <= kPageSizeBytes - N) {
      std::uint8_t* bytes =
          WritablePage(address / kPageSizeBytes).data() + offset;
      for (std::uint32_t i = 0; i < N; ++i) {
        bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
      }
      return;
    }
    for (std::uint32_t i = 0; i < N; ++i) {
      Write8(address + i, static_cast<std::uint8_t>(value >> (8 * i)));
    }
  }

  State state_;
};

}  // namespace rvss::memory
