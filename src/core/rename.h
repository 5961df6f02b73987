// Register renaming: architectural register file, speculative (rename)
// register file and the rename map.
//
// Paper §III-B: "registers maintain all necessary information for
// renaming. Each register tracks the number of references; architectural
// registers use a list of all renamed copies, while renamed (speculative)
// registers hold a pointer to the corresponding architectural register."
// We keep exactly that bookkeeping: speculative entries know their
// architectural target and count outstanding consumer references, and the
// map can enumerate every live rename of an architectural register.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "expr/reg_value.h"
#include "isa/register_file_info.h"

namespace rvss::core {

/// Architectural register state: 64-bit cells (paper §III-B), x0 pinned.
class ArchRegisterFile {
 public:
  std::uint64_t Read(isa::RegisterId reg) const {
    return reg.kind == isa::RegisterKind::kInt ? x_[reg.index] : f_[reg.index];
  }
  void Write(isa::RegisterId reg, std::uint64_t cell) {
    if (reg.kind == isa::RegisterKind::kInt) {
      if (reg.index != 0) x_[reg.index] = cell;
    } else {
      f_[reg.index] = cell;
    }
  }

  /// Copyable snapshot of both register banks.
  struct State {
    std::array<std::uint64_t, 32> x{};
    std::array<std::uint64_t, 32> f{};
  };
  State SaveState() const { return State{x_, f_}; }
  void RestoreState(const State& state) {
    x_ = state.x;
    f_ = state.f;
  }

 private:
  std::array<std::uint64_t, 32> x_{};
  std::array<std::uint64_t, 32> f_{};
};

/// One speculative register.
struct SpecRegister {
  bool inUse = false;
  bool valid = false;          ///< value has been produced
  std::uint64_t cell = 0;
  isa::RegisterId arch;        ///< architectural target
  std::uint32_t references = 0;///< outstanding consumers waiting on this tag
};

/// Speculative register file + rename map.
class RenameState {
 public:
  explicit RenameState(std::uint32_t renameRegisterCount);

  /// Current mapping of an architectural register: a speculative tag, or
  /// nullopt when the architectural value is current. Inline: decode calls
  /// this for every register source operand.
  std::optional<int> Lookup(isa::RegisterId reg) const {
    const int tag = map_[static_cast<std::size_t>(MapIndex(reg))];
    if (tag < 0) return std::nullopt;
    return tag;
  }

  /// Allocates a speculative register for `arch` and points the map at it.
  /// Returns nullopt when the rename file is exhausted (decode stalls).
  /// The returned pair is (newTag, previousTag or kPrevWasArchitectural).
  std::optional<std::pair<int, int>> AllocateAndMap(isa::RegisterId arch);

  /// Commit: the speculative value becomes architectural. Clears the map
  /// entry when it still points at `tag`, and frees the register.
  void CommitAndFree(int tag, ArchRegisterFile& archFile);

  /// Squash: undo one rename (youngest-first walk), restoring `prevTag`.
  void SquashAndFree(int tag, int prevTag);

  SpecRegister& reg(int tag) { return regs_[static_cast<std::size_t>(tag)]; }
  const SpecRegister& reg(int tag) const {
    return regs_[static_cast<std::size_t>(tag)];
  }

  std::uint32_t FreeCount() const { return freeCount_; }
  std::uint32_t size() const { return static_cast<std::uint32_t>(regs_.size()); }

  /// All live renames of `arch`, oldest mapping last (paper: the list of
  /// renamed copies an architectural register keeps). For GUI display.
  std::vector<int> RenamesOf(isa::RegisterId arch) const;

  /// Copyable snapshot of the speculative file, free list and rename map.
  struct State {
    std::vector<SpecRegister> regs;
    std::vector<int> freeList;
    std::uint32_t freeCount = 0;
    std::array<int, 64> map{};
  };
  State SaveState() const { return State{regs_, freeList_, freeCount_, map_}; }
  void RestoreState(const State& state) {
    regs_ = state.regs;
    freeList_ = state.freeList;
    freeCount_ = state.freeCount;
    map_ = state.map;
  }

 private:
  int MapIndex(isa::RegisterId reg) const {
    return (reg.kind == isa::RegisterKind::kFp ? 32 : 0) + reg.index;
  }

  std::vector<SpecRegister> regs_;
  std::vector<int> freeList_;
  std::uint32_t freeCount_ = 0;
  /// 64 entries (x0..x31, f0..f31): current tag or -1 (architectural).
  std::array<int, 64> map_;
};

}  // namespace rvss::core
