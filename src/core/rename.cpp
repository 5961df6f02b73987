#include "core/rename.h"

#include "core/inflight.h"

namespace rvss::core {

RenameState::RenameState(std::uint32_t renameRegisterCount)
    : regs_(renameRegisterCount), freeCount_(renameRegisterCount) {
  freeList_.reserve(renameRegisterCount);
  // Allocate low tags first (pop from the back).
  for (int tag = static_cast<int>(renameRegisterCount) - 1; tag >= 0; --tag) {
    freeList_.push_back(tag);
  }
  map_.fill(-1);
}

std::optional<std::pair<int, int>> RenameState::AllocateAndMap(
    isa::RegisterId arch) {
  if (freeList_.empty()) return std::nullopt;
  const int tag = freeList_.back();
  freeList_.pop_back();
  --freeCount_;

  SpecRegister& reg = regs_[static_cast<std::size_t>(tag)];
  reg.inUse = true;
  reg.valid = false;
  reg.cell = 0;
  reg.arch = arch;
  reg.references = 0;

  const std::size_t index = static_cast<std::size_t>(MapIndex(arch));
  const int prev = map_[index];
  map_[index] = tag;
  return std::make_pair(tag, prev < 0 ? kPrevWasArchitectural : prev);
}

void RenameState::CommitAndFree(int tag, ArchRegisterFile& archFile) {
  SpecRegister& reg = regs_[static_cast<std::size_t>(tag)];
  archFile.Write(reg.arch, reg.cell);
  const std::size_t index = static_cast<std::size_t>(MapIndex(reg.arch));
  if (map_[index] == tag) map_[index] = -1;
  reg.inUse = false;
  reg.valid = false;
  freeList_.push_back(tag);
  ++freeCount_;
}

void RenameState::SquashAndFree(int tag, int prevTag) {
  SpecRegister& reg = regs_[static_cast<std::size_t>(tag)];
  const std::size_t index = static_cast<std::size_t>(MapIndex(reg.arch));
  // Squashing youngest-first means the map must currently point here.
  if (map_[index] == tag) {
    map_[index] = prevTag == kPrevWasArchitectural ? -1 : prevTag;
  }
  reg.inUse = false;
  reg.valid = false;
  freeList_.push_back(tag);
  ++freeCount_;
}

std::vector<int> RenameState::RenamesOf(isa::RegisterId arch) const {
  std::vector<int> out;
  for (int tag = 0; tag < static_cast<int>(regs_.size()); ++tag) {
    const SpecRegister& reg = regs_[static_cast<std::size_t>(tag)];
    if (reg.inUse && reg.arch == arch) out.push_back(tag);
  }
  return out;
}

}  // namespace rvss::core
