#include "core/checkpoint_ring.h"

#include <algorithm>

#include "core/simulation.h"
#include "memory/main_memory.h"

namespace rvss::core {

bool CheckpointRing::WantsCheckpoint(std::uint64_t cycle) const {
  if (!enabled() || cycle % effectiveIntervalCycles_ != 0) return false;
  const Entry* existing = FindAtOrBefore(cycle);
  return existing == nullptr || existing->cycle != cycle;
}

void CheckpointRing::Add(std::uint64_t cycle, std::size_t ownBytes,
                         std::shared_ptr<const SimSnapshot> snapshot) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), cycle,
      [](const Entry& e, std::uint64_t c) { return e.cycle < c; });
  if (it != entries_.end() && it->cycle == cycle) return;
  const auto index = static_cast<std::size_t>(it - entries_.begin());
  entries_.insert(it, Entry{cycle, ownBytes, 0, std::move(snapshot)});
  Charge(index);
  if (index + 1 < entries_.size()) Charge(index + 1);
  EvictOverBudget();
}

void CheckpointRing::Charge(std::size_t index) {
  Entry& entry = entries_[index];
  const auto& pages = entry.snapshot->memory.memory.pages;
  const auto* previous =
      index == 0 ? nullptr : &entries_[index - 1].snapshot->memory.memory.pages;
  std::size_t charged = 0;
  for (std::size_t page = 0; page < pages.size(); ++page) {
    if (previous == nullptr || page >= previous->size() ||
        (*previous)[page] != pages[page]) {
      ++charged;
    }
  }
  totalBytes_ -= entry.bytes;
  entry.bytes =
      entry.ownBytes + charged * memory::MainMemory::kPageSizeBytes;
  totalBytes_ += entry.bytes;
}

void CheckpointRing::EvictOverBudget() {
  // Evict the oldest entry after the origin. The origin and the newest
  // entry stay, so a too-small budget degrades to longer replays rather
  // than losing the ability to seek.
  bool evicted = false;
  while (totalBytes_ > maxTotalBytes_ && entries_.size() > 2) {
    totalBytes_ -= entries_[1].bytes;
    entries_.erase(entries_.begin() + 1);
    Charge(1);  // it now follows the origin
    evicted = true;
  }
  // Budget pressure observed: stretch the automatic interval instead of
  // churning through evictions on every deposit.
  if (evicted && adaptive_ &&
      effectiveIntervalCycles_ < intervalCycles_ * 1024) {
    effectiveIntervalCycles_ *= 2;
  }
}

const CheckpointRing::Entry* CheckpointRing::FindAtOrBefore(
    std::uint64_t cycle) const {
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), cycle,
      [](std::uint64_t c, const Entry& entry) { return c < entry.cycle; });
  if (it == entries_.begin()) return nullptr;
  return &*(it - 1);
}

void CheckpointRing::Clear() {
  entries_.clear();
  totalBytes_ = 0;
  effectiveIntervalCycles_ = intervalCycles_;
}

}  // namespace rvss::core
