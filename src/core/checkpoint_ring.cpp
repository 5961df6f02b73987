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

void CheckpointRing::Add(std::uint64_t cycle, std::size_t bytes,
                         std::shared_ptr<const SimSnapshot> snapshot) {
  Entry entry;
  entry.cycle = cycle;
  entry.bytes = bytes;
  entry.snapshot = std::move(snapshot);
  Insert(std::move(entry));
}

void CheckpointRing::AddDelta(std::uint64_t cycle, std::size_t bytes,
                              std::shared_ptr<const DeltaCheckpoint> delta) {
  Entry entry;
  entry.cycle = cycle;
  entry.bytes = bytes;
  entry.delta = std::move(delta);
  Insert(std::move(entry));
}

void CheckpointRing::Insert(Entry entry) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), entry.cycle,
      [](const Entry& e, std::uint64_t c) { return e.cycle < c; });
  if (it != entries_.end() && it->cycle == entry.cycle) return;
  totalBytes_ += entry.bytes;
  entries_.insert(it, std::move(entry));
  EvictOverBudget();
}

bool CheckpointRing::HasDependentDelta(const SimSnapshot* base) const {
  for (const Entry& entry : entries_) {
    if (entry.delta != nullptr && entry.delta->base.get() == base) return true;
  }
  return false;
}

void CheckpointRing::EvictOverBudget() {
  // Evict oldest first, but pin the cycle-0 base (Reset's restore point),
  // the newest entry, and full snapshots still patched by a live delta, so
  // a too-small budget degrades to longer replays rather than losing the
  // ability to seek (or dangling a delta's base).
  bool evicted = false;
  while (totalBytes_ > maxTotalBytes_) {
    std::size_t victim = entries_.front().cycle == 0 ? 1 : 0;
    while (victim + 1 < entries_.size() && entries_[victim].IsFull() &&
           HasDependentDelta(entries_[victim].snapshot.get())) {
      ++victim;
    }
    if (victim + 1 >= entries_.size()) break;
    totalBytes_ -= entries_[victim].bytes;
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(victim));
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

bool CheckpointRing::ContainsFull(const SimSnapshot* snapshot) const {
  for (const Entry& entry : entries_) {
    if (entry.snapshot.get() == snapshot) return true;
  }
  return false;
}

const CheckpointRing::Entry* CheckpointRing::base() const {
  if (entries_.empty() || entries_.front().cycle != 0) return nullptr;
  return &entries_.front();
}

std::shared_ptr<const SimSnapshot> CheckpointRing::Materialize(
    const Entry& entry) const {
  if (entry.snapshot != nullptr) return entry.snapshot;
  const DeltaCheckpoint& delta = *entry.delta;
  auto out = std::make_shared<SimSnapshot>(*delta.rest);
  out->memory.memory.bytes = delta.base->memory.memory.bytes;
  std::vector<std::uint8_t>& bytes = out->memory.memory.bytes;
  for (const DeltaPage& page : delta.pages) {
    const std::size_t offset =
        static_cast<std::size_t>(page.pageIndex) *
        memory::MainMemory::kPageSizeBytes;
    std::copy(page.bytes.begin(), page.bytes.end(), bytes.begin() + static_cast<std::ptrdiff_t>(offset));
  }
  return out;
}

std::size_t CheckpointRing::fullCheckpointCount() const {
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(),
                    [](const Entry& e) { return e.IsFull(); }));
}

std::size_t CheckpointRing::deltaCheckpointCount() const {
  return entries_.size() - fullCheckpointCount();
}

void CheckpointRing::Clear() {
  entries_.clear();
  totalBytes_ = 0;
  effectiveIntervalCycles_ = intervalCycles_;
}

}  // namespace rvss::core
