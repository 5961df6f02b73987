// Checkpoint ring: bounded store of simulation snapshots that share their
// unchanged memory pages.
//
// The paper implements backward simulation (§III-B) as deterministic
// re-execution from reset — O(n) per backward step. The ring turns that
// into O(interval): the simulation deposits a snapshot every
// `intervalCycles` cycles (plus any manually requested ones), and StepBack
// restores the nearest snapshot at or before the target cycle and replays
// the remainder. Because the simulation is fully deterministic for a fixed
// (program, config, seed) triple, snapshots taken on a previous pass stay
// valid after seeking backward, so forward scrubbing can reuse them too.
//
// Every entry is a plain SimSnapshot. Its memory image is a list of
// copy-on-write page pointers (memory/main_memory.h), so neighbouring
// entries share every page the run did not write between them, and an
// entry costs its own bytes plus the pages it does not share.
//
// Memory is bounded. An entry is charged its `ownBytes` (the snapshot
// without its pages) plus 4 KiB for each page whose pointer differs from
// the entry before it (every page, for the first entry); each insert and
// each eviction recharges the entry after the change. The charge never
// falls below the distinct pages the ring keeps alive, and counts a page
// twice only when two entries hold it and an entry between them does not.
// The oldest entries are evicted once `maxTotalBytes` is exceeded, except
// two that are pinned: the origin and the newest entry. With adaptive mode
// on, evictions double the effective interval (up to 1024x the configured
// one) so a too-small budget stretches checkpoint spacing instead of
// thrashing.
//
// The front entry is the timeline's origin, the oldest state it can
// reach: Create's cycle 0, the post-skip cycle 0 after a fast-forward, or
// a snapshot adopted from another timeline (Simulation::RestoreState).
// Every rewind restores an entry, so the origin is never evicted.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace rvss::core {

struct SimSnapshot;  // core/simulation.h

class CheckpointRing {
 public:
  struct Entry {
    std::uint64_t cycle = 0;
    std::size_t ownBytes = 0;  ///< the snapshot without its memory pages
    std::size_t bytes = 0;     ///< ownBytes plus the pages charged to it
    std::shared_ptr<const SimSnapshot> snapshot;
  };

  /// `intervalCycles == 0` disables automatic checkpointing: the ring then
  /// holds the origin and manual captures only, and a rewind replays from
  /// the newest of those (the paper's re-execution from reset).
  CheckpointRing(std::uint64_t intervalCycles, std::size_t maxTotalBytes)
      : intervalCycles_(intervalCycles),
        effectiveIntervalCycles_(intervalCycles),
        maxTotalBytes_(maxTotalBytes) {}

  bool enabled() const { return intervalCycles_ > 0; }
  std::uint64_t intervalCycles() const { return intervalCycles_; }

  /// Grow the interval on budget pressure instead of churning evictions.
  void SetAdaptive(bool adaptive) { adaptive_ = adaptive; }
  bool adaptive() const { return adaptive_; }

  /// The interval automatic checkpoints currently use: the configured one,
  /// possibly grown by adaptive sizing.
  std::uint64_t effectiveIntervalCycles() const {
    return effectiveIntervalCycles_;
  }

  /// True when the simulation should deposit a snapshot at `cycle`: the
  /// ring is enabled, `cycle` lies on the (effective) interval grid and no
  /// entry for it exists yet (replayed cycles do not re-snapshot).
  bool WantsCheckpoint(std::uint64_t cycle) const;

  /// Inserts a snapshot, keeping entries sorted by cycle; a duplicate
  /// cycle is a no-op. Evicts oldest evictable entries beyond the budget.
  void Add(std::uint64_t cycle, std::size_t ownBytes,
           std::shared_ptr<const SimSnapshot> snapshot);

  /// Newest entry with entry.cycle <= cycle, or nullptr when none exists.
  const Entry* FindAtOrBefore(std::uint64_t cycle) const;

  /// The front entry: the timeline's origin. The ring must not be empty.
  const Entry& origin() const { return entries_.front(); }

  std::size_t checkpointCount() const { return entries_.size(); }
  std::size_t totalBytes() const { return totalBytes_; }
  std::size_t maxTotalBytes() const { return maxTotalBytes_; }

  void Clear();

 private:
  /// Recomputes entries_[index].bytes against the entry before it.
  void Charge(std::size_t index);
  void EvictOverBudget();

  std::uint64_t intervalCycles_;
  std::uint64_t effectiveIntervalCycles_;
  std::size_t maxTotalBytes_;
  bool adaptive_ = false;
  std::vector<Entry> entries_;  ///< sorted by cycle, ascending
  std::size_t totalBytes_ = 0;
};

}  // namespace rvss::core
