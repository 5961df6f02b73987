// Session placement policies for the shard router.
//
// New sessions land on a consistent-hash ring (virtual nodes per worker),
// so placement is stable: adding or draining one worker moves only the
// sessions that hash into its arc, not the whole fleet's mapping. Drain
// and rebalance instead pick destinations by load, so migration traffic
// flows to the emptiest peers. Both policies are deterministic — the same
// inputs place the same sessions on the same workers, which the shard
// tests (and any cross-process router pair) rely on.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace rvss::shard {

/// splitmix64: cheap, well-mixed 64-bit hash for session keys and ring
/// points. Deterministic across platforms (pure integer arithmetic).
std::uint64_t HashKey(std::uint64_t key);

/// Consistent-hash ring over worker indices [0, workerCount).
class HashRing {
 public:
  /// Ring points per worker: they smooth the arc lengths, and 64 keeps
  /// the max/min arc ratio within ~2x for small fleets.
  static constexpr std::size_t kVirtualNodesPerWorker = 64;

  explicit HashRing(std::size_t workerCount);

  /// Worker owning `key`: the first ring point clockwise from
  /// HashKey(key) whose worker is eligible. Returns nullopt when no
  /// worker is eligible. `eligible` must have workerCount entries.
  std::optional<std::size_t> Pick(std::uint64_t key,
                                  const std::vector<bool>& eligible) const;

  /// Grows the ring by one worker slot (index = previous workerCount),
  /// inserting its virtual nodes with the same salted hash as the
  /// constructor — a ring grown to N points identically to one built at
  /// N, so placement stays deterministic across elastic histories.
  /// Returns the new worker's index.
  std::size_t AddWorker();

  /// Removes `worker`'s virtual nodes; its arcs fall to the clockwise
  /// successors. Slot indices are stable — workerCount() still counts
  /// the removed slot, it just owns no keyspace (and Pick never returns
  /// it).
  void RemoveWorker(std::size_t worker);

  std::size_t workerCount() const { return workerCount_; }

 private:
  struct Point {
    std::uint64_t hash;
    std::uint32_t worker;
  };
  void InsertPointsFor(std::size_t worker);

  std::vector<Point> points_;  ///< sorted by hash
  std::size_t workerCount_;
};

/// Index of the eligible worker with the smallest load (ties break to the
/// lowest index, keeping the choice deterministic). Returns nullopt when
/// no worker is eligible.
std::optional<std::size_t> LeastLoaded(const std::vector<std::uint64_t>& loads,
                                       const std::vector<bool>& eligible);

}  // namespace rvss::shard
