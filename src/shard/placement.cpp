#include "shard/placement.h"

#include <algorithm>

namespace rvss::shard {

std::uint64_t HashKey(std::uint64_t key) {
  std::uint64_t z = key + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

HashRing::HashRing(std::size_t workerCount) : workerCount_(0) {
  points_.reserve(workerCount * kVirtualNodesPerWorker);
  for (std::size_t worker = 0; worker < workerCount; ++worker) {
    AddWorker();
  }
}

void HashRing::InsertPointsFor(std::size_t worker) {
  for (std::size_t replica = 0; replica < kVirtualNodesPerWorker; ++replica) {
    // Each virtual node hashes a salted (worker, replica) pair. The salt
    // domain-separates ring points from session keys: without it,
    // HashKey(smallKey) coincides exactly with worker 0's replica
    // points, pinning every small session id onto worker 0.
    constexpr std::uint64_t kRingSalt = 0xc5a1cc5a1cc5a1ccull;
    const std::uint64_t seed =
        HashKey(kRingSalt ^ (static_cast<std::uint64_t>(worker) << 32 |
                             static_cast<std::uint64_t>(replica)));
    points_.push_back(Point{seed, static_cast<std::uint32_t>(worker)});
  }
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) {
              return a.hash != b.hash ? a.hash < b.hash
                                      : a.worker < b.worker;
            });
}

std::size_t HashRing::AddWorker() {
  const std::size_t worker = workerCount_++;
  InsertPointsFor(worker);
  return worker;
}

void HashRing::RemoveWorker(std::size_t worker) {
  points_.erase(std::remove_if(points_.begin(), points_.end(),
                               [worker](const Point& point) {
                                 return point.worker == worker;
                               }),
                points_.end());
}

std::optional<std::size_t> HashRing::Pick(
    std::uint64_t key, const std::vector<bool>& eligible) const {
  if (points_.empty()) return std::nullopt;
  const std::uint64_t h = HashKey(key);
  auto it = std::lower_bound(points_.begin(), points_.end(), h,
                             [](const Point& p, std::uint64_t value) {
                               return p.hash < value;
                             });
  // Walk clockwise (wrapping) until an eligible worker owns the point.
  for (std::size_t walked = 0; walked < points_.size(); ++walked) {
    if (it == points_.end()) it = points_.begin();
    if (it->worker < eligible.size() && eligible[it->worker]) {
      return it->worker;
    }
    ++it;
  }
  return std::nullopt;
}

std::optional<std::size_t> LeastLoaded(const std::vector<std::uint64_t>& loads,
                                       const std::vector<bool>& eligible) {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    if (i >= eligible.size() || !eligible[i]) continue;
    if (!best.has_value() || loads[i] < loads[*best]) best = i;
  }
  return best;
}

}  // namespace rvss::shard
