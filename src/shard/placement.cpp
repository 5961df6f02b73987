#include "shard/placement.h"

namespace rvss::shard {

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
