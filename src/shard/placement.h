// Session placement policy for the shard router.
//
// One rule places every session: a new one (created or imported), one a
// drain moves and one a rebalance moves all go to the eligible worker
// holding the fewest sessions — LeastLoaded over the router's session
// counts (ShardRouter::PlaceNew). The rule is deterministic: the same
// counts pick the same worker, which the shard tests rely on.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace rvss::shard {

/// Index of the eligible worker with the smallest load (ties break to the
/// lowest index, keeping the choice deterministic). Returns nullopt when
/// no worker is eligible.
std::optional<std::size_t> LeastLoaded(const std::vector<std::uint64_t>& loads,
                                       const std::vector<bool>& eligible);

}  // namespace rvss::shard
