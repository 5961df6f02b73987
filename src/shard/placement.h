// Session placement policy for the shard router.
//
// One rule places every session: a new one (created or imported) goes to
// the eligible worker holding the fewest sessions, and a drain or
// rebalance moves a session to the eligible worker holding the fewest
// probed bytes. Both are LeastLoaded over a different load vector, and
// both are deterministic — the same loads pick the same worker, which
// the shard tests rely on.
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
