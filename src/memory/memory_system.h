// MemorySystem: the transactional front door to memory + L1 cache.
//
// Pipeline blocks never talk to MainMemory or Cache directly for timed
// accesses; they register a transaction and receive back the completion
// cycle (paper §III-A). This keeps access-time configuration, cache-line
// flushing and the interactive-simulation metadata in one place, and it is
// the single site where cache statistics accumulate.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "config/cpu_config.h"
#include "memory/cache.h"
#include "memory/main_memory.h"
#include "memory/transaction.h"

namespace rvss::memory {

/// Aggregate statistics (the paper's cache statistics panel).
struct MemoryStats {
  std::uint64_t accesses = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirtyEvictions = 0;
  std::uint64_t bytesReadFromMemory = 0;
  std::uint64_t bytesWrittenToMemory = 0;

  double HitRate() const {
    const std::uint64_t total = cacheHits + cacheMisses;
    return total == 0 ? 0.0 : static_cast<double>(cacheHits) / total;
  }
};

class MemorySystem {
 public:
  explicit MemorySystem(const config::CpuConfig& config);

  MainMemory& memory() { return memory_; }
  const MainMemory& memory() const { return memory_; }

  /// Cache model, or nullptr when disabled in the configuration.
  Cache* cache() { return cache_ ? cache_.get() : nullptr; }
  const Cache* cache() const { return cache_ ? cache_.get() : nullptr; }

  /// Registers a timed access starting at `cycle`; returns the transaction
  /// with `completesAtCycle` and the hit/eviction metadata populated.
  MemoryTransaction Register(std::uint32_t address, std::uint32_t sizeBytes,
                             bool isStore, std::uint64_t cycle);

  const MemoryStats& stats() const { return stats_; }

  /// Clears memory contents, cache state and statistics.
  void Reset();

  /// Copyable snapshot of everything mutable behind the front door: memory
  /// contents, cache residency, statistics and the transaction counter.
  /// Everything but the memory is a value; the memory's pages are shared
  /// with the live memory until it next writes them (main_memory.h).
  struct State {
    MainMemory::State memory;
    std::optional<Cache::State> cache;  ///< engaged iff the cache is enabled
    MemoryStats stats;
    std::uint64_t nextTransactionId = 1;
  };
  State SaveState() const;
  void RestoreState(const State& state);

 private:
  config::CpuConfig config_;  // snapshot: derived
  MainMemory memory_;
  std::unique_ptr<Cache> cache_;
  MemoryStats stats_;
  std::uint64_t nextTransactionId_ = 1;
};

}  // namespace rvss::memory
