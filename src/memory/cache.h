// Configurable L1 data cache timing model.
//
// Geometry (line count, line size, associativity), replacement policy
// (LRU / FIFO / Random) and store policy (write-back / write-through) come
// straight from the paper's Cache settings tab. The cache is a *timing and
// statistics* model: data always lives in MainMemory (see main_memory.h
// for why this is architecturally exact), and the cache tracks which lines
// would be resident to charge hit or miss latencies and count traffic.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "config/cpu_config.h"

namespace rvss::memory {

/// Result of one cache access.
struct CacheAccessResult {
  bool hit = false;
  std::uint32_t latency = 0;        ///< cycles charged to this access
  bool evicted = false;             ///< a valid line was replaced
  bool evictedDirty = false;        ///< ... and it needed writing back
  std::uint32_t memoryBytesRead = 0;     ///< line fill traffic
  std::uint32_t memoryBytesWritten = 0;  ///< write-back / write-through traffic
};

/// One line's externally visible state (GUI cache view / tests).
struct CacheLineView {
  bool valid = false;
  bool dirty = false;
  std::uint32_t tag = 0;
  std::uint32_t baseAddress = 0;
  std::uint64_t lastUseCycle = 0;
};

class Cache {
 private:
  struct Line {
    bool valid = false;
    bool dirty = false;
    std::uint32_t tag = 0;
    std::uint64_t lastUse = 0;   ///< for LRU
    std::uint64_t insertTime = 0;///< for FIFO
  };

 public:
  /// `config` must have passed config::Validate. `loadLatency` and
  /// `storeLatency` are the main-memory latencies charged on misses and
  /// write-throughs.
  Cache(const config::CacheConfig& config, std::uint32_t loadLatency,
        std::uint32_t storeLatency, std::uint64_t randomSeed);

  /// Performs one access at `cycle`, updating line state, and returns the
  /// latency and traffic. An access that straddles two lines touches both
  /// (charged sequentially, paper-style simplicity).
  CacheAccessResult Access(std::uint32_t address, std::uint32_t sizeBytes,
                           bool isStore, std::uint64_t cycle);

  /// Flushes one line if resident: write-back cost is returned. Models the
  /// paper's "cache line flushing" transaction support.
  std::uint32_t FlushLine(std::uint32_t address);

  std::uint32_t setCount() const { return setCount_; }
  std::uint32_t ways() const { return ways_; }
  std::uint32_t lineSize() const { return config_.lineSizeBytes; }

  /// Snapshot of a set for visualization; `way` < ways().
  CacheLineView Inspect(std::uint32_t set, std::uint32_t way) const;

  /// Copyable snapshot of the mutable cache state: resident lines, the
  /// Random-policy generator position and the FIFO insertion clock.
  /// Geometry and policy are configuration, not state.
  struct State {
    std::vector<Line> lines;
    Rng rng;
    std::uint64_t insertCounter = 0;
  };
  State SaveState() const { return State{lines_, rng_, insertCounter_}; }
  void RestoreState(const State& state) {
    lines_ = state.lines;
    rng_ = state.rng;
    insertCounter_ = state.insertCounter;
  }

 private:
  Line* Lookup(std::uint32_t set, std::uint32_t tag);
  std::uint32_t VictimWay(std::uint32_t set);

  /// Handles one line-aligned chunk of an access.
  void AccessLine(std::uint32_t address, bool isStore, std::uint64_t cycle,
                  CacheAccessResult& result);

  config::CacheConfig config_;       // snapshot: derived
  std::uint32_t loadLatency_;        // snapshot: derived
  std::uint32_t storeLatency_;       // snapshot: derived
  std::uint32_t setCount_ = 1;       // snapshot: derived
  std::uint32_t ways_ = 1;           // snapshot: derived
  std::uint32_t offsetBits_ = 0;     // snapshot: derived
  std::uint32_t indexBits_ = 0;      // snapshot: derived
  std::vector<Line> lines_;  ///< sets * ways, row-major by set
  Rng rng_;
  std::uint64_t insertCounter_ = 0;
};

}  // namespace rvss::memory
