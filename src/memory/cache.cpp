#include "memory/cache.h"

#include "common/bitops.h"

namespace rvss::memory {

Cache::Cache(const config::CacheConfig& config, std::uint32_t loadLatency,
             std::uint32_t storeLatency, std::uint64_t randomSeed)
    : config_(config),
      loadLatency_(loadLatency),
      storeLatency_(storeLatency),
      rng_(randomSeed) {
  ways_ = config_.associativity;
  setCount_ = config_.lineCount / config_.associativity;
  offsetBits_ = Log2(config_.lineSizeBytes);
  indexBits_ = Log2(setCount_);
  lines_.assign(static_cast<std::size_t>(setCount_) * ways_, Line{});
}

Cache::Line* Cache::Lookup(std::uint32_t set, std::uint32_t tag) {
  Line* base = &lines_[static_cast<std::size_t>(set) * ways_];
  for (std::uint32_t way = 0; way < ways_; ++way) {
    if (base[way].valid && base[way].tag == tag) return &base[way];
  }
  return nullptr;
}

std::uint32_t Cache::VictimWay(std::uint32_t set) {
  Line* base = &lines_[static_cast<std::size_t>(set) * ways_];
  // Prefer an invalid way.
  for (std::uint32_t way = 0; way < ways_; ++way) {
    if (!base[way].valid) return way;
  }
  switch (config_.replacement) {
    case config::ReplacementPolicy::kRandom:
      return static_cast<std::uint32_t>(rng_.NextBelow(ways_));
    case config::ReplacementPolicy::kFifo: {
      std::uint32_t victim = 0;
      for (std::uint32_t way = 1; way < ways_; ++way) {
        if (base[way].insertTime < base[victim].insertTime) victim = way;
      }
      return victim;
    }
    case config::ReplacementPolicy::kLru:
    default: {
      std::uint32_t victim = 0;
      for (std::uint32_t way = 1; way < ways_; ++way) {
        if (base[way].lastUse < base[victim].lastUse) victim = way;
      }
      return victim;
    }
  }
}

void Cache::AccessLine(std::uint32_t address, bool isStore, std::uint64_t cycle,
                       CacheAccessResult& result) {
  const std::uint32_t set = (address >> offsetBits_) & (setCount_ - 1);
  const std::uint32_t tag = address >> (offsetBits_ + indexBits_);

  result.latency += config_.accessDelay;

  Line* line = Lookup(set, tag);
  if (line != nullptr) {
    result.hit = true;
  } else {
    // Miss: charge the refill and install the line.
    result.hit = false;
    result.latency += config_.lineReplacementDelay + loadLatency_;
    result.memoryBytesRead += config_.lineSizeBytes;

    const std::uint32_t way = VictimWay(set);
    Line& victim = lines_[static_cast<std::size_t>(set) * ways_ + way];
    if (victim.valid) {
      result.evicted = true;
      if (victim.dirty) {
        result.evictedDirty = true;
        result.latency += storeLatency_;
        result.memoryBytesWritten += config_.lineSizeBytes;
      }
    }
    victim.valid = true;
    victim.dirty = false;
    victim.tag = tag;
    victim.insertTime = ++insertCounter_;
    line = &victim;
  }
  line->lastUse = cycle;

  if (isStore) {
    if (config_.storePolicy == config::StorePolicy::kWriteBack) {
      line->dirty = true;
    } else {
      // Write-through: every store also goes to memory.
      result.latency += storeLatency_;
    }
  }
}

CacheAccessResult Cache::Access(std::uint32_t address, std::uint32_t sizeBytes,
                                bool isStore, std::uint64_t cycle) {
  CacheAccessResult result;
  const std::uint32_t lineMask = config_.lineSizeBytes - 1;
  const std::uint32_t firstLine = address & ~lineMask;
  const std::uint32_t lastLine =
      (address + (sizeBytes == 0 ? 0 : sizeBytes - 1)) & ~lineMask;

  bool allHit = true;
  for (std::uint32_t lineAddr = firstLine;;
       lineAddr += config_.lineSizeBytes) {
    CacheAccessResult part;
    AccessLine(lineAddr, isStore, cycle, part);
    allHit = allHit && part.hit;
    result.latency += part.latency;
    result.evicted = result.evicted || part.evicted;
    result.evictedDirty = result.evictedDirty || part.evictedDirty;
    result.memoryBytesRead += part.memoryBytesRead;
    result.memoryBytesWritten += part.memoryBytesWritten;
    if (lineAddr == lastLine) break;
  }
  result.hit = allHit;
  if (isStore && config_.storePolicy == config::StorePolicy::kWriteThrough) {
    // Traffic accounting: write-through stores write the accessed bytes.
    result.memoryBytesWritten += sizeBytes;
  }
  return result;
}

std::uint32_t Cache::FlushLine(std::uint32_t address) {
  const std::uint32_t set = (address >> offsetBits_) & (setCount_ - 1);
  const std::uint32_t tag = address >> (offsetBits_ + indexBits_);
  Line* line = Lookup(set, tag);
  if (line == nullptr) return 0;
  std::uint32_t cost = 0;
  if (line->dirty) cost = storeLatency_;
  line->valid = false;
  line->dirty = false;
  return cost;
}

CacheLineView Cache::Inspect(std::uint32_t set, std::uint32_t way) const {
  const Line& line = lines_[static_cast<std::size_t>(set) * ways_ + way];
  CacheLineView view;
  view.valid = line.valid;
  view.dirty = line.dirty;
  view.tag = line.tag;
  view.baseAddress =
      (line.tag << (offsetBits_ + indexBits_)) | (set << offsetBits_);
  view.lastUseCycle = line.lastUse;
  return view;
}

}  // namespace rvss::memory
