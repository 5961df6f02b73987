#include "memory/memory_system.h"

namespace rvss::memory {

MemorySystem::MemorySystem(const config::CpuConfig& config)
    : config_(config), memory_(config.memory.sizeBytes) {
  if (config_.cache.enabled) {
    cache_ = std::make_unique<Cache>(config_.cache, config_.memory.loadLatency,
                                     config_.memory.storeLatency,
                                     config_.randomSeed);
  }
}

MemoryTransaction MemorySystem::Register(std::uint32_t address,
                                         std::uint32_t sizeBytes, bool isStore,
                                         std::uint64_t cycle) {
  MemoryTransaction txn;
  txn.id = nextTransactionId_++;
  txn.address = address;
  txn.sizeBytes = sizeBytes;
  txn.isStore = isStore;
  txn.issuedCycle = cycle;

  ++stats_.accesses;
  if (isStore) {
    ++stats_.stores;
  } else {
    ++stats_.loads;
  }

  if (cache_) {
    CacheAccessResult result = cache_->Access(address, sizeBytes, isStore, cycle);
    txn.cacheHit = result.hit;
    txn.causedEviction = result.evicted;
    txn.evictionWasDirty = result.evictedDirty;
    txn.completesAtCycle = cycle + result.latency;
    if (result.hit) {
      ++stats_.cacheHits;
    } else {
      ++stats_.cacheMisses;
    }
    if (result.evicted) ++stats_.evictions;
    if (result.evictedDirty) ++stats_.dirtyEvictions;
    stats_.bytesReadFromMemory += result.memoryBytesRead;
    stats_.bytesWrittenToMemory += result.memoryBytesWritten;
  } else {
    const std::uint32_t latency =
        isStore ? config_.memory.storeLatency : config_.memory.loadLatency;
    txn.completesAtCycle = cycle + latency;
    if (isStore) {
      stats_.bytesWrittenToMemory += sizeBytes;
    } else {
      stats_.bytesReadFromMemory += sizeBytes;
    }
  }
  return txn;
}

MemorySystem::State MemorySystem::SaveState() const {
  State state;
  state.memory = memory_.SaveState();
  if (cache_) state.cache = cache_->SaveState();
  state.stats = stats_;
  state.nextTransactionId = nextTransactionId_;
  return state;
}

void MemorySystem::RestoreState(const State& state) {
  memory_.RestoreState(state.memory);
  if (cache_ && state.cache.has_value()) cache_->RestoreState(*state.cache);
  stats_ = state.stats;
  nextTransactionId_ = state.nextTransactionId;
}

}  // namespace rvss::memory
