// Fleet observability: a process-wide registry of named counters, gauges
// and log2-bucket latency histograms.
//
// The fleet grew real moving parts — dispatch lanes, socket transports, a
// routing layer, drain/rebalance fleet operations — whose live behaviour
// (queue depth, dispatch latency, wire bytes) was invisible outside the
// offline benches. This registry is the always-on substrate: every layer
// records into named metrics, the `metrics` server command serializes the
// registry as JSON, and the shard router fans that command out to its
// workers and merges the documents into one fleet view (sum counters,
// merge histogram buckets bucket-wise, max gauges).
//
// Design constraints, in order:
//
//  * Wait-free on the hot path. Recording is one (or two) relaxed atomic
//    RMW operations; no locks, no allocation, no syscalls. The registry
//    mutex is taken only on first registration of a name — callers cache
//    the returned reference (metric objects have stable addresses for the
//    process lifetime; the registry never deletes).
//  * Cheap enough to leave always-on. bench_obs pins the end-to-end cost
//    at <2% on the detailed simulation loop and the routed request path;
//    SetEnabled(false) exists so the bench can measure an honest A/B, not
//    so production turns it off.
//  * Deterministic simulation stays deterministic. Metrics are
//    observational only: nothing in the registry feeds back into
//    simulation state, snapshots never carry it.
//
// Histogram scheme: 32 fixed log2 buckets. A value v lands in bucket 0
// when v == 0 and otherwise in bucket min(31, floor(log2(v)) + 1), i.e.
// bucket i >= 1 covers [2^(i-1), 2^i). By convention latency histograms
// record *microseconds*, so the usable range is 1us .. ~18 minutes with
// 2x resolution — coarse, but latency investigations care about orders of
// magnitude, and fixed buckets keep Record() wait-free and merges exact.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/sync.h"
#include "json/json.h"

namespace rvss::obs {

/// Global switch, checked by every Record/Add. On by default; exists for
/// bench_obs's enabled-vs-disabled A/B and for tests.
bool Enabled();
void SetEnabled(bool enabled);

/// Monotonic wall-clock, ns. Shared by latency timers and span events.
std::uint64_t MonotonicNowNs();

/// Monotonically increasing event count. Merge: sum.
class Counter {
 public:
  void Add(std::uint64_t n) {
    if (Enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value (queue depth, bytes held, cycles/s).
/// Merge: max — a fleet-wide sum of instantaneous readings taken at
/// different moments means nothing, but "the hottest worker" does.
class Gauge {
 public:
  void Set(double value) {
    if (Enabled()) value_.store(value, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket log2 histogram (see the file comment for the scheme).
/// Merge: bucket-wise sum; count and sum add.
class Histogram {
 public:
  static constexpr std::size_t kBucketCount = 32;

  static std::size_t BucketOf(std::uint64_t value) {
    if (value == 0) return 0;
    const std::size_t bit = 64 - static_cast<std::size_t>(
                                     __builtin_clzll(value));  // floor(log2)+1
    return bit < kBucketCount ? bit : kBucketCount - 1;
  }

  /// Inclusive upper bound of `bucket`; UINT64_MAX for the overflow
  /// bucket. Used by the Prometheus exposition's `le` labels.
  static std::uint64_t BucketUpperBound(std::size_t bucket);

  void Record(std::uint64_t value) {
    if (!Enabled()) return;
    buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const {
    std::uint64_t total = 0;
    for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
    return total;
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> buckets_[kBucketCount] = {};
  std::atomic<std::uint64_t> sum_{0};
};

/// Records the wall-clock from construction to destruction into a
/// histogram, in microseconds (the latency-histogram convention).
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram& histogram)
      : histogram_(histogram), startNs_(MonotonicNowNs()) {}
  ~ScopedLatency() { histogram_.Record((MonotonicNowNs() - startNs_) / 1000); }

  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram& histogram_;
  std::uint64_t startNs_;
};

/// The process-wide metric namespace. Get* registers on first use (under
/// the registry mutex) and afterwards returns the same object — cache the
/// reference at the recording site; the pointer is stable forever.
class Registry {
 public:
  static Registry& Instance();

  Counter& GetCounter(std::string_view name) EXCLUDES(mutex_);
  Gauge& GetGauge(std::string_view name) EXCLUDES(mutex_);
  Histogram& GetHistogram(std::string_view name) EXCLUDES(mutex_);

  /// {counters: {name: n}, gauges: {name: x},
  ///  histograms: {name: {count, sum, buckets: [...]}}}.
  /// Bucket arrays are trimmed of trailing zeros (merge pads them back).
  json::Json ToJson() const EXCLUDES(mutex_);

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  Registry() = default;

  mutable Mutex mutex_;
  // unique_ptr nodes give every metric a stable address across rehash-free
  // map growth; names are registered once and never removed. The maps are
  // mutex-guarded; the metric objects they point at are wait-free atomics,
  // deliberately recorded into without the lock.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      GUARDED_BY(mutex_);
};

/// Registry::Instance().ToJson() — the payload of the `metrics` command.
json::Json MetricsToJson();

/// Merges one registry document into another: counters sum, gauges max,
/// histograms merge bucket-wise (count and sum add). Unknown sections or
/// malformed entries in `from` are ignored — a skewed worker must not
/// poison the fleet view.
void MergeMetricsJson(json::Json& into, const json::Json& from);

/// Prometheus text exposition of a registry document ('.' in metric names
/// becomes '_', everything prefixed rvss_; histograms render cumulative
/// _bucket{le=...} series plus _count and _sum).
std::string MetricsToPrometheusText(const json::Json& metrics);

}  // namespace rvss::obs
