#include "obs/registry.h"

#include <algorithm>
#include <atomic>

#include "common/strings.h"

namespace rvss::obs {
namespace {

std::atomic<bool> g_enabled{true};

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

std::uint64_t MonotonicNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t Histogram::BucketUpperBound(std::size_t bucket) {
  if (bucket == 0) return 0;
  if (bucket >= kBucketCount - 1) return UINT64_MAX;
  return (std::uint64_t{1} << bucket) - 1;
}

Registry& Registry::Instance() {
  static Registry* instance = new Registry();  // never destroyed: metric
  return *instance;  // references outlive static teardown order
}

Counter& Registry::GetCounter(std::string_view name) {
  MutexLock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::GetGauge(std::string_view name) {
  MutexLock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::GetHistogram(std::string_view name) {
  MutexLock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

json::Json Registry::ToJson() const {
  MutexLock lock(mutex_);
  json::Json root = json::Json::MakeObject();

  json::Json counters = json::Json::MakeObject();
  for (const auto& [name, counter] : counters_) {
    counters.Set(name, static_cast<std::int64_t>(counter->value()));
  }
  root.Set("counters", std::move(counters));

  json::Json gauges = json::Json::MakeObject();
  for (const auto& [name, gauge] : gauges_) {
    gauges.Set(name, gauge->value());
  }
  root.Set("gauges", std::move(gauges));

  json::Json histograms = json::Json::MakeObject();
  for (const auto& [name, histogram] : histograms_) {
    json::Json node = json::Json::MakeObject();
    // Trim trailing zero buckets: most latency histograms populate a
    // handful of adjacent buckets, and the fleet view ships one document
    // per worker per scrape.
    std::size_t last = 0;
    for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
      if (histogram->bucket(i) != 0) last = i + 1;
    }
    json::Json buckets = json::Json::MakeArray();
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < last; ++i) {
      const std::uint64_t n = histogram->bucket(i);
      count += n;
      buckets.Append(static_cast<std::int64_t>(n));
    }
    node.Set("count", static_cast<std::int64_t>(count));
    node.Set("sum", static_cast<std::int64_t>(histogram->sum()));
    node.Set("buckets", std::move(buckets));
    histograms.Set(name, std::move(node));
  }
  root.Set("histograms", std::move(histograms));
  return root;
}

json::Json MetricsToJson() { return Registry::Instance().ToJson(); }

void MergeMetricsJson(json::Json& into, const json::Json& from) {
  if (!from.IsObject()) return;
  if (!into.IsObject()) into = json::Json::MakeObject();

  auto section = [](json::Json& doc, std::string_view name) -> json::Json& {
    json::Json* found = doc.Find(name);
    if (found == nullptr || !found->IsObject()) {
      doc.Set(name, json::Json::MakeObject());
      found = doc.Find(name);
    }
    return *found;
  };

  // Counters sum and gauges take the max; an absent entry merges as 0.
  const json::Json zero(0);
  auto mergeNumbers = [&](std::string_view name, bool sum) {
    const json::Json* theirs = from.Find(name);
    if (theirs == nullptr || !theirs->IsObject()) return;
    json::Json& mine = section(into, name);
    for (const auto& [key, value] : theirs->AsObject()) {
      if (!value.IsNumber()) continue;
      const json::Json* found = mine.Find(key);
      const json::Json& base =
          found != nullptr && found->IsNumber() ? *found : zero;
      mine.Set(key, sum ? json::Json(base.AsInt() + value.AsInt())
                        : json::Json(std::max(base.AsDouble(),
                                              value.AsDouble())));
    }
  };
  mergeNumbers("counters", true);
  mergeNumbers("gauges", false);

  if (const json::Json* histograms = from.Find("histograms");
      histograms != nullptr && histograms->IsObject()) {
    json::Json& mine = section(into, "histograms");
    for (const auto& [name, node] : histograms->AsObject()) {
      if (!node.IsObject()) continue;
      json::Json* existing = mine.Find(name);
      if (existing == nullptr || !existing->IsObject()) {
        mine.Set(name, node);
        continue;
      }
      existing->Set("count",
                    existing->GetInt("count", 0) + node.GetInt("count", 0));
      existing->Set("sum", existing->GetInt("sum", 0) + node.GetInt("sum", 0));
      const json::Json* theirs = node.Find("buckets");
      json::Json* ours = existing->Find("buckets");
      if (theirs == nullptr || !theirs->IsArray() || ours == nullptr ||
          !ours->IsArray()) {
        continue;
      }
      // Bucket arrays are trailing-zero trimmed, so the two may differ in
      // length; pad ours out before adding element-wise.
      json::Array& ourBuckets = ours->AsArray();
      const json::Array& theirBuckets = theirs->AsArray();
      while (ourBuckets.size() < theirBuckets.size()) {
        ourBuckets.push_back(json::Json(std::int64_t{0}));
      }
      for (std::size_t i = 0; i < theirBuckets.size(); ++i) {
        ourBuckets[i] = json::Json(ourBuckets[i].AsInt() +
                                   theirBuckets[i].AsInt());
      }
    }
  }
}

namespace {

/// JSON metric names are camelCase (the API surface); the Prometheus
/// rendering is the one snake_case surface. camelCase humps become
/// '_<lower>' and every other non-alphanumeric becomes '_':
/// "shard.lane.queueWaitUs" -> "rvss_shard_lane_queue_wait_us",
/// "server.cmd.createSession" -> "rvss_server_cmd_create_session".
std::string PrometheusName(std::string_view name) {
  std::string out = "rvss_";
  for (const char c : name) {
    if (c >= 'A' && c <= 'Z') {
      out.push_back('_');
      out.push_back(static_cast<char>(c - 'A' + 'a'));
      continue;
    }
    const bool ok =
        (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string FormatDouble(double value) {
  std::string text = StrFormat("%.6f", value);
  // Trim trailing zeros (and a bare trailing dot) for readability.
  while (!text.empty() && text.back() == '0') text.pop_back();
  if (!text.empty() && text.back() == '.') text.pop_back();
  return text;
}

}  // namespace

std::string MetricsToPrometheusText(const json::Json& metrics) {
  std::string out;
  if (const json::Json* counters = metrics.Find("counters");
      counters != nullptr && counters->IsObject()) {
    for (const auto& [name, value] : counters->AsObject()) {
      const std::string prom = PrometheusName(name);
      out += "# TYPE " + prom + " counter\n";
      out += prom + " " + std::to_string(value.AsInt()) + "\n";
    }
  }
  if (const json::Json* gauges = metrics.Find("gauges");
      gauges != nullptr && gauges->IsObject()) {
    for (const auto& [name, value] : gauges->AsObject()) {
      const std::string prom = PrometheusName(name);
      out += "# TYPE " + prom + " gauge\n";
      out += prom + " " + FormatDouble(value.AsDouble()) + "\n";
    }
  }
  if (const json::Json* histograms = metrics.Find("histograms");
      histograms != nullptr && histograms->IsObject()) {
    for (const auto& [name, node] : histograms->AsObject()) {
      if (!node.IsObject()) continue;
      const std::string prom = PrometheusName(name);
      out += "# TYPE " + prom + " histogram\n";
      std::uint64_t cumulative = 0;
      const json::Json* buckets = node.Find("buckets");
      if (buckets != nullptr && buckets->IsArray()) {
        const json::Array& entries = buckets->AsArray();
        for (std::size_t i = 0; i < entries.size(); ++i) {
          cumulative += static_cast<std::uint64_t>(entries[i].AsInt());
          // The overflow bucket is folded into the +Inf series below.
          if (i >= Histogram::kBucketCount - 1) continue;
          out += prom + "_bucket{le=\"" +
                 std::to_string(Histogram::BucketUpperBound(i)) + "\"} " +
                 std::to_string(cumulative) + "\n";
        }
      }
      out += prom + "_bucket{le=\"+Inf\"} " +
             std::to_string(node.GetInt("count", 0)) + "\n";
      out += prom + "_sum " + std::to_string(node.GetInt("sum", 0)) + "\n";
      out += prom + "_count " + std::to_string(node.GetInt("count", 0)) + "\n";
    }
  }
  return out;
}

}  // namespace rvss::obs
