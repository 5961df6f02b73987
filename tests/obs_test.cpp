// Observability layer tests: histogram bucketing, registry JSON, the
// fleet merge rules (counters sum, gauges max, histograms bucket-wise),
// the Prometheus text exposition, the span trace ring and the `metrics` /
// `traceDump` server commands.
//
// The registry is process-global and other tests (and the instrumented
// code under test) write into it, so every assertion here works on deltas
// of uniquely named metrics or on documents built by hand — never on
// absolute values of shared names.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "json/json.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "server/api.h"

namespace rvss::obs {
namespace {

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 holds exactly zero; bucket i >= 1 covers [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketOf(7), 3u);
  EXPECT_EQ(Histogram::BucketOf(8), 4u);
  EXPECT_EQ(Histogram::BucketOf(1023), 10u);
  EXPECT_EQ(Histogram::BucketOf(1024), 11u);
  // Everything at or past 2^30 collapses into the overflow bucket.
  EXPECT_EQ(Histogram::BucketOf(std::uint64_t{1} << 40),
            Histogram::kBucketCount - 1);
  EXPECT_EQ(Histogram::BucketOf(~std::uint64_t{0}),
            Histogram::kBucketCount - 1);
}

TEST(Histogram, BucketUpperBounds) {
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kBucketCount - 1),
            ~std::uint64_t{0});
}

TEST(Histogram, RecordAccumulatesCountAndSum) {
  Histogram histogram;
  histogram.Record(0);
  histogram.Record(1);
  histogram.Record(5);
  histogram.Record(5);
  EXPECT_EQ(histogram.count(), 4u);
  EXPECT_EQ(histogram.sum(), 11u);
  EXPECT_EQ(histogram.bucket(0), 1u);  // the zero
  EXPECT_EQ(histogram.bucket(1), 1u);  // 1
  EXPECT_EQ(histogram.bucket(3), 2u);  // both fives in [4, 8)
}

TEST(Registry, MetricsAreStableAndCumulative) {
  Registry& registry = Registry::Instance();
  Counter& counter = registry.GetCounter("test.obs.stable_counter");
  const std::uint64_t before = counter.value();
  counter.Add(3);
  counter.Increment();
  // Same name, same object: the second lookup sees the recorded values.
  EXPECT_EQ(&registry.GetCounter("test.obs.stable_counter"), &counter);
  EXPECT_EQ(counter.value(), before + 4);

  Gauge& gauge = registry.GetGauge("test.obs.stable_gauge");
  gauge.Set(42.5);
  EXPECT_DOUBLE_EQ(registry.GetGauge("test.obs.stable_gauge").value(), 42.5);
}

TEST(Registry, SetEnabledSuppressesRecording) {
  Registry& registry = Registry::Instance();
  Counter& counter = registry.GetCounter("test.obs.toggle_counter");
  Histogram& histogram = registry.GetHistogram("test.obs.toggle_histogram");
  const std::uint64_t counterBefore = counter.value();
  const std::uint64_t histogramBefore = histogram.count();
  SetEnabled(false);
  counter.Increment();
  histogram.Record(9);
  SetEnabled(true);
  EXPECT_EQ(counter.value(), counterBefore);
  EXPECT_EQ(histogram.count(), histogramBefore);
  counter.Increment();
  EXPECT_EQ(counter.value(), counterBefore + 1);
}

TEST(Registry, ToJsonCarriesRecordedMetrics) {
  Registry& registry = Registry::Instance();
  registry.GetCounter("test.obs.json_counter").Add(7);
  registry.GetGauge("test.obs.json_gauge").Set(1.5);
  registry.GetHistogram("test.obs.json_histogram").Record(6);

  const json::Json document = registry.ToJson();
  const json::Json* counters = document.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->GetInt("test.obs.json_counter", 0), 7);
  const json::Json* gauges = document.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->GetDouble("test.obs.json_gauge", 0.0), 1.5);
  const json::Json* histograms = document.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const json::Json* histogram = histograms->Find("test.obs.json_histogram");
  ASSERT_NE(histogram, nullptr);
  EXPECT_GE(histogram->GetInt("count", 0), 1);
  EXPECT_GE(histogram->GetInt("sum", 0), 6);
  // Trailing zero buckets are trimmed: a histogram whose largest value was
  // 6 (bucket 3) serializes at most 4 entries.
  const json::Json* buckets = histogram->Find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_TRUE(buckets->IsArray());
  EXPECT_LE(buckets->AsArray().size(), 4u);
}

json::Json ParseOrDie(const std::string& text) {
  auto parsed = json::Parse(text);
  EXPECT_TRUE(parsed.ok()) << text;
  return parsed.ok() ? parsed.value() : json::Json::MakeObject();
}

TEST(Merge, CountersSumGaugesMaxHistogramsBucketwise) {
  json::Json into = ParseOrDie(R"({
    "counters": {"a": 10, "shared": 5},
    "gauges": {"g": 2.0, "h": 9.0},
    "histograms": {"lat": {"count": 2, "sum": 5, "buckets": [0, 1, 1]}}
  })");
  const json::Json from = ParseOrDie(R"({
    "counters": {"b": 3, "shared": 7},
    "gauges": {"g": 4.0, "h": 1.0},
    "histograms": {"lat": {"count": 3, "sum": 20, "buckets": [1, 0, 1, 0, 1]}}
  })");
  MergeMetricsJson(into, from);

  const json::Json* counters = into.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->GetInt("a", -1), 10);
  EXPECT_EQ(counters->GetInt("b", -1), 3);
  EXPECT_EQ(counters->GetInt("shared", -1), 12);

  const json::Json* gauges = into.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->GetDouble("g", 0.0), 4.0);  // max wins
  EXPECT_DOUBLE_EQ(gauges->GetDouble("h", 0.0), 9.0);

  const json::Json* lat = into.Find("histograms")->Find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->GetInt("count", -1), 5);
  EXPECT_EQ(lat->GetInt("sum", -1), 25);
  // Differing trimmed lengths merge by padding the shorter array.
  const json::Json* buckets = lat->Find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->AsArray().size(), 5u);
  EXPECT_EQ(buckets->AsArray()[0].AsInt(), 1);
  EXPECT_EQ(buckets->AsArray()[1].AsInt(), 1);
  EXPECT_EQ(buckets->AsArray()[2].AsInt(), 2);
  EXPECT_EQ(buckets->AsArray()[3].AsInt(), 0);
  EXPECT_EQ(buckets->AsArray()[4].AsInt(), 1);
}

TEST(Merge, IgnoresMalformedEntries) {
  json::Json into = ParseOrDie(R"({"counters": {"a": 1}})");
  const json::Json from = ParseOrDie(R"({
    "counters": {"a": "not-a-number", "b": 2},
    "histograms": {"bogus": 17},
    "gauges": "nope"
  })");
  MergeMetricsJson(into, from);
  EXPECT_EQ(into.Find("counters")->GetInt("a", -1), 1);
  EXPECT_EQ(into.Find("counters")->GetInt("b", -1), 2);
}

TEST(Prometheus, RendersCountersGaugesAndCumulativeBuckets) {
  const json::Json document = ParseOrDie(R"({
    "counters": {"server.requests": 12},
    "gauges": {"sim.cyclesPerS": 1000.0},
    "histograms": {"server.handleUs": {"count": 3, "sum": 9,
                                        "buckets": [1, 1, 1]}}
  })");
  const std::string text = MetricsToPrometheusText(document);
  EXPECT_NE(text.find("# TYPE rvss_server_requests counter"),
            std::string::npos);
  EXPECT_NE(text.find("rvss_server_requests 12"), std::string::npos);
  EXPECT_NE(text.find("rvss_sim_cycles_per_s 1000"), std::string::npos);
  // Cumulative le-series: bucket 0 (le=0) holds 1, by le=1 two values,
  // and the +Inf line always equals the total count.
  EXPECT_NE(text.find("rvss_server_handle_us_bucket{le=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("rvss_server_handle_us_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("rvss_server_handle_us_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("rvss_server_handle_us_count 3"), std::string::npos);
  EXPECT_NE(text.find("rvss_server_handle_us_sum 9"), std::string::npos);
  // Exactly one +Inf series per histogram — a duplicate would be
  // rejected by a Prometheus scraper.
  const std::string needle = "_bucket{le=\"+Inf\"}";
  std::size_t occurrences = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++occurrences;
  }
  EXPECT_EQ(occurrences, 1u);
}

TEST(Trace, RingKeepsNewestAndCountsDropped) {
  TraceRing& ring = TraceRing::Instance();
  ring.Clear();
  for (std::size_t i = 0; i < TraceRing::kCapacity + 10; ++i) {
    ScopedSpan span("test", "fill");
  }
  const json::Json document = ring.ToJson();
  const json::Json* spans = document.Find("spans");
  ASSERT_NE(spans, nullptr);
  EXPECT_EQ(spans->AsArray().size(), TraceRing::kCapacity);
  EXPECT_EQ(document.GetInt("dropped", -1), 10);
  EXPECT_EQ(document.GetInt("capacity", -1),
            static_cast<std::int64_t>(TraceRing::kCapacity));
  // Oldest-first, seq strictly increasing.
  const auto& array = spans->AsArray();
  for (std::size_t i = 1; i < array.size(); ++i) {
    EXPECT_LT(array[i - 1].GetInt("seq", -1), array[i].GetInt("seq", -1));
  }
  ring.Clear();
}

TEST(Trace, SpanCarriesCategoryNameAndDetail) {
  TraceRing& ring = TraceRing::Instance();
  ring.Clear();
  {
    ScopedSpan span("fleet", "drainWorker");
    span.SetDetail("worker=1 moved=4");
  }
  const json::Json document = ring.ToJson();
  const auto& spans = document.Find("spans")->AsArray();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].GetString("category", ""), "fleet");
  EXPECT_EQ(spans[0].GetString("name", ""), "drainWorker");
  EXPECT_EQ(spans[0].GetString("detail", ""), "worker=1 moved=4");
  EXPECT_GT(spans[0].GetInt("startNs", -1), 0);
  EXPECT_GE(spans[0].GetInt("durationNs", -1), 0);
  ring.Clear();
}

TEST(Trace, DisabledRecordsNothing) {
  TraceRing& ring = TraceRing::Instance();
  ring.Clear();
  SetEnabled(false);
  { ScopedSpan span("test", "suppressed"); }
  SetEnabled(true);
  EXPECT_TRUE(ring.ToJson().Find("spans")->AsArray().empty());
}

TEST(ServerCommand, MetricsReturnsRegistryDocument) {
  server::SimServer server;
  json::Json request = json::Json::MakeObject();
  request.Set("command", "metrics");
  const json::Json response = server.Handle(request);
  EXPECT_EQ(response.GetString("status", ""), "ok");
  const json::Json* metrics = response.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_NE(metrics->Find("counters"), nullptr);
  EXPECT_NE(metrics->Find("gauges"), nullptr);
  EXPECT_NE(metrics->Find("histograms"), nullptr);
}

TEST(ServerCommand, MetricsTextFormatReturnsPrometheusExposition) {
  server::SimServer server;
  // The handler records its own command counter after dispatch, so by the
  // second call `server.cmd.metrics` must exist in the exposition.
  json::Json request = json::Json::MakeObject();
  request.Set("command", "metrics");
  (void)server.Handle(request);
  request.Set("format", "text");
  const json::Json response = server.Handle(request);
  EXPECT_EQ(response.GetString("status", ""), "ok");
  const std::string text = response.GetString("text", "");
  EXPECT_NE(text.find("rvss_server_cmd_metrics"), std::string::npos);
}

TEST(ServerCommand, TraceDumpReturnsSpanRing) {
  TraceRing::Instance().Clear();
  { ScopedSpan span("test", "visible"); }
  server::SimServer server;
  json::Json request = json::Json::MakeObject();
  request.Set("command", "traceDump");
  const json::Json response = server.Handle(request);
  EXPECT_EQ(response.GetString("status", ""), "ok");
  const json::Json* trace = response.Find("trace");
  ASSERT_NE(trace, nullptr);
  const auto& spans = trace->Find("spans")->AsArray();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].GetString("name", ""), "visible");
  TraceRing::Instance().Clear();
}

TEST(ServerCommand, HandleLatencyIsRecordedPerCommand) {
  server::SimServer server;
  Registry& registry = Registry::Instance();
  Histogram& stepLatency = registry.GetHistogram("server.handleUs.step");
  Counter& stepCount = registry.GetCounter("server.cmd.step");
  const std::uint64_t latencyBefore = stepLatency.count();
  const std::uint64_t countBefore = stepCount.value();

  json::Json create = json::Json::MakeObject();
  create.Set("command", "createSession");
  create.Set("code", "main:\n    li t0, 5\n    ret\n");
  create.Set("entry", "main");
  const json::Json created = server.Handle(create);
  ASSERT_EQ(created.GetString("status", ""), "ok");
  json::Json step = json::Json::MakeObject();
  step.Set("command", "step");
  step.Set("sessionId", created.GetInt("sessionId", -1));
  step.Set("count", std::int64_t{3});
  ASSERT_EQ(server.Handle(step).GetString("status", ""), "ok");

  EXPECT_EQ(stepCount.value(), countBefore + 1);
  EXPECT_EQ(stepLatency.count(), latencyBefore + 1);
}

}  // namespace
}  // namespace rvss::obs
