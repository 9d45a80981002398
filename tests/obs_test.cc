#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "common/json.h"
#include "data/datasets.h"
#include "obs/metrics.h"
#include "service/scenario_service.h"
#include "service/service_metrics.h"

namespace hyper::obs {
namespace {

uint64_t TotalCount(const Histogram& h) {
  const std::vector<uint64_t> counts = h.bucket_counts();
  return std::accumulate(counts.begin(), counts.end(), uint64_t{0});
}

// --- counters & gauges ------------------------------------------------------

TEST(CounterTest, IncrementsMonotonically) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(CounterTest, ConcurrentIncrementsLoseNothing) {
  // Run under the TSan leg of check.sh: relaxed atomics must still be
  // data-race free and every increment must land.
  Counter c;
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 100000;
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (size_t i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetReplacesValue) {
  Gauge g;
  g.Set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.Set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

// --- histogram bucket semantics --------------------------------------------

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  // Prometheus `le` semantics: v lands in the first bucket with v <= bound.
  Histogram h({1.0, 2.0, 4.0});
  h.Observe(0.5);  // bucket 0
  h.Observe(1.0);  // bucket 0 (le is inclusive)
  h.Observe(1.5);  // bucket 1
  h.Observe(2.0);  // bucket 1
  h.Observe(3.9);  // bucket 2
  h.Observe(4.0);  // bucket 2
  h.Observe(5.0);  // +Inf overflow
  const std::vector<uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 2u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(TotalCount(h), 7u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 3.9 + 4.0 + 5.0);
}

TEST(HistogramTest, QuantileInterpolatesWithinBuckets) {
  // counts [1,1,1,1] over bounds {1,2,4} (+Inf): hand-computed quantiles.
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  const std::vector<uint64_t> counts = {1, 1, 1, 1};
  // p50: target 2.0 -> second bucket boundary exactly -> 2.0.
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, counts, 0.50), 2.0);
  // p25: target 1.0 -> first bucket, interpolated from 0 -> 1.0.
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, counts, 0.25), 1.0);
  // p99: target 3.96 -> +Inf bucket -> clamps to the last finite bound.
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, counts, 0.99), 4.0);
  // p62.5: target 2.5 -> third bucket, halfway: 2 + 0.5*(4-2) = 3.
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, counts, 0.625), 3.0);
}

TEST(HistogramTest, QuantileOfEmptyHistogramIsZero) {
  EXPECT_DOUBLE_EQ(HistogramQuantile({1.0, 2.0}, {0, 0, 0}, 0.5), 0.0);
}

TEST(HistogramTest, ConcurrentObservationsKeepExactCountAndSum) {
  Histogram h(LatencyBuckets());
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 20000;
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h] {
      for (size_t i = 0; i < kPerThread; ++i) h.Observe(1.0);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(TotalCount(h), kThreads * kPerThread);
  // 1.0 is exactly representable: the CAS-add sum is exact, not approximate.
  EXPECT_DOUBLE_EQ(h.sum(), double(kThreads * kPerThread));
}

// --- registry ---------------------------------------------------------------

TEST(RegistryTest, SameNameAndLabelsInternToOneInstrument) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("requests", "kind=\"x\"");
  Counter* b = registry.GetCounter("requests", "kind=\"x\"");
  Counter* other = registry.GetCounter("requests", "kind=\"y\"");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, other);
  a->Increment();
  EXPECT_EQ(b->value(), 1u);
}

TEST(RegistryTest, SnapshotIsSortedAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("zeta", "", "last")->Increment(3);
  registry.GetCounter("alpha", "", "first")->Increment(1);
  registry.GetGauge("mid", "")->Set(2.0);
  registry.GetHistogram("lat", "", "", {0.1, 1.0})->Observe(0.05);
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.samples.size(), 3u);
  EXPECT_EQ(snap.samples[0].name, "alpha");
  EXPECT_EQ(snap.samples[1].name, "mid");
  EXPECT_EQ(snap.samples[2].name, "zeta");
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_DOUBLE_EQ(snap.histograms[0].p50, 0.05);
}

TEST(RegistryTest, SnapshotsDuringTrafficAreMonotone) {
  // A reader snapshotting mid-traffic must never observe a counter moving
  // backwards, and every histogram snapshot must be internally consistent
  // (count == sum of its bucket counts).
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("traffic", "");
  Histogram* h = registry.GetHistogram("lat", "", "", {1.0});
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (size_t i = 0; i < 50000; ++i) {
      c->Increment();
      h->Observe(0.5);
    }
    done.store(true);
  });
  double last = 0.0;
  while (!done.load()) {
    const MetricsSnapshot snap = registry.Snapshot();
    ASSERT_EQ(snap.samples.size(), 1u);
    EXPECT_GE(snap.samples[0].value, last);
    last = snap.samples[0].value;
    ASSERT_EQ(snap.histograms.size(), 1u);
    uint64_t bucket_total = 0;
    for (const uint64_t n : snap.histograms[0].counts) bucket_total += n;
    EXPECT_EQ(snap.histograms[0].count, bucket_total);
  }
  writer.join();
  EXPECT_DOUBLE_EQ(registry.Snapshot().samples[0].value, 50000.0);
}

// --- rendering --------------------------------------------------------------

TEST(RenderTest, PrometheusExposesCumulativeBucketsAndHeaders) {
  MetricsRegistry registry;
  registry.GetCounter("reqs", "kind=\"a\"", "request count")->Increment(2);
  Histogram* h = registry.GetHistogram("lat", "", "latency", {1.0, 2.0});
  h->Observe(0.5);
  h->Observe(1.5);
  h->Observe(9.0);
  const std::string text = RenderPrometheus(registry.Snapshot());
  EXPECT_NE(text.find("# HELP reqs request count"), std::string::npos);
  EXPECT_NE(text.find("# TYPE reqs counter"), std::string::npos);
  EXPECT_NE(text.find("reqs{kind=\"a\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat histogram"), std::string::npos);
  // Cumulative le buckets: 1 at le=1, 2 at le=2, 3 at +Inf.
  EXPECT_NE(text.find("lat_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"2\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_sum 11\n"), std::string::npos);
  EXPECT_NE(text.find("lat_count 3\n"), std::string::npos);
}

TEST(RenderTest, JsonSnapshotParsesAndCarriesQuantiles) {
  MetricsRegistry registry;
  registry.GetCounter("c", "")->Increment(7);
  registry.GetHistogram("h", "", "", {1.0})->Observe(0.5);
  auto parsed = JsonValue::Parse(RenderJson(registry.Snapshot()));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue& root = parsed.value();
  const JsonValue* counters = root.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->array().size(), 1u);
  EXPECT_EQ(counters->array()[0].GetNumber("value"), 7);
  const JsonValue* histograms = root.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  ASSERT_EQ(histograms->array().size(), 1u);
  EXPECT_DOUBLE_EQ(histograms->array()[0].GetNumber("p50"), 0.5);
}

// --- service integration ----------------------------------------------------

TEST(ServiceMetricsTest, SubmitsLandInRegistryInstruments) {
  data::GermanOptions options;
  options.rows = 400;
  options.seed = 11;
  auto ds = data::MakeGermanSyn(options);
  ASSERT_TRUE(ds.ok()) << ds.status();

  MetricsRegistry registry;
  service::ServiceOptions service_options;
  service_options.whatif.estimator = learn::EstimatorKind::kFrequency;
  service_options.metrics = &registry;
  service::ScenarioService service(std::move(ds->db), std::move(ds->graph),
                                   service_options);

  const std::string query =
      "Use German When Status = 1 Update(Status) = 2 "
      "Output Count(Credit = 1)";
  ASSERT_TRUE(service.Submit({"main", query, {}}).ok());
  ASSERT_TRUE(service.Submit({"main", query, {}}).ok());

  EXPECT_EQ(
      registry.GetCounter("hyper_requests_total",
                          "kind=\"whatif\",outcome=\"ok\"")->value(),
      2u);
  EXPECT_EQ(registry.GetCounter("hyper_plan_cache_requests_total",
                                "result=\"hit\"")->value(),
            1u);
  EXPECT_EQ(registry.GetCounter("hyper_plan_cache_requests_total",
                                "result=\"miss\"")->value(),
            1u);
  EXPECT_EQ(TotalCount(*registry.GetHistogram("hyper_request_seconds",
                                              "kind=\"whatif\"")),
            2u);

  // The appended service series carry the admission outcome of the same
  // two requests.
  MetricsSnapshot snap = registry.Snapshot();
  service::AppendServiceSeries(service, &snap);
  bool found = false;
  for (const MetricSample& s : snap.samples) {
    if (s.name == "hyper_admission_total" &&
        s.labels == "outcome=\"admitted\"") {
      EXPECT_DOUBLE_EQ(s.value, 2.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);

  // The /statusz document is valid JSON and reflects the cache sections.
  auto statusz = JsonValue::Parse(service::StatuszJson(service, &registry));
  ASSERT_TRUE(statusz.ok()) << statusz.status();
  const JsonValue* cache = statusz.value().Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->Find("plan"), nullptr);  // the query section is the plan
  const JsonValue* plans = cache->Find("query");
  ASSERT_NE(plans, nullptr);
  EXPECT_EQ(plans->GetNumber("hits"), 1);
  EXPECT_EQ(plans->GetNumber("misses"), 1);
}

}  // namespace
}  // namespace hyper::obs
