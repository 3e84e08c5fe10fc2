#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

namespace vadasa::obs {
namespace {

TEST(CounterTest, AddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.Add(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(HistogramTest, ExactAggregatesOnKnownInput) {
  Histogram h;
  for (int v = 1; v <= 100; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

TEST(HistogramTest, ExactNearestRankPercentiles) {
  // 1..100: nearest-rank percentile p is exactly the value p.
  Histogram h;
  for (int v = 100; v >= 1; --v) h.Record(v);  // Reverse order: must sort.
  EXPECT_DOUBLE_EQ(h.Percentile(50.0), 50.0);
  EXPECT_DOUBLE_EQ(h.Percentile(90.0), 90.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99.0), 99.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100.0), 100.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 1.0);
  // Out-of-range p is clamped.
  EXPECT_DOUBLE_EQ(h.Percentile(-5.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(400.0), 100.0);
}

TEST(HistogramTest, PercentilesOnSmallSample) {
  Histogram h;
  for (const double v : {40.0, 10.0, 30.0, 20.0}) h.Record(v);
  // rank = ceil(p/100 * 4): p50 -> rank 2 -> 20; p75 -> rank 3 -> 30;
  // p25 -> rank 1 -> 10; p51 -> rank 3 -> 30.
  EXPECT_DOUBLE_EQ(h.Percentile(25.0), 10.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50.0), 20.0);
  EXPECT_DOUBLE_EQ(h.Percentile(51.0), 30.0);
  EXPECT_DOUBLE_EQ(h.Percentile(75.0), 30.0);
  EXPECT_DOUBLE_EQ(h.Percentile(76.0), 40.0);
}

TEST(HistogramTest, EmptyHistogramIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50.0), 0.0);
}

TEST(HistogramTest, RetainsEverySampleUpToTheCap) {
  Histogram h;
  for (size_t i = 0; i < Histogram::kMaxRetainedSamples; ++i) {
    h.Record(static_cast<double>(i));
  }
  EXPECT_EQ(h.samples().size(), Histogram::kMaxRetainedSamples);
  EXPECT_EQ(h.count(), Histogram::kMaxRetainedSamples);
  // Exact below the cap: the maximum retained value is the maximum recorded.
  EXPECT_DOUBLE_EQ(h.Percentile(100.0),
                   static_cast<double>(Histogram::kMaxRetainedSamples - 1));
}

TEST(HistogramTest, ReservoirCapsRetentionButKeepsAggregatesExact) {
  Histogram h;
  const size_t n = Histogram::kMaxRetainedSamples + 50000;
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    h.Record(static_cast<double>(i));
    sum += static_cast<double>(i);
  }
  EXPECT_EQ(h.samples().size(), Histogram::kMaxRetainedSamples);
  EXPECT_EQ(h.count(), n);
  EXPECT_DOUBLE_EQ(h.sum(), sum);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), static_cast<double>(n - 1));
  // The reservoir stays a plausible uniform sample: the median estimate of a
  // uniform ramp lands near the true median (a 10% band is ~60 sigma wide for
  // a 2^16 reservoir — failure means the reservoir is biased, not unlucky).
  const double p50 = h.Percentile(50.0);
  EXPECT_GT(p50, 0.40 * static_cast<double>(n));
  EXPECT_LT(p50, 0.60 * static_cast<double>(n));
}

TEST(HistogramTest, SummaryMatchesTheSingleAccessors) {
  // Below the cap and past it, with ties, in scrambled order: one Summary
  // equals the single accessors and the nearest ranks of the sorted samples.
  for (const size_t n : {size_t{1}, size_t{7}, size_t{1000},
                         Histogram::kMaxRetainedSamples + 20000}) {
    Histogram h;
    uint64_t x = 12345;
    for (size_t i = 0; i < n; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      h.Record(static_cast<double>((x >> 33) % 500));
    }
    const HistogramStats stats = h.Summary();
    EXPECT_EQ(stats.count, h.count()) << n;
    EXPECT_EQ(stats.sum, h.sum()) << n;
    EXPECT_EQ(stats.min, h.min()) << n;
    EXPECT_EQ(stats.max, h.max()) << n;
    EXPECT_EQ(stats.p50, h.Percentile(50.0)) << n;
    EXPECT_EQ(stats.p90, h.Percentile(90.0)) << n;
    EXPECT_EQ(stats.p99, h.Percentile(99.0)) << n;
    std::vector<double> sorted = h.samples();
    std::sort(sorted.begin(), sorted.end());
    const auto nearest_rank = [&](double p) {
      return sorted[static_cast<size_t>(
                        std::ceil(p / 100.0 * static_cast<double>(sorted.size()))) -
                    1];
    };
    EXPECT_EQ(stats.p50, nearest_rank(50.0)) << n;
    EXPECT_EQ(stats.p90, nearest_rank(90.0)) << n;
    EXPECT_EQ(stats.p99, nearest_rank(99.0)) << n;
  }
  const HistogramStats empty = Histogram().Summary();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.p50, 0.0);
  EXPECT_EQ(empty.p99, 0.0);
}

TEST(HistogramTest, ReservoirIsDeterministic) {
  // Same record sequence => identical retained samples (fixed-seed RNG).
  Histogram a, b;
  const size_t n = Histogram::kMaxRetainedSamples + 10000;
  for (size_t i = 0; i < n; ++i) {
    a.Record(static_cast<double>(i % 997));
    b.Record(static_cast<double>(i % 997));
  }
  EXPECT_EQ(a.samples(), b.samples());
  // Reset rewinds the RNG too: a replay matches.
  a.Reset();
  for (size_t i = 0; i < n; ++i) a.Record(static_cast<double>(i % 997));
  EXPECT_EQ(a.samples(), b.samples());
}

TEST(MetricsRegistryTest, TypedValueViews) {
  MetricsRegistry r;
  r.counter("c")->Add(3);
  r.gauge("g")->Set(1.5);
  Histogram* h = r.histogram("h");
  h->Record(2.0);
  h->Record(4.0);
  const auto counters = r.CounterValues();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].first, "c");
  EXPECT_EQ(counters[0].second, 3u);
  const auto gauges = r.GaugeValues();
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(gauges[0].second, 1.5);
  const auto hists = r.HistogramValues();
  ASSERT_EQ(hists.size(), 1u);
  EXPECT_EQ(hists[0].first, "h");
  EXPECT_EQ(hists[0].second.count, 2u);
  EXPECT_DOUBLE_EQ(hists[0].second.sum, 6.0);
  EXPECT_DOUBLE_EQ(hists[0].second.p50, 2.0);
  EXPECT_DOUBLE_EQ(hists[0].second.p99, 4.0);
  EXPECT_EQ(r.MetricCount(), 3u);
}

TEST(MetricsRegistryTest, HandlesAreStable) {
  MetricsRegistry r;
  Counter* c1 = r.counter("x");
  Counter* c2 = r.counter("x");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(r.counter("y"), c1);
  EXPECT_EQ(r.gauge("g"), r.gauge("g"));
  EXPECT_EQ(r.histogram("h"), r.histogram("h"));
}

TEST(MetricsRegistryTest, SnapshotExpandsHistogramsSorted) {
  MetricsRegistry r;
  r.counter("b.count")->Add(7);
  r.gauge("a.gauge")->Set(2.5);
  Histogram* h = r.histogram("c.hist");
  h->Record(1.0);
  h->Record(3.0);
  const auto snap = r.Snapshot();
  ASSERT_EQ(snap.size(), 9u);  // 1 counter + 1 gauge + 7 histogram facets.
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].first, snap[i].first);
  }
  std::map<std::string, double> m(snap.begin(), snap.end());
  EXPECT_DOUBLE_EQ(m.at("b.count"), 7.0);
  EXPECT_DOUBLE_EQ(m.at("a.gauge"), 2.5);
  EXPECT_DOUBLE_EQ(m.at("c.hist.count"), 2.0);
  EXPECT_DOUBLE_EQ(m.at("c.hist.sum"), 4.0);
  EXPECT_DOUBLE_EQ(m.at("c.hist.min"), 1.0);
  EXPECT_DOUBLE_EQ(m.at("c.hist.max"), 3.0);
  EXPECT_DOUBLE_EQ(m.at("c.hist.p50"), 1.0);
  EXPECT_DOUBLE_EQ(m.at("c.hist.p99"), 3.0);
}

TEST(MetricsRegistryTest, ToJsonIsFlatObject) {
  MetricsRegistry r;
  r.counter("runs")->Add(3);
  r.gauge("seconds")->Set(0.25);
  const std::string json = r.ToJson();
  EXPECT_EQ(json, "{\"runs\": 3, \"seconds\": 0.25}");
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsHandles) {
  MetricsRegistry r;
  Counter* c = r.counter("x");
  c->Add(5);
  r.histogram("h")->Record(1.0);
  r.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(r.counter("x"), c);
  EXPECT_EQ(r.histogram("h")->count(), 0u);
}

}  // namespace
}  // namespace vadasa::obs
