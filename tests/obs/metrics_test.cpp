/// Tests for the obs-layer metrics registry (src/obs/metrics.h): bucket
/// placement, the exact-merge property the fleet `/metrics` view depends
/// on (merged shard snapshots == one process that saw every sample,
/// bit-exact), the lossless JSON round-trip routers scrape, and the
/// deterministic Prometheus exposition.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "net/json.h"
#include "util/rng.h"

namespace xsum::obs {
namespace {

TEST(HistogramBucketsTest, IndexMatchesLog2Bounds) {
  EXPECT_EQ(HistogramBucketIndex(0), 0);
  EXPECT_EQ(HistogramBucketIndex(1), 1);
  EXPECT_EQ(HistogramBucketIndex(2), 2);
  EXPECT_EQ(HistogramBucketIndex(3), 2);
  EXPECT_EQ(HistogramBucketIndex(4), 3);
  // Every sample lands in the bucket whose [lower, upper) brackets it.
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t micros = rng.Next64() >> (rng.Uniform(64));
    const int index = HistogramBucketIndex(micros);
    ASSERT_GE(index, 0);
    ASSERT_LT(index, kHistogramBuckets);
    EXPECT_GE(micros, HistogramBucketLowerMicros(index));
    if (index < kHistogramBuckets - 1) {
      EXPECT_LT(micros, HistogramBucketUpperMicros(index));
    }
  }
}

TEST(HistogramTest, EmptySnapshotIsWellDefined) {
  Histogram histogram;
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_TRUE(snapshot.empty());
  EXPECT_EQ(snapshot.MeanMs(), 0.0);
  EXPECT_EQ(snapshot.PercentileMs(50.0), 0.0);
  EXPECT_EQ(snapshot.PercentileMs(99.0), 0.0);
}

TEST(HistogramTest, SingleSampleReportsItselfAtEveryPercentile) {
  // The pinned /stats contract: after one request p50 == p99 == mean.
  Histogram histogram;
  histogram.RecordMs(3.5);
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 1u);
  EXPECT_DOUBLE_EQ(snapshot.MeanMs(), 3.5);
  EXPECT_DOUBLE_EQ(snapshot.PercentileMs(0.0), 3.5);
  EXPECT_DOUBLE_EQ(snapshot.PercentileMs(50.0), 3.5);
  EXPECT_DOUBLE_EQ(snapshot.PercentileMs(99.0), 3.5);
  EXPECT_DOUBLE_EQ(snapshot.PercentileMs(100.0), 3.5);
}

TEST(HistogramTest, PercentilesAreMonotoneAndClampedToObservedRange) {
  Histogram histogram;
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    histogram.RecordMicros(rng.Uniform(2'000'000));
  }
  const HistogramSnapshot snapshot = histogram.Snapshot();
  double previous = -1.0;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const double value = snapshot.PercentileMs(p);
    EXPECT_GE(value, previous) << "p" << p;
    EXPECT_GE(value, static_cast<double>(snapshot.min_micros) / 1000.0);
    EXPECT_LE(value, static_cast<double>(snapshot.max_micros) / 1000.0);
    previous = value;
  }
}

TEST(HistogramTest, NegativeAndZeroSamplesClampToBucketZero) {
  Histogram histogram;
  histogram.RecordMs(-5.0);
  histogram.RecordMs(0.0);
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 2u);
  EXPECT_EQ(snapshot.counts[0], 2u);
  EXPECT_EQ(snapshot.sum_micros, 0u);
}

/// The tentpole property: splitting one sample stream across K shard
/// histograms and merging the snapshots reproduces the single-process
/// histogram *bit-exactly* — counts, sum, min, max, every bucket.
TEST(HistogramMergeTest, MergeOfShardSplitsEqualsSingleProcess) {
  for (uint64_t seed : {1ull, 42ull, 999ull}) {
    for (size_t num_shards : {2u, 3u, 7u}) {
      Histogram combined;
      std::vector<Histogram> shards(num_shards);
      Rng rng(seed);
      for (int i = 0; i < 4000; ++i) {
        // Heavy-tailed stream: shifted uniform exponents cover every
        // bucket regime including the +Inf overflow.
        const uint64_t micros = rng.Next64() >> rng.Uniform(64);
        combined.RecordMicros(micros);
        shards[rng.Uniform(num_shards)].RecordMicros(micros);
      }
      HistogramSnapshot merged;  // starts empty, the identity
      for (const Histogram& shard : shards) merged += shard.Snapshot();
      EXPECT_EQ(merged, combined.Snapshot())
          << "seed " << seed << ", " << num_shards << " shards";
    }
  }
}

/// The fleet-view tail contract: merging shard snapshots must never
/// report a percentile *below* what every shard reports locally — a
/// merged p99 under the lowest shard p99 would mean the router's
/// `/metrics` hides a tail that every shard can see. Randomized over
/// shard counts, sample counts (down to the single-sample point-mass
/// snapshots that broke the old interpolating estimator), and three
/// value regimes (uniform, exponential bucket ladder incl. overflow,
/// and narrow same-bucket clusters).
TEST(HistogramMergeTest, MergedPercentileNeverBelowAnyShard) {
  Rng rng(31);
  for (int iteration = 0; iteration < 4000; ++iteration) {
    const size_t num_shards = 2 + rng.Uniform(4);
    std::vector<HistogramSnapshot> shards;
    HistogramSnapshot merged;
    for (size_t s = 0; s < num_shards; ++s) {
      Histogram histogram;
      const size_t samples = 1 + rng.Uniform(20);
      const uint64_t regime = rng.Uniform(3);
      for (size_t i = 0; i < samples; ++i) {
        uint64_t micros = 0;
        if (regime == 0) {
          micros = rng.Uniform(5000);
        } else if (regime == 1) {
          micros = uint64_t{1} << rng.Uniform(51);
        } else {
          micros = 90 + rng.Uniform(21);
        }
        histogram.RecordMicros(micros);
      }
      shards.push_back(histogram.Snapshot());
      merged += shards.back();
    }
    for (double p : {50.0, 90.0, 99.0, 99.9}) {
      double lowest_shard = shards[0].PercentileMs(p);
      for (const HistogramSnapshot& shard : shards) {
        lowest_shard = std::min(lowest_shard, shard.PercentileMs(p));
      }
      const double fleet = merged.PercentileMs(p);
      ASSERT_GE(fleet, lowest_shard)
          << "p" << p << " iteration " << iteration;
      // Duplication invariance: K identical replicas merge to the same
      // percentiles one replica reports (counts, sum, and extremes all
      // scale together, so the estimate must not move).
      HistogramSnapshot doubled = merged;
      doubled += merged;
      ASSERT_DOUBLE_EQ(doubled.PercentileMs(p), fleet)
          << "p" << p << " iteration " << iteration;
    }
  }
}

TEST(HistogramMergeTest, MergeWithEmptyIsIdentity) {
  Histogram histogram;
  histogram.RecordMs(1.25);
  histogram.RecordMs(900.0);
  HistogramSnapshot merged = histogram.Snapshot();
  merged += HistogramSnapshot();
  EXPECT_EQ(merged, histogram.Snapshot());
  HistogramSnapshot other;
  other += histogram.Snapshot();
  EXPECT_EQ(other, histogram.Snapshot());
}

TEST(RegistryTest, HandlesAreStableAndSnapshotSeesEverything) {
  Registry registry;
  Counter* counter = registry.GetCounter("requests");
  EXPECT_EQ(counter, registry.GetCounter("requests"));
  counter->Add(3);
  registry.GetGauge("depth")->Set(-2);
  registry.GetHistogram("latency_ms")->RecordMs(1.0);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("requests"), 3u);
  EXPECT_EQ(snapshot.gauges.at("depth"), -2);
  EXPECT_EQ(snapshot.histograms.at("latency_ms").count, 1u);
}

TEST(MetricsSnapshotTest, MergeAddsCountersGaugesAndHistograms) {
  Registry a;
  Registry b;
  a.GetCounter("requests")->Add(5);
  b.GetCounter("requests")->Add(7);
  b.GetCounter("only_b")->Add(1);
  a.GetGauge("in_flight")->Set(2);
  b.GetGauge("in_flight")->Set(3);
  a.GetHistogram("latency_ms")->RecordMs(1.0);
  b.GetHistogram("latency_ms")->RecordMs(64.0);
  MetricsSnapshot merged = a.Snapshot();
  merged += b.Snapshot();
  EXPECT_EQ(merged.counters.at("requests"), 12u);
  EXPECT_EQ(merged.counters.at("only_b"), 1u);
  EXPECT_EQ(merged.gauges.at("in_flight"), 5);
  EXPECT_EQ(merged.histograms.at("latency_ms").count, 2u);
}

/// Router scrape path: registry snapshot -> JSON -> parse -> merge must
/// lose nothing, including the empty-histogram min sentinel.
TEST(MetricsSnapshotTest, JsonRoundTripIsLossless) {
  Registry registry;
  registry.GetCounter("service_requests")->Add(123);
  registry.GetGauge("cache_bytes")->Set(1 << 20);
  Histogram* histogram = registry.GetHistogram("service_latency_ms");
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    histogram->RecordMicros(rng.Next64() >> rng.Uniform(64));
  }
  registry.GetHistogram("never_recorded");  // empty: min == UINT64_MAX
  const MetricsSnapshot original = registry.Snapshot();

  const std::string wire = original.ToJson().Dump();
  auto parsed_json = net::ParseJson(wire);
  ASSERT_TRUE(parsed_json.ok()) << parsed_json.status().ToString();
  auto round_tripped = MetricsSnapshotFromJson(*parsed_json);
  ASSERT_TRUE(round_tripped.ok()) << round_tripped.status().ToString();
  EXPECT_EQ(*round_tripped, original);
}

TEST(MetricsSnapshotTest, FromJsonRejectsBucketCountMismatch) {
  Registry registry;
  registry.GetHistogram("h")->RecordMs(1.0);
  net::JsonValue json = registry.Snapshot().ToJson();
  // Truncate the bucket array: the strict parser must refuse rather than
  // guess (size-mismatch merges silently corrupt fleet counts). Find()
  // is const-only, so rebuild the nested objects via copies + Set.
  const net::JsonValue* histograms = json.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const net::JsonValue* h = histograms->Find("h");
  ASSERT_NE(h, nullptr);
  net::JsonValue truncated = net::JsonValue::Array();
  truncated.Append(net::JsonValue(int64_t{1}));
  net::JsonValue h_copy = *h;
  h_copy.Set("counts", std::move(truncated));
  net::JsonValue histograms_copy = *histograms;
  histograms_copy.Set("h", std::move(h_copy));
  json.Set("histograms", std::move(histograms_copy));
  auto parsed = MetricsSnapshotFromJson(json);
  EXPECT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsInvalidArgument());
}

/// A scrape document with one counter, one gauge and one histogram whose
/// first bucket holds \p bucket0 samples.
net::JsonValue ScrapeDoc(int64_t counter, int64_t gauge, int64_t count,
                         int64_t sum, int64_t min, int64_t max,
                         int64_t bucket0) {
  net::JsonValue counters = net::JsonValue::Object();
  counters.Set("service_requests", counter);
  net::JsonValue gauges = net::JsonValue::Object();
  gauges.Set("service_in_flight", gauge);
  net::JsonValue buckets = net::JsonValue::Array();
  for (int i = 0; i < kHistogramBuckets; ++i) {
    buckets.Append(net::JsonValue(i == 0 ? bucket0 : int64_t{0}));
  }
  net::JsonValue h = net::JsonValue::Object();
  h.Set("count", count);
  h.Set("sum_micros", sum);
  h.Set("min_micros", min);
  h.Set("max_micros", max);
  h.Set("counts", std::move(buckets));
  net::JsonValue histograms = net::JsonValue::Object();
  histograms.Set("service_latency_ms", std::move(h));
  net::JsonValue doc = net::JsonValue::Object();
  doc.Set("counters", std::move(counters));
  doc.Set("gauges", std::move(gauges));
  doc.Set("histograms", std::move(histograms));
  return doc;
}

TEST(MetricsSnapshotTest, FromJsonRejectsNegativeUnsignedValues) {
  // Well-formed: a negative gauge is a legal signed level, and an empty
  // histogram's min sentinel (UINT64_MAX) travels as -1.
  auto ok = MetricsSnapshotFromJson(ScrapeDoc(3, -2, 1, 1, 1, 1, 1));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->gauges.at("service_in_flight"), -2);
  auto empty = MetricsSnapshotFromJson(ScrapeDoc(0, 0, 0, 0, -1, 0, 0));
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(empty->histograms.at("service_latency_ms").min_micros,
            UINT64_MAX);

  // A negative counter must not become 2^64 - 1 in the fleet sum.
  const net::JsonValue forged[] = {
      ScrapeDoc(-1, 0, 1, 1, 1, 1, 1),   // counter
      ScrapeDoc(3, 0, -1, 1, 1, 1, 1),   // histogram count
      ScrapeDoc(3, 0, 1, 1, 1, 1, -1),   // bucket count
      ScrapeDoc(3, 0, 1, -1, 1, 1, 1),   // sum, no overflow sample
      ScrapeDoc(3, 0, 1, 1, -3, 1, 1),   // min, non-empty histogram
      ScrapeDoc(3, 0, 1, 1, 1, -5, 1)};  // max, no overflow sample
  for (const net::JsonValue& doc : forged) {
    const auto parsed = MetricsSnapshotFromJson(doc);
    EXPECT_FALSE(parsed.ok()) << doc.Dump();
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << doc.Dump();
  }
}

TEST(MetricsSnapshotTest, PrometheusTextIsDeterministicAndWellFormed) {
  Registry registry;
  registry.GetCounter("service_requests")->Add(9);
  registry.GetGauge("service_in_flight")->Set(1);
  registry.GetHistogram("service_latency_ms")->RecordMs(2.0);
  registry.GetHistogram("service_latency_ms")->RecordMs(700.0);
  const std::string text = registry.Snapshot().PrometheusText();
  EXPECT_EQ(text, registry.Snapshot().PrometheusText());

  EXPECT_NE(text.find("# TYPE xsum_service_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("xsum_service_requests_total 9"), std::string::npos);
  EXPECT_NE(text.find("# TYPE xsum_service_in_flight gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE xsum_service_latency_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("xsum_service_latency_ms_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("xsum_service_latency_ms_count 2"), std::string::npos);
  // Merged-then-rendered equals rendered merge: exposition is a pure
  // function of snapshot state.
  MetricsSnapshot merged = registry.Snapshot();
  merged += MetricsSnapshot();
  EXPECT_EQ(merged.PrometheusText(), text);
}

TEST(MetricsSnapshotTest, PrometheusBucketCountsAreCumulative) {
  Registry registry;
  Histogram* histogram = registry.GetHistogram("h");
  histogram->RecordMicros(1);    // bucket 1
  histogram->RecordMicros(3);    // bucket 2
  histogram->RecordMicros(100);  // bucket 7
  const std::string text = registry.Snapshot().PrometheusText();
  // The +Inf bucket must equal _count (3), and earlier bucket lines are
  // nondecreasing — spot-check by extracting every bucket value.
  size_t pos = 0;
  uint64_t previous = 0;
  int lines = 0;
  while ((pos = text.find("xsum_h_bucket{le=\"", pos)) != std::string::npos) {
    const size_t value_at = text.find("} ", pos);
    ASSERT_NE(value_at, std::string::npos);
    const uint64_t value = std::stoull(text.substr(value_at + 2));
    EXPECT_GE(value, previous);
    previous = value;
    ++lines;
    pos = value_at;
  }
  EXPECT_EQ(lines, kHistogramBuckets);
  EXPECT_EQ(previous, 3u);
}

}  // namespace
}  // namespace xsum::obs
