#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>

namespace xsum::obs {
namespace {

/// Shortest-round-trip decimal form of \p d (the json.cpp discipline):
/// unique for a given bit pattern, so exposition text is deterministic.
std::string FormatDouble(double d) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), d);
  if (ec != std::errc()) return "0";
  return std::string(buf, ptr);
}

}  // namespace

int HistogramBucketIndex(uint64_t micros) {
  if (micros == 0) return 0;
  const int width = std::bit_width(micros);  // v in [2^(w-1), 2^w)
  return std::min(width, kHistogramBuckets - 1);
}

uint64_t HistogramBucketLowerMicros(int index) {
  if (index <= 0) return 0;
  return uint64_t{1} << (index - 1);
}

uint64_t HistogramBucketUpperMicros(int index) {
  if (index >= kHistogramBuckets - 1) return UINT64_MAX;
  return uint64_t{1} << index;
}

HistogramSnapshot& HistogramSnapshot::operator+=(const HistogramSnapshot& rhs) {
  for (int i = 0; i < kHistogramBuckets; ++i) counts[i] += rhs.counts[i];
  count += rhs.count;
  sum_micros += rhs.sum_micros;
  min_micros = std::min(min_micros, rhs.min_micros);
  max_micros = std::max(max_micros, rhs.max_micros);
  return *this;
}

double HistogramSnapshot::MeanMs() const {
  if (count == 0) return 0.0;
  return static_cast<double>(sum_micros) /
         (1000.0 * static_cast<double>(count));
}

double HistogramSnapshot::PercentileMs(double p) const {
  if (count == 0) return 0.0;
  const double rank =
      std::clamp(p / 100.0, 0.0, 1.0) * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    if (counts[i] == 0) continue;
    cumulative += counts[i];
    if (static_cast<double>(cumulative) + 1e-9 < rank) continue;
    // Report the stopping bucket's upper bound, tightened by the observed
    // max (which also bounds the overflow bucket, whose bucket upper is
    // +inf). This is a deliberately *conservative* quantile estimate:
    // within-bucket interpolation (what this used to do, refined by the
    // snapshot's global [min, max]) can make a fleet-merged p99 drop
    // below the p99 of every shard it merged — a shard whose snapshot
    // collapses to a point (min == max) reports its sample exactly,
    // while the merged histogram only sees a bucket count and would
    // interpolate below it, silently under-reporting the fleet tail.
    // With the bucket-upper rule the merged stopping bucket can never
    // sit below the lowest shard's stopping bucket (bucket-level CDFs
    // add under `+=`), and inside a shared bucket the merged max is >=
    // every shard max, so merged percentiles never under-report a shard
    // (metrics_test.MergedPercentileNeverBelowAnyShard). Cost: estimates
    // are upper bounds at log2-bucket resolution (< 2x), biased the safe
    // direction for alerting. Single-sample snapshots stay exact
    // (min == max collapses the bound to the sample).
    return static_cast<double>(
               std::min(HistogramBucketUpperMicros(i), max_micros)) /
           1000.0;
  }
  return static_cast<double>(max_micros) / 1000.0;
}

void Histogram::RecordMicros(uint64_t micros) {
  counts_[HistogramBucketIndex(micros)].fetch_add(1,
                                                  std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_micros_.fetch_add(micros, std::memory_order_relaxed);
  uint64_t seen = min_micros_.load(std::memory_order_relaxed);
  while (micros < seen && !min_micros_.compare_exchange_weak(
                              seen, micros, std::memory_order_relaxed)) {
  }
  seen = max_micros_.load(std::memory_order_relaxed);
  while (micros > seen && !max_micros_.compare_exchange_weak(
                              seen, micros, std::memory_order_relaxed)) {
  }
}

void Histogram::RecordMs(double ms) {
  if (!(ms > 0.0)) {  // negative / NaN clock glitches clamp to zero
    RecordMicros(0);
    return;
  }
  RecordMicros(static_cast<uint64_t>(std::llround(ms * 1000.0)));
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    snap.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum_micros = sum_micros_.load(std::memory_order_relaxed);
  snap.min_micros = min_micros_.load(std::memory_order_relaxed);
  snap.max_micros = max_micros_.load(std::memory_order_relaxed);
  return snap;
}

MetricsSnapshot& MetricsSnapshot::operator+=(const MetricsSnapshot& rhs) {
  for (const auto& [name, value] : rhs.counters) counters[name] += value;
  for (const auto& [name, value] : rhs.gauges) gauges[name] += value;
  for (const auto& [name, histogram] : rhs.histograms) {
    histograms[name] += histogram;  // default-constructs empty on first see
  }
  return *this;
}

std::string MetricsSnapshot::PrometheusText() const {
  std::string out;
  out.reserve(1024);
  for (const auto& [name, value] : counters) {
    out += "# TYPE xsum_" + name + "_total counter\n";
    out += "xsum_" + name + "_total " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    out += "# TYPE xsum_" + name + " gauge\n";
    out += "xsum_" + name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, h] : histograms) {
    out += "# TYPE xsum_" + name + " histogram\n";
    uint64_t cumulative = 0;
    for (int i = 0; i < kHistogramBuckets; ++i) {
      cumulative += h.counts[i];
      const std::string le =
          (i >= kHistogramBuckets - 1)
              ? "+Inf"
              : FormatDouble(
                    static_cast<double>(HistogramBucketUpperMicros(i)) /
                    1000.0);
      out += "xsum_" + name + "_bucket{le=\"" + le + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += "xsum_" + name + "_sum " +
           FormatDouble(static_cast<double>(h.sum_micros) / 1000.0) + "\n";
    out += "xsum_" + name + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

net::JsonValue MetricsSnapshot::ToJson() const {
  net::JsonValue root = net::JsonValue::Object();
  net::JsonValue counters_json = net::JsonValue::Object();
  for (const auto& [name, value] : counters) counters_json.Set(name, value);
  root.Set("counters", std::move(counters_json));
  net::JsonValue gauges_json = net::JsonValue::Object();
  for (const auto& [name, value] : gauges) gauges_json.Set(name, value);
  root.Set("gauges", std::move(gauges_json));
  net::JsonValue histograms_json = net::JsonValue::Object();
  for (const auto& [name, h] : histograms) {
    net::JsonValue hist = net::JsonValue::Object();
    hist.Set("count", h.count);
    hist.Set("sum_micros", h.sum_micros);
    hist.Set("min_micros", h.min_micros);
    hist.Set("max_micros", h.max_micros);
    net::JsonValue buckets = net::JsonValue::Array();
    for (int i = 0; i < kHistogramBuckets; ++i) buckets.Append(h.counts[i]);
    hist.Set("counts", std::move(buckets));
    histograms_json.Set(name, std::move(hist));
  }
  root.Set("histograms", std::move(histograms_json));
  return root;
}

Result<MetricsSnapshot> MetricsSnapshotFromJson(const net::JsonValue& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("metrics snapshot: not an object");
  }
  MetricsSnapshot snap;
  const net::JsonValue* counters = value.Find("counters");
  if (counters == nullptr || !counters->is_object()) {
    return Status::InvalidArgument("metrics snapshot: missing counters");
  }
  for (const auto& [name, v] : counters->members()) {
    if (!v.is_int() || v.AsInt() < 0) {
      return Status::InvalidArgument("metrics snapshot: counter " + name +
                                     " requires a non-negative integer");
    }
    snap.counters[name] = static_cast<uint64_t>(v.AsInt());
  }
  const net::JsonValue* gauges = value.Find("gauges");
  if (gauges == nullptr || !gauges->is_object()) {
    return Status::InvalidArgument("metrics snapshot: missing gauges");
  }
  for (const auto& [name, v] : gauges->members()) {
    if (!v.is_int()) {
      return Status::InvalidArgument("metrics snapshot: gauge " + name +
                                     " not an integer");
    }
    snap.gauges[name] = v.AsInt();
  }
  const net::JsonValue* histograms = value.Find("histograms");
  if (histograms == nullptr || !histograms->is_object()) {
    return Status::InvalidArgument("metrics snapshot: missing histograms");
  }
  for (const auto& [name, v] : histograms->members()) {
    if (!v.is_object()) {
      return Status::InvalidArgument("metrics snapshot: histogram " + name +
                                     " not an object");
    }
    HistogramSnapshot h;
    const net::JsonValue* count = v.Find("count");
    const net::JsonValue* sum = v.Find("sum_micros");
    const net::JsonValue* min = v.Find("min_micros");
    const net::JsonValue* max = v.Find("max_micros");
    const net::JsonValue* buckets = v.Find("counts");
    if (count == nullptr || !count->is_int() || sum == nullptr ||
        !sum->is_int() || min == nullptr || !min->is_int() || max == nullptr ||
        !max->is_int() || buckets == nullptr || !buckets->is_array()) {
      return Status::InvalidArgument("metrics snapshot: histogram " + name +
                                     " malformed");
    }
    if (buckets->items().size() != kHistogramBuckets) {
      // The ns.h idiom errors on mismatched stat vector sizes instead of
      // guessing an alignment.
      return Status::InvalidArgument("metrics snapshot: histogram " + name +
                                     " has wrong bucket count");
    }
    if (count->AsInt() < 0) {
      return Status::InvalidArgument("metrics snapshot: histogram " + name +
                                     " count requires a non-negative "
                                     "integer");
    }
    h.count = static_cast<uint64_t>(count->AsInt());
    for (int i = 0; i < kHistogramBuckets; ++i) {
      const net::JsonValue& b = buckets->items()[i];
      if (!b.is_int() || b.AsInt() < 0) {
        return Status::InvalidArgument("metrics snapshot: histogram " + name +
                                       " bucket requires a non-negative "
                                       "integer");
      }
      h.counts[i] = static_cast<uint64_t>(b.AsInt());
    }
    // The micros aggregates are uint64 on the int64 wire lane, so a value
    // above INT64_MAX prints negative. That is genuine only when a sample
    // landed in the overflow bucket (every other bucket holds samples
    // below 2^38 µs, which keeps min and max below INT64_MAX and the sum
    // below count · 2^38), or for the empty histogram's UINT64_MAX min
    // sentinel, which prints as -1. Any other negative is corrupt.
    const bool overflowed = h.counts[kHistogramBuckets - 1] > 0;
    const bool sum_can_wrap =
        overflowed ||
        h.count >= (uint64_t{1} << 63) /
                       HistogramBucketUpperMicros(kHistogramBuckets - 2);
    const bool empty_min = h.count == 0 && min->AsInt() == -1;
    if ((min->AsInt() < 0 && !overflowed && !empty_min) ||
        (max->AsInt() < 0 && !overflowed) ||
        (sum->AsInt() < 0 && !sum_can_wrap)) {
      return Status::InvalidArgument("metrics snapshot: histogram " + name +
                                     " has a negative micros aggregate");
    }
    h.sum_micros = static_cast<uint64_t>(sum->AsInt());
    h.min_micros = static_cast<uint64_t>(min->AsInt());
    h.max_micros = static_cast<uint64_t>(max->AsInt());
    snap.histograms[name] = h;
  }
  return snap;
}

Counter* Registry::GetCounter(std::string_view name) {
  sync::MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* Registry::GetGauge(std::string_view name) {
  sync::MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* Registry::GetHistogram(std::string_view name) {
  sync::MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

MetricsSnapshot Registry::Snapshot() const {
  sync::MutexLock lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms[name] = histogram->Snapshot();
  }
  return snap;
}

}  // namespace xsum::obs
