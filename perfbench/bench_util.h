/// \file bench_util.h
/// \brief Measurement plumbing of the xsum benchmark: one steady clock,
/// exact percentiles over the benchmark's own samples, process CPU and
/// RSS from getrusage, the in-memory span recorder of the traced run, and
/// the metric sink that prints the final result line.
///
/// Every number here is taken from outside the library: the benchmark
/// times calls into public functions and reads public counters.

#ifndef XSUM_PERFBENCH_BENCH_UTIL_H_
#define XSUM_PERFBENCH_BENCH_UTIL_H_

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/stats.h"

namespace xsum::perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since an arbitrary process epoch.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) * 1e-6; }
inline double NsToUs(int64_t ns) { return static_cast<double>(ns) * 1e-3; }

/// Exact percentile (linear interpolation between closest ranks) of
/// \p values; 0 for an empty sample.
inline double Percentile(const std::vector<double>& values, double p) {
  StatAccumulator all;
  for (double v : values) all.Add(v);
  return all.Percentile(p);
}

inline double Median(const std::vector<double>& values) {
  return Percentile(values, 50.0);
}

/// Process user+sys CPU time in microseconds.
inline double CpuUs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

/// Peak resident set size of the process in MiB (`ru_maxrss`).
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// \brief One traced interval: a call into a layer's public entry point.
/// Spans of one request share `request_id`; `parent` indexes the
/// enclosing span in the recorder (-1 for a root), resolved by interval
/// containment among the request's spans when the run ends.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t request_id = 0;
  int64_t parent = -1;
};

/// \brief In-memory span store of the traced run. Disabled recorders
/// record nothing, so the untraced run pays one branch per call site.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  void Record(const char* name, int64_t start_ns, int64_t end_ns,
              uint64_t request_id) {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start_ns, end_ns, request_id, -1});
  }

  /// Links every span to its tightest enclosing span of the same request
  /// (request id 0 spans are per-call spans without a request and stay
  /// roots) and returns the store.
  const std::vector<Span>& Resolve() {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<uint64_t, std::vector<size_t>> by_request;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].request_id != 0) {
        by_request[spans_[i].request_id].push_back(i);
      }
    }
    for (const auto& [id, members] : by_request) {
      for (size_t child : members) {
        int64_t best = -1;
        for (size_t candidate : members) {
          if (candidate == child) continue;
          const Span& c = spans_[candidate];
          const Span& s = spans_[child];
          const bool encloses = c.start_ns <= s.start_ns &&
                                s.end_ns <= c.end_ns &&
                                (c.end_ns - c.start_ns) >
                                    (s.end_ns - s.start_ns);
          if (encloses &&
              (best < 0 || (c.end_ns - c.start_ns) <
                               (spans_[best].end_ns - spans_[best].start_ns))) {
            best = static_cast<int64_t>(candidate);
          }
        }
        spans_[child].parent = best;
      }
    }
    return spans_;
  }

  /// Self time of every span: its duration minus the union of the
  /// intervals its direct children cover, in milliseconds, summed per
  /// span name. Call after `Resolve`.
  std::map<std::string, std::vector<double>> SelfTimesMs() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});
    }
    std::map<std::string, std::vector<double>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      int64_t covered = 0;
      int64_t cursor = spans_[i].start_ns;
      for (const auto& [begin, end] : kids) {
        const int64_t b = std::max(begin, cursor);
        if (end > b) {
          covered += end - b;
          cursor = end;
        }
      }
      out[spans_[i].name].push_back(
          NsToMs(spans_[i].end_ns - spans_[i].start_ns - covered));
    }
    return out;
  }

  /// Writes every span as one JSON line to \p path. Returns false when
  /// the file cannot be opened.
  bool WriteJsonl(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"i\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu}\n",
                   i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request_id));
    }
    return std::fclose(out) == 0;
  }

 private:
  std::atomic<bool> enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// \brief Ordered metric sink; `PrintResult` renders the last stdout
/// line the benchmark contract asks for.
class MetricSink {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back({name, value, unit});
  }

  /// Human-readable table on stderr, then the JSON result on stdout.
  void PrintResult(bool correct, uint64_t attempted, uint64_t failed) const {
    for (const auto& m : metrics_) {
      std::fprintf(stderr, "  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value
                                                        : 0.0;
      std::snprintf(value, sizeof(value), "%.17g", v);
      if (i > 0) line += ", ";
      line += "\"" + metrics_[i].name + "\": {\"value\": " + value +
              ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace xsum::perfbench

#endif  // XSUM_PERFBENCH_BENCH_UTIL_H_
