/// \file eval_stats.h
/// \brief Mergeable sufficient statistics for the paper's figure/fairness
/// metrics (DESIGN.md §10): shards accumulate per-served-summary metric
/// values, the router merges shard snapshots on `/evalstats`, and the
/// merged state is **bit-identical** to a single process that evaluated
/// the whole stream — the same exact-merge contract `obs/metrics.h` gives
/// counters and histograms, extended to double-valued metric sums.
///
/// Integer bucket counts merge exactly for free; double sums do not —
/// floating-point addition is not associative, so `(a+b)+c` on one shard
/// and `a+(b+c)` across two generally differ in the last ulp, and any
/// naive partial-sum design fails the shard-split property. `ExactSum`
/// fixes this with a Kulisch-style fixed-point accumulator: every double
/// is decomposed into an integer mantissa and added (exactly) into a wide
/// base-2^32 limb vector spanning the full double range, with separate
/// positive/negative magnitude vectors so accumulation never cancels.
/// Integer addition *is* associative and commutative, so the accumulator
/// state after any partition/merge order equals the single-stream state
/// bit for bit (property-tested in tests/eval/eval_stats_test.cpp), and
/// `ToDouble()` — a pure function of that state — rounds the exact sum to
/// the nearest double once, at read time, instead of once per add.
///
/// Layering: depends on core/metrics/data only (no service types), so the
/// handler, the router, the replay drivers, and the tests all consume the
/// same accumulator. The per-summary metric set is the paper's §V-B
/// suite minus Consistency, which is defined over *consecutive-k pairs*
/// of explanations and therefore has no per-request sufficient statistic
/// (eval/figure.h keeps computing it offline over full k-sweeps).

#ifndef XSUM_EVAL_EVAL_STATS_H_
#define XSUM_EVAL_EVAL_STATS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/summarizer.h"
#include "data/kg_builder.h"
#include "net/json.h"
#include "util/status.h"
#include "util/sync.h"

namespace xsum::eval {

/// \brief Exact accumulator for sums of doubles: a fixed-point integer
/// covering the entire finite-double range in base-2^32 limbs.
///
/// Limb i holds bits [32i, 32i+32) of the magnitude scaled by 2^1074
/// (so one unit in limb 0 is the smallest subnormal). 68 limbs cover the
/// largest finite double (bit 2097) plus 64 bits of carry headroom, so
/// even 2^64 max-magnitude additions cannot overflow. Positive and
/// negative inputs accumulate into separate magnitude vectors — each is
/// then an exact, order-independent integer sum, which is what makes
/// `operator+=` (element-wise add with carry) associative, commutative,
/// and bit-reproducible across any shard partition.
class ExactSum {
 public:
  static constexpr int kLimbs = 68;

  /// Adds \p value exactly. Non-finite values are rejected (returns
  /// false, state unchanged) — callers count them separately so the
  /// rejection itself stays mergeable.
  bool Add(double value);

  /// Element-wise integer merge; exact for any order and grouping.
  ExactSum& operator+=(const ExactSum& rhs);
  bool operator==(const ExactSum&) const = default;

  /// The accumulated sum rounded once to the nearest double (ties to
  /// even). Deterministic: identical state yields identical bits.
  double ToDouble() const;

  bool IsZero() const;

  /// Lossless JSON form: `{"pos": [...], "neg": [...]}`, each array the
  /// limbs from least significant up, trailing zero limbs trimmed (the
  /// canonical form — every limb is < 2^32 and fits the int64 JSON lane).
  net::JsonValue ToJson() const;

 private:
  friend Result<ExactSum> ExactSumFromJson(const net::JsonValue& json);

  using Limbs = std::array<uint64_t, kLimbs>;

  static void AddMagnitude(Limbs& limbs, uint64_t mantissa, int shift);
  static void MergeInto(Limbs& lhs, const Limbs& rhs);

  Limbs pos_{};
  Limbs neg_{};
};

/// Strict parse of `ExactSum::ToJson` output (fleet scrape path).
Result<ExactSum> ExactSumFromJson(const net::JsonValue& json);

/// \brief Sufficient statistics of one metric over a request stream:
/// exact sum, exact sum of squares, and counts. `a += b` yields exactly
/// the state of one accumulator that saw both streams.
struct MetricStats {
  ExactSum sum;
  ExactSum sum_squares;
  uint64_t count = 0;
  /// Non-finite samples rejected (kept out of the sums).
  uint64_t non_finite = 0;

  void Add(double value);
  MetricStats& operator+=(const MetricStats& rhs);
  bool operator==(const MetricStats&) const = default;

  /// Deterministic mean: the exact sum rounded once, divided once.
  double Mean() const;

  net::JsonValue ToJson() const;
};

Result<MetricStats> MetricStatsFromJson(const net::JsonValue& json);

/// \brief Value snapshot of a whole evaluation accumulator (or a merge of
/// many): per-metric overall stats plus per-group breakdowns (the
/// fairness axes — `method:*`, `scenario:*`). Sorted maps keep every
/// exposition deterministic; `operator+=` merges name-wise with the exact
/// integer adds above, so fleet-merged == single-process bit for bit.
struct EvalStatsSnapshot {
  /// Served summaries folded in (each contributes one sample per metric).
  uint64_t summaries = 0;
  /// Summaries skipped (e.g. a snapshot-version race during a hot swap).
  uint64_t skipped = 0;
  std::map<std::string, MetricStats> metrics;
  std::map<std::string, std::map<std::string, MetricStats>> groups;

  EvalStatsSnapshot& operator+=(const EvalStatsSnapshot& rhs);
  bool operator==(const EvalStatsSnapshot&) const = default;

  /// Canonical lossless JSON (`{"v": 1, "summaries": ..., "skipped": ...,
  /// "metrics": {...}, "groups": {...}}`), `EvalStatsSnapshotFromJson`'s
  /// dual. Derived conveniences (per-metric means) ride under a separate
  /// "means" member that the parser ignores — the sufficient statistics
  /// alone are the merge contract.
  net::JsonValue ToJson() const;
};

/// Strict parse of `EvalStatsSnapshot::ToJson` output (the router's
/// `/evalstats` scrape). Unknown versions and malformed members are
/// errors, never silent partial merges.
Result<EvalStatsSnapshot> EvalStatsSnapshotFromJson(
    const net::JsonValue& json);

/// \brief One summary's per-request metric values (paper §V-B, minus the
/// consecutive-k Consistency), in the fixed order `MetricNames()` lists.
struct SummaryMetricValues {
  double comprehensibility = 0.0;
  double actionability = 0.0;
  double diversity = 0.0;
  double redundancy = 0.0;
  double relevance = 0.0;
  double privacy = 0.0;
};

/// The per-request metric names, index-aligned with
/// `SummaryMetricValues` fields.
const std::vector<std::string>& MetricNames();

/// Evaluates \p summary against \p rec_graph. Pure and deterministic:
/// every shard computes identical values for an identical summary, the
/// precondition for the fleet-merge bit-identity.
SummaryMetricValues ComputeSummaryMetrics(const data::RecGraph& rec_graph,
                                          const core::Summary& summary);

/// \brief Thread-safe live accumulator one serving process owns; the
/// handler records every served summary, `/evalstats` snapshots it.
class EvalAccumulator {
 public:
  /// Evaluates and folds in one served summary, tagged into the
  /// `method:*` and `scenario:*` fairness groups.
  void RecordSummary(const data::RecGraph& rec_graph,
                     const core::Summary& summary);

  /// Folds \p summary's already computed \p values (the memoized values
  /// of a cache record), tagged exactly as the evaluating overload tags
  /// them — so both overloads leave bit-identical state.
  void RecordSummary(const core::Summary& summary,
                     const SummaryMetricValues& values);

  /// Folds pre-computed values (test and replay-driver entry).
  void RecordValues(const SummaryMetricValues& values,
                    std::string_view method_group,
                    std::string_view scenario_group);

  /// Counts a summary the caller could not evaluate (version race).
  void RecordSkipped();

  EvalStatsSnapshot Snapshot() const;

 private:
  mutable sync::Mutex mu_;
  EvalStatsSnapshot stats_ XSUM_GUARDED_BY(mu_);
};

}  // namespace xsum::eval

#endif  // XSUM_EVAL_EVAL_STATS_H_
