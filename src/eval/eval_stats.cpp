#include "eval/eval_stats.h"

#include <bit>
#include <cmath>
#include <cstring>

#include "core/scenario.h"
#include "metrics/metrics.h"

namespace xsum::eval {

namespace {

constexpr uint64_t kLimbMask = 0xFFFFFFFFull;
constexpr int kTraceVersion = 1;

net::JsonValue LimbsToJson(const std::array<uint64_t, ExactSum::kLimbs>& limbs) {
  int top = -1;
  for (int i = 0; i < ExactSum::kLimbs; ++i) {
    if (limbs[i] != 0) top = i;
  }
  net::JsonValue array = net::JsonValue::Array();
  for (int i = 0; i <= top; ++i) {
    array.Append(net::JsonValue(static_cast<int64_t>(limbs[i])));
  }
  return array;
}

Status LimbsFromJson(const net::JsonValue* value, const char* key,
                     std::array<uint64_t, ExactSum::kLimbs>* out) {
  if (value == nullptr || !value->is_array()) {
    return Status::InvalidArgument(std::string("ExactSum requires a '") +
                                   key + "' array");
  }
  if (value->items().size() > static_cast<size_t>(ExactSum::kLimbs)) {
    return Status::InvalidArgument(std::string("ExactSum '") + key +
                                   "' has too many limbs");
  }
  out->fill(0);
  for (size_t i = 0; i < value->items().size(); ++i) {
    const net::JsonValue& limb = value->items()[i];
    if (!limb.is_int() || limb.AsInt() < 0 ||
        limb.AsInt() > static_cast<int64_t>(kLimbMask)) {
      return Status::InvalidArgument(std::string("ExactSum '") + key +
                                     "' limbs must be integers in "
                                     "[0, 2^32)");
    }
    (*out)[i] = static_cast<uint64_t>(limb.AsInt());
  }
  return Status::OK();
}

}  // namespace

bool ExactSum::Add(double value) {
  if (!std::isfinite(value)) return false;
  if (value == 0.0) return true;  // ±0 contributes nothing to either sign
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  const bool negative = (bits >> 63) != 0;
  const int exponent = static_cast<int>((bits >> 52) & 0x7FF);
  const uint64_t fraction = bits & ((uint64_t{1} << 52) - 1);
  // value = mantissa · 2^(shift − 1074): subnormals sit at shift 0 (one
  // limb-0 unit is the smallest subnormal), normals restore the implicit
  // leading bit.
  uint64_t mantissa = fraction;
  int shift = 0;
  if (exponent != 0) {
    mantissa |= uint64_t{1} << 52;
    shift = exponent - 1;
  }
  AddMagnitude(negative ? neg_ : pos_, mantissa, shift);
  return true;
}

void ExactSum::AddMagnitude(Limbs& limbs, uint64_t mantissa, int shift) {
  size_t index = static_cast<size_t>(shift) >> 5;
  const int offset = shift & 31;
  // A 53-bit mantissa shifted by < 32 spans at most three limbs; the
  // carry ripple beyond them terminates fast (limbs rarely saturate).
  unsigned __int128 wide = static_cast<unsigned __int128>(mantissa)
                           << offset;
  uint64_t carry = 0;
  while ((wide != 0 || carry != 0) && index < limbs.size()) {
    const uint64_t chunk = static_cast<uint64_t>(wide & kLimbMask);
    wide >>= 32;
    const uint64_t acc = limbs[index] + chunk + carry;
    limbs[index] = acc & kLimbMask;
    carry = acc >> 32;
    ++index;
  }
  // index == kLimbs is unreachable: the top finite-double bit is 2097 and
  // the 64 bits of limb headroom absorb any feasible addend count.
}

void ExactSum::MergeInto(Limbs& lhs, const Limbs& rhs) {
  uint64_t carry = 0;
  for (size_t i = 0; i < lhs.size(); ++i) {
    const uint64_t acc = lhs[i] + rhs[i] + carry;
    lhs[i] = acc & kLimbMask;
    carry = acc >> 32;
  }
}

ExactSum& ExactSum::operator+=(const ExactSum& rhs) {
  MergeInto(pos_, rhs.pos_);
  MergeInto(neg_, rhs.neg_);
  return *this;
}

bool ExactSum::IsZero() const {
  for (int i = 0; i < kLimbs; ++i) {
    if (pos_[i] != 0 || neg_[i] != 0) return false;
  }
  return true;
}

double ExactSum::ToDouble() const {
  // Signed result = pos − neg; compare magnitudes from the top.
  int cmp = 0;
  for (int i = kLimbs - 1; i >= 0 && cmp == 0; --i) {
    if (pos_[i] != neg_[i]) cmp = pos_[i] > neg_[i] ? 1 : -1;
  }
  if (cmp == 0) return 0.0;
  const Limbs& big = cmp > 0 ? pos_ : neg_;
  const Limbs& small = cmp > 0 ? neg_ : pos_;
  Limbs diff{};
  uint64_t borrow = 0;
  for (size_t i = 0; i < diff.size(); ++i) {
    const uint64_t take = small[i] + borrow;
    if (big[i] >= take) {
      diff[i] = big[i] - take;
      borrow = 0;
    } else {
      diff[i] = big[i] + (uint64_t{1} << 32) - take;
      borrow = 1;
    }
  }
  int top_limb = kLimbs - 1;
  while (diff[top_limb] == 0) --top_limb;
  const int64_t msb =
      static_cast<int64_t>(top_limb) * 32 + (std::bit_width(diff[top_limb]) - 1);
  const auto bit_at = [&diff](int64_t position) -> int {
    if (position < 0) return 0;
    return static_cast<int>(
        (diff[static_cast<size_t>(position) >> 5] >> (position & 31)) & 1);
  };
  // Round the exact magnitude to 53 mantissa bits, half to even. When the
  // mantissa window reaches below bit 0 the value is exact already (bit 0
  // is the smallest subnormal) and no rounding applies.
  int64_t lo = msb - 52;
  uint64_t mantissa = 0;
  for (int i = 0; i < 53; ++i) {
    if (bit_at(lo + i) != 0) mantissa |= uint64_t{1} << i;
  }
  if (lo > 0) {
    const bool guard = bit_at(lo - 1) != 0;
    bool sticky = false;
    for (int64_t position = lo - 2; position >= 0 && !sticky; --position) {
      sticky = bit_at(position) != 0;
    }
    if (guard && (sticky || (mantissa & 1) != 0)) {
      ++mantissa;
      if (mantissa == (uint64_t{1} << 53)) {
        mantissa >>= 1;
        ++lo;
      }
    }
  }
  const double magnitude = std::ldexp(static_cast<double>(mantissa),
                                      static_cast<int>(lo) - 1074);
  return cmp > 0 ? magnitude : -magnitude;
}

net::JsonValue ExactSum::ToJson() const {
  net::JsonValue json = net::JsonValue::Object();
  json.Set("pos", LimbsToJson(pos_));
  json.Set("neg", LimbsToJson(neg_));
  return json;
}

Result<ExactSum> ExactSumFromJson(const net::JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("ExactSum must be a JSON object");
  }
  ExactSum sum;
  XSUM_RETURN_NOT_OK(LimbsFromJson(json.Find("pos"), "pos", &sum.pos_));
  XSUM_RETURN_NOT_OK(LimbsFromJson(json.Find("neg"), "neg", &sum.neg_));
  return sum;
}

void MetricStats::Add(double value) {
  const double squared = value * value;
  if (!std::isfinite(value) || !std::isfinite(squared)) {
    ++non_finite;
    return;
  }
  sum.Add(value);
  sum_squares.Add(squared);
  ++count;
}

MetricStats& MetricStats::operator+=(const MetricStats& rhs) {
  sum += rhs.sum;
  sum_squares += rhs.sum_squares;
  count += rhs.count;
  non_finite += rhs.non_finite;
  return *this;
}

double MetricStats::Mean() const {
  return count == 0 ? 0.0 : sum.ToDouble() / static_cast<double>(count);
}

net::JsonValue MetricStats::ToJson() const {
  net::JsonValue json = net::JsonValue::Object();
  json.Set("count", static_cast<int64_t>(count));
  json.Set("non_finite", static_cast<int64_t>(non_finite));
  json.Set("sum", sum.ToJson());
  json.Set("sum_sq", sum_squares.ToJson());
  return json;
}

Result<MetricStats> MetricStatsFromJson(const net::JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("MetricStats must be a JSON object");
  }
  MetricStats stats;
  const net::JsonValue* count = json.Find("count");
  if (count == nullptr || !count->is_int() || count->AsInt() < 0) {
    return Status::InvalidArgument(
        "MetricStats requires a non-negative integer 'count'");
  }
  stats.count = static_cast<uint64_t>(count->AsInt());
  const net::JsonValue* non_finite = json.Find("non_finite");
  if (non_finite == nullptr || !non_finite->is_int() ||
      non_finite->AsInt() < 0) {
    return Status::InvalidArgument(
        "MetricStats requires a non-negative integer 'non_finite'");
  }
  stats.non_finite = static_cast<uint64_t>(non_finite->AsInt());
  const net::JsonValue* sum = json.Find("sum");
  if (sum == nullptr) {
    return Status::InvalidArgument("MetricStats requires 'sum'");
  }
  auto parsed_sum = ExactSumFromJson(*sum);
  XSUM_RETURN_NOT_OK(parsed_sum.status());
  stats.sum = *parsed_sum;
  const net::JsonValue* sum_sq = json.Find("sum_sq");
  if (sum_sq == nullptr) {
    return Status::InvalidArgument("MetricStats requires 'sum_sq'");
  }
  auto parsed_sq = ExactSumFromJson(*sum_sq);
  XSUM_RETURN_NOT_OK(parsed_sq.status());
  stats.sum_squares = *parsed_sq;
  return stats;
}

EvalStatsSnapshot& EvalStatsSnapshot::operator+=(
    const EvalStatsSnapshot& rhs) {
  summaries += rhs.summaries;
  skipped += rhs.skipped;
  for (const auto& [name, stats] : rhs.metrics) {
    metrics[name] += stats;
  }
  for (const auto& [group, per_metric] : rhs.groups) {
    auto& mine = groups[group];
    for (const auto& [name, stats] : per_metric) {
      mine[name] += stats;
    }
  }
  return *this;
}

net::JsonValue EvalStatsSnapshot::ToJson() const {
  net::JsonValue json = net::JsonValue::Object();
  json.Set("v", static_cast<int64_t>(kTraceVersion));
  json.Set("summaries", static_cast<int64_t>(summaries));
  json.Set("skipped", static_cast<int64_t>(skipped));
  net::JsonValue metric_obj = net::JsonValue::Object();
  for (const auto& [name, stats] : metrics) {
    metric_obj.Set(name, stats.ToJson());
  }
  json.Set("metrics", std::move(metric_obj));
  net::JsonValue group_obj = net::JsonValue::Object();
  for (const auto& [group, per_metric] : groups) {
    net::JsonValue inner = net::JsonValue::Object();
    for (const auto& [name, stats] : per_metric) {
      inner.Set(name, stats.ToJson());
    }
    group_obj.Set(group, std::move(inner));
  }
  json.Set("groups", std::move(group_obj));
  // Derived means are a read-time convenience, not merge state: the
  // parser skips them, and they are a pure function of the stats above so
  // determinism is preserved.
  net::JsonValue means = net::JsonValue::Object();
  for (const auto& [name, stats] : metrics) {
    means.Set(name, stats.Mean());
  }
  json.Set("means", std::move(means));
  return json;
}

namespace {

Status ParseMetricMap(const net::JsonValue& value,
                      std::map<std::string, MetricStats>* out) {
  if (!value.is_object()) {
    return Status::InvalidArgument("metric map must be a JSON object");
  }
  for (const auto& [name, stats_json] : value.members()) {
    auto stats = MetricStatsFromJson(stats_json);
    XSUM_RETURN_NOT_OK(stats.status());
    (*out)[name] = *std::move(stats);
  }
  return Status::OK();
}

}  // namespace

Result<EvalStatsSnapshot> EvalStatsSnapshotFromJson(
    const net::JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("eval stats must be a JSON object");
  }
  const net::JsonValue* version = json.Find("v");
  if (version == nullptr || !version->is_int() ||
      version->AsInt() != kTraceVersion) {
    return Status::InvalidArgument("unsupported eval stats version");
  }
  EvalStatsSnapshot snapshot;
  const net::JsonValue* summaries = json.Find("summaries");
  if (summaries == nullptr || !summaries->is_int() ||
      summaries->AsInt() < 0) {
    return Status::InvalidArgument(
        "eval stats requires a non-negative integer 'summaries'");
  }
  snapshot.summaries = static_cast<uint64_t>(summaries->AsInt());
  const net::JsonValue* skipped = json.Find("skipped");
  if (skipped == nullptr || !skipped->is_int() || skipped->AsInt() < 0) {
    return Status::InvalidArgument(
        "eval stats requires a non-negative integer 'skipped'");
  }
  snapshot.skipped = static_cast<uint64_t>(skipped->AsInt());
  const net::JsonValue* metrics = json.Find("metrics");
  if (metrics == nullptr) {
    return Status::InvalidArgument("eval stats requires 'metrics'");
  }
  XSUM_RETURN_NOT_OK(ParseMetricMap(*metrics, &snapshot.metrics));
  const net::JsonValue* groups = json.Find("groups");
  if (groups == nullptr || !groups->is_object()) {
    return Status::InvalidArgument("eval stats requires a 'groups' object");
  }
  for (const auto& [group, per_metric] : groups->members()) {
    XSUM_RETURN_NOT_OK(
        ParseMetricMap(per_metric, &snapshot.groups[group]));
  }
  return snapshot;
}

const std::vector<std::string>& MetricNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "comprehensibility", "actionability", "diversity",
      "redundancy",        "relevance",     "privacy"};
  return *names;
}

SummaryMetricValues ComputeSummaryMetrics(const data::RecGraph& rec_graph,
                                          const core::Summary& summary) {
  const metrics::ExplanationView view =
      metrics::MakeView(rec_graph.graph(), summary);
  SummaryMetricValues values;
  values.comprehensibility = metrics::Comprehensibility(view);
  values.actionability = metrics::Actionability(rec_graph.graph(), view);
  values.diversity = metrics::Diversity(view);
  values.redundancy = metrics::Redundancy(view);
  values.relevance = metrics::Relevance(view, rec_graph.base_weights());
  values.privacy = metrics::Privacy(rec_graph.graph(), view);
  return values;
}

void EvalAccumulator::RecordSummary(const data::RecGraph& rec_graph,
                                    const core::Summary& summary) {
  RecordSummary(summary, ComputeSummaryMetrics(rec_graph, summary));
}

void EvalAccumulator::RecordSummary(const core::Summary& summary,
                                    const SummaryMetricValues& values) {
  RecordValues(values,
               std::string("method:") +
                   core::SummaryMethodToString(summary.method),
               std::string("scenario:") +
                   core::ScenarioToString(summary.scenario));
}

void EvalAccumulator::RecordValues(const SummaryMetricValues& values,
                                   std::string_view method_group,
                                   std::string_view scenario_group) {
  const std::vector<std::string>& names = MetricNames();
  const double ordered[] = {values.comprehensibility, values.actionability,
                            values.diversity,         values.redundancy,
                            values.relevance,         values.privacy};
  sync::MutexLock lock(mu_);
  ++stats_.summaries;
  auto& method_stats = stats_.groups[std::string(method_group)];
  auto& scenario_stats = stats_.groups[std::string(scenario_group)];
  for (size_t i = 0; i < names.size(); ++i) {
    stats_.metrics[names[i]].Add(ordered[i]);
    method_stats[names[i]].Add(ordered[i]);
    scenario_stats[names[i]].Add(ordered[i]);
  }
}

void EvalAccumulator::RecordSkipped() {
  sync::MutexLock lock(mu_);
  ++stats_.skipped;
}

EvalStatsSnapshot EvalAccumulator::Snapshot() const {
  sync::MutexLock lock(mu_);
  return stats_;
}

}  // namespace xsum::eval
