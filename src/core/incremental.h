/// \file incremental.h
/// \brief Incremental k-sweep summarization (DESIGN.md §5): a chained-task
/// API where the summary for k seeds the summary for k+1.
///
/// Every paper panel sweeps k on the x-axis, and the task builders of
/// core/scenario.h produce *nested* inputs as k grows: the terminal set and
/// path list of the (unit, k) task are subsets of the (unit, k+1) task's.
/// For ST/KMB that nesting is directly exploitable — the metric-closure
/// rows and stored expansion paths of already-searched terminal pairs stay
/// valid as long as the resolved edge costs stay bitwise identical, so the
/// k+1 step only searches the pairs the new terminals introduce before
/// re-running the closure MST + expansion + prune. The result is
/// bit-identical to the from-scratch summary *by construction*: reused
/// pair facts are exactly what the from-scratch row structure would
/// recompute (the settled-prefix lemma, DESIGN.md §5), and every phase
/// past the closure runs unchanged.
///
/// A `SummaryChain` carries the reusable state from step to step together
/// with the *cost signature* that guards it. When the signature moves
/// between steps — a λ > 0 overlay re-weights path-touched edges whenever
/// k adds paths — the chain resets and the step runs from scratch (still
/// inside the reused context), so chained summaries are bit-identical to
/// from-scratch ones for every method, λ, scenario, and PCST slack;
/// reuse is a pure fast path that engages exactly when it is provably
/// safe (λ = 0 / unit-cost / overlay-free task streams). PCST and
/// Mehlhorn steps run their single global sweep per step either way and
/// reuse only the context workspace and the shared cost views.
///
/// `IncrementalSummarizer` is the standalone facade (one context + one
/// chain); `BatchSummarizer::RunSweep`/`RunPanelSweep` (batch.h) drive
/// chains across workers, and the summary service consults the cached
/// (task, k−1) chain checkpoint on a (task, k) miss.

#ifndef XSUM_CORE_INCREMENTAL_H_
#define XSUM_CORE_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/batch.h"
#include "core/steiner.h"
#include "core/summarizer.h"

namespace xsum::core {

/// \brief Everything that determines the bits of the resolved ST cost
/// vector for one task, in O(|touched edges|) space: two signatures
/// compare equal iff the cost vectors are bitwise equal (same graph).
/// The deviation list suffices — Eq. (1) leaves every untouched edge at
/// its base weight, so (mode, deviations) reconstructs the entire
/// adjusted-weight vector, extremes included.
struct CostSignature {
  enum class Kind : uint8_t {
    kNone = 0,      ///< not computed (non-ST methods)
    kUnit = 1,      ///< all-ones costs (CostMode::kUnit)
    kBase = 2,      ///< no Eq. (1) deviation: costs = F(base weights, mode)
    kOverlay = 3,   ///< deviating overlay: per-edge adjusted values
  };
  Kind kind = Kind::kNone;
  CostMode mode = CostMode::kWeightAwareLog;
  /// (edge, adjusted-weight bits) of every edge whose Eq. (1) value
  /// deviates bitwise from its base weight; sorted by edge id.
  std::vector<std::pair<graph::EdgeId, uint64_t>> deviations;

  bool operator==(const CostSignature&) const = default;
};

/// \brief The carry-over state of one summarization chain: what the
/// previous step ran and the KMB closure memo it accumulated. Extended in
/// place by `SummarizeChained` (prev == next) on the sweep hot path, or
/// copied-and-extended (prev != next) when checkpoints are shared — the
/// summary cache stores immutable chains alongside cached summaries.
struct SummaryChain {
  /// True when the closure store holds entries recorded under the
  /// identity below; false chains are seeds only.
  bool has_state = false;
  const data::RecGraph* graph = nullptr;
  SummaryMethod method = SummaryMethod::kSteiner;
  SteinerOptions::Variant variant = SteinerOptions::Variant::kKmb;
  CostSignature cost_sig;

  /// The KMB pair memo (steiner.h). `closure.retain_trees` selects the
  /// sweep hot-path mode (full source trees, each source searched once
  /// per chain) vs the compact checkpoint mode (pairs + paths only).
  KmbClosureStore closure;

  /// Telemetry (tests, benches, service counters).
  size_t links = 0;    ///< chained steps that extended the current store
  size_t resets = 0;   ///< steps that had to drop the store and restart

  /// Approximate resident bytes (the summary cache accounts checkpoints
  /// against its byte budget with this).
  size_t MemoryFootprintBytes() const;
};

/// Runs one summarization step of a chain: identical inputs and outputs to
/// `SummarizeWith` (bit-identical summary), plus closure reuse from
/// \p prev when its signature matches and recording into \p next.
/// - \p prev may be null (fresh chain) and may alias \p next (in-place
///   extension, the sweep hot path).
/// - \p next may be null: no recording — the call *is* `SummarizeWith`.
Result<Summary> SummarizeChained(const data::RecGraph& rec_graph,
                                 const SummaryTask& task,
                                 const SummarizerOptions& options,
                                 SummarizeContext& ctx,
                                 const SharedCostViews& views,
                                 const SummaryChain* prev, SummaryChain* next);

/// \brief Standalone chained-task facade: owns one context and one chain;
/// feed it the k = 1, 2, ... tasks of one unit in ascending order and each
/// `Next` reuses what the previous step computed. Not thread-safe (one
/// summarizer per worker; the batch engine manages its own chains).
class IncrementalSummarizer {
 public:
  /// \p views lets the caller share prebuilt base views (a snapshot's);
  /// when absent the summarizer builds its own, like `BatchSummarizer`.
  /// \p retain_trees selects the closure-store mode (incremental.h file
  /// comment); the default is the sweep hot path.
  explicit IncrementalSummarizer(
      const data::RecGraph& rec_graph,
      std::shared_ptr<const SharedCostViews> views = nullptr,
      bool retain_trees = true);

  /// Summarizes \p task, reusing the chain state of the previous call
  /// when provably safe. Bit-identical to `Summarize(rec_graph, task,
  /// options)` in all cases.
  Result<Summary> Next(const SummaryTask& task,
                       const SummarizerOptions& options);

  /// Drops the chain state (the next call starts a fresh chain).
  void Reset();

  const SummaryChain& chain() const { return chain_; }
  const SummarizeContext& context() const { return ctx_; }

 private:
  const data::RecGraph& rec_graph_;
  std::shared_ptr<const SharedCostViews> views_;
  SummarizeContext ctx_;
  SummaryChain chain_;
};

}  // namespace xsum::core

#endif  // XSUM_CORE_INCREMENTAL_H_
