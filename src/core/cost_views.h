/// \file cost_views.h
/// \brief `SharedCostViews` — the prebuilt per-mode base `CostView`s of one
/// graph, shared by every consumer that serves repeated queries over it
/// (DESIGN.md §4). It is the only source of base views: every
/// summarization call reads them from here.
///
/// For a task with no Eq. (1) overlay (no input paths touch an edge) the
/// Steiner costs depend only on (graph, cost mode), and PCST's default
/// costs are the all-ones view regardless of the task. Those views are
/// worth building exactly once per graph: the batch engine reuses them
/// across its task stream, and `GraphSnapshotRegistry` snapshots carry
/// them so the service and the panel runner never rebuild costs per
/// request. Views are built lazily (first task of a given mode) and
/// thread-safely; the result of each build is bit-identical to the
/// per-task path (`WeightsToCostsInto` over the base weights), which is
/// what keeps cached-vs-fresh summaries bit-identical.

#ifndef XSUM_CORE_COST_VIEWS_H_
#define XSUM_CORE_COST_VIEWS_H_

#include <atomic>
#include <mutex>

#include "core/cost_transform.h"
#include "data/kg_builder.h"
#include "graph/cost_view.h"

namespace xsum::core {

/// \brief Lazily built, immutable-once-built base cost views of one
/// `RecGraph`. Thread-safe; share via `shared_ptr<const SharedCostViews>`.
/// The referenced graph must outlive this object (snapshots guarantee it
/// by carrying both).
class SharedCostViews {
 public:
  explicit SharedCostViews(const data::RecGraph& rec_graph)
      : rec_graph_(&rec_graph) {}

  SharedCostViews(const SharedCostViews&) = delete;
  SharedCostViews& operator=(const SharedCostViews&) = delete;

  /// The base-weight cost view for \p mode (kUnit is the all-ones view).
  const graph::CostView& ForMode(CostMode mode) const;

  /// The all-ones view (PCST's default costs).
  const graph::CostView& unit() const { return ForMode(CostMode::kUnit); }

  /// True iff these views were built over \p rec_graph.
  bool Matches(const data::RecGraph& rec_graph) const {
    return rec_graph_ == &rec_graph;
  }

  /// Resident bytes of the views built so far (a completed build becomes
  /// visible to this reader via `built_mask_`; one mid-build is skipped).
  size_t MemoryFootprintBytes() const;

 private:
  static constexpr size_t kNumModes = 3;

  const data::RecGraph* rec_graph_;
  mutable std::once_flag built_[kNumModes];
  /// Bit per mode, set (release) after that view's build completes —
  /// lets readers other than `ForMode` (which synchronizes via call_once)
  /// observe finished views without racing an in-flight build.
  mutable std::atomic<uint32_t> built_mask_{0};
  mutable graph::CostView views_[kNumModes];
};

}  // namespace xsum::core

#endif  // XSUM_CORE_COST_VIEWS_H_
