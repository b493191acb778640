/// \file cost_view.h
/// \brief `CostView` — the one cost representation every search kernel
/// consumes (DESIGN.md §4).
///
/// The summarizers derive per-edge costs from weights (the §1.4(3)
/// transform, the Eq. (1) overlay, PCST's unit costs) and then run many
/// searches under them. Before this layer each kernel re-gathered
/// `costs[edge]` per relaxation — a random access into an |E| array for
/// every adjacency slot scanned — and one caller (KMB phase 1) maintained
/// a private slot-ordered copy (`BuildAdjacencyCosts`) as a side-channel.
///
/// A `CostView` is that idea promoted to the canonical interface: an
/// interleaved `(neighbor, edge, cost)` CSR built once per (graph, cost
/// vector) and shared by reference by every kernel, so the scan loop
/// streams one sequential array instead of gathering. The view also keeps
/// the EdgeId-indexed costs (for closure/MST/objective code that works per
/// edge) and the cost range (so kernels can validate non-negativity).
///
/// Views are *logically immutable*: kernels take `const CostView&` and a
/// committed view never changes under them. Rebuild-in-place is the only
/// mutation (`StartAssign`/`Commit`, reusing capacity for the batch
/// engine's per-task overlay views); every commit stamps a fresh globally
/// unique version, so caches that hold a view can detect any rebuild with
/// one integer compare. Long-lived shared views (graph snapshots, the
/// batch engine's per-mode base views) are built once and handed out as
/// `shared_ptr<const CostView>`-style references; per-task overlay views
/// live in the per-worker `SummarizeContext`.

#ifndef XSUM_GRAPH_COST_VIEW_H_
#define XSUM_GRAPH_COST_VIEW_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/knowledge_graph.h"
#include "graph/types.h"

namespace xsum::graph {

/// \brief One interleaved adjacency slot: the neighbor, the incident edge,
/// and that edge's cost, all on one 16-byte record so a relax touches a
/// single sequential stream.
struct CostSlot {
  NodeId neighbor = kInvalidNode;
  EdgeId edge = kInvalidEdge;
  double cost = 0.0;
};

/// \brief Interleaved, versioned cost CSR over a `KnowledgeGraph` (see the
/// file comment). Not thread-safe to rebuild; safe to share read-only.
class CostView {
 public:
  CostView() = default;

  /// A committed view refers to a graph; default-constructed views do not.
  bool valid() const { return graph_ != nullptr; }
  /// The graph this view was committed against. Requires `valid()`.
  const KnowledgeGraph& graph() const { return *graph_; }

  /// Globally unique, monotonically increasing commit stamp (never 0 for a
  /// committed view). Two views (or two commits of one view) never share a
  /// version, so holding a version is holding proof of *which* build of
  /// *which* cost vector a cached result was computed under.
  uint64_t version() const { return version_; }

  /// Cost of edge \p e (EdgeId-indexed, for per-edge consumers: closure
  /// rows, cleanup MSTs, the PCST objective).
  double cost(EdgeId e) const { return edge_costs_[e]; }
  const std::vector<double>& edge_costs() const { return edge_costs_; }

  /// Interleaved incident slots of \p v (the streaming mirror of
  /// `graph().Neighbors(v)`).
  std::span<const CostSlot> Neighbors(NodeId v) const {
    const size_t begin = graph_->adjacency_offset(v);
    return {slots_.data() + begin, graph_->Degree(v)};
  }

  /// Smallest / largest edge cost (+inf / -inf for an edgeless graph; both
  /// NaN when any cost is NaN).
  double min_cost() const { return min_cost_; }
  double max_cost() const { return max_cost_; }
  /// True iff every cost is finite and >= 0 (the summarizers' precondition).
  bool finite_non_negative() const {
    return min_cost_ >= 0.0 &&
           max_cost_ < std::numeric_limits<double>::infinity();
  }

  /// Builds the view from EdgeId-indexed \p edge_costs (one entry per
  /// `graph.num_edges()`). Any values are stored; the summarizers' entry
  /// points reject a view that is not `finite_non_negative()`.
  void Assign(const KnowledgeGraph& graph, std::span<const double> edge_costs);

  /// Builds the all-ones view (PCST's default and `CostMode::kUnit`).
  void AssignUnit(const KnowledgeGraph& graph);

  /// In-place rebuild protocol for zero-allocation steady state: write the
  /// per-edge costs into the returned buffer (pre-sized to
  /// `graph.num_edges()`), then `Commit()`. The view is invalid (mustn't
  /// be read) between the two calls.
  std::vector<double>& StartAssign(const KnowledgeGraph& graph);
  void Commit();

  /// Resident bytes of the cost arrays (the interleaved slots plus the
  /// EdgeId-indexed mirror).
  size_t MemoryFootprintBytes() const {
    return slots_.capacity() * sizeof(CostSlot) +
           edge_costs_.capacity() * sizeof(double);
  }

  /// Deterministic footprint of a view sized exactly for \p graph (memory
  /// metrics report this so results never depend on buffer history).
  static size_t RequiredBytes(const KnowledgeGraph& graph) {
    return graph.adjacency().size() * sizeof(CostSlot) +
           graph.num_edges() * sizeof(double);
  }

 private:
  const KnowledgeGraph* graph_ = nullptr;
  std::vector<double> edge_costs_;  // EdgeId-indexed
  std::vector<CostSlot> slots_;     // parallel to graph().adjacency()
  double min_cost_ = std::numeric_limits<double>::infinity();
  double max_cost_ = -std::numeric_limits<double>::infinity();
  uint64_t version_ = 0;
};

}  // namespace xsum::graph

#endif  // XSUM_GRAPH_COST_VIEW_H_
