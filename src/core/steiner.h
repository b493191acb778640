/// \file steiner.h
/// \brief Algorithm 1 of the paper: ST-based summary explanations via the
/// classic MST-approximation of the Steiner Tree.
///
/// Two interchangeable constructions are provided:
///  - `kKmb` (default, the paper's Algorithm 1 / Kou-Markowsky-Berman):
///    Dijkstra from every terminal builds the terminal metric closure, an
///    MST of the closure is expanded back into graph paths, a final MST +
///    leaf pruning cleans the expansion. O(|T|·(|E| + |V| log |V|)),
///    approximation ratio ≤ 2 — exactly the paper's stated complexity.
///  - `kMehlhorn`: one multi-source Dijkstra builds Voronoi cells whose
///    boundary edges induce the closure. O(|E| + |V| log |V|), same
///    guarantee; offered as a faster engineering alternative and ablation.
///
/// Every KMB entry point (single, chained, wave) runs its closure rows
/// through the one search kernel, `graph::DijkstraInto`; they differ only
/// in which rows they search (chained: the rows its store lacks; wave: each
/// distinct row source once across many tasks). Every entry point reads a
/// prebuilt `graph::CostView`; none builds one. The batch engine takes
/// base views from `SharedCostViews` and rebuilds overlay views in its
/// context.

#ifndef XSUM_CORE_STEINER_H_
#define XSUM_CORE_STEINER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/cost_view.h"
#include "graph/knowledge_graph.h"
#include "graph/search_workspace.h"
#include "graph/subgraph.h"
#include "util/status.h"

namespace xsum::core {

/// \brief Steiner construction knobs.
struct SteinerOptions {
  enum class Variant : uint8_t { kKmb = 0, kMehlhorn = 1 };
  Variant variant = Variant::kKmb;
  /// Run the final MST-over-expansion + prune-non-terminal-leaves cleanup
  /// (Algorithm 1 steps 7-14 plus standard KMB post-processing).
  bool cleanup = true;
};

/// \brief Outcome of a Steiner construction.
struct SteinerResult {
  graph::Subgraph tree;
  /// Terminals that could not be connected (in a different weak component).
  std::vector<graph::NodeId> unreached_terminals;
  /// Approximate workspace bytes allocated by the algorithm (for the
  /// paper's memory metric, Fig. 9-11).
  size_t workspace_bytes = 0;
};

/// \brief Computes an approximate minimum-cost Steiner tree spanning
/// \p terminals under the edge costs carried by \p costs (a committed
/// `graph::CostView` — built once, shared across queries). A view holding
/// a negative or non-finite cost is rejected as InvalidArgument.
///
/// Terminals in different weak components yield a Steiner *forest* over the
/// reachable groups plus the list of unreached terminals; the subgraph is
/// still returned (per-component trees). Duplicate terminals are ignored.
///
/// Passing a \p workspace lets repeated calls reuse the O(|V|) search
/// state (epoch-reset, no per-call allocation); results are identical to a
/// fresh-workspace call. The workspace contents are invalidated on return.
Result<SteinerResult> SteinerTree(const graph::CostView& costs,
                                  const std::vector<graph::NodeId>& terminals,
                                  const SteinerOptions& options = {},
                                  graph::SearchWorkspace* workspace = nullptr);

/// \brief Metric-closure memo shared by a *chain* of KMB queries over one
/// fixed cost view: the closure distance and expansion path of every
/// terminal pair searched so far, keyed by node-id pair, plus (optionally)
/// the full shortest-path trees of the sources that produced them.
///
/// `SteinerTreeChained` serves closure rows from the store and searches
/// only the missing pairs, which is what makes a nested-terminal k-sweep
/// (the k-prefix tasks of core/scenario.h) incremental: the pairs of the
/// k-summary are exactly a subset of the pairs of the k+1-summary. Entries
/// are valid only while the costs stay bitwise identical to the view they
/// were recorded under — the caller (`core::SummarizeChained`) guards that
/// with a cost signature and clears the store otherwise.
///
/// With `retain_trees` set, each searched source keeps its complete
/// shortest-path tree (O(|V|) per source), so a source is searched at most
/// once per chain: every later pair of that source is extracted from the
/// stored tree without touching the graph. Off, only the compact pair
/// entries are kept (the mode used for service-cache checkpoints, whose
/// footprint is byte-budgeted).
struct KmbClosureStore {
  struct PairEntry {
    /// Closure distance of the pair (`graph::kInfDistance` if unreached).
    double dist = 0.0;
    /// Arena span [path_begin, path_end) of the stored expansion path.
    uint32_t path_begin = 0;
    uint32_t path_end = 0;
  };
  /// One complete single-source shortest-path tree (no early exit).
  struct SourceTree {
    std::vector<double> dist;
    std::vector<graph::NodeId> parent_node;
    std::vector<graph::EdgeId> parent_edge;
  };

  /// Keep full source trees (see file comment). Set before first use.
  bool retain_trees = false;

  /// (min(u,v) << 32 | max(u,v)) → pair entry.
  std::unordered_map<uint64_t, PairEntry> pairs;
  /// Concatenated expansion-path edges referenced by the pair spans.
  std::vector<graph::EdgeId> arena;
  /// Full trees of searched sources (only populated when `retain_trees`).
  std::unordered_map<graph::NodeId, SourceTree> trees;

  /// Telemetry of the most recent chained call (tests and benches).
  size_t last_reused_pairs = 0;
  size_t last_computed_pairs = 0;
  size_t last_searches = 0;

  /// Drops every memoized entry (keeps `retain_trees`).
  void Clear();
  /// Approximate resident bytes of the memo.
  size_t MemoryFootprintBytes() const;
};

/// \brief KMB construction that reads already-known closure rows from
/// \p store, searches only the missing terminal pairs, and extends the
/// store with what it computed. Bit-identical to `SteinerTree` with
/// `variant == kKmb` for *any* terminal set, provided every store entry
/// was recorded under bitwise-identical costs (DESIGN.md §5); an empty
/// store reproduces the from-scratch construction exactly. A `kMehlhorn`
/// \p options delegates to the plain construction (nothing to memoize
/// across a single multi-source sweep).
Result<SteinerResult> SteinerTreeChained(
    const graph::CostView& costs,
    const std::vector<graph::NodeId>& terminals, const SteinerOptions& options,
    graph::SearchWorkspace* workspace, KmbClosureStore* store);

/// \brief Wave construction: answers many KMB queries over *one* cost view
/// with each distinct closure-row source searched once (DESIGN.md §8).
///
/// All closure rows of all tasks are planned together with the sources
/// deduplicated across tasks — two tasks searching from the same terminal
/// share one `graph::DijkstraInto` whose target set is the union (valid by
/// the settled-prefix argument of DESIGN.md §5: a merged search early-exits
/// later, and settled-node facts do not depend on how long a search runs).
/// Right after each search, every row that reads it is copied into its
/// task's own closure and path buffers (O(|T|²) per task, no O(|V|) state
/// beyond \p workspace). On Zipf-skewed traffic, where hot users/items
/// recur across concurrent tasks, that dedup is the wave's whole win.
///
/// `result[i]` is **bit-identical** to
/// `SteinerTree(costs, terminal_sets[i], options, workspace)` — tree,
/// unreached terminals, and `workspace_bytes` (the accounting is the
/// from-scratch code) — including the degenerate single-task wave. A
/// `kMehlhorn` \p options runs each task through the plain construction
/// (its one multi-source sweep has nothing to share).
std::vector<Result<SteinerResult>> SteinerTreeWave(
    const graph::CostView& costs,
    const std::vector<std::vector<graph::NodeId>>& terminal_sets,
    const SteinerOptions& options, graph::SearchWorkspace* workspace);

}  // namespace xsum::core

#endif  // XSUM_CORE_STEINER_H_
