/// \file dijkstra.h
/// \brief Shortest-path machinery over the undirected view of the knowledge
/// graph. This is the inner loop of the ST summarizer (Algorithm 1 computes
/// the metric closure over terminals with repeated Dijkstra runs).
///
/// Every search runs over a prebuilt `CostView` (graph/cost_view.h) into a
/// caller-owned `SearchWorkspace`, whose accessors and `ExtractPath` read
/// the result. The view is the interleaved (neighbor, edge, cost) CSR built
/// once per cost vector (`core::SharedCostViews` holds a graph's base
/// views), so the scan loop streams one sequential array instead of
/// gathering `costs[edge]` per relaxation. Costs must be finite and
/// non-negative. The ST summarizer meets this by mapping the paper's
/// maximize-weight objective through the order-preserving transform in
/// `core/cost_transform.h` instead of the paper's literal "multiply weights
/// by −1" (which would produce negative costs Dijkstra cannot handle); see
/// DESIGN.md §1.4(3) and §4.

#ifndef XSUM_GRAPH_DIJKSTRA_H_
#define XSUM_GRAPH_DIJKSTRA_H_

#include <limits>
#include <span>
#include <vector>

#include "graph/cost_view.h"
#include "graph/knowledge_graph.h"
#include "graph/path.h"
#include "graph/search_workspace.h"
#include "graph/types.h"

namespace xsum::graph {

/// Distance value meaning "unreached".
inline constexpr double kInfDistance = std::numeric_limits<double>::infinity();

/// \brief Workspace-resident Dijkstra over \p costs: runs into \p ws
/// (calling `ws.Begin()` internally) with zero steady-state allocation.
/// After the call, `ws.dist/parent_node/parent_edge` hold the
/// shortest-path tree; the state stays valid until the next `ws.Begin()`.
void DijkstraInto(const CostView& costs, NodeId source,
                  std::span<const NodeId> targets, SearchWorkspace& ws);

/// \brief Reconstructs the path to \p target from workspace-resident search
/// state (single- or multi-source); empty path if \p target is unreached.
Path ExtractPath(const SearchWorkspace& ws, NodeId target);

/// \brief Appends the edges of the workspace-resident path to \p target
/// onto \p out (in target→source order); no-op if unreached.
void AppendPathEdges(const SearchWorkspace& ws, NodeId target,
                     std::vector<EdgeId>* out);

/// \brief Workspace-resident multi-source Dijkstra over \p costs. After the
/// call, `ws.origin(v)` is the nearest source of v (the Voronoi cell) and
/// `ws.dist/parent_node/parent_edge` trace back toward it.
void MultiSourceDijkstraInto(const CostView& costs,
                             std::span<const NodeId> sources,
                             SearchWorkspace& ws);

}  // namespace xsum::graph

#endif  // XSUM_GRAPH_DIJKSTRA_H_
