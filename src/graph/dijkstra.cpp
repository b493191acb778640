#include "graph/dijkstra.h"

#include <algorithm>
#include <cassert>

namespace xsum::graph {

void DijkstraInto(const CostView& costs, NodeId source,
                  std::span<const NodeId> targets, SearchWorkspace& ws) {
  assert(costs.valid());
  assert(costs.min_cost() >= 0.0 && "Dijkstra requires non-negative costs");
  const KnowledgeGraph& graph = costs.graph();
  ws.Begin(graph.num_nodes());

  size_t targets_remaining = 0;
  for (NodeId t : targets) {
    if (ws.Mark(t)) ++targets_remaining;
  }

  IndexedMinHeap& heap = ws.heap();
  ws.Relax(source, 0.0, kInvalidNode, kInvalidEdge);
  heap.PushOrDecrease(source, 0.0);

  while (!heap.Empty()) {
    const NodeId u = heap.PopMin();
    ws.SetSettled(u);

    if (targets_remaining > 0 && ws.marked(u)) {
      ws.Unmark(u);
      if (--targets_remaining == 0) break;
    }

    const double du = ws.dist(u);
    for (const CostSlot& s : costs.Neighbors(u)) {
      const double nd = du + s.cost;
      // No settled check: a settled neighbor's distance is final and
      // nd = du + cost >= du >= dist(neighbor), so the strict compare
      // already rejects it (the indexed heap re-admits nothing popped).
      if (nd < ws.dist(s.neighbor)) {
        ws.Relax(s.neighbor, nd, u, s.edge);
        heap.PushOrDecrease(s.neighbor, nd);
      }
    }
  }
}

Path ExtractPath(const SearchWorkspace& ws, NodeId target) {
  Path path;
  if (target >= ws.capacity() || !ws.reached(target)) return path;
  NodeId v = target;
  while (v != kInvalidNode) {
    path.nodes.push_back(v);
    if (ws.parent_edge(v) != kInvalidEdge) path.edges.push_back(ws.parent_edge(v));
    v = ws.parent_node(v);
  }
  std::reverse(path.nodes.begin(), path.nodes.end());
  std::reverse(path.edges.begin(), path.edges.end());
  return path;
}

void AppendPathEdges(const SearchWorkspace& ws, NodeId target,
                     std::vector<EdgeId>* out) {
  if (target >= ws.capacity() || !ws.reached(target)) return;
  NodeId v = target;
  while (ws.parent_edge(v) != kInvalidEdge) {
    out->push_back(ws.parent_edge(v));
    v = ws.parent_node(v);
  }
}

void MultiSourceDijkstraInto(const CostView& costs,
                             std::span<const NodeId> sources,
                             SearchWorkspace& ws) {
  assert(costs.valid());
  assert(costs.min_cost() >= 0.0 && "Dijkstra requires non-negative costs");
  const KnowledgeGraph& graph = costs.graph();
  ws.Begin(graph.num_nodes());

  IndexedMinHeap& heap = ws.heap();
  for (NodeId s : sources) {
    ws.RelaxFrom(s, 0.0, kInvalidNode, kInvalidEdge, s);
    heap.PushOrDecrease(s, 0.0);
  }

  while (!heap.Empty()) {
    const NodeId u = heap.PopMin();
    ws.SetSettled(u);

    const double du = ws.dist(u);
    const NodeId su = ws.origin(u);
    for (const CostSlot& s : costs.Neighbors(u)) {
      const double nd = du + s.cost;
      // Settled neighbors are rejected by the strict compare (see the
      // single-source loop).
      if (nd < ws.dist(s.neighbor)) {
        ws.RelaxFrom(s.neighbor, nd, u, s.edge, su);
        heap.PushOrDecrease(s.neighbor, nd);
      }
    }
  }
}

}  // namespace xsum::graph
