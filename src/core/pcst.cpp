#include "core/pcst.h"

#include <algorithm>

#include "graph/centrality.h"
#include "graph/search_workspace.h"
#include "util/string_util.h"

namespace xsum::core {

namespace {

using graph::CostSlot;
using graph::CostView;
using graph::EdgeId;
using graph::EpochUnionFind;
using graph::IndexedMinHeap;
using graph::KnowledgeGraph;
using graph::NodeId;
using graph::SearchWorkspace;
using graph::Subgraph;

}  // namespace

Result<PcstResult> PcstSummary(const CostView& costs,
                               const std::vector<double>& weights,
                               const std::vector<NodeId>& terminals,
                               const PcstOptions& options,
                               graph::SearchWorkspace* workspace) {
  if (!costs.valid()) {
    return Status::InvalidArgument("PcstSummary: uncommitted cost view");
  }
  if (!costs.finite_non_negative()) {
    return Status::InvalidArgument(
        "PCST costs must be finite and non-negative");
  }
  const KnowledgeGraph& graph = costs.graph();
  std::vector<NodeId> seeds = terminals;
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  for (NodeId v : seeds) {
    if (v >= graph.num_nodes()) {
      return Status::InvalidArgument(StrCat("terminal ", v, " out of range"));
    }
  }
  PcstResult result;
  if (seeds.empty()) return result;

  const size_t n = graph.num_nodes();
  SearchWorkspace local_ws;
  SearchWorkspace& ws = workspace != nullptr ? *workspace : local_ws;
  ws.Begin(n);

  // --- prizes ------------------------------------------------------------
  double alpha = 1.0;
  double beta = 0.0;
  if (options.prize_policy == PcstOptions::PrizePolicy::kAlphaBeta &&
      !weights.empty()) {
    const auto [min_it, max_it] =
        std::minmax_element(weights.begin(), weights.end());
    alpha = *max_it;
    beta = *min_it;
  }
  // Terminal membership lives in the workspace mark set (the seed used an
  // unordered_set lookup in the prize function, the hottest call here).
  for (NodeId s : seeds) ws.Mark(s);
  std::vector<double> centrality;
  if (options.prize_policy == PcstOptions::PrizePolicy::kDegreeCentrality) {
    centrality = graph::DegreeCentrality(graph);
  }
  auto prize = [&](NodeId v) {
    if (ws.marked(v)) return alpha;
    if (!centrality.empty()) return 0.5 * centrality[v];
    return beta;
  };
  // Deterministic per-node slack emulating the discretized moat growth of
  // the Goemans-Williamson scheme: component wavefronts do not expand in
  // globally length-optimal order, so merged connections meander. This is
  // what makes PCST summaries larger than ST ones in the paper ("without
  // edge weights to guide path minimization ... often including additional
  // nodes to ensure connectivity", §V-B-1). Scaled by the slack factor.
  auto edge_jitter = [&](EdgeId e) {
    if (options.growth_slack <= 0.0) return 0.0;
    uint64_t h = 0x9E3779B97F4A7C15ULL ^ (static_cast<uint64_t>(e) + 1);
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDULL;
    h ^= h >> 33;
    return options.growth_slack *
           (static_cast<double>(h >> 11) * 0x1.0p-53);
  };

  // --- growth (Algorithm 2): simultaneous Prim-style expansion from all
  // terminal seeds; an edge is adopted when it first touches a node or
  // merges two different components. The workspace provides the in-tree
  // flags (settled set), the candidate keys (dist + parent arrays), the
  // frontier queue (indexed heap), the component structure (epoch
  // union-find), and the per-root terminal counts (tag map). ------------
  EpochUnionFind& components = ws.union_find();
  components.Reset(n);
  IndexedMinHeap& frontier = ws.heap();

  // Number of distinct components that contain at least one terminal;
  // growth may stop once this reaches 1.
  size_t terminal_components = seeds.size();

  std::vector<EdgeId>& adopted_edges = ws.edge_scratch();
  adopted_edges.clear();

  auto merge = [&](NodeId a, NodeId b, EdgeId via) {
    const NodeId ra = components.Find(a);
    const NodeId rb = components.Find(b);
    if (ra == rb) return;
    const size_t ta = ws.TagOr(ra, 0);
    const size_t tb = ws.TagOr(rb, 0);
    components.Union(ra, rb);
    const NodeId root = components.Find(ra);
    ws.SetTag(root, static_cast<uint32_t>(ta + tb));
    if (ta > 0 && tb > 0) --terminal_components;
    adopted_edges.push_back(via);
  };

  // Offers u's incident slots to the frontier: settled neighbors merge
  // immediately (every in-tree/in-tree edge is offered exactly once, when
  // its later endpoint settles or during seeding), unsettled ones are
  // relaxed under the static growth key.
  auto scan = [&](NodeId u) {
    for (const CostSlot& s : costs.Neighbors(u)) {
      if (ws.settled(s.neighbor)) {
        merge(u, s.neighbor, s.edge);
        continue;
      }
      const double key = s.cost - prize(s.neighbor) + edge_jitter(s.edge);
      if (key < ws.dist(s.neighbor)) {
        ws.Relax(s.neighbor, key, u, s.edge);
        frontier.PushOrDecrease(s.neighbor, key);
      }
    }
  };

  // Seed all terminals (they enter Q with priority −p and are extracted
  // first in Algorithm 2).
  for (NodeId s : seeds) {
    ws.SetSettled(s);
    ws.SetTag(components.Find(s), 1);
  }
  for (NodeId s : seeds) scan(s);

  while (!frontier.Empty() && terminal_components > 1) {
    // Each node pops exactly once, at its best key, carrying the
    // parent/via of that key in the workspace parent arrays. The seed's
    // late-pop / stale-entry handling is unnecessary: every edge between
    // two in-tree nodes is offered to merge() when its later endpoint
    // settles (or in the seeding scan), so duplicate queue entries never
    // adopted anything the scans do not.
    const NodeId u = frontier.PopMin();
    ws.SetSettled(u);
    merge(ws.parent_node(u), u, ws.parent_edge(u));
    scan(u);
  }
  result.workspace_bytes =
      graph::SearchWorkspace::RequiredBytes(n) +
      adopted_edges.size() * sizeof(EdgeId);

  // --- pruning: keep terminal-bearing components, trim prize-less leaf
  // chains (strong pruning with p=0 leaves). ------------------------------
  Subgraph grown = Subgraph::FromEdges(
      graph, std::vector<EdgeId>(adopted_edges.begin(), adopted_edges.end()),
      seeds);
  if (options.strong_prune) {
    grown.PruneLeavesNotIn(graph, seeds);
    // Pruning can leave non-terminal isolated nodes behind (leftovers of
    // terminal-free components grown in a disconnected graph region);
    // rebuild from the surviving edges to drop them.
    std::vector<EdgeId> final_edges(grown.edges().begin(),
                                    grown.edges().end());
    result.tree = Subgraph::FromEdges(graph, std::move(final_edges), seeds);
  } else {
    // Without pruning the rebuild would reproduce `grown` verbatim
    // (FromEdges already deduplicated edges and derived the node set).
    result.tree = std::move(grown);
  }

  // --- unreached terminals & objective -----------------------------------
  {
    // Fresh partition over the final tree edges; roots are compared by id,
    // so the reset-and-reuse of the growth union-find is safe (same
    // smallest-id-wins merge rule as the seed's sparse union-find).
    components.Reset(n);
    for (EdgeId e : result.tree.edges()) {
      components.Union(graph.edge(e).src, graph.edge(e).dst);
    }
    // Count terminals per root via the sorted root list (the tag map still
    // carries growth-time counts and cannot be reused without a reset).
    std::vector<NodeId>& roots = ws.node_scratch();
    roots.clear();
    roots.reserve(seeds.size());
    for (NodeId s : seeds) roots.push_back(components.Find(s));
    std::sort(roots.begin(), roots.end());
    NodeId best_root = 0;
    size_t best_size = 0;
    for (size_t i = 0; i < roots.size();) {
      size_t j = i;
      while (j < roots.size() && roots[j] == roots[i]) ++j;
      const size_t size = j - i;
      if (size > best_size || (size == best_size && roots[i] < best_root)) {
        best_root = roots[i];
        best_size = size;
      }
      i = j;
    }
    for (NodeId s : seeds) {
      if (components.Find(s) != best_root) {
        result.unreached_terminals.push_back(s);
      }
    }
  }
  double objective = 0.0;
  for (EdgeId e : result.tree.edges()) objective += costs.cost(e);
  for (NodeId v : result.tree.nodes()) objective -= prize(v);
  result.objective = objective;
  result.workspace_bytes += result.tree.MemoryFootprintBytes();
  return result;
}

}  // namespace xsum::core
