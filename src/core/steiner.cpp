#include "core/steiner.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "graph/dijkstra.h"
#include "graph/mst.h"
#include "graph/search_workspace.h"
#include "graph/union_find.h"
#include "util/string_util.h"

namespace xsum::core {

namespace {

using graph::CostSlot;
using graph::CostView;
using graph::EdgeId;
using graph::KnowledgeGraph;
using graph::MstEdge;
using graph::NodeId;
using graph::SearchWorkspace;
using graph::Subgraph;

std::vector<NodeId> UniqueTerminals(std::vector<NodeId> terminals) {
  std::sort(terminals.begin(), terminals.end());
  terminals.erase(std::unique(terminals.begin(), terminals.end()),
                  terminals.end());
  return terminals;
}

/// Final cleanup shared by both variants (Algorithm 1 steps 7-14 plus the
/// standard KMB post-pass): MST over the expanded edge set, then repeatedly
/// drop non-terminal leaves. The node→dense-index translation lives in the
/// workspace tag map (the seed rebuilt an unordered_map here per query).
Subgraph Cleanup(const CostView& costs, std::vector<EdgeId> expansion_edges,
                 const std::vector<NodeId>& terminals,
                 const std::vector<NodeId>& isolated, SearchWorkspace& ws) {
  const KnowledgeGraph& graph = costs.graph();
  Subgraph expanded = Subgraph::FromEdges(graph, std::move(expansion_edges),
                                          isolated);
  // MST over the expansion to break any cycles introduced by overlapping
  // shortest paths.
  ws.Begin(graph.num_nodes());
  for (size_t i = 0; i < expanded.nodes().size(); ++i) {
    ws.SetTag(expanded.nodes()[i], static_cast<uint32_t>(i));
  }
  std::vector<MstEdge> mst_edges;
  mst_edges.reserve(expanded.num_edges());
  for (EdgeId e : expanded.edges()) {
    const graph::EdgeRecord& r = graph.edge(e);
    mst_edges.push_back(
        MstEdge{ws.TagOr(r.src, 0), ws.TagOr(r.dst, 0), costs.cost(e), e});
  }
  const std::vector<size_t> selected =
      graph::KruskalMst(expanded.num_nodes(), mst_edges);
  std::vector<EdgeId> tree_edges;
  tree_edges.reserve(selected.size());
  for (size_t idx : selected) {
    tree_edges.push_back(static_cast<EdgeId>(mst_edges[idx].tag));
  }
  Subgraph tree = Subgraph::FromEdges(graph, std::move(tree_edges), isolated);
  tree.PruneLeavesNotIn(graph, terminals);
  return tree;
}

/// Splits terminals into the connected ones (per closure forest) and the
/// isolated ones, and records unreached terminals relative to the largest
/// group. Component sizes are accumulated in a dense vector indexed by the
/// union-find root (a terminal index < |T|).
void RecordUnreached(const std::vector<NodeId>& terminals,
                     graph::UnionFind* uf, SteinerResult* result) {
  if (terminals.empty()) return;
  // Find the largest terminal component.
  std::vector<size_t> component_size(terminals.size(), 0);
  for (size_t i = 0; i < terminals.size(); ++i) {
    ++component_size[uf->Find(i)];
  }
  size_t best_root = uf->Find(0);
  size_t best_size = 0;
  for (size_t root = 0; root < component_size.size(); ++root) {
    const size_t size = component_size[root];
    if (size == 0) continue;
    if (size > best_size || (size == best_size && root < best_root)) {
      best_root = root;
      best_size = size;
    }
  }
  for (size_t i = 0; i < terminals.size(); ++i) {
    if (uf->Find(i) != best_root) {
      result->unreached_terminals.push_back(terminals[i]);
    }
  }
}

/// Phases 2-3 plus the final cleanup, shared by the from-scratch and the
/// chained KMB paths: MST of the closure matrix (closure edges enumerated
/// in row-major (i, j>i) order), expansion of each selected closure edge
/// from the caller's stored path span, cleanup. Identical inputs — the
/// closure matrix and the per-pair spans — produce identical trees, which
/// is what reduces chained-vs-from-scratch bit-identity to phase-1
/// equivalence (DESIGN.md §5). \p span_of(i, j) returns the [begin, end)
/// edge range of the stored i→j expansion path.
template <typename SpanFn>
void KmbFinish(const CostView& costs, const std::vector<NodeId>& terminals,
               const SteinerOptions& options, SearchWorkspace& ws,
               const std::vector<double>& closure, SpanFn span_of,
               SteinerResult* result) {
  const KnowledgeGraph& graph = costs.graph();
  const size_t t = terminals.size();

  // Phase 2 (step 7): MST of the closure graph.
  std::vector<MstEdge> closure_edges;
  closure_edges.reserve(t * (t - 1) / 2);
  for (size_t i = 0; i < t; ++i) {
    for (size_t j = i + 1; j < t; ++j) {
      const double d = closure[i * t + j];
      if (d < graph::kInfDistance) {
        closure_edges.push_back(MstEdge{i, j, d, 0});
      }
    }
  }
  result->workspace_bytes += closure_edges.size() * sizeof(MstEdge);
  const std::vector<size_t> selected = graph::KruskalMst(t, closure_edges);

  graph::UnionFind uf(t);
  for (size_t idx : selected) {
    uf.Union(closure_edges[idx].a, closure_edges[idx].b);
  }
  RecordUnreached(terminals, &uf, result);

  // Phase 3 (steps 8-14): expand each selected closure edge back into its
  // underlying shortest path, read straight from the stored spans.
  std::vector<EdgeId> expansion;
  for (size_t idx : selected) {
    const auto [begin, end] =
        span_of(closure_edges[idx].a, closure_edges[idx].b);
    expansion.insert(expansion.end(), begin, end);
  }
  result->workspace_bytes += expansion.size() * sizeof(EdgeId);

  if (options.cleanup) {
    result->tree = Cleanup(costs, std::move(expansion), terminals,
                           terminals, ws);
  } else {
    result->tree = Subgraph::FromEdges(graph, std::move(expansion),
                                       terminals);
  }
  result->workspace_bytes +=
      graph::SearchWorkspace::RequiredBytes(graph.num_nodes()) +
      result->tree.MemoryFootprintBytes();
}

/// Arena span [begin, end) of each stored (i, j>i) expansion path, at
/// `PairIndex(t, i, j)`.
using PairSpans = std::vector<std::pair<uint32_t, uint32_t>>;

/// Dense index of (i, j), j > i, in row-major upper-triangle order.
size_t PairIndex(size_t t, size_t i, size_t j) {
  return i * t - i * (i + 1) / 2 + (j - i - 1);
}

/// Reads closure row i while a search from terminals[i] whose targets
/// include terminals[i+1..] is resident in \p ws: fills (and mirrors) the
/// row's distances and appends each reached i→j path to \p arena. A node
/// on the i→j path settles before j does, so the stored path is exactly
/// what a fresh phase-3 search from terminal i would reconstruct.
void ReadKmbRow(const SearchWorkspace& ws, const std::vector<NodeId>& terminals,
                size_t i, std::vector<double>* closure,
                std::vector<EdgeId>* arena, PairSpans* spans) {
  const size_t t = terminals.size();
  for (size_t j = i + 1; j < t; ++j) {
    const double d = ws.dist(terminals[j]);
    (*closure)[i * t + j] = d;
    (*closure)[j * t + i] = d;
    if (d < graph::kInfDistance) {
      const uint32_t begin = static_cast<uint32_t>(arena->size());
      AppendPathEdges(ws, terminals[j], arena);
      (*spans)[PairIndex(t, i, j)] = {begin,
                                      static_cast<uint32_t>(arena->size())};
    }
  }
}

/// Phase-1 accounting plus phases 2-3 over rows read by `ReadKmbRow`. The
/// one copy of these terms is what keeps the wave's `workspace_bytes`
/// bit-identical to `SteinerKmb`'s (the service's cached-vs-fresh
/// verification compares it).
void FinishKmbRows(const CostView& costs, const std::vector<NodeId>& terminals,
                   const SteinerOptions& options, SearchWorkspace& ws,
                   const std::vector<double>& closure,
                   const std::vector<EdgeId>& arena, const PairSpans& spans,
                   SteinerResult* result) {
  const size_t t = terminals.size();
  result->workspace_bytes += closure.size() * sizeof(double);
  result->workspace_bytes +=
      arena.size() * sizeof(EdgeId) + spans.size() * sizeof(spans[0]);
  KmbFinish(costs, terminals, options, ws, closure,
            [&](size_t i, size_t j) {
              const auto [begin, end] = spans[PairIndex(t, i, j)];
              return std::pair(arena.data() + begin, arena.data() + end);
            },
            result);
}

Result<SteinerResult> SteinerKmb(const CostView& costs,
                                 const std::vector<NodeId>& terminals,
                                 const SteinerOptions& options,
                                 SearchWorkspace& ws) {
  SteinerResult result;
  const size_t t = terminals.size();

  // Phase 1 (Algorithm 1 steps 2-6): terminal metric closure. Row i targets
  // only the terminals j > i — distances are symmetric on the undirected
  // view, so the lower triangle is mirrored instead of recomputed. Each
  // Dijkstra early-exits once its remaining targets are settled (later rows
  // stop almost immediately), and the last row needs no search at all. The
  // seed ran every row against the full terminal list, letting early rows
  // sweep far past the settled terminal set and re-deriving each distance
  // twice. Every row streams its costs from the shared interleaved
  // `CostView` (the seed gathered `costs[edge]` per relaxation).
  //
  // While a row's shortest-path tree is still resident in the workspace,
  // the i→j paths are extracted into an edge arena (O(Σ path length), tiny
  // next to the searches). Phase 3 then expands the closure MST by
  // concatenating stored paths instead of re-running one Dijkstra per MST
  // source — the seed effectively paid for every search twice.
  std::vector<double>& closure = ws.value_scratch();
  closure.assign(t * t, graph::kInfDistance);
  std::vector<EdgeId>& path_arena = ws.edge_scratch();
  path_arena.clear();
  PairSpans spans(t * (t - 1) / 2, {0, 0});
  for (size_t i = 0; i + 1 < t; ++i) {
    DijkstraInto(costs, terminals[i],
                 std::span<const NodeId>(terminals).subspan(i + 1), ws);
    ReadKmbRow(ws, terminals, i, &closure, &path_arena, &spans);
  }
  FinishKmbRows(costs, terminals, options, ws, closure, path_arena, spans,
                &result);
  return result;
}

/// Store key of the unordered pair {a, b}.
uint64_t PairKey(NodeId a, NodeId b) {
  const NodeId lo = a < b ? a : b;
  const NodeId hi = a < b ? b : a;
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

/// Copies the workspace-resident shortest-path tree (all nodes; unreached
/// ones carry kInfDistance / invalid parents, matching the workspace
/// accessors bit-for-bit).
void SnapshotTree(const SearchWorkspace& ws, size_t n,
                  KmbClosureStore::SourceTree* tree) {
  tree->dist.resize(n);
  tree->parent_node.resize(n);
  tree->parent_edge.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    tree->dist[v] = ws.dist(v);
    tree->parent_node[v] = ws.parent_node(v);
    tree->parent_edge[v] = ws.parent_edge(v);
  }
}

/// `AppendPathEdges` over a stored tree instead of the live workspace —
/// the same parent-chain walk, so the recorded span is identical.
void AppendTreePathEdges(const KmbClosureStore::SourceTree& tree,
                         NodeId target, std::vector<EdgeId>* out) {
  NodeId v = target;
  while (tree.parent_edge[v] != graph::kInvalidEdge) {
    out->push_back(tree.parent_edge[v]);
    v = tree.parent_node[v];
  }
}

/// Records the (source, target) pair facts (distance + expansion path) in
/// the store. \p append_path writes the path edges for a reached target.
template <typename AppendFn>
void RecordPair(KmbClosureStore& store, NodeId source, NodeId target,
                double dist, AppendFn append_path) {
  KmbClosureStore::PairEntry entry;
  entry.dist = dist;
  if (dist < graph::kInfDistance) {
    entry.path_begin = static_cast<uint32_t>(store.arena.size());
    append_path();
    entry.path_end = static_cast<uint32_t>(store.arena.size());
  }
  store.pairs.emplace(PairKey(source, target), entry);
  ++store.last_computed_pairs;
}

/// Phase 1 of the chained construction: closure rows are filled from the
/// store where known; only the missing pairs of each row are searched —
/// from the row's *smaller-sorted* terminal, exactly the source the
/// from-scratch row structure assigns them (terminals are sorted by node
/// id, so pair (i, j<i ordering) == node-id ordering). In tree-retention
/// mode the search runs without early exit and the full tree is kept, so
/// each source searches at most once per chain.
Result<SteinerResult> SteinerKmbChained(const CostView& costs,
                                        const std::vector<NodeId>& terminals,
                                        const SteinerOptions& options,
                                        SearchWorkspace& ws,
                                        KmbClosureStore& store) {
  const KnowledgeGraph& graph = costs.graph();
  const size_t n = graph.num_nodes();
  SteinerResult result;
  const size_t t = terminals.size();
  store.last_reused_pairs = 0;
  store.last_computed_pairs = 0;
  store.last_searches = 0;

  // The closure matrix lives on the heap (not in the workspace scratch):
  // the store arena must survive the per-row searches.
  std::vector<double> closure(t * t, graph::kInfDistance);
  std::vector<NodeId> row_targets;   // missing partners of row i
  std::vector<size_t> row_target_j;  // their column indices
  auto fill = [&](size_t i, size_t j, double d) {
    closure[i * t + j] = d;
    closure[j * t + i] = d;
  };
  // A fresh store means every pair of every row is missing — the exact
  // from-scratch workload. Early-exiting rows are then strictly cheaper
  // than full sweeps + O(|V|) tree snapshots, so tree retention engages
  // only once the chain actually carries state (a chain that resets every
  // step, e.g. a λ > 0 overlay sweep, must cost what from-scratch costs).
  const bool retain_trees = store.retain_trees && !store.pairs.empty();
  for (size_t i = 0; i + 1 < t; ++i) {
    row_targets.clear();
    row_target_j.clear();
    for (size_t j = i + 1; j < t; ++j) {
      auto it = store.pairs.find(PairKey(terminals[i], terminals[j]));
      if (it != store.pairs.end()) {
        fill(i, j, it->second.dist);
        ++store.last_reused_pairs;
      } else {
        row_targets.push_back(terminals[j]);
        row_target_j.push_back(j);
      }
    }
    if (row_targets.empty()) continue;
    if (retain_trees) {
      auto [tree_it, inserted] = store.trees.try_emplace(terminals[i]);
      KmbClosureStore::SourceTree& tree = tree_it->second;
      if (inserted) {
        // Full sweep (no early exit): settled-node facts are independent
        // of how long the search runs, so every pair fact this tree ever
        // serves matches what an early-exiting from-scratch row computes.
        DijkstraInto(costs, terminals[i], {}, ws);
        SnapshotTree(ws, n, &tree);
        ++store.last_searches;
      }
      for (size_t m = 0; m < row_targets.size(); ++m) {
        const NodeId target = row_targets[m];
        const double d = tree.dist[target];
        fill(i, row_target_j[m], d);
        RecordPair(store, terminals[i], target, d, [&] {
          AppendTreePathEdges(tree, target, &store.arena);
        });
      }
    } else {
      DijkstraInto(costs, terminals[i],
                   std::span<const NodeId>(row_targets), ws);
      ++store.last_searches;
      for (size_t m = 0; m < row_targets.size(); ++m) {
        const NodeId target = row_targets[m];
        const double d = ws.dist(target);
        fill(i, row_target_j[m], d);
        RecordPair(store, terminals[i], target, d, [&] {
          AppendPathEdges(ws, target, &store.arena);
        });
      }
    }
  }
  result.workspace_bytes += closure.size() * sizeof(double);
  // Mirrors the from-scratch accounting terms (path arena edges + one
  // span record per pair): a fresh-store call reports *bit-identical*
  // workspace_bytes to `SteinerTree` — the service's cached-vs-fresh
  // verification compares them — and a carried store reports the memo it
  // actually consulted. Retained source trees are deliberately excluded:
  // they are chain infrastructure (a sweep accelerator owned by the
  // engine, like its persistent workspaces), not per-query working set —
  // and excluding them keeps the memory metric identical between the
  // tree-retention and compact (service checkpoint) modes, so a figure's
  // memory series cannot depend on which route served it.
  result.workspace_bytes +=
      store.arena.size() * sizeof(EdgeId) +
      store.pairs.size() * (2 * sizeof(uint32_t));

  KmbFinish(costs, terminals, options, ws, closure,
            [&](size_t i, size_t j) {
              const auto& entry =
                  store.pairs.at(PairKey(terminals[i], terminals[j]));
              return std::pair(store.arena.data() + entry.path_begin,
                               store.arena.data() + entry.path_end);
            },
            &result);
  return result;
}

Result<SteinerResult> SteinerMehlhorn(const CostView& costs,
                                      const std::vector<NodeId>& terminals,
                                      const SteinerOptions& options,
                                      SearchWorkspace& ws) {
  const KnowledgeGraph& graph = costs.graph();
  SteinerResult result;
  const size_t t = terminals.size();

  MultiSourceDijkstraInto(costs, terminals, ws);

  // terminal → dense index, in the workspace tag map (same epoch as the
  // Voronoi state; tags and search state have independent stamp arrays).
  for (size_t i = 0; i < t; ++i) {
    ws.SetTag(terminals[i], static_cast<uint32_t>(i));
  }

  // Closure edges are Voronoi boundary edges: cheapest bridge between two
  // cells approximates the terminal-to-terminal distance.
  std::vector<MstEdge> closure_edges;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const graph::EdgeRecord& r = graph.edge(e);
    const NodeId su = ws.origin(r.src);
    const NodeId sv = ws.origin(r.dst);
    if (su == sv) continue;
    if (su == graph::kInvalidNode || sv == graph::kInvalidNode) continue;
    closure_edges.push_back(
        MstEdge{ws.TagOr(su, 0), ws.TagOr(sv, 0),
                ws.dist(r.src) + costs.cost(e) + ws.dist(r.dst), e});
  }
  result.workspace_bytes += closure_edges.size() * sizeof(MstEdge);
  const std::vector<size_t> selected = graph::KruskalMst(t, closure_edges);

  graph::UnionFind uf(t);
  for (size_t idx : selected) {
    uf.Union(closure_edges[idx].a, closure_edges[idx].b);
  }
  RecordUnreached(terminals, &uf, &result);

  // Expand: bridge edge plus the two back-walks to the cell centers.
  std::vector<EdgeId> expansion;
  for (size_t idx : selected) {
    const EdgeId bridge = static_cast<EdgeId>(closure_edges[idx].tag);
    expansion.push_back(bridge);
    for (NodeId endpoint :
         {graph.edge(bridge).src, graph.edge(bridge).dst}) {
      AppendPathEdges(ws, endpoint, &expansion);
    }
  }
  result.workspace_bytes += expansion.size() * sizeof(EdgeId);

  if (options.cleanup) {
    result.tree = Cleanup(costs, std::move(expansion), terminals,
                          terminals, ws);
  } else {
    result.tree = Subgraph::FromEdges(graph, std::move(expansion), terminals);
  }
  result.workspace_bytes +=
      graph::SearchWorkspace::RequiredBytes(graph.num_nodes()) +
      result.tree.MemoryFootprintBytes();
  return result;
}

/// Shared precondition/trivial-case prologue of the two public entry
/// points — one copy so the chained path can never drift from the
/// from-scratch behavior it must stay bit-identical to. Returns a result
/// when the call is already answered (error, or the empty / single-
/// terminal cases); otherwise fills \p unique with the sorted
/// deduplicated terminal set.
std::optional<Result<SteinerResult>> SteinerPrologue(
    const CostView& costs, const std::vector<NodeId>& terminals,
    std::vector<NodeId>* unique) {
  if (!costs.valid()) {
    return Result<SteinerResult>(
        Status::InvalidArgument("SteinerTree: uncommitted cost view"));
  }
  if (!costs.finite_non_negative()) {
    return Result<SteinerResult>(Status::InvalidArgument(
        "Steiner costs must be finite and non-negative"));
  }
  const KnowledgeGraph& graph = costs.graph();
  *unique = UniqueTerminals(terminals);
  for (NodeId v : *unique) {
    if (v >= graph.num_nodes()) {
      return Result<SteinerResult>(
          Status::InvalidArgument(StrCat("terminal ", v, " out of range")));
    }
  }
  if (unique->empty()) return Result<SteinerResult>(SteinerResult{});
  if (unique->size() == 1) {
    SteinerResult result;
    result.tree = Subgraph::FromEdges(graph, {}, *unique);
    return Result<SteinerResult>(std::move(result));
  }
  return std::nullopt;
}

/// A wave's merged search plan: sources deduplicated across tasks, each
/// with the union of its rows' targets (repeats are harmless: the search
/// marks each target once) and the (task slot, row) pairs that read it.
struct WavePlan {
  struct Reader {
    size_t slot;
    size_t row;
  };
  std::vector<NodeId> sources;
  std::vector<std::vector<NodeId>> targets;  // parallel to sources
  std::vector<std::vector<Reader>> readers;  // parallel to sources
  std::unordered_map<NodeId, size_t> search_of;

  void AddRow(NodeId source, std::span<const NodeId> row_targets,
              Reader reader) {
    auto [it, inserted] = search_of.try_emplace(source, sources.size());
    if (inserted) {
      sources.push_back(source);
      targets.emplace_back();
      readers.emplace_back();
    }
    auto& t = targets[it->second];
    t.insert(t.end(), row_targets.begin(), row_targets.end());
    readers[it->second].push_back(reader);
  }
};

/// One wave task's phase-1 buffers, filled across the wave's searches.
struct WaveRows {
  std::vector<double> closure;
  std::vector<EdgeId> arena;
  PairSpans spans;
};

}  // namespace

std::vector<Result<SteinerResult>> SteinerTreeWave(
    const CostView& costs,
    const std::vector<std::vector<NodeId>>& terminal_sets,
    const SteinerOptions& options, graph::SearchWorkspace* workspace) {
  std::vector<Result<SteinerResult>> results(
      terminal_sets.size(),
      Result<SteinerResult>(Status::Internal("wave task not run")));
  SearchWorkspace local_ws;
  SearchWorkspace& ws = workspace != nullptr ? *workspace : local_ws;

  // Prologue per task; tasks answered early (errors, ≤1 terminal) never
  // enter the wave. Mehlhorn tasks run plain — nothing to share.
  std::vector<std::vector<NodeId>> uniques(terminal_sets.size());
  std::vector<size_t> pending;
  for (size_t i = 0; i < terminal_sets.size(); ++i) {
    if (options.variant == SteinerOptions::Variant::kMehlhorn) {
      results[i] = SteinerTree(costs, terminal_sets[i], options, &ws);
      continue;
    }
    if (auto early = SteinerPrologue(costs, terminal_sets[i], &uniques[i])) {
      results[i] = *std::move(early);
      continue;
    }
    pending.push_back(i);
  }

  WavePlan plan;
  std::vector<WaveRows> rows(pending.size());
  for (size_t slot = 0; slot < pending.size(); ++slot) {
    const std::vector<NodeId>& terminals = uniques[pending[slot]];
    const size_t t = terminals.size();
    rows[slot].closure.assign(t * t, graph::kInfDistance);
    rows[slot].spans.assign(t * (t - 1) / 2, {0, 0});
    for (size_t i = 0; i + 1 < t; ++i) {
      plan.AddRow(terminals[i],
                  std::span<const NodeId>(terminals).subspan(i + 1),
                  {slot, i});
    }
  }

  // One search per distinct source; every row that reads it is copied out
  // while the search is resident. A merged search only early-exits later
  // than each row's own would, and settled-node facts do not depend on how
  // long a search runs (DESIGN.md §5), so each row is bit-identical to the
  // one `SteinerKmb` reads from its own search.
  for (size_t s = 0; s < plan.sources.size(); ++s) {
    DijkstraInto(costs, plan.sources[s], plan.targets[s], ws);
    for (const WavePlan::Reader& reader : plan.readers[s]) {
      WaveRows& r = rows[reader.slot];
      ReadKmbRow(ws, uniques[pending[reader.slot]], reader.row, &r.closure,
                 &r.arena, &r.spans);
    }
  }

  for (size_t slot = 0; slot < pending.size(); ++slot) {
    const size_t task = pending[slot];
    SteinerResult result;
    FinishKmbRows(costs, uniques[task], options, ws, rows[slot].closure,
                  rows[slot].arena, rows[slot].spans, &result);
    results[task] = std::move(result);
  }
  return results;
}

Result<SteinerResult> SteinerTree(const CostView& costs,
                                  const std::vector<NodeId>& terminals,
                                  const SteinerOptions& options,
                                  graph::SearchWorkspace* workspace) {
  std::vector<NodeId> unique;
  if (auto early = SteinerPrologue(costs, terminals, &unique)) {
    return *std::move(early);
  }
  SearchWorkspace local_ws;
  SearchWorkspace& ws = workspace != nullptr ? *workspace : local_ws;
  if (options.variant == SteinerOptions::Variant::kMehlhorn) {
    return SteinerMehlhorn(costs, unique, options, ws);
  }
  return SteinerKmb(costs, unique, options, ws);
}

void KmbClosureStore::Clear() {
  pairs.clear();
  arena.clear();
  trees.clear();
  last_reused_pairs = 0;
  last_computed_pairs = 0;
  last_searches = 0;
}

size_t KmbClosureStore::MemoryFootprintBytes() const {
  size_t bytes = sizeof(*this);
  // Hash-map nodes: key + value + the usual two-pointer bucket overhead.
  bytes += pairs.size() * (sizeof(uint64_t) + sizeof(PairEntry) +
                           2 * sizeof(void*));
  bytes += arena.capacity() * sizeof(graph::EdgeId);
  for (const auto& [source, tree] : trees) {
    bytes += sizeof(source) + sizeof(tree) + 2 * sizeof(void*);
    bytes += tree.dist.capacity() * sizeof(double);
    bytes += tree.parent_node.capacity() * sizeof(graph::NodeId);
    bytes += tree.parent_edge.capacity() * sizeof(graph::EdgeId);
  }
  return bytes;
}

Result<SteinerResult> SteinerTreeChained(const CostView& costs,
                                         const std::vector<NodeId>& terminals,
                                         const SteinerOptions& options,
                                         graph::SearchWorkspace* workspace,
                                         KmbClosureStore* store) {
  if (store == nullptr ||
      options.variant == SteinerOptions::Variant::kMehlhorn) {
    // Nothing to memoize across one multi-source sweep: the plain path is
    // already the from-scratch construction.
    return SteinerTree(costs, terminals, options, workspace);
  }
  std::vector<NodeId> unique;
  if (auto early = SteinerPrologue(costs, terminals, &unique)) {
    return *std::move(early);
  }
  SearchWorkspace local_ws;
  SearchWorkspace& ws = workspace != nullptr ? *workspace : local_ws;
  return SteinerKmbChained(costs, unique, options, ws, *store);
}

}  // namespace xsum::core
