/// \file bench_micro_core.cpp
/// \brief Google-benchmark micro-benchmarks of the core primitives the
/// summarizers are built from: Dijkstra, multi-source Dijkstra, the two ST
/// constructions, the PCST growth, and the Eq. (1) weight adjustment.
/// Complements the paper-shaped tables of bench_fig09/10/11 with per-op
/// timings.
///
/// Each search primitive comes in two flavours:
///  - the `SeedRef` suffix is a verbatim transcription of the *seed*
///    algorithm (commit "v0": per-call allocation, binary heap with
///    duplicate entries, unordered containers, per-relaxation cost
///    gathers), and
///  - the `CostView` suffix runs the same queries against one persistent
///    `SearchWorkspace` and a prebuilt shared `graph::CostView` (the
///    steady state of `core::BatchSummarizer` / the summary service).
/// Comparing SeedRef vs CostView rows reports the old-vs-new throughput of
/// repeated queries.
///
/// The cross-request batching rows benchmark the KMB wave (DESIGN.md §8):
/// `SteinerKmbSequentialBatch` vs `SteinerKmbWave` run B KMB tasks drawing
/// terminals from a shared hot pool sequentially vs as one
/// `SteinerTreeWave`. After the google-benchmark rows, main() runs a
/// direct wall-clock wave-speedup gate and exits nonzero if a B >= 8
/// speedup is below 1.5x (`--benchmark_filter='^$'` runs the gate alone).
/// The SeedRef/CostView/wave rows emit `XSUM_JSON` perf records for
/// cross-commit trend tracking.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <queue>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "bench_common.h"
#include "core/batch.h"
#include "core/cost_transform.h"
#include "core/pcst.h"
#include "core/steiner.h"
#include "core/weight_adjust.h"
#include "data/kg_builder.h"
#include "data/synthetic.h"
#include "graph/cost_view.h"
#include "graph/dijkstra.h"
#include "graph/mst.h"
#include "graph/search_workspace.h"
#include "graph/subgraph.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace xsum;

/// \brief Verbatim transcriptions of the *seed* single-shot algorithms
/// (commit "v0" of this repo), kept here as the "old" side of the
/// old-vs-new rows: per-call O(|V|) array allocation + assign-fill, a
/// binary heap with duplicate entries, unordered_map/set in the inner
/// loops, and metric-closure rows that target the full terminal list
/// (recomputing each symmetric distance twice, self-row included). The
/// library path has since moved to epoch-stamped reusable workspaces.
namespace seed_ref {

struct HeapEntry {
  double dist;
  graph::NodeId node;
  bool operator>(const HeapEntry& other) const { return dist > other.dist; }
};

using MinHeap =
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>;

struct PathTree {
  std::vector<double> dist;
  std::vector<graph::NodeId> parent_node;
  std::vector<graph::EdgeId> parent_edge;
};

PathTree Dijkstra(const graph::KnowledgeGraph& g,
                  const std::vector<double>& costs, graph::NodeId source,
                  const std::vector<graph::NodeId>& targets) {
  const size_t n = g.num_nodes();
  PathTree tree;
  tree.dist.assign(n, graph::kInfDistance);
  tree.parent_node.assign(n, graph::kInvalidNode);
  tree.parent_edge.assign(n, graph::kInvalidEdge);
  std::vector<char> settled(n, 0);
  std::vector<char> is_target(targets.empty() ? 0 : n, 0);
  for (graph::NodeId t : targets) is_target[t] = 1;
  size_t targets_remaining = targets.size();

  MinHeap heap;
  tree.dist[source] = 0.0;
  heap.push(HeapEntry{0.0, source});
  while (!heap.empty()) {
    const HeapEntry top = heap.top();
    heap.pop();
    const graph::NodeId u = top.node;
    if (settled[u]) continue;
    settled[u] = 1;
    if (targets_remaining > 0 && is_target[u]) {
      if (--targets_remaining == 0) break;
    }
    const double du = tree.dist[u];
    for (const graph::AdjEntry& a : g.Neighbors(u)) {
      if (settled[a.neighbor]) continue;
      const double nd = du + costs[a.edge];
      if (nd < tree.dist[a.neighbor]) {
        tree.dist[a.neighbor] = nd;
        tree.parent_node[a.neighbor] = u;
        tree.parent_edge[a.neighbor] = a.edge;
        heap.push(HeapEntry{nd, a.neighbor});
      }
    }
  }
  return tree;
}

/// Seed KMB: |T| full-target closure rows, expansion via per-source
/// Dijkstras grouped through an unordered_map, unordered_map node index in
/// the cleanup MST.
graph::Subgraph SteinerKmb(const graph::KnowledgeGraph& g,
                           const std::vector<double>& costs,
                           const std::vector<graph::NodeId>& terminals) {
  const size_t t = terminals.size();
  std::vector<double> closure(t * t, graph::kInfDistance);
  for (size_t i = 0; i < t; ++i) {
    const PathTree tree =
        seed_ref::Dijkstra(g, costs, terminals[i], terminals);
    for (size_t j = 0; j < t; ++j) {
      closure[i * t + j] = tree.dist[terminals[j]];
    }
  }
  std::vector<graph::MstEdge> closure_edges;
  for (size_t i = 0; i < t; ++i) {
    for (size_t j = i + 1; j < t; ++j) {
      if (closure[i * t + j] < graph::kInfDistance) {
        closure_edges.push_back(graph::MstEdge{i, j, closure[i * t + j], 0});
      }
    }
  }
  const std::vector<size_t> selected = graph::KruskalMst(t, closure_edges);
  std::unordered_map<size_t, std::vector<size_t>> by_source;
  for (size_t idx : selected) {
    by_source[closure_edges[idx].a].push_back(closure_edges[idx].b);
  }
  std::vector<graph::EdgeId> expansion;
  for (const auto& [src_idx, dst_indices] : by_source) {
    std::vector<graph::NodeId> targets;
    for (size_t j : dst_indices) targets.push_back(terminals[j]);
    const PathTree tree =
        seed_ref::Dijkstra(g, costs, terminals[src_idx], targets);
    for (graph::NodeId target : targets) {
      graph::NodeId v = target;
      if (tree.dist[v] == graph::kInfDistance) continue;
      while (tree.parent_edge[v] != graph::kInvalidEdge) {
        expansion.push_back(tree.parent_edge[v]);
        v = tree.parent_node[v];
      }
    }
  }
  graph::Subgraph expanded =
      graph::Subgraph::FromEdges(g, std::move(expansion), terminals);
  std::unordered_map<graph::NodeId, size_t> index;
  for (size_t i = 0; i < expanded.nodes().size(); ++i) {
    index[expanded.nodes()[i]] = i;
  }
  std::vector<graph::MstEdge> mst_edges;
  for (graph::EdgeId e : expanded.edges()) {
    const graph::EdgeRecord& r = g.edge(e);
    mst_edges.push_back(
        graph::MstEdge{index.at(r.src), index.at(r.dst), costs[e], e});
  }
  const std::vector<size_t> mst_selected =
      graph::KruskalMst(expanded.num_nodes(), mst_edges);
  std::vector<graph::EdgeId> tree_edges;
  for (size_t idx : mst_selected) {
    tree_edges.push_back(static_cast<graph::EdgeId>(mst_edges[idx].tag));
  }
  graph::Subgraph tree =
      graph::Subgraph::FromEdges(g, std::move(tree_edges), terminals);
  tree.PruneLeavesNotIn(g, terminals);
  return tree;
}

/// Seed PCST growth: unit prizes/costs, unordered_map union-find,
/// unordered_set terminal lookups, duplicate heap entries.
class SparseUnionFind {
 public:
  graph::NodeId Find(graph::NodeId x) {
    auto it = parent_.find(x);
    if (it == parent_.end()) {
      parent_[x] = x;
      return x;
    }
    graph::NodeId root = x;
    while (parent_[root] != root) root = parent_[root];
    while (parent_[x] != root) {
      graph::NodeId next = parent_[x];
      parent_[x] = root;
      x = next;
    }
    return root;
  }
  bool Union(graph::NodeId a, graph::NodeId b) {
    graph::NodeId ra = Find(a);
    graph::NodeId rb = Find(b);
    if (ra == rb) return false;
    if (ra > rb) std::swap(ra, rb);
    parent_[rb] = ra;
    return true;
  }

 private:
  std::unordered_map<graph::NodeId, graph::NodeId> parent_;
};

struct PcstHeapEntry {
  double key;
  graph::NodeId node;
  graph::NodeId parent;
  graph::EdgeId via;
  bool operator>(const PcstHeapEntry& other) const { return key > other.key; }
};

graph::Subgraph PcstGrowth(const graph::KnowledgeGraph& g,
                           const std::vector<graph::NodeId>& seeds) {
  const size_t n = g.num_nodes();
  std::unordered_set<graph::NodeId> terminal_set(seeds.begin(), seeds.end());
  auto prize = [&](graph::NodeId v) {
    return terminal_set.count(v) > 0 ? 1.0 : 0.0;
  };
  std::vector<char> in_tree(n, 0);
  std::vector<double> best_key(n, graph::kInfDistance);
  SparseUnionFind components;
  std::priority_queue<PcstHeapEntry, std::vector<PcstHeapEntry>,
                      std::greater<>>
      heap;
  size_t terminal_components = seeds.size();
  std::unordered_map<graph::NodeId, size_t> root_terminal_count;
  std::vector<graph::EdgeId> adopted_edges;
  auto merge = [&](graph::NodeId a, graph::NodeId b, graph::EdgeId via) {
    const graph::NodeId ra = components.Find(a);
    const graph::NodeId rb = components.Find(b);
    if (ra == rb) return;
    const size_t ta = root_terminal_count[ra];
    const size_t tb = root_terminal_count[rb];
    components.Union(ra, rb);
    root_terminal_count[components.Find(ra)] = ta + tb;
    if (ta > 0 && tb > 0) --terminal_components;
    adopted_edges.push_back(via);
  };
  for (graph::NodeId s : seeds) {
    in_tree[s] = 1;
    best_key[s] = -prize(s);
    root_terminal_count[components.Find(s)] = 1;
  }
  for (graph::NodeId s : seeds) {
    for (const graph::AdjEntry& a : g.Neighbors(s)) {
      if (in_tree[a.neighbor]) {
        merge(s, a.neighbor, a.edge);
        continue;
      }
      const double key = 1.0 - prize(a.neighbor);
      if (key < best_key[a.neighbor]) {
        best_key[a.neighbor] = key;
        heap.push(PcstHeapEntry{key, a.neighbor, s, a.edge});
      }
    }
  }
  while (!heap.empty() && terminal_components > 1) {
    const PcstHeapEntry top = heap.top();
    heap.pop();
    const graph::NodeId u = top.node;
    if (in_tree[u]) {
      merge(top.parent, u, top.via);
      continue;
    }
    if (top.key > best_key[u]) continue;
    in_tree[u] = 1;
    merge(top.parent, u, top.via);
    for (const graph::AdjEntry& a : g.Neighbors(u)) {
      if (in_tree[a.neighbor]) {
        merge(u, a.neighbor, a.edge);
        continue;
      }
      const double key = 1.0 - prize(a.neighbor);
      if (key < best_key[a.neighbor]) {
        best_key[a.neighbor] = key;
        heap.push(PcstHeapEntry{key, a.neighbor, u, a.edge});
      }
    }
  }
  return graph::Subgraph::FromEdges(g, std::move(adopted_edges), seeds);
}

}  // namespace seed_ref

/// Shared fixture graph (built once; scale via XSUM_SCALE).
const data::RecGraph& FixtureGraph() {
  static const data::RecGraph* rg = [] {
    const double scale = GetEnvDouble("XSUM_SCALE", 0.08);
    const auto ds =
        data::MakeSyntheticDataset(data::Ml1mConfig(scale, /*seed=*/42));
    auto built = data::BuildRecGraph(ds);
    return new data::RecGraph(std::move(built).ValueOrDie());
  }();
  return *rg;
}

/// Shared prebuilt cost views over the fixture graph (the steady state the
/// batch engine and service serve from).
const graph::CostView& FixtureCostView() {
  static const graph::CostView* view = [] {
    auto* v = new graph::CostView();
    v->Assign(FixtureGraph().graph(),
              core::WeightsToCosts(FixtureGraph().base_weights()));
    return v;
  }();
  return *view;
}

const graph::CostView& FixtureUnitView() {
  static const graph::CostView* view = [] {
    auto* v = new graph::CostView();
    v->AssignUnit(FixtureGraph().graph());
    return v;
  }();
  return *view;
}

/// Appends one XSUM_JSON record for a finished google-benchmark run (mean
/// wall per iteration over the whole timing loop). No-op when XSUM_JSON is
/// unset; repeated runs of one row are averaged by bench/compare_perf.py.
void EmitMicroPerf(const benchmark::State& state, const std::string& method,
                   size_t t, double loop_ms) {
  // google-benchmark invokes each row several times while calibrating the
  // iteration count (starting at 1 iteration); for fast rows those cold,
  // short runs would skew the equal-weight per-key mean compare_perf.py
  // computes, so they are dropped. Slow rows legitimately run few
  // iterations — a run that spent real wall time is kept regardless.
  if (state.iterations() < 32 && loop_ms < 10.0) return;
  bench::PerfRecord record;
  record.bench = "micro_core";
  record.method = method;
  record.n = FixtureGraph().graph().num_nodes();
  record.t = t;
  record.wall_ms = loop_ms / static_cast<double>(state.iterations());
  bench::EmitPerfJson(record);
}

std::vector<graph::NodeId> PickTerminals(const data::RecGraph& rg, size_t t,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<graph::NodeId> terminals;
  terminals.push_back(
      rg.UserNode(static_cast<uint32_t>(rng.Uniform(rg.num_users()))));
  while (terminals.size() < t) {
    terminals.push_back(
        rg.ItemNode(static_cast<uint32_t>(rng.Uniform(rg.num_items()))));
  }
  return terminals;
}

void BM_DijkstraSeedRef(benchmark::State& state) {
  const auto& rg = FixtureGraph();
  const auto costs = core::WeightsToCosts(rg.base_weights());
  Rng rng(7);
  WallTimer timer;
  timer.Start();
  for (auto _ : state) {
    const auto src =
        rg.UserNode(static_cast<uint32_t>(rng.Uniform(rg.num_users())));
    benchmark::DoNotOptimize(seed_ref::Dijkstra(rg.graph(), costs, src, {}));
  }
  EmitMicroPerf(state, "DijkstraSeedRef", 0, timer.ElapsedMillis());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rg.graph().num_edges()));
}
BENCHMARK(BM_DijkstraSeedRef);

void BM_DijkstraCostView(benchmark::State& state) {
  const auto& rg = FixtureGraph();
  const graph::CostView& view = FixtureCostView();
  Rng rng(7);
  graph::SearchWorkspace ws;
  WallTimer timer;
  timer.Start();
  for (auto _ : state) {
    const auto src =
        rg.UserNode(static_cast<uint32_t>(rng.Uniform(rg.num_users())));
    graph::DijkstraInto(view, src, {}, ws);
    benchmark::DoNotOptimize(ws);
  }
  EmitMicroPerf(state, "DijkstraCostView", 0, timer.ElapsedMillis());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rg.graph().num_edges()));
}
BENCHMARK(BM_DijkstraCostView);

void BM_MultiSourceDijkstraCostView(benchmark::State& state) {
  const auto& rg = FixtureGraph();
  const graph::CostView& view = FixtureCostView();
  const auto terminals =
      PickTerminals(rg, static_cast<size_t>(state.range(0)), 11);
  graph::SearchWorkspace ws;
  WallTimer timer;
  timer.Start();
  for (auto _ : state) {
    graph::MultiSourceDijkstraInto(view, terminals, ws);
    benchmark::DoNotOptimize(ws);
  }
  EmitMicroPerf(state, "MultiSourceDijkstraCostView", terminals.size(),
                timer.ElapsedMillis());
}
BENCHMARK(BM_MultiSourceDijkstraCostView)->Arg(11)->Arg(101);

void BM_SteinerKmbSeedRef(benchmark::State& state) {
  const auto& rg = FixtureGraph();
  const auto costs = core::WeightsToCosts(rg.base_weights());
  const auto terminals =
      PickTerminals(rg, static_cast<size_t>(state.range(0)), 13);
  for (auto _ : state) {
    auto tree = seed_ref::SteinerKmb(rg.graph(), costs, terminals);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_SteinerKmbSeedRef)->Arg(11)->Arg(51);

void BM_SteinerKmbCostView(benchmark::State& state) {
  const auto& rg = FixtureGraph();
  const graph::CostView& view = FixtureCostView();
  const auto terminals =
      PickTerminals(rg, static_cast<size_t>(state.range(0)), 13);
  core::SteinerOptions options;
  options.variant = core::SteinerOptions::Variant::kKmb;
  graph::SearchWorkspace ws;
  WallTimer timer;
  timer.Start();
  for (auto _ : state) {
    auto result = core::SteinerTree(view, terminals, options, &ws);
    benchmark::DoNotOptimize(result);
  }
  EmitMicroPerf(state, "SteinerKmbCostView", terminals.size(),
                timer.ElapsedMillis());
}
BENCHMARK(BM_SteinerKmbCostView)->Arg(11)->Arg(51);

/// B KMB tasks over a small shared terminal pool — the shape a Zipf
/// request mix hands the service's micro-batching window (hot users/items
/// recur across concurrent tasks). The wave pair below prices exactly the
/// cross-request sharing: the sequential arm searches every task's
/// terminals from scratch, the wave arm searches each source once across
/// the batch (target-set union).
std::vector<std::vector<graph::NodeId>> WaveTerminalSets(size_t b) {
  const auto& rg = FixtureGraph();
  const auto pool = PickTerminals(rg, 12, 23);
  Rng rng(31);
  std::vector<std::vector<graph::NodeId>> sets(b);
  for (auto& set : sets) {
    while (set.size() < 6) {
      const graph::NodeId v = pool[rng.Uniform(pool.size())];
      if (std::find(set.begin(), set.end(), v) == set.end()) {
        set.push_back(v);
      }
    }
  }
  return sets;
}

void BM_SteinerKmbSequentialBatch(benchmark::State& state) {
  const graph::CostView& view = FixtureCostView();
  const auto sets = WaveTerminalSets(static_cast<size_t>(state.range(0)));
  core::SteinerOptions options;
  graph::SearchWorkspace ws;
  WallTimer timer;
  timer.Start();
  for (auto _ : state) {
    for (const auto& terminals : sets) {
      auto result = core::SteinerTree(view, terminals, options, &ws);
      benchmark::DoNotOptimize(result);
    }
  }
  EmitMicroPerf(state, "SteinerKmbSequentialBatch", sets.size(),
                timer.ElapsedMillis());
}
BENCHMARK(BM_SteinerKmbSequentialBatch)
    ->Arg(1)->Arg(8)->Arg(16)->ArgName("B");

void BM_SteinerKmbWave(benchmark::State& state) {
  const graph::CostView& view = FixtureCostView();
  const auto sets = WaveTerminalSets(static_cast<size_t>(state.range(0)));
  core::SteinerOptions options;
  graph::SearchWorkspace ws;
  WallTimer timer;
  timer.Start();
  for (auto _ : state) {
    auto results = core::SteinerTreeWave(view, sets, options, &ws);
    benchmark::DoNotOptimize(results);
  }
  EmitMicroPerf(state, "SteinerKmbWave", sets.size(), timer.ElapsedMillis());
}
BENCHMARK(BM_SteinerKmbWave)->Arg(1)->Arg(8)->Arg(16)->ArgName("B");

void BM_SteinerMehlhornCostView(benchmark::State& state) {
  const auto& rg = FixtureGraph();
  const graph::CostView& view = FixtureCostView();
  const auto terminals =
      PickTerminals(rg, static_cast<size_t>(state.range(0)), 13);
  core::SteinerOptions options;
  options.variant = core::SteinerOptions::Variant::kMehlhorn;
  graph::SearchWorkspace ws;
  WallTimer timer;
  timer.Start();
  for (auto _ : state) {
    auto result = core::SteinerTree(view, terminals, options, &ws);
    benchmark::DoNotOptimize(result);
  }
  EmitMicroPerf(state, "SteinerMehlhornCostView", terminals.size(),
                timer.ElapsedMillis());
}
BENCHMARK(BM_SteinerMehlhornCostView)->Arg(11)->Arg(51)->Arg(201);

void BM_PcstGrowthSeedRef(benchmark::State& state) {
  const auto& rg = FixtureGraph();
  const auto terminals =
      PickTerminals(rg, static_cast<size_t>(state.range(0)), 17);
  // Dedup as PcstSummary does before growing.
  std::vector<graph::NodeId> seeds = terminals;
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  WallTimer timer;
  timer.Start();
  for (auto _ : state) {
    auto tree = seed_ref::PcstGrowth(rg.graph(), seeds);
    benchmark::DoNotOptimize(tree);
  }
  EmitMicroPerf(state, "PcstGrowthSeedRef", seeds.size(),
                timer.ElapsedMillis());
}
BENCHMARK(BM_PcstGrowthSeedRef)->Arg(11)->Arg(51)->Arg(201);

void BM_PcstGrowthCostView(benchmark::State& state) {
  const auto& rg = FixtureGraph();
  const graph::CostView& view = FixtureUnitView();
  const auto terminals =
      PickTerminals(rg, static_cast<size_t>(state.range(0)), 17);
  graph::SearchWorkspace ws;
  WallTimer timer;
  timer.Start();
  for (auto _ : state) {
    auto result =
        core::PcstSummary(view, rg.base_weights(), terminals, {}, &ws);
    benchmark::DoNotOptimize(result);
  }
  EmitMicroPerf(state, "PcstGrowthCostView", terminals.size(),
                timer.ElapsedMillis());
}
BENCHMARK(BM_PcstGrowthCostView)->Arg(11)->Arg(51)->Arg(201);

/// Builds a bare summarization task over random terminals (no input paths:
/// Eq. (1) degenerates to the base weights, isolating engine overhead).
core::SummaryTask EngineTask(const data::RecGraph& rg, size_t t,
                             uint64_t seed) {
  core::SummaryTask task;
  task.terminals = PickTerminals(rg, t, seed);
  std::sort(task.terminals.begin(), task.terminals.end());
  task.terminals.erase(
      std::unique(task.terminals.begin(), task.terminals.end()),
      task.terminals.end());
  task.s_size = task.terminals.size();
  return task;
}

/// Full-engine comparison: `Summarize` (fresh context per call — the seed
/// single-shot path) vs `BatchSummarizer::Run` (persistent context).
void BM_EngineSingleShot(benchmark::State& state) {
  const auto& rg = FixtureGraph();
  const auto task = EngineTask(rg, static_cast<size_t>(state.range(0)), 29);
  core::SummarizerOptions options;
  options.method = state.range(1) == 0 ? core::SummaryMethod::kSteiner
                                       : core::SummaryMethod::kPcst;
  options.steiner.variant = core::SteinerOptions::Variant::kKmb;
  for (auto _ : state) {
    auto result = core::Summarize(rg, task, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_EngineSingleShot)
    ->ArgsProduct({{11, 51}, {0, 1}})
    ->ArgNames({"t", "pcst"});

void BM_EngineBatch(benchmark::State& state) {
  const auto& rg = FixtureGraph();
  const auto task = EngineTask(rg, static_cast<size_t>(state.range(0)), 29);
  core::SummarizerOptions options;
  options.method = state.range(1) == 0 ? core::SummaryMethod::kSteiner
                                       : core::SummaryMethod::kPcst;
  options.steiner.variant = core::SteinerOptions::Variant::kKmb;
  core::BatchSummarizer batch(rg, /*num_workers=*/1);
  for (auto _ : state) {
    auto result = batch.Run(task, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_EngineBatch)
    ->ArgsProduct({{11, 51}, {0, 1}})
    ->ArgNames({"t", "pcst"});

/// Fixture task chains for the k-sweep pair: synthetic ranked top-10
/// recommendations (random-walk explanation paths, k-prefix property) for
/// a handful of users — the user-centric panel unit shape the paper puts
/// on every k axis.
const std::vector<core::UserRecs>& SweepUnits() {
  static const std::vector<core::UserRecs>* units = [] {
    const auto& rg = FixtureGraph();
    Rng rng(41);
    auto* v = new std::vector<core::UserRecs>();
    for (int u = 0; u < 4; ++u) {
      core::UserRecs recs;
      recs.user = static_cast<uint32_t>(rng.Uniform(rg.num_users()));
      for (int r = 0; r < 10; ++r) {
        rec::Recommendation rec;
        rec.item = static_cast<uint32_t>(rng.Uniform(rg.num_items()));
        rec.score = 1.0 - 0.01 * static_cast<double>(r);
        graph::NodeId node = rg.UserNode(recs.user);
        rec.path.nodes.push_back(node);
        for (int hop = 0; hop < 3; ++hop) {
          const auto nbrs = rg.graph().Neighbors(node);
          if (nbrs.empty()) break;
          const auto& a = nbrs[rng.Uniform(nbrs.size())];
          rec.path.nodes.push_back(a.neighbor);
          rec.path.edges.push_back(a.edge);
          node = a.neighbor;
        }
        recs.recs.push_back(std::move(rec));
      }
      v->push_back(std::move(recs));
    }
    return v;
  }();
  return *units;
}

/// The sweep rows run ST/KMB at λ = 0 — the cost-stable regime (Eq. (1)
/// multiplies every touched edge by exactly 1), which is where the
/// chained engine's closure reuse engages. Results are bit-identical
/// between the two rows (tests/core/incremental_test).
core::SummarizerOptions SweepOptions() {
  core::SummarizerOptions options;
  options.method = core::SummaryMethod::kSteiner;
  options.lambda = 0.0;
  options.steiner.variant = core::SteinerOptions::Variant::kKmb;
  return options;
}

/// One iteration = the full k = 1..10 user-centric sweep over all fixture
/// units, each (unit, k) summarized independently through the batch engine
/// (persistent context + shared views — the pre-chaining steady state).
void BM_SweepFromScratch(benchmark::State& state) {
  const auto& rg = FixtureGraph();
  const auto& units = SweepUnits();
  const auto options = SweepOptions();
  core::BatchSummarizer engine(rg, /*num_workers=*/1);
  WallTimer timer;
  timer.Start();
  for (auto _ : state) {
    for (const core::UserRecs& recs : units) {
      for (int k = 1; k <= 10; ++k) {
        auto result =
            engine.Run(core::MakeUserCentricTask(rg, recs, k), options);
        benchmark::DoNotOptimize(result);
      }
    }
  }
  EmitMicroPerf(state, "SweepFromScratch", 10, timer.ElapsedMillis());
}
BENCHMARK(BM_SweepFromScratch);

/// Same work through `RunSweep`: one summarization chain per unit walks
/// the ks ascending, so each k reuses the previous k's metric-closure rows
/// (core/incremental.h).
void BM_SweepIncremental(benchmark::State& state) {
  const auto& rg = FixtureGraph();
  const auto& units = SweepUnits();
  const auto options = SweepOptions();
  core::BatchSummarizer engine(rg, /*num_workers=*/1);
  const std::vector<int> ks = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  WallTimer timer;
  timer.Start();
  for (auto _ : state) {
    for (const core::UserRecs& recs : units) {
      auto results = engine.RunSweep(
          0, [&](int k) { return core::MakeUserCentricTask(rg, recs, k); },
          ks, options);
      benchmark::DoNotOptimize(results);
    }
  }
  EmitMicroPerf(state, "SweepIncremental", 10, timer.ElapsedMillis());
}
BENCHMARK(BM_SweepIncremental);

void BM_WeightAdjust(benchmark::State& state) {
  const auto& rg = FixtureGraph();
  // Synthetic path set: 10 three-hop paths.
  Rng rng(23);
  std::vector<graph::Path> paths;
  for (int p = 0; p < 10; ++p) {
    graph::Path path;
    graph::NodeId v =
        rg.UserNode(static_cast<uint32_t>(rng.Uniform(rg.num_users())));
    path.nodes.push_back(v);
    for (int hop = 0; hop < 3; ++hop) {
      const auto nbrs = rg.graph().Neighbors(v);
      if (nbrs.empty()) break;
      const auto& a = nbrs[rng.Uniform(nbrs.size())];
      path.nodes.push_back(a.neighbor);
      path.edges.push_back(a.edge);
      v = a.neighbor;
    }
    paths.push_back(std::move(path));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::AdjustWeights(
        rg.graph(), rg.base_weights(), paths, /*lambda=*/1.0, /*s_size=*/10));
  }
}
BENCHMARK(BM_WeightAdjust);

/// Direct wave-vs-sequential throughput gate, printed after the benchmark
/// table: B batched KMB tasks through one `SteinerTreeWave` call against
/// the same tasks run back-to-back through `SteinerTree`. Independent of
/// google-benchmark's calibration so the ratio is a single apples-to-apples
/// wall-clock measurement. Returns false if any B >= 8 speedup is below
/// `kMinWaveSpeedup`.
bool ReportWaveGate() {
  constexpr double kMinWaveSpeedup = 1.5;
  const graph::CostView& view = FixtureCostView();
  core::SteinerOptions options;
  graph::SearchWorkspace ws;
  bool pass = true;
  std::printf("\ncross-request wave speedup (shared-pool KMB batch, "
              "gate >= %.1fx for B >= 8):\n",
              kMinWaveSpeedup);
  for (const size_t b : {size_t{8}, size_t{16}}) {
    const auto sets = WaveTerminalSets(b);
    constexpr int kReps = 12;
    // Warm both paths once so neither pays first-touch page faults.
    for (const auto& terminals : sets) {
      benchmark::DoNotOptimize(
          core::SteinerTree(view, terminals, options, &ws));
    }
    benchmark::DoNotOptimize(core::SteinerTreeWave(view, sets, options, &ws));
    WallTimer timer;
    timer.Start();
    for (int rep = 0; rep < kReps; ++rep) {
      for (const auto& terminals : sets) {
        benchmark::DoNotOptimize(
            core::SteinerTree(view, terminals, options, &ws));
      }
    }
    const double sequential_ms = timer.ElapsedMillis();
    timer.Start();
    for (int rep = 0; rep < kReps; ++rep) {
      benchmark::DoNotOptimize(
          core::SteinerTreeWave(view, sets, options, &ws));
    }
    const double wave_ms = timer.ElapsedMillis();
    const double speedup = wave_ms > 0.0 ? sequential_ms / wave_ms : 0.0;
    const bool ok = speedup >= kMinWaveSpeedup;
    pass = pass && ok;
    std::printf("  B=%-2zu  sequential %8.2f ms  wave %8.2f ms  "
                "speedup %.2fx  %s\n",
                b, sequential_ms, wave_ms, speedup, ok ? "ok" : "FAIL");
  }
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return ReportWaveGate() ? 0 : 1;
}
