/// Property tests of the unified CostView layer (DESIGN.md §4): the
/// refactored kernels and every view-sharing route above them must be
/// bit-identical to the pre-refactor computation — per-relaxation
/// `costs[edge]` gathers and per-task cost rebuilds.
///
/// Coverage axes: cost modes × Eq. (1) weight overlays (λ, input paths) ×
/// worker counts.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch.h"
#include "core/cost_transform.h"
#include "core/cost_views.h"
#include "core/pcst.h"
#include "core/steiner.h"
#include "core/summarizer.h"
#include "core/weight_adjust.h"
#include "data/kg_builder.h"
#include "data/synthetic.h"
#include "graph/cost_view.h"
#include "graph/dijkstra.h"
#include "graph/search_workspace.h"
#include "util/rng.h"

namespace xsum::core {
namespace {

using graph::CostView;
using graph::EdgeId;
using graph::NodeId;
using graph::SearchWorkspace;

struct Fixture {
  data::Dataset dataset;
  data::RecGraph rg;
};

Fixture MakeFixture(double scale, uint64_t seed) {
  Fixture f;
  f.dataset = data::MakeSyntheticDataset(data::Ml1mConfig(scale, seed));
  f.rg = std::move(data::BuildRecGraph(f.dataset)).ValueOrDie();
  return f;
}

graph::Path RandomWalk(const data::RecGraph& rg, Rng* rng) {
  const graph::KnowledgeGraph& g = rg.graph();
  graph::Path path;
  NodeId v = rg.UserNode(static_cast<uint32_t>(rng->Uniform(rg.num_users())));
  path.nodes.push_back(v);
  for (int hop = 0; hop < 3; ++hop) {
    const auto nbrs = g.Neighbors(v);
    if (nbrs.empty()) break;
    const graph::AdjEntry& a = nbrs[rng->Uniform(nbrs.size())];
    path.nodes.push_back(a.neighbor);
    path.edges.push_back(a.edge);
    v = a.neighbor;
  }
  return path;
}

SummaryTask RandomTask(const data::RecGraph& rg, size_t num_terminals,
                       size_t num_paths, Rng* rng) {
  SummaryTask task;
  task.terminals.push_back(
      rg.UserNode(static_cast<uint32_t>(rng->Uniform(rg.num_users()))));
  while (task.terminals.size() < num_terminals) {
    task.terminals.push_back(
        rg.ItemNode(static_cast<uint32_t>(rng->Uniform(rg.num_items()))));
  }
  std::sort(task.terminals.begin(), task.terminals.end());
  task.terminals.erase(
      std::unique(task.terminals.begin(), task.terminals.end()),
      task.terminals.end());
  task.anchors = {task.terminals.front()};
  for (size_t p = 0; p < num_paths; ++p) {
    task.paths.push_back(RandomWalk(rg, rng));
  }
  task.s_size = std::max<size_t>(1, task.terminals.size() - 1);
  return task;
}

void ExpectIdentical(const Summary& a, const Summary& b) {
  EXPECT_EQ(a.subgraph.nodes(), b.subgraph.nodes());
  EXPECT_EQ(a.subgraph.edges(), b.subgraph.edges());
  EXPECT_EQ(a.unreached_terminals, b.unreached_terminals);
}

/// Pre-refactor single-source Dijkstra, transcribed verbatim from the
/// pre-CostView kernel: identical workspace machinery, but costs gathered
/// per relaxation by EdgeId from a flat vector. The refactored kernel must
/// reproduce its dist/parent/settled state bit-for-bit.
void PreRefactorDijkstraInto(const graph::KnowledgeGraph& graph,
                             const std::vector<double>& costs, NodeId source,
                             std::span<const NodeId> targets,
                             SearchWorkspace& ws) {
  ws.Begin(graph.num_nodes());
  size_t targets_remaining = 0;
  for (NodeId t : targets) {
    if (ws.Mark(t)) ++targets_remaining;
  }
  graph::IndexedMinHeap& heap = ws.heap();
  ws.Relax(source, 0.0, graph::kInvalidNode, graph::kInvalidEdge);
  heap.PushOrDecrease(source, 0.0);
  while (!heap.Empty()) {
    const NodeId u = heap.PopMin();
    ws.SetSettled(u);
    if (targets_remaining > 0 && ws.marked(u)) {
      ws.Unmark(u);
      if (--targets_remaining == 0) break;
    }
    const double du = ws.dist(u);
    for (const graph::AdjEntry& a : graph.Neighbors(u)) {
      const double nd = du + costs[a.edge];
      if (nd < ws.dist(a.neighbor)) {
        ws.Relax(a.neighbor, nd, u, a.edge);
        heap.PushOrDecrease(a.neighbor, nd);
      }
    }
  }
}

TEST(CostViewEquivalenceTest, DijkstraMatchesPreRefactorGatherAcrossModes) {
  const Fixture f = MakeFixture(0.03, 31);
  const graph::KnowledgeGraph& g = f.rg.graph();
  Rng rng(91);
  SearchWorkspace ref_ws;
  SearchWorkspace view_ws;
  for (CostMode mode : {CostMode::kWeightAwareLog, CostMode::kWeightAware,
                        CostMode::kUnit}) {
    const std::vector<double> costs =
        WeightsToCosts(f.rg.base_weights(), mode);
    CostView view;
    view.Assign(g, costs);
    for (int round = 0; round < 4; ++round) {
      const NodeId src =
          f.rg.UserNode(static_cast<uint32_t>(rng.Uniform(f.rg.num_users())));
      std::vector<NodeId> targets;
      for (int t = 0; t < 4; ++t) {
        targets.push_back(f.rg.ItemNode(
            static_cast<uint32_t>(rng.Uniform(f.rg.num_items()))));
      }
      PreRefactorDijkstraInto(g, costs, src, targets, ref_ws);
      DijkstraInto(view, src, targets, view_ws);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        ASSERT_EQ(ref_ws.dist(v), view_ws.dist(v)) << "node " << v;
        ASSERT_EQ(ref_ws.parent_node(v), view_ws.parent_node(v));
        ASSERT_EQ(ref_ws.parent_edge(v), view_ws.parent_edge(v));
        ASSERT_EQ(ref_ws.settled(v), view_ws.settled(v));
      }
    }
  }
}

TEST(CostViewEquivalenceTest,
     SharedAndRebuiltViewsAgreeAcrossModesAndOverlays) {
  // Every route to a summary — throwaway context and views, reused
  // context (cached rebuild), engine with its shared prebuilt views, and a
  // view rebuilt by hand from the Eq. (1) weights — must be bit-identical,
  // for every cost mode, with and without an Eq. (1) overlay, including
  // the λ extremes the paper sweeps.
  const Fixture f = MakeFixture(0.03, 32);
  BatchSummarizer engine(f.rg, /*num_workers=*/1);
  SummarizeContext reused;
  const SharedCostViews reused_views(f.rg);
  Rng rng(92);
  for (CostMode mode : {CostMode::kWeightAwareLog, CostMode::kWeightAware,
                        CostMode::kUnit}) {
    for (const double lambda : {0.0, 1.0, 100.0}) {
      for (const size_t num_paths : {size_t{0}, size_t{5}}) {
        const SummaryTask task = RandomTask(f.rg, 6, num_paths, &rng);
        for (auto variant : {SteinerOptions::Variant::kKmb,
                             SteinerOptions::Variant::kMehlhorn}) {
          SummarizerOptions options;
          options.method = SummaryMethod::kSteiner;
          options.cost_mode = mode;
          options.lambda = lambda;
          options.steiner.variant = variant;
          const Result<Summary> fresh = Summarize(f.rg, task, options);
          const Result<Summary> shared = engine.Run(task, options);
          const Result<Summary> rebuilt =
              SummarizeWith(f.rg, task, options, reused, reused_views);
          CostView by_hand;
          by_hand.Assign(
              f.rg.graph(),
              WeightsToCosts(AdjustWeights(f.rg.graph(), f.rg.base_weights(),
                                           task.paths, lambda, task.s_size),
                             mode));
          const Result<SteinerResult> direct =
              SteinerTree(by_hand, task.terminals, options.steiner);
          ASSERT_TRUE(fresh.ok()) << fresh.status();
          ASSERT_TRUE(shared.ok()) << shared.status();
          ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
          ASSERT_TRUE(direct.ok()) << direct.status();
          ExpectIdentical(*fresh, *shared);
          ExpectIdentical(*fresh, *rebuilt);
          EXPECT_EQ(fresh->subgraph.nodes(), direct->tree.nodes());
          EXPECT_EQ(fresh->subgraph.edges(), direct->tree.edges());
          EXPECT_EQ(fresh->unreached_terminals, direct->unreached_terminals);
        }
      }
    }
  }
}

TEST(CostViewEquivalenceTest, PcstSharedUnitViewMatchesFresh) {
  const Fixture f = MakeFixture(0.03, 33);
  BatchSummarizer engine(f.rg, /*num_workers=*/1);
  Rng rng(93);
  for (int round = 0; round < 4; ++round) {
    const SummaryTask task = RandomTask(f.rg, 4 + 3 * round, 2, &rng);
    SummarizerOptions options;
    options.method = SummaryMethod::kPcst;
    const Result<Summary> fresh = Summarize(f.rg, task, options);
    const Result<Summary> shared = engine.Run(task, options);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    ASSERT_TRUE(shared.ok()) << shared.status();
    ExpectIdentical(*fresh, *shared);
  }
}

TEST(CostViewEquivalenceTest, PcstRawWeightAblationMatchesHandBuiltView) {
  // The `use_edge_weights` ablation costs edges by their base weights
  // clamped at 0; the engine rebuilds that view in its context, and the
  // result must equal a PCST run over the same view built by hand.
  const Fixture f = MakeFixture(0.03, 38);
  const graph::KnowledgeGraph& g = f.rg.graph();
  const std::vector<double>& weights = f.rg.base_weights();
  std::vector<double> clamped(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    clamped[e] = std::max(0.0, weights[e]);
  }
  CostView by_hand;
  by_hand.Assign(g, clamped);
  SummarizeContext ctx;
  const SharedCostViews views(f.rg);
  Rng rng(95);
  for (int round = 0; round < 4; ++round) {
    const SummaryTask task = RandomTask(f.rg, 4 + 3 * round, 2, &rng);
    for (const bool strong_prune : {false, true}) {
      SummarizerOptions options;
      options.method = SummaryMethod::kPcst;
      options.pcst.use_edge_weights = true;
      options.pcst.strong_prune = strong_prune;
      const Result<Summary> fresh = Summarize(f.rg, task, options);
      const Result<Summary> reused =
          SummarizeWith(f.rg, task, options, ctx, views);
      const Result<PcstResult> direct =
          PcstSummary(by_hand, weights, task.terminals, options.pcst);
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      ASSERT_TRUE(reused.ok()) << reused.status();
      ASSERT_TRUE(direct.ok()) << direct.status();
      ExpectIdentical(*fresh, *reused);
      EXPECT_EQ(fresh->subgraph.nodes(), direct->tree.nodes());
      EXPECT_EQ(fresh->subgraph.edges(), direct->tree.edges());
      EXPECT_EQ(fresh->unreached_terminals, direct->unreached_terminals);
      // The view the engine ran under carries exactly the clamped
      // weights, so the objective it implies is bit-identical too.
      ASSERT_EQ(ctx.cost_view.edge_costs(), by_hand.edge_costs());
      const Result<PcstResult> engine_view =
          PcstSummary(ctx.cost_view, weights, task.terminals, options.pcst);
      ASSERT_TRUE(engine_view.ok()) << engine_view.status();
      EXPECT_EQ(engine_view->objective, direct->objective);
    }
  }
}

TEST(CostViewEquivalenceTest, WorkerCountsAreBitIdentical) {
  const Fixture f = MakeFixture(0.03, 34);
  Rng rng(94);
  std::vector<SummaryTask> tasks;
  for (int i = 0; i < 10; ++i) tasks.push_back(RandomTask(f.rg, 5, 3, &rng));
  for (SummaryMethod method : {SummaryMethod::kSteiner, SummaryMethod::kPcst}) {
    SummarizerOptions options;
    options.method = method;
    BatchSummarizer serial(f.rg, /*num_workers=*/1);
    BatchSummarizer parallel(f.rg, /*num_workers=*/4);
    const auto a = serial.RunAll(tasks, options);
    const auto b = parallel.RunAll(tasks, options);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_TRUE(a[i].ok()) << a[i].status();
      ASSERT_TRUE(b[i].ok()) << b[i].status();
      ExpectIdentical(*a[i], *b[i]);
    }
  }
}

TEST(CostViewEquivalenceTest, SharedViewsMatchPerTaskTransform) {
  // The lazily built shared views must carry exactly the bits the per-task
  // transform produces from the base weights.
  const Fixture f = MakeFixture(0.03, 37);
  SharedCostViews views(f.rg);
  for (CostMode mode : {CostMode::kWeightAwareLog, CostMode::kWeightAware,
                        CostMode::kUnit}) {
    const std::vector<double> expected =
        WeightsToCosts(f.rg.base_weights(), mode);
    const CostView& view = views.ForMode(mode);
    ASSERT_EQ(view.edge_costs().size(), expected.size());
    for (EdgeId e = 0; e < expected.size(); ++e) {
      ASSERT_EQ(view.cost(e), expected[e]) << "mode " << static_cast<int>(mode)
                                           << " edge " << e;
    }
  }
  EXPECT_TRUE(views.Matches(f.rg));
}

}  // namespace
}  // namespace xsum::core
