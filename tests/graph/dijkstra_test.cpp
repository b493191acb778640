#include "graph/dijkstra.h"

#include <algorithm>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "graph/cost_view.h"
#include "graph/knowledge_graph.h"
#include "graph/search_workspace.h"
#include "util/rng.h"

namespace xsum::graph {
namespace {

/// Builds a weighted path graph 0-1-2-...-(n-1) with the given costs.
KnowledgeGraph MakePathGraph(const std::vector<double>& edge_costs) {
  GraphBuilder builder;
  builder.AddNodes(NodeType::kEntity, edge_costs.size() + 1);
  for (size_t i = 0; i < edge_costs.size(); ++i) {
    EXPECT_TRUE(builder
                    .AddEdge(static_cast<NodeId>(i),
                             static_cast<NodeId>(i + 1), Relation::kRelatedTo,
                             edge_costs[i])
                    .ok());
  }
  return std::move(builder).Finalize();
}

/// Cost view over the graph's own edge weights.
CostView WeightView(const KnowledgeGraph& g) {
  CostView view;
  view.Assign(g, g.WeightVector());
  return view;
}

TEST(DijkstraTest, PathGraphDistances) {
  const KnowledgeGraph g = MakePathGraph({1.0, 2.0, 3.0});
  SearchWorkspace ws;
  DijkstraInto(WeightView(g), 0, {}, ws);
  EXPECT_DOUBLE_EQ(ws.dist(0), 0.0);
  EXPECT_DOUBLE_EQ(ws.dist(1), 1.0);
  EXPECT_DOUBLE_EQ(ws.dist(2), 3.0);
  EXPECT_DOUBLE_EQ(ws.dist(3), 6.0);
}

TEST(DijkstraTest, ParentPointersFormShortestPath) {
  const KnowledgeGraph g = MakePathGraph({1.0, 1.0, 1.0});
  SearchWorkspace ws;
  DijkstraInto(WeightView(g), 0, {}, ws);
  const Path path = ExtractPath(ws, 3);
  ASSERT_EQ(path.nodes.size(), 4u);
  EXPECT_EQ(path.nodes.front(), 0u);
  EXPECT_EQ(path.nodes.back(), 3u);
  EXPECT_EQ(path.edges.size(), 3u);
  EXPECT_TRUE(path.Validate(g, /*allow_hallucinated=*/false));
  // The path follows the parent chain node by node.
  for (size_t i = 1; i < path.nodes.size(); ++i) {
    EXPECT_EQ(ws.parent_node(path.nodes[i]), path.nodes[i - 1]);
    EXPECT_EQ(ws.parent_edge(path.nodes[i]), path.edges[i - 1]);
  }
}

TEST(DijkstraTest, PicksCheaperOfTwoRoutes) {
  // 0-1 cost 10; 0-2 cost 1; 2-1 cost 2 => dist(1) = 3 via 2.
  GraphBuilder builder;
  builder.AddNodes(NodeType::kEntity, 3);
  ASSERT_TRUE(builder.AddEdge(0, 1, Relation::kRelatedTo, 10.0).ok());
  ASSERT_TRUE(builder.AddEdge(0, 2, Relation::kRelatedTo, 1.0).ok());
  ASSERT_TRUE(builder.AddEdge(2, 1, Relation::kRelatedTo, 2.0).ok());
  const KnowledgeGraph g = std::move(builder).Finalize();
  SearchWorkspace ws;
  DijkstraInto(WeightView(g), 0, {}, ws);
  EXPECT_DOUBLE_EQ(ws.dist(1), 3.0);
  EXPECT_EQ(ws.parent_node(1), 2u);
}

TEST(DijkstraTest, UnreachableNodesStayInfinite) {
  GraphBuilder builder;
  builder.AddNodes(NodeType::kEntity, 4);
  ASSERT_TRUE(builder.AddEdge(0, 1, Relation::kRelatedTo, 1.0).ok());
  ASSERT_TRUE(builder.AddEdge(2, 3, Relation::kRelatedTo, 1.0).ok());
  const KnowledgeGraph g = std::move(builder).Finalize();
  SearchWorkspace ws;
  DijkstraInto(WeightView(g), 0, {}, ws);
  EXPECT_EQ(ws.dist(2), kInfDistance);
  EXPECT_EQ(ws.dist(3), kInfDistance);
  EXPECT_FALSE(ws.reached(3));
  EXPECT_TRUE(ExtractPath(ws, 3).Empty());
}

TEST(DijkstraTest, ExtractPathAtSourceIsSingleton) {
  const KnowledgeGraph g = MakePathGraph({1.0});
  SearchWorkspace ws;
  DijkstraInto(WeightView(g), 0, {}, ws);
  const Path path = ExtractPath(ws, 0);
  ASSERT_EQ(path.nodes.size(), 1u);
  EXPECT_EQ(path.nodes.front(), 0u);
  EXPECT_TRUE(path.edges.empty());
}

TEST(DijkstraTest, ExtractPathBeyondWorkspaceCapacityIsEmpty) {
  const KnowledgeGraph g = MakePathGraph({1.0, 1.0});
  SearchWorkspace ws;
  DijkstraInto(WeightView(g), 0, {}, ws);
  ASSERT_EQ(ws.capacity(), g.num_nodes());
  EXPECT_TRUE(ExtractPath(ws, static_cast<NodeId>(ws.capacity())).Empty());
  EXPECT_TRUE(ExtractPath(ws, kInvalidNode).Empty());
  std::vector<EdgeId> edges;
  AppendPathEdges(ws, static_cast<NodeId>(ws.capacity()), &edges);
  EXPECT_TRUE(edges.empty());
}

TEST(DijkstraTest, EarlyExitStillCorrectForTargets) {
  const KnowledgeGraph g = MakePathGraph({1.0, 1.0, 1.0, 1.0, 1.0});
  const CostView view = WeightView(g);
  SearchWorkspace full;
  SearchWorkspace early;
  const std::vector<NodeId> targets = {2};
  DijkstraInto(view, 0, {}, full);
  DijkstraInto(view, 0, targets, early);
  EXPECT_DOUBLE_EQ(early.dist(2), full.dist(2));
  EXPECT_DOUBLE_EQ(early.dist(1), full.dist(1));
}

TEST(DijkstraTest, ZeroCostEdgesAllowed) {
  const KnowledgeGraph g = MakePathGraph({0.0, 0.0});
  SearchWorkspace ws;
  DijkstraInto(WeightView(g), 0, {}, ws);
  EXPECT_DOUBLE_EQ(ws.dist(2), 0.0);
}

/// Settled-prefix property the KMB wave relies on (DESIGN.md §5): a search
/// from one source to a superset of targets — or a full sweep — leaves
/// bit-identical facts on every node the subset search settled: distance,
/// parent node, parent edge, and the extracted path edges of each subset
/// target. That is what lets one merged search serve every closure row
/// that shares its source. Costs 0..8 make ties and zero-cost edges common.
TEST(DijkstraTest, DuplicateSourcesWithDifferentTargetsAgree) {
  Rng rng(2025);
  SearchWorkspace subset_ws;
  SearchWorkspace superset_ws;
  for (int round = 0; round < 32; ++round) {
    const size_t n = 16 + rng.Uniform(400);
    GraphBuilder builder;
    builder.AddNodes(NodeType::kEntity, n);
    std::vector<double> costs;
    auto add = [&](NodeId a, NodeId b) {
      if (a == b) return;
      if (builder.AddEdge(a, b, Relation::kRelatedTo, 1.0).ok()) {
        costs.push_back(static_cast<double>(rng.Uniform(9)));
      }
    };
    for (NodeId v = 1; v < n; ++v) {
      add(static_cast<NodeId>(rng.Uniform(v)), v);  // spanning backbone
    }
    for (size_t e = 0; e < 2 * n; ++e) {
      add(static_cast<NodeId>(rng.Uniform(n)),
          static_cast<NodeId>(rng.Uniform(n)));
    }
    const KnowledgeGraph g = std::move(builder).Finalize();
    CostView view;
    view.Assign(g, costs);

    const NodeId source = static_cast<NodeId>(rng.Uniform(n));
    std::vector<NodeId> subset(1 + rng.Uniform(5));
    for (NodeId& t : subset) t = static_cast<NodeId>(rng.Uniform(n));
    std::vector<NodeId> superset = subset;
    for (size_t extra = rng.Uniform(9); extra > 0; --extra) {
      superset.push_back(static_cast<NodeId>(rng.Uniform(n)));
    }
    std::sort(superset.begin(), superset.end());

    DijkstraInto(view, source, subset, subset_ws);
    for (const bool full_sweep : {false, true}) {
      DijkstraInto(view, source,
                   full_sweep ? std::span<const NodeId>()
                              : std::span<const NodeId>(superset),
                   superset_ws);
      for (NodeId v = 0; v < n; ++v) {
        if (!subset_ws.settled(v)) continue;
        ASSERT_TRUE(superset_ws.settled(v)) << "round " << round << " " << v;
        ASSERT_EQ(superset_ws.dist(v), subset_ws.dist(v))
            << "round " << round << " node " << v;
        ASSERT_EQ(superset_ws.parent_node(v), subset_ws.parent_node(v))
            << "round " << round << " node " << v;
        ASSERT_EQ(superset_ws.parent_edge(v), subset_ws.parent_edge(v))
            << "round " << round << " node " << v;
      }
      for (NodeId t : subset) {
        ASSERT_TRUE(subset_ws.settled(t)) << "round " << round << " " << t;
        std::vector<EdgeId> subset_edges;
        AppendPathEdges(subset_ws, t, &subset_edges);
        std::vector<EdgeId> superset_edges;
        AppendPathEdges(superset_ws, t, &superset_edges);
        ASSERT_EQ(superset_edges, subset_edges)
            << "round " << round << " target " << t;
      }
    }
  }
}

TEST(MultiSourceDijkstraTest, AssignsNearestSource) {
  // Path 0-1-2-3-4, sources {0, 4}: Voronoi split at the middle.
  const KnowledgeGraph g = MakePathGraph({1.0, 1.0, 1.0, 1.0});
  const std::vector<NodeId> sources = {0, 4};
  SearchWorkspace ws;
  MultiSourceDijkstraInto(WeightView(g), sources, ws);
  EXPECT_EQ(ws.origin(0), 0u);
  EXPECT_EQ(ws.origin(1), 0u);
  EXPECT_EQ(ws.origin(3), 4u);
  EXPECT_EQ(ws.origin(4), 4u);
  EXPECT_DOUBLE_EQ(ws.dist(2), 2.0);
  EXPECT_DOUBLE_EQ(ws.dist(1), 1.0);
  EXPECT_DOUBLE_EQ(ws.dist(3), 1.0);
}

TEST(MultiSourceDijkstraTest, SingleSourceEqualsDijkstra) {
  const KnowledgeGraph g = MakePathGraph({2.0, 3.0, 1.0});
  const CostView view = WeightView(g);
  const std::vector<NodeId> sources = {1};
  SearchWorkspace single;
  SearchWorkspace multi;
  DijkstraInto(view, 1, {}, single);
  MultiSourceDijkstraInto(view, sources, multi);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_DOUBLE_EQ(single.dist(v), multi.dist(v));
    EXPECT_EQ(multi.origin(v),
              single.dist(v) == kInfDistance ? kInvalidNode : 1u);
  }
}

/// Random-graph property sweep: multi-source distances equal the min over
/// per-source Dijkstra distances.
class DijkstraRandomSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DijkstraRandomSweep, MultiSourceMatchesMinOfSingleSources) {
  Rng rng(GetParam());
  const size_t n = 40;
  GraphBuilder builder;
  builder.AddNodes(NodeType::kEntity, n);
  // Random connected-ish graph: ring + random chords.
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(builder
                    .AddEdge(static_cast<NodeId>(i),
                             static_cast<NodeId>((i + 1) % n),
                             Relation::kRelatedTo,
                             rng.UniformDouble(0.1, 2.0))
                    .ok());
  }
  for (int c = 0; c < 30; ++c) {
    const NodeId a = static_cast<NodeId>(rng.Uniform(n));
    const NodeId b = static_cast<NodeId>(rng.Uniform(n));
    if (a == b) continue;
    ASSERT_TRUE(builder
                    .AddEdge(a, b, Relation::kRelatedTo,
                             rng.UniformDouble(0.1, 2.0))
                    .ok());
  }
  const KnowledgeGraph g = std::move(builder).Finalize();
  const CostView view = WeightView(g);

  const std::vector<NodeId> sources = {3, 17, 29};
  SearchWorkspace voronoi;
  MultiSourceDijkstraInto(view, sources, voronoi);
  std::vector<double> best(n, kInfDistance);
  SearchWorkspace single;
  for (NodeId s : sources) {
    DijkstraInto(view, s, {}, single);
    for (NodeId v = 0; v < n; ++v) best[v] = std::min(best[v], single.dist(v));
  }
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_NEAR(voronoi.dist(v), best[v], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraRandomSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace xsum::graph
