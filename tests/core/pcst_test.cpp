/// Tests for Algorithm 2 (PCST summaries): growth connects terminals, the
/// grown-region default vs strong pruning, prize/cost policies, and the
/// |T|-independence of the sweep.

#include <algorithm>
#include <unordered_map>

#include <gtest/gtest.h>

#include "core/pcst.h"
#include "graph/union_find.h"
#include "util/rng.h"

namespace xsum::core {
namespace {

using graph::CostView;
using graph::EdgeId;
using graph::GraphBuilder;
using graph::KnowledgeGraph;
using graph::NodeId;
using graph::NodeType;
using graph::Relation;

KnowledgeGraph MakePathGraph(size_t n) {
  GraphBuilder builder;
  builder.AddNodes(NodeType::kEntity, n);
  for (size_t i = 0; i + 1 < n; ++i) {
    EXPECT_TRUE(builder
                    .AddEdge(static_cast<NodeId>(i),
                             static_cast<NodeId>(i + 1), Relation::kRelatedTo,
                             1.0)
                    .ok());
  }
  return std::move(builder).Finalize();
}

CostView UnitView(const KnowledgeGraph& g) {
  CostView view;
  view.AssignUnit(g);
  return view;
}

bool TerminalsConnected(const KnowledgeGraph& g, const graph::Subgraph& s,
                        const std::vector<NodeId>& terminals) {
  graph::UnionFind uf(g.num_nodes());
  for (EdgeId e : s.edges()) uf.Union(g.edge(e).src, g.edge(e).dst);
  for (size_t i = 1; i < terminals.size(); ++i) {
    if (!uf.Connected(terminals[0], terminals[i])) return false;
  }
  return true;
}

TEST(PcstTest, EmptyTerminals) {
  const KnowledgeGraph g = MakePathGraph(4);
  const auto result = PcstSummary(UnitView(g), g.WeightVector(), {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->tree.Empty());
}

TEST(PcstTest, SingleTerminal) {
  const KnowledgeGraph g = MakePathGraph(4);
  const auto result = PcstSummary(UnitView(g), g.WeightVector(), {2});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->tree.ContainsNode(2));
  EXPECT_EQ(result->tree.num_edges(), 0u);
}

TEST(PcstTest, ConnectsEndpointsOfPath) {
  const KnowledgeGraph g = MakePathGraph(5);
  const std::vector<NodeId> terminals = {0, 4};
  const auto result = PcstSummary(UnitView(g), g.WeightVector(), terminals);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(TerminalsConnected(g, result->tree, terminals));
  EXPECT_TRUE(result->unreached_terminals.empty());
  // On a path graph the grown region IS the connecting path.
  EXPECT_EQ(result->tree.num_edges(), 4u);
}

TEST(PcstTest, AdjacentTerminalsAdoptSharedEdge) {
  const KnowledgeGraph g = MakePathGraph(3);
  const auto result = PcstSummary(UnitView(g), g.WeightVector(), {0, 1});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tree.num_edges(), 1u);
  EXPECT_TRUE(TerminalsConnected(g, result->tree, {0, 1}));
}

TEST(PcstTest, DuplicateTerminalsIgnored) {
  const KnowledgeGraph g = MakePathGraph(5);
  const auto a = PcstSummary(UnitView(g), g.WeightVector(), {0, 4});
  const auto b = PcstSummary(UnitView(g), g.WeightVector(), {0, 4, 4, 0});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->tree.edges(), b->tree.edges());
}

TEST(PcstTest, DisconnectedTerminalForgone) {
  GraphBuilder builder;
  builder.AddNodes(NodeType::kEntity, 5);
  ASSERT_TRUE(builder.AddEdge(0, 1, Relation::kRelatedTo, 1.0).ok());
  ASSERT_TRUE(builder.AddEdge(3, 4, Relation::kRelatedTo, 1.0).ok());
  const KnowledgeGraph g = std::move(builder).Finalize();
  const auto result = PcstSummary(UnitView(g), g.WeightVector(), {0, 1, 4});
  ASSERT_TRUE(result.ok());
  // {0,1} connected; 4 is in another component (prize forgone).
  EXPECT_EQ(result->unreached_terminals, std::vector<NodeId>{4});
  EXPECT_TRUE(result->tree.ContainsNode(4));  // still listed as a node
}

TEST(PcstTest, RejectsOutOfRangeTerminal) {
  const KnowledgeGraph g = MakePathGraph(3);
  const auto result = PcstSummary(UnitView(g), g.WeightVector(), {17});
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(PcstTest, GrownRegionIsSupersetOfStrongPruned) {
  // On a denser graph, the default (grown region) keeps at least as many
  // edges as the strong-pruned tree — the paper's "additional nodes".
  Rng rng(5);
  GraphBuilder builder;
  const size_t n = 30;
  builder.AddNodes(NodeType::kEntity, n);
  for (size_t i = 0; i < n; ++i) {
    builder
        .AddEdge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n),
                 Relation::kRelatedTo, 1.0)
        .ValueOrDie();
  }
  for (int c = 0; c < 25; ++c) {
    const NodeId a = static_cast<NodeId>(rng.Uniform(n));
    const NodeId b = static_cast<NodeId>(rng.Uniform(n));
    if (a != b) {
      builder.AddEdge(a, b, Relation::kRelatedTo, 1.0).ValueOrDie();
    }
  }
  const KnowledgeGraph g = std::move(builder).Finalize();
  const std::vector<NodeId> terminals = {0, 9, 17, 25};

  PcstOptions grown;  // default: keep grown region
  PcstOptions pruned;
  pruned.strong_prune = true;
  const auto a = PcstSummary(UnitView(g), g.WeightVector(), terminals, grown);
  const auto b = PcstSummary(UnitView(g), g.WeightVector(), terminals, pruned);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GE(a->tree.num_edges(), b->tree.num_edges());
  EXPECT_TRUE(TerminalsConnected(g, a->tree, terminals));
  EXPECT_TRUE(TerminalsConnected(g, b->tree, terminals));
  // Strong-pruned result has only terminal leaves.
  std::unordered_map<NodeId, int> degree;
  for (EdgeId e : b->tree.edges()) {
    ++degree[g.edge(e).src];
    ++degree[g.edge(e).dst];
  }
  for (const auto& [node, d] : degree) {
    if (d == 1) {
      EXPECT_TRUE(std::find(terminals.begin(), terminals.end(), node) !=
                  terminals.end());
    }
  }
}

TEST(PcstTest, AlphaBetaPrizesComputedFromWeights) {
  const KnowledgeGraph g = MakePathGraph(5);
  std::vector<double> weights = {0.5, 2.0, 1.0, 3.0};
  PcstOptions options;
  options.prize_policy = PcstOptions::PrizePolicy::kAlphaBeta;
  const auto result = PcstSummary(UnitView(g), weights, {0, 4}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(TerminalsConnected(g, result->tree, {0, 4}));
  // Objective uses alpha = 3.0 for terminals, beta = 0.5 for others.
  // 4 unit-cost edges, prizes: 2 * 3.0 + 3 * 0.5 = 7.5 -> C = 4 - 7.5.
  EXPECT_NEAR(result->objective, 4.0 - 7.5, 1e-9);
}

TEST(PcstTest, WeightedEdgeCostsChangeObjective) {
  const KnowledgeGraph g = MakePathGraph(3);
  std::vector<double> weights = {5.0, 7.0};
  // The `use_edge_weights` ablation's view: the weights are the costs.
  CostView weighted;
  weighted.Assign(g, weights);
  const auto result = PcstSummary(weighted, weights, {0, 2});
  ASSERT_TRUE(result.ok());
  // Objective = 12 (weighted costs) - 2 (unit terminal prizes).
  EXPECT_NEAR(result->objective, 12.0 - 2.0, 1e-9);
}

TEST(PcstTest, ObjectiveMatchesDefinition) {
  const KnowledgeGraph g = MakePathGraph(4);
  const auto result = PcstSummary(UnitView(g), g.WeightVector(), {0, 3});
  ASSERT_TRUE(result.ok());
  // C(S) = sum unit costs - sum prizes (1 per terminal in S, 0 others).
  const double expected =
      static_cast<double>(result->tree.num_edges()) - 2.0;
  EXPECT_NEAR(result->objective, expected, 1e-9);
}

TEST(PcstTest, WorkspaceReported) {
  const KnowledgeGraph g = MakePathGraph(10);
  const auto result = PcstSummary(UnitView(g), g.WeightVector(), {0, 9});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->workspace_bytes, 0u);
}

/// Property sweep: the growth always connects all terminals of a
/// connected graph and the grown region always contains them.
class PcstRandomSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PcstRandomSweep, ConnectsAllTerminalsOnConnectedGraphs) {
  Rng rng(GetParam());
  const size_t n = 50;
  GraphBuilder builder;
  builder.AddNodes(NodeType::kEntity, n);
  for (size_t i = 0; i < n; ++i) {
    builder
        .AddEdge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n),
                 Relation::kRelatedTo, 1.0)
        .ValueOrDie();
  }
  for (int c = 0; c < 40; ++c) {
    const NodeId a = static_cast<NodeId>(rng.Uniform(n));
    const NodeId b = static_cast<NodeId>(rng.Uniform(n));
    if (a != b) {
      builder.AddEdge(a, b, Relation::kRelatedTo, 1.0).ValueOrDie();
    }
  }
  const KnowledgeGraph g = std::move(builder).Finalize();

  std::vector<NodeId> terminals;
  const size_t t = 2 + rng.Uniform(8);
  for (uint64_t v : rng.SampleWithoutReplacement(n, t)) {
    terminals.push_back(static_cast<NodeId>(v));
  }
  const auto result = PcstSummary(UnitView(g), g.WeightVector(), terminals);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->unreached_terminals.empty());
  EXPECT_TRUE(TerminalsConnected(g, result->tree, terminals));
  for (NodeId v : terminals) EXPECT_TRUE(result->tree.ContainsNode(v));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PcstRandomSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace xsum::core
