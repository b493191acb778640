/// Tests for Algorithm 1 (ST summaries): correctness on hand-checked
/// graphs, the 2-approximation guarantee against brute force on small
/// random graphs, and structural invariants (tree, spans terminals,
/// terminal leaves only) as property sweeps over both variants.

#include <algorithm>
#include <limits>
#include <unordered_map>

#include <gtest/gtest.h>

#include "core/pcst.h"
#include "core/steiner.h"
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

/// Star: center 0, leaves 1..n.
KnowledgeGraph MakeStar(size_t leaves) {
  GraphBuilder builder;
  builder.AddNodes(NodeType::kEntity, leaves + 1);
  for (size_t i = 1; i <= leaves; ++i) {
    EXPECT_TRUE(
        builder.AddEdge(0, static_cast<NodeId>(i), Relation::kRelatedTo, 1.0)
            .ok());
  }
  return std::move(builder).Finalize();
}

CostView UnitView(const KnowledgeGraph& g) {
  CostView view;
  view.AssignUnit(g);
  return view;
}

CostView ViewOf(const KnowledgeGraph& g, const std::vector<double>& costs) {
  CostView view;
  view.Assign(g, costs);
  return view;
}

/// Exact minimum Steiner tree cost by enumerating edge subsets (tiny
/// graphs only).
double BruteForceSteinerCost(const KnowledgeGraph& g,
                             const std::vector<double>& costs,
                             const std::vector<NodeId>& terminals) {
  const size_t m = g.num_edges();
  double best = 1e300;
  for (uint32_t mask = 0; mask < (1u << m); ++mask) {
    graph::UnionFind uf(g.num_nodes());
    double cost = 0;
    for (size_t e = 0; e < m; ++e) {
      if (mask & (1u << e)) {
        uf.Union(g.edge(static_cast<EdgeId>(e)).src,
                 g.edge(static_cast<EdgeId>(e)).dst);
        cost += costs[e];
      }
    }
    bool connects = true;
    for (size_t t = 1; t < terminals.size(); ++t) {
      if (!uf.Connected(terminals[0], terminals[t])) {
        connects = false;
        break;
      }
    }
    if (connects) best = std::min(best, cost);
  }
  return best;
}

class SteinerVariantTest
    : public ::testing::TestWithParam<SteinerOptions::Variant> {
 protected:
  SteinerOptions Options() const {
    SteinerOptions o;
    o.variant = GetParam();
    return o;
  }
};

TEST_P(SteinerVariantTest, EmptyTerminals) {
  const KnowledgeGraph g = MakeStar(3);
  const auto result = SteinerTree(UnitView(g), {}, Options());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->tree.Empty());
}

TEST_P(SteinerVariantTest, SingleTerminalIsIsolatedNode) {
  const KnowledgeGraph g = MakeStar(3);
  const auto result = SteinerTree(UnitView(g), {2}, Options());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tree.num_nodes(), 1u);
  EXPECT_EQ(result->tree.num_edges(), 0u);
  EXPECT_TRUE(result->tree.ContainsNode(2));
}

TEST_P(SteinerVariantTest, TwoLeavesOfStarRouteViaCenter) {
  const KnowledgeGraph g = MakeStar(4);
  const auto result = SteinerTree(UnitView(g), {1, 3}, Options());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tree.num_edges(), 2u);
  EXPECT_TRUE(result->tree.ContainsNode(0));  // Steiner node
  EXPECT_TRUE(result->tree.IsTree(g));
  EXPECT_TRUE(result->unreached_terminals.empty());
}

TEST_P(SteinerVariantTest, AllLeavesSpanWholeStar) {
  const KnowledgeGraph g = MakeStar(5);
  const std::vector<NodeId> terminals = {1, 2, 3, 4, 5};
  const auto result = SteinerTree(UnitView(g), terminals, Options());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tree.num_edges(), 5u);
  for (NodeId t : terminals) EXPECT_TRUE(result->tree.ContainsNode(t));
}

TEST_P(SteinerVariantTest, DuplicateTerminalsIgnored) {
  const KnowledgeGraph g = MakeStar(4);
  const auto a = SteinerTree(UnitView(g), {1, 3}, Options());
  const auto b = SteinerTree(UnitView(g), {1, 3, 3, 1}, Options());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->tree.edges(), b->tree.edges());
}

TEST_P(SteinerVariantTest, WeightedCostsChooseCheapRoute) {
  // 0-1 direct cost 5; 0-2 cost 1, 2-1 cost 1 => route via 2.
  GraphBuilder builder;
  builder.AddNodes(NodeType::kEntity, 3);
  ASSERT_TRUE(builder.AddEdge(0, 1, Relation::kRelatedTo, 5.0).ok());
  ASSERT_TRUE(builder.AddEdge(0, 2, Relation::kRelatedTo, 1.0).ok());
  ASSERT_TRUE(builder.AddEdge(2, 1, Relation::kRelatedTo, 1.0).ok());
  const KnowledgeGraph g = std::move(builder).Finalize();
  const auto result =
      SteinerTree(ViewOf(g, g.WeightVector()), {0, 1}, Options());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tree.num_edges(), 2u);
  EXPECT_TRUE(result->tree.ContainsNode(2));
}

TEST_P(SteinerVariantTest, DisconnectedTerminalsReported) {
  GraphBuilder builder;
  builder.AddNodes(NodeType::kEntity, 4);
  ASSERT_TRUE(builder.AddEdge(0, 1, Relation::kRelatedTo, 1.0).ok());
  ASSERT_TRUE(builder.AddEdge(2, 3, Relation::kRelatedTo, 1.0).ok());
  const KnowledgeGraph g = std::move(builder).Finalize();
  const auto result = SteinerTree(UnitView(g), {0, 1, 3}, Options());
  ASSERT_TRUE(result.ok());
  // {0,1} is the largest connected terminal group; 3 is unreached.
  EXPECT_EQ(result->unreached_terminals, std::vector<NodeId>{3});
  EXPECT_TRUE(result->tree.ContainsNode(0));
  EXPECT_TRUE(result->tree.ContainsNode(3));  // still present, isolated
}

TEST_P(SteinerVariantTest, RejectsNegativeCosts) {
  const KnowledgeGraph g = MakeStar(3);
  std::vector<double> costs(g.num_edges(), -1.0);
  const auto result = SteinerTree(ViewOf(g, costs), {1, 2}, Options());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST_P(SteinerVariantTest, RejectsOutOfRangeTerminal) {
  const KnowledgeGraph g = MakeStar(3);
  const auto result = SteinerTree(UnitView(g), {99}, Options());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

/// Property sweep on random graphs: result is a tree containing all
/// terminals, every leaf is a terminal, and total cost is within 2x of
/// the brute-force optimum.
TEST_P(SteinerVariantTest, RandomGraphInvariantsAndApproximation) {
  Rng rng(GetParam() == SteinerOptions::Variant::kKmb ? 101 : 202);
  for (int round = 0; round < 12; ++round) {
    const size_t n = 8;
    GraphBuilder builder;
    builder.AddNodes(NodeType::kEntity, n);
    // Ring + chords, <= 14 edges so brute force (2^14) stays fast.
    std::vector<std::pair<NodeId, NodeId>> used;
    for (size_t i = 0; i < n; ++i) {
      builder
          .AddEdge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n),
                   Relation::kRelatedTo, rng.UniformDouble(0.5, 3.0))
          .ValueOrDie();
    }
    for (int c = 0; c < 6; ++c) {
      const NodeId a = static_cast<NodeId>(rng.Uniform(n));
      const NodeId b = static_cast<NodeId>(rng.Uniform(n));
      if (a == b) continue;
      builder.AddEdge(a, b, Relation::kRelatedTo, rng.UniformDouble(0.5, 3.0))
          .ValueOrDie();
    }
    const KnowledgeGraph g = std::move(builder).Finalize();
    const auto costs = g.WeightVector();

    std::vector<NodeId> terminals;
    for (uint64_t t : rng.SampleWithoutReplacement(n, 3)) {
      terminals.push_back(static_cast<NodeId>(t));
    }
    const auto result = SteinerTree(ViewOf(g, costs), terminals, Options());
    ASSERT_TRUE(result.ok());
    const auto& tree = result->tree;

    EXPECT_TRUE(tree.IsTree(g)) << "round " << round;
    for (NodeId t : terminals) EXPECT_TRUE(tree.ContainsNode(t));
    EXPECT_TRUE(result->unreached_terminals.empty());

    // Every degree-1 node of the tree must be a terminal.
    std::unordered_map<NodeId, int> degree;
    for (EdgeId e : tree.edges()) {
      ++degree[g.edge(e).src];
      ++degree[g.edge(e).dst];
    }
    for (const auto& [node, d] : degree) {
      if (d == 1) {
        EXPECT_TRUE(std::find(terminals.begin(), terminals.end(), node) !=
                    terminals.end())
            << "non-terminal leaf " << node;
      }
    }

    const double optimal = BruteForceSteinerCost(g, costs, terminals);
    EXPECT_LE(tree.TotalWeight(costs), 2.0 * optimal + 1e-9)
        << "approximation bound violated in round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, SteinerVariantTest,
                         ::testing::Values(SteinerOptions::Variant::kKmb,
                                           SteinerOptions::Variant::kMehlhorn),
                         [](const auto& param_info) {
                           return param_info.param ==
                                          SteinerOptions::Variant::kKmb
                                      ? "Kmb"
                                      : "Mehlhorn";
                         });

TEST(SteinerCleanupTest, CleanupRemovesCycles) {
  // Without cleanup the expansion may contain overlapping paths; with
  // cleanup the result must be a tree.
  Rng rng(7);
  const size_t n = 12;
  GraphBuilder builder;
  builder.AddNodes(NodeType::kEntity, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(0.4)) {
        builder
            .AddEdge(static_cast<NodeId>(i), static_cast<NodeId>(j),
                     Relation::kRelatedTo, rng.UniformDouble(0.5, 2.0))
            .ValueOrDie();
      }
    }
  }
  const KnowledgeGraph g = std::move(builder).Finalize();
  SteinerOptions with_cleanup;
  const auto result =
      SteinerTree(ViewOf(g, g.WeightVector()), {0, 3, 7, 11}, with_cleanup);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->tree.IsTree(g));
}

TEST(SteinerWorkspaceTest, ReportsWorkspaceBytes) {
  const KnowledgeGraph g = MakeStar(6);
  const auto result = SteinerTree(UnitView(g), {1, 2, 3});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->workspace_bytes, 0u);
}

TEST(SteinerWorkspaceTest, KmbWorkspaceGrowsWithTerminals) {
  const KnowledgeGraph g = MakeStar(64);
  SteinerOptions kmb;
  kmb.variant = SteinerOptions::Variant::kKmb;
  const auto small = SteinerTree(UnitView(g), {1, 2, 3}, kmb);
  std::vector<NodeId> many;
  for (NodeId t = 1; t <= 40; ++t) many.push_back(t);
  const auto large = SteinerTree(UnitView(g), many, kmb);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GT(large->workspace_bytes, small->workspace_bytes);
}

TEST(NonFiniteCostTest, EveryKernelEntryRejectsTheView) {
  // Eq. (1) can overflow to inf under a huge λ, and the cost transform then
  // yields NaN; a view holding either must not be searched.
  const KnowledgeGraph g = MakeStar(4);
  const std::vector<NodeId> terminals = {1, 2, 3};
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    std::vector<double> costs(g.num_edges(), 1.0);
    costs[1] = bad;
    const CostView view = ViewOf(g, costs);
    SteinerOptions kmb;
    SteinerOptions mehlhorn;
    mehlhorn.variant = SteinerOptions::Variant::kMehlhorn;
    EXPECT_TRUE(SteinerTree(view, terminals, kmb).status().IsInvalidArgument())
        << bad;
    EXPECT_TRUE(
        SteinerTree(view, terminals, mehlhorn).status().IsInvalidArgument())
        << bad;
    KmbClosureStore store;
    EXPECT_TRUE(SteinerTreeChained(view, terminals, kmb, nullptr, &store)
                    .status()
                    .IsInvalidArgument())
        << bad;
    graph::SearchWorkspace ws;
    const auto wave = SteinerTreeWave(view, {terminals, {1, 4}}, kmb, &ws);
    ASSERT_EQ(wave.size(), 2u);
    for (const auto& slot : wave) {
      EXPECT_TRUE(slot.status().IsInvalidArgument()) << bad;
    }
    EXPECT_TRUE(
        PcstSummary(view, costs, terminals).status().IsInvalidArgument())
        << bad;
  }
}

}  // namespace
}  // namespace xsum::core
