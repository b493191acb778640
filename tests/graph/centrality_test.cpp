/// Tests for the centrality measures behind the §VII future-work PCST
/// prize policy.

#include <gtest/gtest.h>

#include "core/pcst.h"
#include "graph/centrality.h"
#include "graph/cost_view.h"
#include "graph/knowledge_graph.h"

namespace xsum::graph {
namespace {

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

TEST(DegreeCentralityTest, StarCenterIsMaximal) {
  const KnowledgeGraph g = MakeStar(5);
  const auto c = DegreeCentrality(g);
  EXPECT_DOUBLE_EQ(c[0], 1.0);  // degree 5 / (6-1)
  for (NodeId v = 1; v <= 5; ++v) EXPECT_DOUBLE_EQ(c[v], 0.2);
}

TEST(DegreeCentralityTest, TrivialGraphs) {
  GraphBuilder empty;
  EXPECT_TRUE(DegreeCentrality(std::move(empty).Finalize()).empty());
  GraphBuilder one;
  one.AddNode(NodeType::kUser);
  const auto c = DegreeCentrality(std::move(one).Finalize());
  ASSERT_EQ(c.size(), 1u);
  EXPECT_DOUBLE_EQ(c[0], 0.0);
}

TEST(HarmonicCentralityTest, StarCenterDominates) {
  const KnowledgeGraph g = MakeStar(8);
  const auto c = HarmonicCentrality(g, /*samples=*/9, /*seed=*/3);
  EXPECT_DOUBLE_EQ(c[0], 1.0);  // normalized max
  for (NodeId v = 1; v <= 8; ++v) EXPECT_LT(c[v], 1.0);
}

TEST(HarmonicCentralityTest, DeterministicForSeed) {
  const KnowledgeGraph g = MakeStar(8);
  EXPECT_EQ(HarmonicCentrality(g, 4, 7), HarmonicCentrality(g, 4, 7));
}

TEST(HarmonicCentralityTest, ZeroSamplesIsAllZero) {
  const KnowledgeGraph g = MakeStar(3);
  for (double v : HarmonicCentrality(g, 0)) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(CentralityPrizeTest, PolicyPullsTreeThroughHubs) {
  // Two leaves of a star plus a parallel 2-path around the hub: with
  // centrality prizes the hub (max degree) is preferred as the connector.
  GraphBuilder builder;
  builder.AddNodes(NodeType::kEntity, 6);
  // Star: hub 0 with leaves 1..3.
  for (NodeId leaf = 1; leaf <= 3; ++leaf) {
    EXPECT_TRUE(builder.AddEdge(0, leaf, Relation::kRelatedTo, 1.0).ok());
  }
  // Alternate low-degree route 1-4-5-2? make it: 1-4, 4-2.
  EXPECT_TRUE(builder.AddEdge(1, 4, Relation::kRelatedTo, 1.0).ok());
  EXPECT_TRUE(builder.AddEdge(4, 2, Relation::kRelatedTo, 1.0).ok());
  const KnowledgeGraph g = std::move(builder).Finalize();

  core::PcstOptions options;
  options.prize_policy = core::PcstOptions::PrizePolicy::kDegreeCentrality;
  CostView unit;
  unit.AssignUnit(g);
  const auto result =
      core::PcstSummary(unit, g.WeightVector(), {1, 2}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->tree.ContainsNode(0)) << "hub should be the connector";
}

}  // namespace
}  // namespace xsum::graph
