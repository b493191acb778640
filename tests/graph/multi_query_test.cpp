/// Bit-identity property tests of the multi-query lockstep kernel: every
/// lane of `MultiQueryDijkstra` must reproduce the sequential
/// `DijkstraInto` facts — distances, parent nodes, parent edges, settle
/// flags, reach flags, and extracted path edges — bit for bit, across
/// batch widths (including B = 1), duplicate sources with differing
/// target sets, full sweeps, and heavy workspace reuse over graphs of
/// very different sizes.

#include "graph/multi_query.h"

#include <vector>

#include <gtest/gtest.h>

#include "graph/cost_view.h"
#include "graph/dijkstra.h"
#include "graph/knowledge_graph.h"
#include "graph/search_workspace.h"
#include "util/rng.h"

namespace xsum::graph {
namespace {

KnowledgeGraph RandomGraph(size_t n, size_t extra_edges, uint64_t seed,
                           std::vector<double>* costs) {
  GraphBuilder builder;
  builder.AddNodes(NodeType::kEntity, n);
  Rng rng(seed);
  costs->clear();
  auto add = [&](NodeId a, NodeId b) {
    if (a == b) return;
    auto result = builder.AddEdge(a, b, Relation::kRelatedTo, 1.0);
    if (result.ok()) costs->push_back(1.0 + rng.Uniform(8));
  };
  for (NodeId v = 1; v < n; ++v) {
    add(static_cast<NodeId>(rng.Uniform(v)), v);  // spanning backbone
  }
  for (size_t e = 0; e < extra_edges; ++e) {
    add(static_cast<NodeId>(rng.Uniform(n)),
        static_cast<NodeId>(rng.Uniform(n)));
  }
  return std::move(builder).Finalize();
}

/// Runs the sequential kernel for one query and checks the lane against it
/// node by node. Nodes the sequential search never reached must be
/// unreached in the lane too, so the comparison is exhaustive, not just
/// over targets.
void ExpectLaneMatchesSequential(const CostView& view,
                                 const MultiQueryWorkspace& mq, size_t q,
                                 NodeId source,
                                 const std::vector<NodeId>& targets,
                                 SearchWorkspace& scratch) {
  DijkstraInto(view, source, targets, scratch);
  const size_t n = view.graph().num_nodes();
  for (NodeId v = 0; v < n; ++v) {
    ASSERT_EQ(mq.reached(q, v), scratch.reached(v))
        << "query " << q << " node " << v;
    if (!scratch.reached(v)) continue;
    ASSERT_EQ(mq.dist(q, v), scratch.dist(v))
        << "query " << q << " node " << v;
    ASSERT_EQ(mq.parent_node(q, v), scratch.parent_node(v))
        << "query " << q << " node " << v;
    ASSERT_EQ(mq.parent_edge(q, v), scratch.parent_edge(v))
        << "query " << q << " node " << v;
    ASSERT_EQ(mq.settled(q, v), scratch.settled(v))
        << "query " << q << " node " << v;
  }
  for (NodeId t : targets) {
    std::vector<EdgeId> lane_edges;
    AppendLanePathEdges(mq, q, t, &lane_edges);
    std::vector<EdgeId> seq_edges;
    AppendPathEdges(scratch, t, &seq_edges);
    ASSERT_EQ(lane_edges, seq_edges) << "query " << q << " target " << t;
  }
}

TEST(MultiQueryDijkstraTest, SingleQueryLaneIsBitIdenticalToSequential) {
  std::vector<double> costs;
  const KnowledgeGraph g = RandomGraph(300, 600, 11, &costs);
  CostView view;
  view.Assign(g, costs);

  const std::vector<NodeId> targets = {7, 42, 299};
  std::vector<MultiQuery> queries(1);
  queries[0].source = 3;
  queries[0].targets = targets;

  MultiQueryWorkspace mq;
  MultiQueryDijkstra(view, queries, mq);
  ASSERT_EQ(mq.width(), 1u);

  SearchWorkspace scratch;
  ExpectLaneMatchesSequential(view, mq, 0, 3, targets, scratch);
}

TEST(MultiQueryDijkstraTest, RandomizedBatchesMatchSequentialLaneByLane) {
  Rng rng(2025);
  MultiQueryWorkspace mq;  // reused across every wave on purpose
  SearchWorkspace scratch;
  for (int round = 0; round < 24; ++round) {
    const size_t n = 16 + rng.Uniform(400);
    std::vector<double> costs;
    const KnowledgeGraph g = RandomGraph(n, 2 * n, 5000 + round, &costs);
    CostView view;
    view.Assign(g, costs);

    const size_t width = 1 + rng.Uniform(16);
    std::vector<std::vector<NodeId>> target_sets(width);
    std::vector<MultiQuery> queries(width);
    for (size_t q = 0; q < width; ++q) {
      queries[q].source = static_cast<NodeId>(rng.Uniform(n));
      // Mix of early-exit target sets and full sweeps (empty targets).
      const size_t t_count = rng.Uniform(6);
      for (size_t t = 0; t < t_count; ++t) {
        target_sets[q].push_back(static_cast<NodeId>(rng.Uniform(n)));
      }
      queries[q].targets = target_sets[q];
    }

    MultiQueryDijkstra(view, queries, mq);
    ASSERT_EQ(mq.width(), width);
    for (size_t q = 0; q < width; ++q) {
      ExpectLaneMatchesSequential(view, mq, q, queries[q].source,
                                  target_sets[q], scratch);
    }
  }
}

TEST(MultiQueryDijkstraTest, DuplicateSourcesWithDifferentTargetsAgree) {
  // The wave layer dedups same-source queries behind one lane; the kernel
  // itself must still honour each query's own early-exit set, so the same
  // source appearing with different targets yields per-lane facts that
  // each match the sequential search with that lane's targets.
  std::vector<double> costs;
  const KnowledgeGraph g = RandomGraph(200, 500, 77, &costs);
  CostView view;
  view.Assign(g, costs);

  const std::vector<NodeId> near = {1, 2};
  const std::vector<NodeId> far = {180, 190, 199};
  const std::vector<NodeId> none;  // full sweep
  std::vector<MultiQuery> queries(3);
  queries[0] = {.source = 5, .targets = near};
  queries[1] = {.source = 5, .targets = far};
  queries[2] = {.source = 5, .targets = none};

  MultiQueryWorkspace mq;
  MultiQueryDijkstra(view, queries, mq);

  SearchWorkspace scratch;
  ExpectLaneMatchesSequential(view, mq, 0, 5, near, scratch);
  ExpectLaneMatchesSequential(view, mq, 1, 5, far, scratch);
  ExpectLaneMatchesSequential(view, mq, 2, 5, none, scratch);
}

TEST(MultiQueryDijkstraTest, FullSweepLaneMatchesAllocatingDijkstra) {
  std::vector<double> costs;
  const KnowledgeGraph g = RandomGraph(150, 400, 31, &costs);
  CostView view;
  view.Assign(g, costs);

  std::vector<MultiQuery> queries(2);
  queries[0].source = 0;
  queries[1].source = 149;

  MultiQueryWorkspace mq;
  MultiQueryDijkstra(view, queries, mq);

  for (size_t q = 0; q < queries.size(); ++q) {
    SearchWorkspace fresh;
    DijkstraInto(view, queries[q].source, {}, fresh);
    for (NodeId v = 0; v < view.graph().num_nodes(); ++v) {
      ASSERT_EQ(mq.reached(q, v), fresh.dist(v) != kInfDistance)
          << "query " << q << " node " << v;
      if (!mq.reached(q, v)) continue;
      ASSERT_EQ(mq.dist(q, v), fresh.dist(v))
          << "query " << q << " node " << v;
    }
  }
}

TEST(MultiQueryDijkstraTest, WorkspaceReuseAcrossShrinkingAndGrowingWaves) {
  // Alternate widths and graph sizes so lane stamps from a wide wave
  // would poison a narrow one if epochs were mishandled.
  MultiQueryWorkspace mq;
  SearchWorkspace scratch;
  Rng rng(13);
  const size_t sizes[] = {512, 24, 300, 8, 700, 64};
  size_t round = 0;
  for (size_t n : sizes) {
    std::vector<double> costs;
    const KnowledgeGraph g = RandomGraph(n, 3 * n, 900 + round, &costs);
    CostView view;
    view.Assign(g, costs);
    const size_t width = (round % 2 == 0) ? 12 : 2;
    std::vector<std::vector<NodeId>> target_sets(width);
    std::vector<MultiQuery> queries(width);
    for (size_t q = 0; q < width; ++q) {
      queries[q].source = static_cast<NodeId>(rng.Uniform(n));
      for (int t = 0; t < 3; ++t) {
        target_sets[q].push_back(static_cast<NodeId>(rng.Uniform(n)));
      }
      queries[q].targets = target_sets[q];
    }
    MultiQueryDijkstra(view, queries, mq);
    for (size_t q = 0; q < width; ++q) {
      ExpectLaneMatchesSequential(view, mq, q, queries[q].source,
                                  target_sets[q], scratch);
    }
    ++round;
  }
}

TEST(MultiQueryWorkspaceTest, RequiredBytesMatchesFootprintAfterBegin) {
  MultiQueryWorkspace ws;
  ws.Begin(1000, 8);
  EXPECT_GE(ws.MemoryFootprintBytes(),
            MultiQueryWorkspace::RequiredBytes(1000, 8));
  EXPECT_EQ(ws.capacity_nodes(), 1000u);
  EXPECT_EQ(ws.width(), 8u);
}

}  // namespace
}  // namespace xsum::graph
