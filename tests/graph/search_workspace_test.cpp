/// Unit tests of the reusable search workspace: the indexed 4-ary heap's
/// ordering and decrease-key semantics, the epoch union-find, the O(1)
/// epoch reset of every stamped facility, and equivalence of a heavily
/// reused workspace against a fresh one under Dijkstra across graphs of
/// different sizes.

#include "graph/search_workspace.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "graph/cost_view.h"
#include "graph/dijkstra.h"
#include "graph/knowledge_graph.h"
#include "util/rng.h"

namespace xsum::graph {
namespace {

TEST(IndexedMinHeapTest, PopsInKeyOrder) {
  IndexedMinHeap heap;
  heap.Reset(16);
  const std::vector<double> keys = {5.0, 1.0, 9.0, 3.5, 0.5, 7.0};
  for (NodeId v = 0; v < keys.size(); ++v) {
    EXPECT_TRUE(heap.PushOrDecrease(v, keys[v]));
  }
  std::vector<double> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  for (double expected : sorted) {
    ASSERT_FALSE(heap.Empty());
    EXPECT_DOUBLE_EQ(heap.MinKey(), expected);
    heap.PopMin();
  }
  EXPECT_TRUE(heap.Empty());
}

TEST(IndexedMinHeapTest, DecreaseKeyReordersAndIncreaseIsIgnored) {
  IndexedMinHeap heap;
  heap.Reset(8);
  heap.PushOrDecrease(0, 4.0);
  heap.PushOrDecrease(1, 2.0);
  heap.PushOrDecrease(2, 3.0);
  EXPECT_FALSE(heap.PushOrDecrease(0, 5.0));  // increase: no-op
  EXPECT_TRUE(heap.PushOrDecrease(0, 1.0));   // decrease: moves to front
  EXPECT_DOUBLE_EQ(heap.KeyOf(0), 1.0);
  EXPECT_EQ(heap.PopMin(), 0u);
  EXPECT_EQ(heap.PopMin(), 1u);
  EXPECT_EQ(heap.PopMin(), 2u);
}

TEST(IndexedMinHeapTest, EachNodePopsAtMostOncePerReset) {
  IndexedMinHeap heap;
  heap.Reset(4);
  heap.PushOrDecrease(3, 1.0);
  EXPECT_EQ(heap.PopMin(), 3u);
  // Re-inserting a popped node is rejected until the next Reset.
  EXPECT_FALSE(heap.PushOrDecrease(3, 0.5));
  EXPECT_TRUE(heap.Empty());
  heap.Reset(4);
  EXPECT_TRUE(heap.PushOrDecrease(3, 0.5));
  EXPECT_EQ(heap.PopMin(), 3u);
}

TEST(IndexedMinHeapTest, RandomizedAgainstSort) {
  IndexedMinHeap heap;
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    const size_t n = 1 + rng.Uniform(200);
    heap.Reset(n);
    std::vector<double> best(n, -1.0);
    for (int op = 0; op < 400; ++op) {
      const NodeId v = static_cast<NodeId>(rng.Uniform(n));
      const double key = static_cast<double>(rng.Uniform(1000));
      if (heap.PushOrDecrease(v, key)) {
        if (best[v] < 0.0 || key < best[v]) best[v] = key;
      }
    }
    double last = -1.0;
    while (!heap.Empty()) {
      const double key = heap.MinKey();
      const NodeId v = heap.PopMin();
      EXPECT_GE(key, last);
      EXPECT_DOUBLE_EQ(key, best[v]);
      last = key;
      best[v] = -1.0;
    }
    for (double b : best) EXPECT_LT(b, 0.0);  // everything queued popped
  }
}

TEST(EpochUnionFindTest, UnionsAndO1Reset) {
  EpochUnionFind uf;
  uf.Reset(10);
  EXPECT_TRUE(uf.Union(1, 2));
  EXPECT_TRUE(uf.Union(2, 3));
  EXPECT_FALSE(uf.Union(1, 3));
  EXPECT_EQ(uf.Find(3), uf.Find(1));
  // Smaller id wins the union (deterministic merge rule).
  EXPECT_EQ(uf.Find(3), 1u);
  uf.Reset(10);
  EXPECT_NE(uf.Find(3), uf.Find(1));  // partition forgotten in O(1)
}

TEST(SearchWorkspaceTest, BeginInvalidatesAllStampedState) {
  SearchWorkspace ws;
  ws.Begin(8);
  ws.Relax(3, 1.5, 2, 7);
  ws.SetSettled(3);
  ws.Mark(4);
  ws.SetTag(5, 42);
  EXPECT_TRUE(ws.reached(3));
  EXPECT_DOUBLE_EQ(ws.dist(3), 1.5);
  EXPECT_EQ(ws.parent_node(3), 2u);
  EXPECT_EQ(ws.parent_edge(3), 7u);
  EXPECT_TRUE(ws.settled(3));
  EXPECT_TRUE(ws.marked(4));
  EXPECT_EQ(ws.TagOr(5, 0), 42u);

  ws.Begin(8);
  EXPECT_FALSE(ws.reached(3));
  EXPECT_EQ(ws.dist(3), kUnreachedDistance);
  EXPECT_EQ(ws.parent_node(3), kInvalidNode);
  EXPECT_FALSE(ws.settled(3));
  EXPECT_FALSE(ws.marked(4));
  EXPECT_EQ(ws.TagOr(5, 0), 0u);
}

TEST(SearchWorkspaceTest, SettlingUnreachedNodeKeepsUnreachedDistance) {
  SearchWorkspace ws;
  ws.Begin(4);
  ws.SetSettled(2);  // e.g. a PCST seed that was never relaxed
  EXPECT_TRUE(ws.settled(2));
  EXPECT_EQ(ws.dist(2), kUnreachedDistance);
}

TEST(SearchWorkspaceTest, CapacityGrowsAndNeverShrinks) {
  SearchWorkspace ws;
  ws.Begin(10);
  EXPECT_GE(ws.capacity(), 10u);
  ws.Begin(100);
  EXPECT_GE(ws.capacity(), 100u);
  ws.Begin(5);  // smaller graph reuses the larger arrays
  EXPECT_GE(ws.capacity(), 100u);
  ws.Relax(4, 2.0, 0, 0);
  EXPECT_DOUBLE_EQ(ws.dist(4), 2.0);
}

/// Random connected-ish graph for Dijkstra equivalence runs.
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
    add(static_cast<NodeId>(rng.Uniform(n)), static_cast<NodeId>(rng.Uniform(n)));
  }
  return std::move(builder).Finalize();
}

TEST(DijkstraWorkspaceTest, ReusedWorkspaceMatchesFreshAcrossGraphSizes) {
  SearchWorkspace reused;
  Rng rng(7);
  // Alternate between graphs of very different sizes; the reused
  // workspace must behave exactly like a fresh one every time.
  for (int round = 0; round < 6; ++round) {
    const size_t n = (round % 2 == 0) ? 50 : 400;
    std::vector<double> costs;
    const KnowledgeGraph g = RandomGraph(n, 2 * n, 1000 + round, &costs);
    const NodeId source = static_cast<NodeId>(rng.Uniform(n));
    std::vector<NodeId> targets;
    for (int t = 0; t < 5; ++t) {
      targets.push_back(static_cast<NodeId>(rng.Uniform(n)));
    }

    CostView view;
    view.Assign(g, costs);
    SearchWorkspace fresh;
    DijkstraInto(view, source, targets, fresh);
    DijkstraInto(view, source, targets, reused);
    for (NodeId t : targets) {
      EXPECT_EQ(fresh.dist(t), reused.dist(t));
      const Path a = ExtractPath(fresh, t);
      const Path b = ExtractPath(reused, t);
      EXPECT_EQ(a.nodes, b.nodes);
      EXPECT_EQ(a.edges, b.edges);
    }

    // Full-sweep comparison (no targets): every node's distance matches.
    SearchWorkspace full;
    DijkstraInto(view, source, {}, full);
    DijkstraInto(view, source, {}, reused);
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(full.dist(v), reused.dist(v)) << "node " << v;
    }

    // A recommitted view (fresh version, same costs) produces identical
    // results.
    CostView recommitted;
    recommitted.Assign(g, costs);
    EXPECT_NE(recommitted.version(), view.version());
    DijkstraInto(recommitted, source, {}, reused);
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(full.dist(v), reused.dist(v)) << "node " << v;
    }
  }
}

TEST(DijkstraWorkspaceTest, MultiSourceReuseMatchesFresh) {
  SearchWorkspace reused;
  for (int round = 0; round < 4; ++round) {
    const size_t n = 120;
    std::vector<double> costs;
    const KnowledgeGraph g = RandomGraph(n, 3 * n, 2000 + round, &costs);
    Rng rng(30 + round);
    std::vector<NodeId> sources;
    for (int s = 0; s < 4; ++s) {
      sources.push_back(static_cast<NodeId>(rng.Uniform(n)));
    }
    CostView view;
    view.Assign(g, costs);
    SearchWorkspace fresh;
    MultiSourceDijkstraInto(view, sources, fresh);
    MultiSourceDijkstraInto(view, sources, reused);
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(fresh.dist(v), reused.dist(v));
      EXPECT_EQ(fresh.origin(v), reused.origin(v));
      EXPECT_EQ(fresh.parent_node(v), reused.parent_node(v));
      EXPECT_EQ(fresh.parent_edge(v), reused.parent_edge(v));
    }
  }
}

}  // namespace
}  // namespace xsum::graph
