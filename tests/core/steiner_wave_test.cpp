/// Bit-identity tests of the batched KMB wave: `SteinerTreeWave` must
/// return, slot for slot, exactly what the sequential `SteinerTree` call
/// returns for the same terminal set — tree nodes/edges, unreached
/// terminals, workspace_bytes accounting, and error statuses — across
/// single-task waves, wide waves whose tasks share many row sources, the
/// Mehlhorn fallback, and heavy workspace reuse.

#include <vector>

#include <gtest/gtest.h>

#include "core/steiner.h"
#include "graph/cost_view.h"
#include "graph/knowledge_graph.h"
#include "graph/search_workspace.h"
#include "util/rng.h"

namespace xsum::core {
namespace {

using graph::CostView;
using graph::GraphBuilder;
using graph::KnowledgeGraph;
using graph::NodeId;
using graph::NodeType;
using graph::Relation;

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
    add(static_cast<NodeId>(rng.Uniform(v)), v);
  }
  for (size_t e = 0; e < extra_edges; ++e) {
    add(static_cast<NodeId>(rng.Uniform(n)),
        static_cast<NodeId>(rng.Uniform(n)));
  }
  return std::move(builder).Finalize();
}

void ExpectSlotIdentical(const Result<SteinerResult>& wave,
                         const Result<SteinerResult>& solo, size_t slot) {
  ASSERT_EQ(wave.ok(), solo.ok()) << "slot " << slot;
  if (!solo.ok()) {
    EXPECT_EQ(wave.status().code(), solo.status().code()) << "slot " << slot;
    return;
  }
  EXPECT_EQ(wave->tree.nodes(), solo->tree.nodes()) << "slot " << slot;
  EXPECT_EQ(wave->tree.edges(), solo->tree.edges()) << "slot " << slot;
  EXPECT_EQ(wave->unreached_terminals, solo->unreached_terminals)
      << "slot " << slot;
  EXPECT_EQ(wave->workspace_bytes, solo->workspace_bytes) << "slot " << slot;
}

TEST(SteinerWaveTest, RandomizedWavesMatchSequentialSlotBySlot) {
  Rng rng(808);
  graph::SearchWorkspace wave_ws;
  graph::SearchWorkspace solo_ws;
  for (int round = 0; round < 8; ++round) {
    const size_t n = 30 + rng.Uniform(200);
    std::vector<double> costs;
    const KnowledgeGraph g = RandomGraph(n, 2 * n, 7000 + round, &costs);
    CostView view;
    view.Assign(g, costs);

    const size_t wave_size = 1 + rng.Uniform(12);
    std::vector<std::vector<NodeId>> terminal_sets(wave_size);
    for (auto& terminals : terminal_sets) {
      const size_t t = 1 + rng.Uniform(6);
      for (size_t i = 0; i < t; ++i) {
        terminals.push_back(static_cast<NodeId>(rng.Uniform(n)));
      }
    }

    SteinerOptions options;
    options.variant = SteinerOptions::Variant::kKmb;
    const auto wave =
        SteinerTreeWave(view, terminal_sets, options, &wave_ws);
    ASSERT_EQ(wave.size(), wave_size);
    for (size_t i = 0; i < wave_size; ++i) {
      const auto solo = SteinerTree(view, terminal_sets[i], options, &solo_ws);
      ExpectSlotIdentical(wave[i], solo, i);
    }
  }
}

TEST(SteinerWaveTest, WideWaveExercisesChunkingAndStaysIdentical) {
  // 70 tasks whose rows all share one search plan: many sources recur
  // across tasks, so most rows are read from a merged search with a wider
  // target set, and every slot must stay identical to its sequential call.
  std::vector<double> costs;
  const KnowledgeGraph g = RandomGraph(120, 300, 909, &costs);
  CostView view;
  view.Assign(g, costs);
  Rng rng(910);
  std::vector<std::vector<NodeId>> terminal_sets(70);
  for (auto& terminals : terminal_sets) {
    for (int i = 0; i < 3; ++i) {
      terminals.push_back(static_cast<NodeId>(rng.Uniform(120)));
    }
  }
  SteinerOptions options;
  options.variant = SteinerOptions::Variant::kKmb;
  graph::SearchWorkspace wave_ws;
  graph::SearchWorkspace solo_ws;
  const auto wave = SteinerTreeWave(view, terminal_sets, options, &wave_ws);
  ASSERT_EQ(wave.size(), terminal_sets.size());
  for (size_t i = 0; i < terminal_sets.size(); ++i) {
    const auto solo = SteinerTree(view, terminal_sets[i], options, &solo_ws);
    ExpectSlotIdentical(wave[i], solo, i);
  }
}

TEST(SteinerWaveTest, BadTaskFailsItsSlotWithoutPoisoningTheWave) {
  std::vector<double> costs;
  const KnowledgeGraph g = RandomGraph(40, 80, 555, &costs);
  CostView view;
  view.Assign(g, costs);
  std::vector<std::vector<NodeId>> terminal_sets = {
      {1, 5, 9},
      {0, static_cast<NodeId>(1000)},  // out of range: must fail alone
      {2, 30, 17},
  };
  SteinerOptions options;
  options.variant = SteinerOptions::Variant::kKmb;
  graph::SearchWorkspace wave_ws;
  graph::SearchWorkspace solo_ws;
  const auto wave = SteinerTreeWave(view, terminal_sets, options, &wave_ws);
  ASSERT_EQ(wave.size(), 3u);
  for (size_t i = 0; i < terminal_sets.size(); ++i) {
    const auto solo = SteinerTree(view, terminal_sets[i], options, &solo_ws);
    ExpectSlotIdentical(wave[i], solo, i);
  }
  EXPECT_FALSE(wave[1].ok());
  EXPECT_TRUE(wave[0].ok());
  EXPECT_TRUE(wave[2].ok());
}

TEST(SteinerWaveTest, MehlhornWaveFallsBackToSequentialResults) {
  std::vector<double> costs;
  const KnowledgeGraph g = RandomGraph(80, 160, 606, &costs);
  CostView view;
  view.Assign(g, costs);
  Rng rng(607);
  std::vector<std::vector<NodeId>> terminal_sets(5);
  for (auto& terminals : terminal_sets) {
    for (int i = 0; i < 4; ++i) {
      terminals.push_back(static_cast<NodeId>(rng.Uniform(80)));
    }
  }
  SteinerOptions options;
  options.variant = SteinerOptions::Variant::kMehlhorn;
  graph::SearchWorkspace wave_ws;
  graph::SearchWorkspace solo_ws;
  const auto wave = SteinerTreeWave(view, terminal_sets, options, &wave_ws);
  ASSERT_EQ(wave.size(), terminal_sets.size());
  for (size_t i = 0; i < terminal_sets.size(); ++i) {
    const auto solo = SteinerTree(view, terminal_sets[i], options, &solo_ws);
    ExpectSlotIdentical(wave[i], solo, i);
  }
}

}  // namespace
}  // namespace xsum::core
