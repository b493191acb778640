/// Property tests of the batch summarization engine: a context reused
/// across tasks, methods, and graphs of different sizes must return
/// bit-identical summaries (tree nodes/edges, unreached terminals,
/// objective) to fresh single-shot calls.

#include "core/batch.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/cost_transform.h"
#include "core/pcst.h"
#include "core/steiner.h"
#include "core/summarizer.h"
#include "data/kg_builder.h"
#include "data/synthetic.h"
#include "graph/path.h"
#include "util/rng.h"

namespace xsum::core {
namespace {

struct Fixture {
  data::Dataset dataset;
  data::RecGraph rg;
};

/// Synthetic ML1M-flavoured graphs at different scales and seeds.
Fixture MakeFixture(double scale, uint64_t seed) {
  Fixture f;
  f.dataset = data::MakeSyntheticDataset(data::Ml1mConfig(scale, seed));
  f.rg = std::move(data::BuildRecGraph(f.dataset)).ValueOrDie();
  return f;
}

/// Random walk from a user, used as a synthetic explanation path.
graph::Path RandomWalk(const data::RecGraph& rg, Rng* rng) {
  const graph::KnowledgeGraph& g = rg.graph();
  graph::Path path;
  graph::NodeId v =
      rg.UserNode(static_cast<uint32_t>(rng->Uniform(rg.num_users())));
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

std::vector<SummarizerOptions> MethodLineup() {
  std::vector<SummarizerOptions> methods;
  SummarizerOptions baseline;
  baseline.method = SummaryMethod::kBaseline;
  methods.push_back(baseline);
  for (auto variant : {SteinerOptions::Variant::kKmb,
                       SteinerOptions::Variant::kMehlhorn}) {
    SummarizerOptions st;
    st.method = SummaryMethod::kSteiner;
    st.lambda = 1.0;
    st.steiner.variant = variant;
    methods.push_back(st);
  }
  SummarizerOptions pcst;
  pcst.method = SummaryMethod::kPcst;
  methods.push_back(pcst);
  return methods;
}

void ExpectIdentical(const Summary& fresh, const Summary& reused) {
  EXPECT_EQ(fresh.subgraph.nodes(), reused.subgraph.nodes());
  EXPECT_EQ(fresh.subgraph.edges(), reused.subgraph.edges());
  EXPECT_EQ(fresh.unreached_terminals, reused.unreached_terminals);
}

TEST(BatchSummarizerTest, ReusedContextMatchesFreshAcrossGraphsAndMethods) {
  // One context shared by every task on every graph — including shrinking
  // back to a smaller graph — must be indistinguishable from fresh calls.
  SummarizeContext shared;
  Rng rng(4242);
  const std::vector<std::pair<double, uint64_t>> graphs = {
      {0.02, 11}, {0.05, 12}, {0.02, 13}};
  const auto methods = MethodLineup();
  for (const auto& [scale, seed] : graphs) {
    const Fixture f = MakeFixture(scale, seed);
    const SharedCostViews views(f.rg);
    for (int task_idx = 0; task_idx < 4; ++task_idx) {
      const SummaryTask task = RandomTask(f.rg, 3 + 2 * task_idx, 4, &rng);
      for (const SummarizerOptions& options : methods) {
        const Result<Summary> fresh = Summarize(f.rg, task, options);
        const Result<Summary> reused =
            SummarizeWith(f.rg, task, options, shared, views);
        ASSERT_TRUE(fresh.ok()) << fresh.status();
        ASSERT_TRUE(reused.ok()) << reused.status();
        ExpectIdentical(*fresh, *reused);
      }
    }
  }
}

TEST(BatchSummarizerTest, SteinerWorkspaceReuseMatchesFreshIncludingInternals) {
  const Fixture f = MakeFixture(0.03, 21);
  graph::CostView costs;
  costs.Assign(f.rg.graph(), WeightsToCosts(f.rg.base_weights()));
  graph::SearchWorkspace reused;
  Rng rng(77);
  for (int round = 0; round < 5; ++round) {
    const SummaryTask task = RandomTask(f.rg, 4 + round, 0, &rng);
    for (auto variant : {SteinerOptions::Variant::kKmb,
                         SteinerOptions::Variant::kMehlhorn}) {
      SteinerOptions options;
      options.variant = variant;
      const auto fresh = SteinerTree(costs, task.terminals, options);
      const auto with_ws =
          SteinerTree(costs, task.terminals, options, &reused);
      ASSERT_TRUE(fresh.ok());
      ASSERT_TRUE(with_ws.ok());
      EXPECT_EQ(fresh->tree.nodes(), with_ws->tree.nodes());
      EXPECT_EQ(fresh->tree.edges(), with_ws->tree.edges());
      EXPECT_EQ(fresh->unreached_terminals, with_ws->unreached_terminals);
    }
  }
}

TEST(BatchSummarizerTest, PcstWorkspaceReuseMatchesFreshIncludingObjective) {
  const Fixture f = MakeFixture(0.03, 22);
  graph::CostView unit;
  unit.AssignUnit(f.rg.graph());
  graph::SearchWorkspace reused;
  Rng rng(78);
  for (int round = 0; round < 5; ++round) {
    const SummaryTask task = RandomTask(f.rg, 3 + 2 * round, 0, &rng);
    for (const bool strong_prune : {false, true}) {
      PcstOptions options;
      options.strong_prune = strong_prune;
      const auto fresh =
          PcstSummary(unit, f.rg.base_weights(), task.terminals, options);
      const auto with_ws = PcstSummary(unit, f.rg.base_weights(),
                                       task.terminals, options, &reused);
      ASSERT_TRUE(fresh.ok());
      ASSERT_TRUE(with_ws.ok());
      EXPECT_EQ(fresh->tree.nodes(), with_ws->tree.nodes());
      EXPECT_EQ(fresh->tree.edges(), with_ws->tree.edges());
      EXPECT_EQ(fresh->unreached_terminals, with_ws->unreached_terminals);
      EXPECT_EQ(fresh->objective, with_ws->objective);  // bit-identical
    }
  }
}

TEST(BatchSummarizerTest, RunAllPreservesTaskOrder) {
  const Fixture f = MakeFixture(0.03, 23);
  Rng rng(79);
  std::vector<SummaryTask> tasks;
  for (int i = 0; i < 8; ++i) tasks.push_back(RandomTask(f.rg, 4, 2, &rng));
  SummarizerOptions options;
  options.method = SummaryMethod::kSteiner;

  BatchSummarizer parallel_engine(f.rg, /*num_workers=*/4);
  const auto batched = parallel_engine.RunAll(tasks, options);
  ASSERT_EQ(batched.size(), tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    const Result<Summary> fresh = Summarize(f.rg, tasks[i], options);
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE(batched[i].ok()) << batched[i].status();
    ExpectIdentical(*fresh, *batched[i]);
    // RunAll slot i really answers tasks[i].
    EXPECT_EQ(batched[i]->terminals, tasks[i].terminals);
  }
}

TEST(BatchSummarizerTest, PropagatesErrorsPerTask) {
  const Fixture f = MakeFixture(0.02, 24);
  SummaryTask bad;
  bad.terminals = {static_cast<graph::NodeId>(f.rg.graph().num_nodes() + 7)};
  SummarizerOptions options;
  options.method = SummaryMethod::kPcst;
  BatchSummarizer engine(f.rg, 2);
  Rng rng(80);
  const std::vector<SummaryTask> tasks = {RandomTask(f.rg, 3, 0, &rng), bad};
  const auto results = engine.RunAll(tasks, options);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[1].status().IsInvalidArgument());
}

TEST(BatchSummarizerTest, WaveIsBitIdenticalToPerTaskRunsOnMixedTasks) {
  // RunWaveWith must return, slot for slot, exactly what RunWith returns:
  // summary bytes AND memory accounting. The mix matters — pathless KMB
  // tasks ride the shared wave searches, tasks with explanation paths get a
  // λ overlay (ineligible) and must take the per-task path inside the
  // same wave call without disturbing their neighbours.
  const Fixture f = MakeFixture(0.03, 25);
  Rng rng(81);
  SummarizerOptions options;
  options.method = SummaryMethod::kSteiner;
  options.steiner.variant = SteinerOptions::Variant::kKmb;
  options.lambda = 1.0;

  BatchSummarizer engine(f.rg, /*num_workers=*/2);
  for (int round = 0; round < 3; ++round) {
    std::vector<SummaryTask> tasks;
    for (int i = 0; i < 8; ++i) {
      // Even slots: kernel-eligible (no paths -> the Eq. (1) overlay is a
      // no-op). Odd slots: overlay tasks, per-task fallback.
      tasks.push_back(RandomTask(f.rg, 3 + i % 4, (i % 2) * 3, &rng));
    }
    std::vector<const SummaryTask*> ptrs;
    for (const SummaryTask& t : tasks) ptrs.push_back(&t);

    const auto wave = engine.RunWaveWith(0, ptrs, options);
    ASSERT_EQ(wave.size(), tasks.size());
    for (size_t i = 0; i < tasks.size(); ++i) {
      const auto solo = engine.RunWith(1, tasks[i], options);
      ASSERT_TRUE(solo.ok()) << solo.status();
      ASSERT_TRUE(wave[i].ok()) << wave[i].status();
      ExpectIdentical(*solo, *wave[i]);
      EXPECT_EQ(wave[i]->terminals, solo->terminals);
      EXPECT_EQ(wave[i]->anchors, solo->anchors);
      EXPECT_EQ(wave[i]->memory_bytes, solo->memory_bytes) << "slot " << i;
    }
  }
}

TEST(BatchSummarizerTest, SingleTaskWaveMatchesRunWith) {
  const Fixture f = MakeFixture(0.02, 26);
  Rng rng(82);
  SummarizerOptions options;
  options.method = SummaryMethod::kSteiner;
  options.steiner.variant = SteinerOptions::Variant::kKmb;
  const SummaryTask task = RandomTask(f.rg, 5, 0, &rng);
  BatchSummarizer engine(f.rg, 2);
  const auto wave = engine.RunWaveWith(0, {&task}, options);
  ASSERT_EQ(wave.size(), 1u);
  const auto solo = engine.RunWith(1, task, options);
  ASSERT_TRUE(wave[0].ok());
  ASSERT_TRUE(solo.ok());
  ExpectIdentical(*solo, *wave[0]);
  EXPECT_EQ(wave[0]->memory_bytes, solo->memory_bytes);
}

TEST(BatchSummarizerTest, WavePropagatesBadTaskWithoutPoisoningOthers) {
  const Fixture f = MakeFixture(0.02, 27);
  Rng rng(83);
  SummarizerOptions options;
  options.method = SummaryMethod::kSteiner;
  options.steiner.variant = SteinerOptions::Variant::kKmb;
  SummaryTask bad;
  bad.terminals = {static_cast<graph::NodeId>(f.rg.graph().num_nodes() + 7)};
  const SummaryTask good_a = RandomTask(f.rg, 4, 0, &rng);
  const SummaryTask good_b = RandomTask(f.rg, 3, 0, &rng);
  BatchSummarizer engine(f.rg, 1);
  const auto wave = engine.RunWaveWith(0, {&good_a, &bad, &good_b}, options);
  ASSERT_EQ(wave.size(), 3u);
  EXPECT_TRUE(wave[0].ok());
  EXPECT_FALSE(wave[1].ok());
  EXPECT_TRUE(wave[2].ok());
  const auto solo = engine.RunWith(0, good_b, options);
  ASSERT_TRUE(solo.ok());
  ExpectIdentical(*solo, *wave[2]);
}

}  // namespace
}  // namespace xsum::core
