/// Tests of the service's opt-in micro-batching window: with
/// `batch_window_us` set, concurrent cache-miss requests that share a
/// snapshot and options must coalesce into one KMB wave —
/// and every response must stay byte-identical to the unbatched path,
/// including windows that expire empty (occupancy 1) and option mixes the
/// wave kernel cannot serve.

#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/summarizer.h"
#include "eval/experiment.h"
#include "eval/runner.h"
#include "service/service.h"
#include "service/snapshot_registry.h"

namespace xsum::service {
namespace {

eval::ExperimentConfig TinyConfig() {
  eval::ExperimentConfig config;
  config.scale = 0.02;
  config.users_per_gender = 4;
  config.items_popular = 3;
  config.items_unpopular = 3;
  config.user_group_size = 4;
  config.item_group_size = 3;
  config.ks = {1, 3, 5};
  return config;
}

void ExpectIdentical(const core::Summary& a, const core::Summary& b) {
  EXPECT_EQ(a.subgraph.nodes(), b.subgraph.nodes());
  EXPECT_EQ(a.subgraph.edges(), b.subgraph.edges());
  EXPECT_EQ(a.unreached_terminals, b.unreached_terminals);
  EXPECT_EQ(a.terminals, b.terminals);
  EXPECT_EQ(a.anchors, b.anchors);
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.scenario, b.scenario);
}

struct Harness {
  std::unique_ptr<eval::ExperimentRunner> runner;
  eval::BaselineData data;
  GraphSnapshotRegistry registry;

  Harness() {
    runner = std::make_unique<eval::ExperimentRunner>(TinyConfig());
    EXPECT_TRUE(runner->Init().ok());
    auto baseline = runner->ComputeBaseline(rec::RecommenderKind::kPgpr);
    EXPECT_TRUE(baseline.ok()) << baseline.status();
    data = std::move(*baseline);
    registry.Publish(GraphSnapshotRegistry::Alias(runner->rec_graph()));
  }

  /// Distinct cache keys sharing one option set: user × k combinations.
  std::vector<core::SummaryTask> DistinctTasks(size_t count) const {
    std::vector<core::SummaryTask> tasks;
    const auto& users = data.users;
    for (size_t i = 0; i < count; ++i) {
      tasks.push_back(core::MakeUserCentricTask(
          runner->rec_graph(), users[i % users.size()],
          1 + static_cast<int>(i / users.size())));
    }
    return tasks;
  }
};

core::SummarizerOptions KmbOptions() {
  core::SummarizerOptions st;
  st.method = core::SummaryMethod::kSteiner;
  st.steiner.variant = core::SteinerOptions::Variant::kKmb;
  return st;
}

TEST(BatchWindowTest, SequentialRequestsStayByteIdenticalWithWindowOn) {
  // Sequential traffic means every window expires empty (occupancy 1) and
  // must fall through to the plain compute path: responses identical to a
  // no-window service and to fresh engine calls.
  Harness h;
  ServiceOptions plain_options;
  plain_options.num_workers = 2;
  SummaryService plain(&h.registry, plain_options);
  ServiceOptions batched_options;
  batched_options.num_workers = 2;
  batched_options.batch_window_us = 500;
  batched_options.batch_max = 4;
  SummaryService batched(&h.registry, batched_options);

  const auto options = KmbOptions();
  for (const core::SummaryTask& task : h.DistinctTasks(8)) {
    const auto a = plain.Summarize(task, options);
    const auto b = batched.Summarize(task, options);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    ExpectIdentical(**a, **b);
    const auto fresh = core::Summarize(h.runner->rec_graph(), task, options);
    ASSERT_TRUE(fresh.ok());
    ExpectIdentical(*fresh, **b);
  }
  // No concurrent misses -> no waves, but every request went through the
  // window machinery without dropping a response.
  const ServiceStats stats = batched.Stats();
  EXPECT_EQ(stats.requests, 8u);
  EXPECT_EQ(stats.computed, 8u);
  EXPECT_EQ(stats.batch_waves, 0u);
  EXPECT_EQ(stats.batch_requests, 0u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(BatchWindowTest, ConcurrentDistinctMissesCoalesceIntoWaves) {
  Harness h;
  constexpr size_t kThreads = 6;
  ServiceOptions options;
  options.num_workers = 2;
  options.batch_window_us = 200000;  // generous: batch_max closes it early
  options.batch_max = kThreads;
  SummaryService service(&h.registry, options);

  const auto kmb = KmbOptions();
  const std::vector<core::SummaryTask> tasks = h.DistinctTasks(kThreads);
  std::vector<std::shared_ptr<const core::Summary>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto result = service.Summarize(tasks[t], kmb);
      ASSERT_TRUE(result.ok()) << result.status();
      results[t] = *result;
    });
  }
  for (std::thread& t : threads) t.join();

  // Every response is byte-identical to a fresh engine run of its own
  // task, no matter which wave (or solo fallback) served it.
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_NE(results[t], nullptr);
    const auto fresh =
        core::Summarize(h.runner->rec_graph(), tasks[t], kmb);
    ASSERT_TRUE(fresh.ok());
    ExpectIdentical(*fresh, *results[t]);
  }
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests, kThreads);
  EXPECT_EQ(stats.computed, kThreads);  // distinct tasks: no coalescing
  EXPECT_EQ(stats.errors, 0u);
  // All threads raced the same window; at least one wave must have formed
  // and every wave request is accounted.
  EXPECT_GE(stats.batch_waves, 1u);
  EXPECT_GE(stats.batch_requests, 2u);
  EXPECT_LE(stats.batch_requests, kThreads);

  // Repeats are pure cache hits: the wave inserted every member's result.
  for (size_t t = 0; t < kThreads; ++t) {
    const auto repeat = service.Summarize(tasks[t], kmb);
    ASSERT_TRUE(repeat.ok());
    EXPECT_EQ(repeat->get(), results[t].get());
  }
}

TEST(BatchWindowTest, IneligibleMethodBypassesTheWindow) {
  // PCST requests must never enter the wave path even with the window on.
  Harness h;
  ServiceOptions options;
  options.num_workers = 2;
  options.batch_window_us = 1000;
  SummaryService service(&h.registry, options);
  core::SummarizerOptions pcst;
  pcst.method = core::SummaryMethod::kPcst;
  for (const core::SummaryTask& task : h.DistinctTasks(4)) {
    const auto result = service.Summarize(task, pcst);
    ASSERT_TRUE(result.ok()) << result.status();
    const auto fresh = core::Summarize(h.runner->rec_graph(), task, pcst);
    ASSERT_TRUE(fresh.ok());
    ExpectIdentical(*fresh, **result);
  }
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.batch_waves, 0u);
  EXPECT_EQ(stats.batch_requests, 0u);
  EXPECT_EQ(stats.computed, 4u);
}

TEST(BatchWindowTest, BatchMaxTwoServesManyConcurrentMissesCorrectly) {
  // A tiny batch_max under heavy concurrency: windows close early at two
  // members, later misses open fresh windows. Correctness must not depend
  // on how the requests landed in waves.
  Harness h;
  constexpr size_t kThreads = 8;
  ServiceOptions options;
  options.num_workers = 2;
  options.batch_window_us = 20000;
  options.batch_max = 2;
  SummaryService service(&h.registry, options);

  const auto kmb = KmbOptions();
  const std::vector<core::SummaryTask> tasks = h.DistinctTasks(kThreads);
  std::vector<std::shared_ptr<const core::Summary>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto result = service.Summarize(tasks[t], kmb);
      ASSERT_TRUE(result.ok()) << result.status();
      results[t] = *result;
    });
  }
  for (std::thread& t : threads) t.join();

  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_NE(results[t], nullptr);
    const auto fresh =
        core::Summarize(h.runner->rec_graph(), tasks[t], kmb);
    ASSERT_TRUE(fresh.ok());
    ExpectIdentical(*fresh, *results[t]);
  }
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests, kThreads);
  EXPECT_EQ(stats.computed, kThreads);
  EXPECT_EQ(stats.errors, 0u);
  // batch_max bounds every wave's size.
  if (stats.batch_waves > 0) {
    EXPECT_LE(stats.batch_requests, stats.batch_waves * 2);
  }
}

}  // namespace
}  // namespace xsum::service
