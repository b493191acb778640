/// Tests of the memoized evaluation on the warm-hit path: a cache record
/// computes its §V-B metric values at most once, only when the handler's
/// eval is on, and the `/evalstats` state a handler folds from memoized
/// values is `operator==` to evaluating every served summary afresh,
/// including across a snapshot-version skip; wave members are answered
/// with the record their leader cached.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/summarizer.h"
#include "eval/eval_stats.h"
#include "eval/experiment.h"
#include "eval/runner.h"
#include "service/handler.h"
#include "service/snapshot_registry.h"

namespace xsum::service {
namespace {

eval::ExperimentConfig TinyConfig() {
  eval::ExperimentConfig config;
  config.scale = 0.02;
  config.users_per_gender = 3;
  config.items_popular = 3;
  config.items_unpopular = 3;
  return config;
}

class WarmHitEvalTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    runner_ = new eval::ExperimentRunner(TinyConfig());
    ASSERT_TRUE(runner_->Init().ok());
    auto data = runner_->ComputeBaseline(rec::RecommenderKind::kPgpr);
    ASSERT_TRUE(data.ok()) << data.status();
    ASSERT_GE(data->users.size(), 2u);
    catalog_ = new TaskCatalog();
    for (const core::UserRecs& ur : data->users) {
      catalog_->AddUserCentric(runner_->rec_graph(), ur, 4);
    }
  }

  static void TearDownTestSuite() {
    delete catalog_;
    delete runner_;
    catalog_ = nullptr;
    runner_ = nullptr;
  }

  static const data::RecGraph& Graph() { return runner_->rec_graph(); }

  /// The distinct units of the catalog, in insertion order.
  static std::vector<uint32_t> Units(size_t max_units) {
    std::vector<uint32_t> units;
    for (const auto& entry : catalog_->entries()) {
      if (units.empty() || units.back() != entry.unit) {
        units.push_back(entry.unit);
      }
    }
    if (units.size() > max_units) units.resize(max_units);
    return units;
  }

  static SummaryRequest Request(uint32_t unit, int k,
                                core::SummaryMethod method) {
    SummaryRequest request;
    request.unit = unit;
    request.k = k;
    request.method = method;
    return request;
  }

  static const core::SummaryTask& TaskOf(const SummaryRequest& request) {
    const core::SummaryTask* task =
        catalog_->Find(request.scenario, request.unit, request.k);
    EXPECT_NE(task, nullptr);
    return *task;
  }

  /// A from-scratch summary of \p request (no service, no cache).
  static core::Summary Fresh(const SummaryRequest& request) {
    auto summary =
        core::Summarize(Graph(), TaskOf(request), RequestOptions(request));
    EXPECT_TRUE(summary.ok()) << summary.status();
    return summary.ok() ? *std::move(summary) : core::Summary{};
  }

  static eval::ExperimentRunner* runner_;
  static TaskCatalog* catalog_;
};

eval::ExperimentRunner* WarmHitEvalTest::runner_ = nullptr;
TaskCatalog* WarmHitEvalTest::catalog_ = nullptr;

TEST_F(WarmHitEvalTest, FoldedStatsEqualFreshEvaluationAcrossHitsMissAndSkip) {
  // A registry local to the test: it publishes a second version
  // mid-stream to force the handler's snapshot-version skip.
  GraphSnapshotRegistry registry;
  registry.Publish(GraphSnapshotRegistry::Alias(Graph()));
  // A KMB miss with no partner waits out the batching window before it
  // computes. The test publishes version 2 inside that window, after the
  // request pinned version 1 (its cache lookup under a version-1 key has
  // counted a miss), so the request answers a version-1 body and the
  // fold counts a skip. The window only has to outlast that publish.
  ServiceOptions options;
  options.batch_window_us = 2'000'000;
  options.batch_max = 2;
  SummaryService service(&registry, options);
  SummaryHandler handler(&service, catalog_);
  eval::EvalAccumulator expected;

  const std::vector<uint32_t> units = Units(3);
  ASSERT_GE(units.size(), 2u);
  SummaryRequest kmb = Request(units[0], 2, core::SummaryMethod::kSteiner);
  kmb.variant = core::SteinerOptions::Variant::kKmb;
  net::HttpResponse raced;
  std::thread racer([&] { raced = handler.Summarize(kmb); });
  while (service.cache_stats().misses < 1) std::this_thread::yield();
  ASSERT_EQ(registry.Publish(GraphSnapshotRegistry::Alias(Graph())), 2u);
  racer.join();
  ASSERT_EQ(raced.status, 200) << raced.body;
  EXPECT_EQ(raced.body, SummaryToJson(Fresh(kmb), 1));
  expected.RecordSkipped();

  // Phase 2 on version 2: each request misses once, then hits twice.
  // (Mehlhorn ST and PCST only: a lone KMB miss would wait out the
  // window.)
  std::vector<SummaryRequest> stream;
  for (const uint32_t unit : units) {
    for (int k = 1; k <= 3; ++k) {
      stream.push_back(Request(unit, k, core::SummaryMethod::kSteiner));
      stream.push_back(Request(unit, k, core::SummaryMethod::kPcst));
    }
  }
  for (int round = 0; round < 3; ++round) {
    for (const SummaryRequest& request : stream) {
      const net::HttpResponse response = handler.Summarize(request);
      ASSERT_EQ(response.status, 200) << response.body;
      const core::Summary fresh = Fresh(request);
      EXPECT_EQ(response.body, SummaryToJson(fresh, 2));
      expected.RecordSummary(Graph(), fresh);
    }
  }
  ASSERT_GT(service.cache_stats().hits, 0u);

  const eval::EvalStatsSnapshot folded = handler.EvalSnapshot();
  EXPECT_EQ(folded.skipped, 1u);
  EXPECT_EQ(folded.summaries, 3 * stream.size());
  EXPECT_EQ(folded, expected.Snapshot());

  // Every version-2 record was evaluated exactly once, however often it
  // was served.
  for (const SummaryRequest& request : stream) {
    const auto record =
        service.SummarizeRecord(TaskOf(request), RequestOptions(request));
    ASSERT_TRUE(record.ok()) << record.status();
    EXPECT_EQ((*record)->metric_computations(), 1u);
  }
}

TEST_F(WarmHitEvalTest, EvalOffNeverComputesRecordMetrics) {
  GraphSnapshotRegistry registry;
  registry.Publish(GraphSnapshotRegistry::Alias(Graph()));
  SummaryService service(&registry);
  SummaryHandler handler(&service, catalog_);
  handler.set_eval_enabled(false);

  std::vector<SummaryRequest> stream;
  for (const uint32_t unit : Units(2)) {
    stream.push_back(Request(unit, 2, core::SummaryMethod::kSteiner));
    stream.push_back(Request(unit, 2, core::SummaryMethod::kPcst));
  }
  for (int round = 0; round < 2; ++round) {
    for (const SummaryRequest& request : stream) {
      ASSERT_EQ(handler.Summarize(request).status, 200);
    }
  }
  std::vector<std::shared_ptr<const SummaryRecord>> records;
  for (const SummaryRequest& request : stream) {
    const auto record =
        service.SummarizeRecord(TaskOf(request), RequestOptions(request));
    ASSERT_TRUE(record.ok()) << record.status();
    EXPECT_EQ((*record)->metric_computations(), 0u);
    records.push_back(*record);
  }
  EXPECT_EQ(handler.EvalSnapshot(), eval::EvalStatsSnapshot{});

  // Turning eval on computes each record's values on its next answer.
  handler.set_eval_enabled(true);
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(handler.Summarize(stream[i]).status, 200);
    EXPECT_EQ(records[i]->metric_computations(), 1u);
  }
  EXPECT_EQ(handler.EvalSnapshot().summaries, stream.size());
}

TEST_F(WarmHitEvalTest, ConcurrentFirstHitsComputeTheValuesOnce) {
  GraphSnapshotRegistry registry;
  registry.Publish(GraphSnapshotRegistry::Alias(Graph()));
  SummaryService service(&registry);
  SummaryHandler handler(&service, catalog_);
  const SummaryRequest request =
      Request(Units(1).front(), 4, core::SummaryMethod::kPcst);

  // Cache the record without evaluating it (the service never does).
  const auto cached =
      service.SummarizeRecord(TaskOf(request), RequestOptions(request));
  ASSERT_TRUE(cached.ok()) << cached.status();
  ASSERT_EQ((*cached)->metric_computations(), 0u);

  constexpr int kThreads = 8;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  std::vector<int> statuses(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      statuses[t] = handler.Summarize(request).status;
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  for (const int status : statuses) EXPECT_EQ(status, 200);

  EXPECT_EQ((*cached)->metric_computations(), 1u);
  EXPECT_EQ(service.cache_stats().hits, static_cast<uint64_t>(kThreads));
  eval::EvalAccumulator expected;
  const core::Summary fresh = Fresh(request);
  for (int t = 0; t < kThreads; ++t) expected.RecordSummary(Graph(), fresh);
  EXPECT_EQ(handler.EvalSnapshot(), expected.Snapshot());
}

TEST_F(WarmHitEvalTest, WaveMembersAreAnsweredWithTheCachedRecord) {
  GraphSnapshotRegistry registry;
  registry.Publish(GraphSnapshotRegistry::Alias(Graph()));
  ServiceOptions options;
  options.num_workers = 2;
  options.batch_window_us = 30'000'000;  // closed by batch_max, not time
  options.batch_max = 2;
  SummaryService service(&registry, options);

  const std::vector<uint32_t> units = Units(2);
  ASSERT_EQ(units.size(), 2u);
  core::SummarizerOptions kmb;
  kmb.steiner.variant = core::SteinerOptions::Variant::kKmb;
  const core::SummaryTask& x =
      TaskOf(Request(units[0], 3, core::SummaryMethod::kSteiner));
  const core::SummaryTask& y =
      TaskOf(Request(units[1], 3, core::SummaryMethod::kSteiner));

  // Two distinct misses meet in one window (whichever opens it waits for
  // the other), so one of them is answered as a wave member.
  std::shared_ptr<const SummaryRecord> first;
  std::thread opener([&] {
    const auto record = service.SummarizeRecord(x, kmb);
    ASSERT_TRUE(record.ok()) << record.status();
    first = *record;
  });
  while (service.cache_stats().misses < 1) std::this_thread::yield();
  const auto second = service.SummarizeRecord(y, kmb);
  ASSERT_TRUE(second.ok()) << second.status();
  opener.join();
  ASSERT_EQ(service.Stats().batch_waves, 1u);

  // The cache holds exactly the records the requests were answered with.
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(*service.SummarizeRecord(x, kmb), first);
  EXPECT_EQ(*service.SummarizeRecord(y, kmb), *second);
  // The summary-returning entry aliases the same record.
  const auto summary = service.Summarize(x, kmb);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->get(), &first->summary());
}

}  // namespace
}  // namespace xsum::service
