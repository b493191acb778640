/// One telemetry source: every service counter lives once, in the
/// service's `obs::Registry`, so the typed view (`Stats()`), the
/// mergeable snapshot (`Metrics()`) and the `/stats` document must agree
/// on every counter after traffic that exercises each path — a cache hit,
/// a coalesced follower, a micro-batching wave, an error, and a cache
/// rejection.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/summarizer.h"
#include "eval/experiment.h"
#include "eval/runner.h"
#include "net/json.h"
#include "obs/metrics.h"
#include "service/handler.h"
#include "service/service.h"
#include "service/snapshot_registry.h"
#include "service/summary_cache.h"

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

core::SummarizerOptions SteinerOptions(core::SteinerOptions::Variant variant) {
  core::SummarizerOptions options;
  options.method = core::SummaryMethod::kSteiner;
  options.steiner.variant = variant;
  return options;
}

uint64_t CounterOf(const obs::MetricsSnapshot& snapshot,
                   const std::string& name) {
  const auto it = snapshot.counters.find(name);
  if (it == snapshot.counters.end()) {
    ADD_FAILURE() << "Metrics() exports no counter " << name;
    return UINT64_MAX;
  }
  return it->second;
}

int64_t GaugeOf(const obs::MetricsSnapshot& snapshot,
                const std::string& name) {
  const auto it = snapshot.gauges.find(name);
  if (it == snapshot.gauges.end()) {
    ADD_FAILURE() << "Metrics() exports no gauge " << name;
    return INT64_MIN;
  }
  return it->second;
}

int64_t IntOf(const net::JsonValue& object, const std::string& name) {
  const net::JsonValue* value = object.Find(name);
  if (value == nullptr || !value->is_int()) {
    ADD_FAILURE() << "/stats has no integer " << name;
    return INT64_MIN;
  }
  return value->AsInt();
}

TEST(TelemetryTest, StatsMetricsAndStatsDocumentAgreeOnEveryCounter) {
  eval::ExperimentRunner runner(TinyConfig());
  ASSERT_TRUE(runner.Init().ok());
  const auto data = runner.ComputeBaseline(rec::RecommenderKind::kPgpr);
  ASSERT_TRUE(data.ok()) << data.status();
  ASSERT_GE(data->users.size(), 2u);
  const auto& rec_graph = runner.rec_graph();

  const core::SummarizerOptions kmb =
      SteinerOptions(core::SteinerOptions::Variant::kKmb);
  const core::SummarizerOptions mehlhorn =
      SteinerOptions(core::SteinerOptions::Variant::kMehlhorn);
  const core::SummaryTask x =
      core::MakeUserCentricTask(rec_graph, data->users[0], 1);
  const core::SummaryTask y =
      core::MakeUserCentricTask(rec_graph, data->users[1], 1);
  core::SummaryTask bad;
  bad.terminals = {
      static_cast<graph::NodeId>(rec_graph.graph().num_nodes() + 7)};

  auto footprint = [&](const core::SummaryTask& task,
                       const core::SummarizerOptions& options) -> size_t {
    const auto summary = core::Summarize(rec_graph, task, options);
    EXPECT_TRUE(summary.ok()) << summary.status();
    return summary.ok() ? SummaryFootprintBytes(*summary) : 0;
  };
  // The largest group summary sets the one-shard cache budget: its own
  // entry (summary plus bookkeeping) exceeds it and is rejected, while a
  // small summary's entry fits.
  core::SummaryTask big;
  size_t budget = 0;
  std::vector<core::SummaryTask> groups;
  for (const auto& group : data->user_groups) {
    groups.push_back(core::MakeUserGroupTask(rec_graph, group, 5));
  }
  for (const auto& group : data->item_groups) {
    groups.push_back(core::MakeItemGroupTask(rec_graph, group, 5));
  }
  for (const core::SummaryTask& task : groups) {
    if (const size_t bytes = footprint(task, mehlhorn); bytes > budget) {
      big = task;
      budget = bytes;
    }
  }
  ASSERT_GE(budget, std::max(footprint(x, kmb), footprint(y, kmb)) + 128)
      << "the fixture needs a summary much larger than the small ones";

  GraphSnapshotRegistry registry;
  registry.Publish(GraphSnapshotRegistry::Alias(rec_graph));
  ServiceOptions options;
  options.num_workers = 2;
  options.batch_window_us = 5'000'000;  // closed by batch_max, not time
  options.batch_max = 2;
  options.cache.max_bytes = budget;
  options.cache.num_shards = 1;
  SummaryService service(&registry, options);

  // Two identical misses: one leads the flight and opens a batching
  // window, the other coalesces onto that flight.
  std::vector<std::thread> twins;
  for (int i = 0; i < 2; ++i) {
    twins.emplace_back([&] { EXPECT_TRUE(service.Summarize(x, kmb).ok()); });
  }
  while (service.cache_stats().misses < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // A distinct miss joins the open window and fills it: one wave of two.
  ASSERT_TRUE(service.Summarize(y, kmb).ok());
  for (std::thread& t : twins) t.join();
  ASSERT_TRUE(service.Summarize(x, kmb).ok());  // cache hit
  ASSERT_TRUE(service.Summarize(big, mehlhorn).ok());  // insert rejected
  core::SummarizerOptions pcst;
  pcst.method = core::SummaryMethod::kPcst;
  EXPECT_FALSE(service.Summarize(bad, pcst).ok());  // error

  const ServiceStats stats = service.Stats();
  ASSERT_EQ(stats.requests, 6u);
  ASSERT_EQ(stats.coalesced, 1u);
  ASSERT_EQ(stats.batch_waves, 1u);
  ASSERT_EQ(stats.batch_requests, 2u);
  ASSERT_EQ(stats.errors, 1u);
  ASSERT_GE(stats.cache.hits, 1u);
  ASSERT_GE(stats.cache.rejected, 1u);

  const obs::MetricsSnapshot metrics = service.Metrics();
  EXPECT_EQ(CounterOf(metrics, "service_requests"), stats.requests);
  EXPECT_EQ(CounterOf(metrics, "service_computed"), stats.computed);
  EXPECT_EQ(CounterOf(metrics, "service_incremental"), stats.incremental);
  EXPECT_EQ(CounterOf(metrics, "service_coalesced"), stats.coalesced);
  EXPECT_EQ(CounterOf(metrics, "service_errors"), stats.errors);
  EXPECT_EQ(CounterOf(metrics, "service_snapshot_swaps"),
            stats.snapshot_swaps);
  EXPECT_EQ(CounterOf(metrics, "service_chains_imported"),
            stats.chains_imported);
  EXPECT_EQ(CounterOf(metrics, "service_batch_waves"), stats.batch_waves);
  EXPECT_EQ(CounterOf(metrics, "service_batch_requests"),
            stats.batch_requests);
  EXPECT_EQ(GaugeOf(metrics, "service_in_flight"), stats.in_flight);
  EXPECT_EQ(GaugeOf(metrics, "service_snapshot_version"),
            static_cast<int64_t>(stats.snapshot_version));
  EXPECT_EQ(CounterOf(metrics, "cache_hits"), stats.cache.hits);
  EXPECT_EQ(CounterOf(metrics, "cache_misses"), stats.cache.misses);
  EXPECT_EQ(CounterOf(metrics, "cache_insertions"), stats.cache.insertions);
  EXPECT_EQ(CounterOf(metrics, "cache_evictions"), stats.cache.evictions);
  EXPECT_EQ(CounterOf(metrics, "cache_rejected"), stats.cache.rejected);
  EXPECT_EQ(GaugeOf(metrics, "cache_entries"),
            static_cast<int64_t>(stats.cache.entries));
  EXPECT_EQ(GaugeOf(metrics, "cache_bytes"),
            static_cast<int64_t>(stats.cache.bytes));
  EXPECT_EQ(GaugeOf(metrics, "cache_max_bytes"),
            static_cast<int64_t>(stats.cache.max_bytes));

  TaskCatalog catalog;
  SummaryHandler handler(&service, &catalog);
  net::HttpRequest request;
  request.method = "GET";
  request.target = "/stats";
  const auto json = net::ParseJson(handler.Handle(request).body);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  const auto as_int = [](uint64_t v) { return static_cast<int64_t>(v); };
  EXPECT_EQ(IntOf(*json, "requests"), as_int(stats.requests));
  EXPECT_EQ(IntOf(*json, "computed"), as_int(stats.computed));
  EXPECT_EQ(IntOf(*json, "incremental"), as_int(stats.incremental));
  EXPECT_EQ(IntOf(*json, "coalesced"), as_int(stats.coalesced));
  EXPECT_EQ(IntOf(*json, "errors"), as_int(stats.errors));
  EXPECT_EQ(IntOf(*json, "snapshot_swaps"), as_int(stats.snapshot_swaps));
  EXPECT_EQ(IntOf(*json, "chains_imported"), as_int(stats.chains_imported));
  EXPECT_EQ(IntOf(*json, "batch_waves"), as_int(stats.batch_waves));
  EXPECT_EQ(IntOf(*json, "batch_requests"), as_int(stats.batch_requests));
  const net::JsonValue* cache = json->Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(IntOf(*cache, "hits"), as_int(stats.cache.hits));
  EXPECT_EQ(IntOf(*cache, "misses"), as_int(stats.cache.misses));
  EXPECT_EQ(IntOf(*cache, "insertions"), as_int(stats.cache.insertions));
  EXPECT_EQ(IntOf(*cache, "evictions"), as_int(stats.cache.evictions));
  EXPECT_EQ(IntOf(*cache, "rejected"), as_int(stats.cache.rejected));
}

}  // namespace
}  // namespace xsum::service
