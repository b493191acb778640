/// End-to-end tests of the fleet self-evaluation surface: a shard's
/// `GET /evalstats` exposes its accumulator losslessly, partitioning a
/// real request stream across shard handlers merges bit-identically to
/// one process serving everything, and — over real loopback servers —
/// the router's fleet-merged `/evalstats` equals both the exact sum of
/// the per-shard scrapes and the single-process reference. This is the
/// distributed-evaluation acceptance property of the replay PR.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "eval/eval_stats.h"
#include "eval/experiment.h"
#include "eval/runner.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "service/handler.h"
#include "service/shard_router.h"
#include "service/snapshot_registry.h"

namespace xsum::service {
namespace {

eval::ExperimentConfig TinyConfig() {
  eval::ExperimentConfig config;
  config.scale = 0.02;
  config.users_per_gender = 3;
  config.items_popular = 3;
  config.items_unpopular = 3;
  config.ks = {1, 3, 5};
  return config;
}

/// One in-process shard over the shared registry/catalog.
struct Shard {
  std::unique_ptr<SummaryService> service;
  std::unique_ptr<SummaryHandler> handler;
  std::unique_ptr<net::HttpServer> server;

  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(server->port());
  }
};

class EvalStatsEndpointTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    runner_ = new eval::ExperimentRunner(TinyConfig());
    ASSERT_TRUE(runner_->Init().ok());
    auto data = runner_->ComputeBaseline(rec::RecommenderKind::kPgpr);
    ASSERT_TRUE(data.ok()) << data.status();
    catalog_ = new TaskCatalog();
    for (const core::UserRecs& ur : data->users) {
      catalog_->AddUserCentric(runner_->rec_graph(), ur, 5);
    }
    registry_ = new GraphSnapshotRegistry();
    registry_->Publish(GraphSnapshotRegistry::Alias(runner_->rec_graph()));
  }

  static void TearDownTestSuite() {
    delete catalog_;
    delete registry_;
    delete runner_;
    catalog_ = nullptr;
    registry_ = nullptr;
    runner_ = nullptr;
  }

  static std::unique_ptr<Shard> StartShard() {
    auto shard = std::make_unique<Shard>();
    shard->service = std::make_unique<SummaryService>(registry_);
    shard->handler =
        std::make_unique<SummaryHandler>(shard->service.get(), catalog_);
    net::HttpServer::Options options;
    options.num_workers = 2;
    SummaryHandler* handler = shard->handler.get();
    shard->server = std::make_unique<net::HttpServer>(
        [handler](const net::HttpRequest& request) {
          return handler->Handle(request);
        },
        options);
    EXPECT_TRUE(shard->server->Start().ok());
    return shard;
  }

  /// A mixed request stream: several units, chained ks, both methods —
  /// enough variety that every metric and both group axes move.
  static std::vector<SummaryRequest> Stream() {
    std::vector<SummaryRequest> requests;
    std::vector<uint32_t> units;
    for (const auto& entry : catalog_->entries()) {
      if (units.empty() || units.back() != entry.unit) {
        units.push_back(entry.unit);
      }
    }
    units.resize(std::min<size_t>(units.size(), 4));
    for (const uint32_t unit : units) {
      for (int k = 1; k <= 4; ++k) {
        SummaryRequest request;
        request.unit = unit;
        request.k = k;
        requests.push_back(request);
        request.method = core::SummaryMethod::kPcst;
        requests.push_back(request);
      }
    }
    return requests;
  }

  static eval::EvalStatsSnapshot ScrapeEvalStats(uint16_t port) {
    const auto response =
        net::HttpFetch("127.0.0.1", port, "GET", "/evalstats");
    EXPECT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->status, 200);
    const auto json = net::ParseJson(response->body);
    EXPECT_TRUE(json.ok()) << json.status().ToString();
    const auto snapshot = eval::EvalStatsSnapshotFromJson(*json);
    EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    return snapshot.ok() ? *snapshot : eval::EvalStatsSnapshot{};
  }

  static eval::ExperimentRunner* runner_;
  static TaskCatalog* catalog_;
  static GraphSnapshotRegistry* registry_;
};

eval::ExperimentRunner* EvalStatsEndpointTest::runner_ = nullptr;
TaskCatalog* EvalStatsEndpointTest::catalog_ = nullptr;
GraphSnapshotRegistry* EvalStatsEndpointTest::registry_ = nullptr;

TEST_F(EvalStatsEndpointTest, EndpointExposesTheAccumulatorLosslessly) {
  SummaryService service(registry_);
  SummaryHandler handler(&service, catalog_);
  const std::vector<SummaryRequest> stream = Stream();
  for (const SummaryRequest& request : stream) {
    ASSERT_EQ(handler.Summarize(request).status, 200);
  }

  net::HttpRequest get;
  get.method = "GET";
  get.target = "/evalstats";
  const net::HttpResponse response = handler.Handle(get);
  ASSERT_EQ(response.status, 200) << response.body;
  const auto json = net::ParseJson(response.body);
  ASSERT_TRUE(json.ok());
  const auto scraped = eval::EvalStatsSnapshotFromJson(*json);
  ASSERT_TRUE(scraped.ok()) << scraped.status().ToString();

  // The wire form reloads to exactly the in-memory snapshot: the scrape
  // loses nothing a merge would need.
  EXPECT_EQ(*scraped, handler.EvalSnapshot());
  EXPECT_EQ(scraped->summaries, stream.size());
  EXPECT_EQ(scraped->skipped, 0u);
  EXPECT_EQ(scraped->metrics.size(), eval::MetricNames().size());
  for (const std::string& name : eval::MetricNames()) {
    EXPECT_EQ(scraped->metrics.at(name).count, stream.size()) << name;
  }
  // Both fairness axes populated: methods and scenarios.
  EXPECT_TRUE(scraped->groups.count("method:ST"));
  EXPECT_TRUE(scraped->groups.count("method:PCST"));
  EXPECT_TRUE(scraped->groups.count("scenario:user-centric"));

  // POST is rejected; the endpoint is a read surface.
  net::HttpRequest post = get;
  post.method = "POST";
  EXPECT_EQ(handler.Handle(post).status, 405);
}

TEST_F(EvalStatsEndpointTest, DisablingEvalStopsAccumulation) {
  SummaryService service(registry_);
  SummaryHandler handler(&service, catalog_);
  handler.set_eval_enabled(false);
  SummaryRequest request;
  request.unit = catalog_->entries().front().unit;
  request.k = 2;
  ASSERT_EQ(handler.Summarize(request).status, 200);
  const eval::EvalStatsSnapshot snapshot = handler.EvalSnapshot();
  EXPECT_EQ(snapshot.summaries, 0u);
  EXPECT_TRUE(snapshot.metrics.empty());

  handler.set_eval_enabled(true);
  ASSERT_EQ(handler.Summarize(request).status, 200);
  EXPECT_EQ(handler.EvalSnapshot().summaries, 1u);
}

TEST_F(EvalStatsEndpointTest, ShardSplitOfARealStreamMergesBitIdentically) {
  // One process serving the whole stream vs the stream partitioned
  // across 2..4 independent serving handlers: the merged sufficient
  // statistics must be equal via operator== — raw integer limb state,
  // i.e. bit identity, the property that makes /evalstats trustworthy.
  const std::vector<SummaryRequest> stream = Stream();

  SummaryService reference_service(registry_);
  SummaryHandler reference(&reference_service, catalog_);
  for (const SummaryRequest& request : stream) {
    ASSERT_EQ(reference.Summarize(request).status, 200);
  }
  const eval::EvalStatsSnapshot expected = reference.EvalSnapshot();
  ASSERT_EQ(expected.summaries, stream.size());

  for (size_t shards = 2; shards <= 4; ++shards) {
    std::vector<std::unique_ptr<SummaryService>> services;
    std::vector<std::unique_ptr<SummaryHandler>> handlers;
    for (size_t s = 0; s < shards; ++s) {
      services.push_back(std::make_unique<SummaryService>(registry_));
      handlers.push_back(
          std::make_unique<SummaryHandler>(services.back().get(), catalog_));
    }
    for (size_t i = 0; i < stream.size(); ++i) {
      ASSERT_EQ(handlers[i % shards]->Summarize(stream[i]).status, 200);
    }
    eval::EvalStatsSnapshot merged;
    for (const auto& handler : handlers) {
      merged += handler->EvalSnapshot();
    }
    EXPECT_EQ(merged, expected) << shards << " shards";
  }
}

TEST_F(EvalStatsEndpointTest,
       RouterMergedStatsEqualShardSumAndSingleProcessExactly) {
  auto shard_a = StartShard();
  auto shard_b = StartShard();
  ShardRouter::Options options;
  options.endpoints = {shard_a->endpoint(), shard_b->endpoint()};
  options.hedge = false;  // each request served exactly once
  options.health_probes = false;
  ShardRouter router(nullptr, options);

  // The single-process reference for the same stream.
  SummaryService reference_service(registry_);
  SummaryHandler reference(&reference_service, catalog_);

  // The ring hashes the shards' ephemeral-port labels, so the short
  // stream's chains can all home on one shard. Extend it, by the
  // router's own placement, until every shard homes a request.
  std::vector<SummaryRequest> stream = Stream();
  std::vector<bool> homed(options.endpoints.size(), false);
  for (const SummaryRequest& request : stream) {
    homed[router.EndpointFor(request)] = true;
  }
  for (const auto& entry : catalog_->entries()) {
    for (const core::SummaryMethod method :
         {core::SummaryMethod::kSteiner, core::SummaryMethod::kPcst}) {
      SummaryRequest request;
      request.unit = entry.unit;
      request.k = entry.k;
      request.method = method;
      const size_t home = router.EndpointFor(request);
      if (!homed[home]) {
        stream.push_back(request);
        homed[home] = true;
      }
    }
  }
  ASSERT_EQ(std::count(homed.begin(), homed.end(), false), 0)
      << "some shard homes no catalog unit";
  for (const SummaryRequest& request : stream) {
    ASSERT_EQ(router.Summarize(request).status, 200);
    ASSERT_EQ(reference.Summarize(request).status, 200);
  }
  // Both shards actually evaluated traffic.
  ASSERT_GT(shard_a->handler->EvalSnapshot().summaries, 0u);
  ASSERT_GT(shard_b->handler->EvalSnapshot().summaries, 0u);

  const eval::EvalStatsSnapshot fleet = router.FleetEvalStats();

  // Property 1: the router's merge is exactly the sum of what the shards
  // themselves scrape out over HTTP.
  eval::EvalStatsSnapshot summed;
  summed += ScrapeEvalStats(shard_a->server->port());
  summed += ScrapeEvalStats(shard_b->server->port());
  EXPECT_EQ(fleet, summed);

  // Property 2: the fleet merge is bit-identical to one process that
  // served the entire stream — the tentpole acceptance criterion.
  EXPECT_EQ(fleet, reference.EvalSnapshot());
  EXPECT_EQ(fleet.summaries, stream.size());

  // The router's own /evalstats wire document carries the same merge.
  net::HttpRequest get;
  get.method = "GET";
  get.target = "/evalstats";
  const net::HttpResponse wire = router.Handle(get);
  ASSERT_EQ(wire.status, 200);
  const auto json = net::ParseJson(wire.body);
  ASSERT_TRUE(json.ok());
  const auto parsed = eval::EvalStatsSnapshotFromJson(*json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, fleet);

  // A dead shard is a counted scrape error, never a guessed partial.
  shard_b->server->Stop();
  const eval::EvalStatsSnapshot degraded = router.FleetEvalStats();
  EXPECT_EQ(degraded, ScrapeEvalStats(shard_a->server->port()));

  shard_a->server->Stop();
}

}  // namespace
}  // namespace xsum::service
