/// Tests of the shard-routing layer over real loopback servers: the
/// routing invariant (routed responses byte-identical to direct in-process
/// calls across methods × λ × k-chains), k-stickiness of the consistent
/// hash, failover to surviving shards, local fallback, and placement
/// stability when the endpoint list grows.

#include "service/shard_router.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "eval/experiment.h"
#include "eval/runner.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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
  config.ks = {1, 3, 5};
  return config;
}

/// One in-process shard: its own service + handler + HTTP server, over
/// the shared registry and catalog (exactly the multi-process topology,
/// minus the fork).
struct Shard {
  std::unique_ptr<SummaryService> service;
  std::unique_ptr<SummaryHandler> handler;
  std::unique_ptr<net::HttpServer> server;

  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(server->port());
  }
};

class RouterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    runner_ = new eval::ExperimentRunner(TinyConfig());
    ASSERT_TRUE(runner_->Init().ok());
    auto data = runner_->ComputeBaseline(rec::RecommenderKind::kPgpr);
    ASSERT_TRUE(data.ok()) << data.status();
    ASSERT_GE(data->users.size(), 2u);
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

  /// \p port 0 = ephemeral; a fixed port restarts a "rejoining" shard on
  /// its old address (the ejection-recovery test).
  static std::unique_ptr<Shard> StartShard(uint16_t port = 0) {
    auto shard = std::make_unique<Shard>();
    shard->service = std::make_unique<SummaryService>(registry_);
    shard->handler =
        std::make_unique<SummaryHandler>(shard->service.get(), catalog_);
    net::HttpServer::Options options;
    options.num_workers = 2;
    options.port = port;
    SummaryHandler* handler = shard->handler.get();
    shard->server = std::make_unique<net::HttpServer>(
        [handler](const net::HttpRequest& request) {
          return handler->Handle(request);
        },
        options);
    EXPECT_TRUE(shard->server->Start().ok());
    return shard;
  }

  /// Every (unit, k, method-config) triple of the identity sweep.
  static std::vector<SummaryRequest> IdentitySweep() {
    std::vector<SummaryRequest> requests;
    std::vector<uint32_t> units;
    for (const auto& entry : catalog_->entries()) {
      if (units.empty() || units.back() != entry.unit) {
        units.push_back(entry.unit);
      }
    }
    units.resize(std::min<size_t>(units.size(), 3));
    struct MethodConfig {
      core::SummaryMethod method;
      double lambda;
      core::SteinerOptions::Variant variant;
    };
    const std::vector<MethodConfig> methods = {
        {core::SummaryMethod::kBaseline, 1.0,
         core::SteinerOptions::Variant::kMehlhorn},
        {core::SummaryMethod::kSteiner, 0.0,
         core::SteinerOptions::Variant::kKmb},
        {core::SummaryMethod::kSteiner, 0.01,
         core::SteinerOptions::Variant::kMehlhorn},
        {core::SummaryMethod::kSteiner, 1.0,
         core::SteinerOptions::Variant::kKmb},
        {core::SummaryMethod::kPcst, 1.0,
         core::SteinerOptions::Variant::kMehlhorn},
    };
    for (const uint32_t unit : units) {
      for (const MethodConfig& config : methods) {
        for (int k = 1; k <= 5; ++k) {
          SummaryRequest request;
          request.unit = unit;
          request.k = k;
          request.prev_k = k > 1 ? k - 1 : 0;  // chained sweep with hints
          request.method = config.method;
          request.lambda = config.lambda;
          request.variant = config.variant;
          requests.push_back(request);
        }
      }
    }
    return requests;
  }

  static eval::ExperimentRunner* runner_;
  static TaskCatalog* catalog_;
  static GraphSnapshotRegistry* registry_;
};

eval::ExperimentRunner* RouterTest::runner_ = nullptr;
TaskCatalog* RouterTest::catalog_ = nullptr;
GraphSnapshotRegistry* RouterTest::registry_ = nullptr;

TEST_F(RouterTest, RoutedEqualsDirectAcrossMethodsLambdasAndChains) {
  auto shard_a = StartShard();
  auto shard_b = StartShard();
  ShardRouter::Options options;
  options.endpoints = {shard_a->endpoint(), shard_b->endpoint()};
  ShardRouter router(nullptr, options);

  // Direct reference engine, fresh service (cold cache).
  SummaryService direct_service(registry_);
  SummaryHandler direct(&direct_service, catalog_);

  size_t checked = 0;
  for (const SummaryRequest& request : IdentitySweep()) {
    const net::HttpResponse routed = router.Summarize(request);
    const net::HttpResponse local = direct.Summarize(request);
    ASSERT_EQ(routed.status, 200) << routed.body;
    ASSERT_EQ(local.status, 200) << local.body;
    // The routing invariant: byte identity, not structural similarity.
    ASSERT_EQ(routed.body, local.body)
        << "unit=" << request.unit << " k=" << request.k
        << " method=" << static_cast<int>(request.method)
        << " lambda=" << request.lambda;
    ++checked;
  }
  EXPECT_GE(checked, 50u);
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.routed, checked);
  EXPECT_EQ(stats.local, 0u);
  // Both shards actually served traffic (placement spreads units).
  EXPECT_GT(stats.per_endpoint[0], 0u);
  EXPECT_GT(stats.per_endpoint[1], 0u);

  shard_a->server->Stop();
  shard_b->server->Stop();
}

TEST_F(RouterTest, ChainedKsAreShardSticky) {
  ShardRouter::Options options;
  options.endpoints = {"127.0.0.1:9001", "127.0.0.1:9002",
                       "127.0.0.1:9003"};
  ShardRouter router(nullptr, options);

  for (const auto& entry : catalog_->entries()) {
    SummaryRequest request;
    request.unit = entry.unit;
    request.k = 1;
    const size_t home = router.EndpointFor(request);
    for (int k = 2; k <= 10; ++k) {
      request.k = k;
      request.prev_k = k - 1;
      EXPECT_EQ(router.EndpointFor(request), home)
          << "unit " << entry.unit << " k " << k
          << " left its home shard — chain checkpoints would be lost";
    }
  }
}

TEST_F(RouterTest, PlacementIsStableWhenEndpointsGrow) {
  // Consistent hashing: adding a shard must not reshuffle every key.
  ShardRouter::Options two;
  two.endpoints = {"127.0.0.1:9001", "127.0.0.1:9002"};
  ShardRouter router_two(nullptr, two);
  ShardRouter::Options three = two;
  three.endpoints.push_back("127.0.0.1:9003");
  ShardRouter router_three(nullptr, three);

  size_t moved = 0;
  size_t total = 0;
  for (uint32_t unit = 0; unit < 600; ++unit) {
    SummaryRequest request;
    request.unit = unit;
    const size_t before = router_two.EndpointFor(request);
    const size_t after = router_three.EndpointFor(request);
    ++total;
    if (after != before) {
      ++moved;
      // A moved key may only move to the *new* shard, never between the
      // two old ones.
      EXPECT_EQ(after, 2u) << "unit " << unit;
    }
  }
  // Expected movement is ~1/3; anything above 60% means the hash is not
  // consistent (modulo-N placement moves ~2/3).
  EXPECT_LT(moved, total * 6 / 10);
  EXPECT_GT(moved, 0u);
}

TEST_F(RouterTest, FailoverToSurvivingShardKeepsAnswersIdentical) {
  std::unique_ptr<Shard> shards[2] = {StartShard(), StartShard()};
  ShardRouter::Options options;
  options.endpoints = {shards[0]->endpoint(), shards[1]->endpoint()};
  options.timeout_ms = 1000;
  ShardRouter router(nullptr, options);

  SummaryService direct_service(registry_);
  SummaryHandler direct(&direct_service, catalog_);

  // The victim is wherever the first catalog request homes: the ring
  // hashes ephemeral-port labels, so a fixed index may home no request.
  SummaryRequest first;
  first.unit = catalog_->entries().front().unit;
  first.k = catalog_->entries().front().k;
  const size_t victim = router.EndpointFor(first);
  ASSERT_LT(victim, 2u);
  const size_t survivor = 1 - victim;

  // Find requests homed on the victim, then kill it.
  std::vector<SummaryRequest> homed_on_victim;
  for (const auto& entry : catalog_->entries()) {
    SummaryRequest request;
    request.unit = entry.unit;
    request.k = entry.k;
    if (router.EndpointFor(request) == victim) {
      homed_on_victim.push_back(request);
    }
  }
  ASSERT_FALSE(homed_on_victim.empty());
  shards[victim]->server->Stop();

  for (const SummaryRequest& request : homed_on_victim) {
    const net::HttpResponse routed = router.Summarize(request);
    ASSERT_EQ(routed.status, 200) << routed.body;
    EXPECT_EQ(routed.body, direct.Summarize(request).body);
  }
  const RouterStats stats = router.stats();
  EXPECT_GE(stats.failovers, homed_on_victim.size());
  EXPECT_EQ(stats.routed, homed_on_victim.size());
  EXPECT_EQ(stats.per_endpoint[victim], 0u);
  EXPECT_EQ(stats.per_endpoint[survivor], homed_on_victim.size());

  shards[survivor]->server->Stop();
}

TEST_F(RouterTest, LocalFallbackAnswersWhenEveryShardIsDown) {
  SummaryService local_service(registry_);
  SummaryHandler local(&local_service, catalog_);
  ShardRouter::Options options;
  // Nothing listens on these ports (kernel refuses instantly on loopback).
  options.endpoints = {"127.0.0.1:1", "127.0.0.1:2"};
  options.timeout_ms = 500;
  ShardRouter router(&local, options);

  SummaryRequest request;
  request.unit = catalog_->entries().front().unit;
  request.k = 3;
  const net::HttpResponse response = router.Summarize(request);
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(response.body, local.Summarize(request).body);
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.local, 1u);
  EXPECT_EQ(stats.routed, 0u);
}

TEST_F(RouterTest, AllShardsDownWithoutFallbackIs502) {
  ShardRouter::Options options;
  options.endpoints = {"127.0.0.1:1", "127.0.0.1:2"};
  options.timeout_ms = 500;
  options.local_fallback = false;
  ShardRouter router(nullptr, options);

  SummaryRequest request;
  request.unit = catalog_->entries().front().unit;
  request.k = 1;
  EXPECT_EQ(router.Summarize(request).status, 502);
}

TEST_F(RouterTest, HandleDispatchesNonSummarizeEndpointsLocally) {
  SummaryService local_service(registry_);
  SummaryHandler local(&local_service, catalog_);
  ShardRouter::Options options;
  ShardRouter router(&local, options);  // no endpoints: pure shard role

  net::HttpRequest healthz;
  healthz.method = "GET";
  healthz.target = "/healthz";
  EXPECT_EQ(router.Handle(healthz).status, 200);

  net::HttpRequest bad;
  bad.method = "POST";
  bad.target = "/summarize";
  bad.body = "{broken";
  EXPECT_EQ(router.Handle(bad).status, 400);

  net::HttpRequest summarize = bad;
  summarize.body = R"({"user":)" +
                   std::to_string(catalog_->entries().front().unit) +
                   R"(,"k":1})";
  const net::HttpResponse response = router.Handle(summarize);
  EXPECT_EQ(response.status, 200) << response.body;
}

TEST_F(RouterTest, ParseEndpointValidation) {
  EXPECT_TRUE(ParseEndpoint("10.0.0.1:8080").ok());
  EXPECT_EQ(ParseEndpoint(":8080")->first, "127.0.0.1");
  EXPECT_EQ(ParseEndpoint("host:1")->second, 1);
  EXPECT_FALSE(ParseEndpoint("").ok());
  EXPECT_FALSE(ParseEndpoint("hostonly").ok());
  EXPECT_FALSE(ParseEndpoint("h:").ok());
  EXPECT_FALSE(ParseEndpoint("h:abc").ok());
  EXPECT_FALSE(ParseEndpoint("h:70000").ok());
  EXPECT_FALSE(ParseEndpoint("h:0").ok());
}

TEST_F(RouterTest, ReplicaSetIsTheDistinctRingPrefix) {
  ShardRouter::Options options;
  options.endpoints = {"127.0.0.1:9001", "127.0.0.1:9002",
                       "127.0.0.1:9003"};
  options.replicas = 2;
  options.health_probes = false;
  ShardRouter router(nullptr, options);

  for (uint32_t unit = 0; unit < 200; ++unit) {
    SummaryRequest request;
    request.unit = unit;
    const std::vector<size_t> replicas = router.ReplicaSetFor(request);
    ASSERT_EQ(replicas.size(), 2u);
    EXPECT_NE(replicas[0], replicas[1]);
    // The primary of the replica set is the pure ring home.
    EXPECT_EQ(replicas[0], router.EndpointFor(request));
    // k never moves the replica set either (shard-sticky chains).
    SummaryRequest chained = request;
    chained.k = 7;
    chained.prev_k = 6;
    EXPECT_EQ(router.ReplicaSetFor(chained), replicas);
  }
}

TEST_F(RouterTest, BoundedFailoverCapsTheWalkAndCounts) {
  ShardRouter::Options options;
  // Three dead endpoints, one tolerated failure: the walk must stop
  // after 1 failed attempt with candidates still untried.
  options.endpoints = {"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"};
  options.timeout_ms = 500;
  options.max_failover = 1;
  options.local_fallback = false;
  options.hedge = false;
  options.health_probes = false;
  ShardRouter router(nullptr, options);

  SummaryRequest request;
  request.unit = catalog_->entries().front().unit;
  request.k = 1;
  EXPECT_EQ(router.Summarize(request).status, 502);
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.capped, 1u);
  EXPECT_EQ(stats.failovers, 1u) << "exactly one attempt may fail";
  EXPECT_EQ(stats.routed, 0u);
}

TEST_F(RouterTest, EjectionThenProbeReinstatementWhenTheShardRejoins) {
  std::unique_ptr<Shard> shards[2] = {StartShard(), StartShard()};
  ShardRouter::Options options;
  options.endpoints = {shards[0]->endpoint(), shards[1]->endpoint()};
  options.timeout_ms = 1000;
  options.hedge = false;  // deterministic attempt accounting
  options.health.failure_threshold = 1;
  options.health.base_backoff_ms = 50;
  options.health.max_backoff_ms = 200;
  options.probe_interval_ms = 10;
  options.liveness_interval_ms = 0;  // only ejected endpoints are probed
  ShardRouter router(nullptr, options);

  // The victim is wherever the first catalog request homes: the ring
  // hashes ephemeral-port labels, so a fixed index may home no unit.
  SummaryRequest on_victim;
  on_victim.unit = catalog_->entries().front().unit;
  on_victim.k = catalog_->entries().front().k;
  const size_t victim = router.EndpointFor(on_victim);
  ASSERT_LT(victim, 2u);
  const uint16_t victim_port = shards[victim]->server->port();
  shards[victim]->server->Stop();

  // A request homed on the victim, with the victim dead: answered by the
  // survivor, the victim ejected.
  ASSERT_EQ(router.Summarize(on_victim).status, 200);
  EXPECT_EQ(router.endpoint_state(victim), EndpointHealth::State::kEjected);
  {
    const RouterStats stats = router.stats();
    EXPECT_GE(stats.ejections, 1u);
    EXPECT_GE(stats.failovers, 1u);
    EXPECT_EQ(stats.per_endpoint[victim], 0u);
  }
  // While ejected, the victim is skipped outright, not re-attempted: the
  // next request adds exactly one skip-failover and zero transport
  // failures (an attempted-and-failed victim would add two).
  const uint64_t failovers_before = router.stats().failovers;
  ASSERT_EQ(router.Summarize(on_victim).status, 200);
  EXPECT_EQ(router.stats().failovers, failovers_before + 1);

  // The shard rejoins on its old address; the probe loop notices and
  // reinstates it without any request-path help.
  shards[victim] = StartShard(victim_port);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (router.endpoint_state(victim) != EndpointHealth::State::kHealthy &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(router.endpoint_state(victim), EndpointHealth::State::kHealthy)
      << "probe loop never reinstated the rejoined shard";
  {
    const RouterStats stats = router.stats();
    EXPECT_GE(stats.reinstatements, 1u);
    EXPECT_GE(stats.probes, 1u);
  }
  // Traffic homed on the victim lands on it again.
  ASSERT_EQ(router.Summarize(on_victim).status, 200);
  EXPECT_GT(router.stats().per_endpoint[victim], 0u);

  shards[0]->server->Stop();
  shards[1]->server->Stop();
}

TEST_F(RouterTest, ReadyzFollowsTheDrainLifecycle) {
  SummaryService service(registry_);
  SummaryHandler handler(&service, catalog_);

  net::HttpRequest readyz;
  readyz.method = "GET";
  readyz.target = "/readyz";
  EXPECT_EQ(handler.Handle(readyz).status, 200);

  net::HttpRequest drain;
  drain.method = "POST";
  drain.target = "/drain";
  drain.body = "{}";
  const net::HttpResponse drained = handler.Handle(drain);
  EXPECT_EQ(drained.status, 200) << drained.body;
  EXPECT_NE(drained.body.find("\"chains\""), std::string::npos);
  EXPECT_TRUE(handler.draining());

  const net::HttpResponse not_ready = handler.Handle(readyz);
  EXPECT_EQ(not_ready.status, 503);
  bool has_retry_after = false;
  for (const auto& [name, value] : not_ready.extra_headers) {
    if (name == "Retry-After") has_retry_after = true;
  }
  EXPECT_TRUE(has_retry_after);

  // A draining shard still answers straggler summarize requests.
  SummaryRequest request;
  request.unit = catalog_->entries().front().unit;
  request.k = 1;
  EXPECT_EQ(handler.Summarize(request).status, 200);

  net::HttpRequest undrain;
  undrain.method = "POST";
  undrain.target = "/undrain";
  undrain.body = "{}";
  EXPECT_EQ(handler.Handle(undrain).status, 200);
  EXPECT_FALSE(handler.draining());
  EXPECT_EQ(handler.Handle(readyz).status, 200);

  // Before the first snapshot there is nothing to serve: not ready.
  GraphSnapshotRegistry unpublished;
  SummaryService cold_service(&unpublished);
  SummaryHandler cold(&cold_service, catalog_);
  EXPECT_EQ(cold.Handle(readyz).status, 503);
}

TEST_F(RouterTest, DrainHandsChainsToTheInheritorAndKeepsReusealive) {
  std::unique_ptr<Shard> shards[2] = {StartShard(), StartShard()};
  ShardRouter::Options options;
  options.endpoints = {shards[0]->endpoint(), shards[1]->endpoint()};
  options.timeout_ms = 2000;
  options.hedge = false;
  options.health_probes = false;
  ShardRouter router(nullptr, options);

  SummaryService direct_service(registry_);
  SummaryHandler direct(&direct_service, catalog_);

  // Warm chained sweeps (k = 1..3) for every unit homed on the drained
  // shard, in the KMB configuration whose checkpoints carry state
  // (Mehlhorn computes chain-free — nothing to hand off there). The
  // drained shard is wherever the first k = 1 unit homes: the ring hashes
  // ephemeral-port labels, so a fixed index may home no unit.
  auto sweep_request = [](uint32_t unit) {
    SummaryRequest request;
    request.unit = unit;
    request.lambda = 0.0;
    request.variant = core::SteinerOptions::Variant::kKmb;
    return request;
  };
  size_t drained = 2;
  std::vector<uint32_t> units_on_drained;
  for (const auto& entry : catalog_->entries()) {
    if (entry.k != 1) continue;
    const size_t home = router.EndpointFor(sweep_request(entry.unit));
    if (drained == 2) drained = home;
    if (home == drained) units_on_drained.push_back(entry.unit);
  }
  ASSERT_LT(drained, 2u);
  ASSERT_FALSE(units_on_drained.empty());
  Shard& drained_shard = *shards[drained];
  Shard& inheritor = *shards[1 - drained];
  for (const uint32_t unit : units_on_drained) {
    for (int k = 1; k <= 3; ++k) {
      SummaryRequest request = sweep_request(unit);
      request.k = k;
      request.prev_k = k > 1 ? k - 1 : 0;
      ASSERT_EQ(router.Summarize(request).status, 200);
    }
  }
  ASSERT_FALSE(drained_shard.service->ExportChains().empty());
  ASSERT_GT(drained_shard.service->Stats().incremental, 0u);

  // Drain it through the router: checkpoints must land on the other shard
  // (the only possible ring inheritor) and the drained shard must stop
  // being routable.
  const uint64_t inheritor_incremental = inheritor.service->Stats().incremental;
  const net::HttpResponse report =
      router.DrainEndpoint(drained_shard.endpoint(), /*wait_ms=*/2000);
  ASSERT_EQ(report.status, 200) << report.body;
  EXPECT_NE(report.body.find("\"drained\""), std::string::npos);
  EXPECT_TRUE(drained_shard.handler->draining());
  EXPECT_GT(inheritor.service->Stats().chains_imported, 0u)
      << "no checkpoint reached the inheritor";
  {
    const RouterStats stats = router.stats();
    EXPECT_EQ(stats.drains, 1u);
    EXPECT_GT(stats.chains_handed_off, 0u);
  }
  const auto readyz = net::HttpFetch("127.0.0.1", drained_shard.server->port(),
                                     "GET", "/readyz");
  ASSERT_TRUE(readyz.ok()) << readyz.status();
  EXPECT_EQ(readyz->status, 503) << "drained shard still reports ready";

  // Extending each sweep now routes to the inheritor and keeps running
  // *incrementally* off the handed-over k=3 checkpoints — the §5 reuse
  // survived the drain.
  const uint64_t drained_served = router.stats().per_endpoint[drained];
  for (const uint32_t unit : units_on_drained) {
    SummaryRequest request = sweep_request(unit);
    request.k = 4;
    request.prev_k = 3;
    const net::HttpResponse routed = router.Summarize(request);
    ASSERT_EQ(routed.status, 200) << routed.body;
    EXPECT_EQ(routed.body, direct.Summarize(request).body);
  }
  EXPECT_EQ(router.stats().per_endpoint[drained], drained_served)
      << "draining endpoint was still routed to";
  EXPECT_GT(inheritor.service->Stats().incremental, inheritor_incremental)
      << "inheritor recomputed from scratch: the handoff lost the chains";

  // Undrain restores the endpoint to rotation.
  EXPECT_EQ(router.UndrainEndpoint(drained_shard.endpoint()).status, 200);
  EXPECT_FALSE(drained_shard.handler->draining());

  shards[0]->server->Stop();
  shards[1]->server->Stop();
}

/// Builds the POST /summarize wire request for \p unit at \p k, carrying
/// \p trace_id in the propagation header (lower-cased name, as the server
/// parser stores it).
net::HttpRequest SummarizeWireRequest(uint32_t unit, int k,
                                      uint64_t trace_id) {
  net::HttpRequest request;
  request.method = "POST";
  request.target = "/summarize";
  request.body =
      R"({"user":)" + std::to_string(unit) + R"(,"k":)" + std::to_string(k) + "}";
  request.headers.emplace_back(obs::kTraceHeaderLower,
                               obs::TraceIdToHex(trace_id));
  return request;
}

/// The echoed trace header of \p response, or 0.
uint64_t EchoedTraceId(const net::HttpResponse& response) {
  uint64_t id = 0;
  const std::string* echoed = response.FindHeader(obs::kTraceHeader);
  if (echoed != nullptr) obs::ParseTraceId(*echoed, &id);
  return id;
}

TEST_F(RouterTest, RoutedRequestCarriesOneTraceIdEndToEnd) {
  auto shard_a = StartShard();
  auto shard_b = StartShard();
  ShardRouter::Options options;
  options.endpoints = {shard_a->endpoint(), shard_b->endpoint()};
  options.hedge = false;
  options.health_probes = false;
  ShardRouter router(nullptr, options);

  SummaryRequest probe;
  probe.unit = catalog_->entries().front().unit;
  probe.k = 1;
  const size_t home = router.EndpointFor(probe);
  const uint64_t trace_id = 0xD0C05ULL;

  const net::HttpResponse response =
      router.Handle(SummarizeWireRequest(probe.unit, probe.k, trace_id));
  ASSERT_EQ(response.status, 200) << response.body;
  // The edge adopts the caller's ID, never re-mints.
  EXPECT_EQ(EchoedTraceId(response), trace_id);
  // The body stays byte-identical to an untraced request: IDs ride only
  // in headers.
  EXPECT_EQ(response.body, router.Summarize(probe).body);

  obs::TraceLog::Entry entry;
  ASSERT_TRUE(router.trace_log().Find(trace_id, &entry));
  bool saw_ok_attempt = false;
  for (const obs::Span& span : entry.spans) {
    if (span.name == "attempt" &&
        span.note.find(" ok") != std::string::npos) {
      saw_ok_attempt = true;
    }
  }
  EXPECT_TRUE(saw_ok_attempt) << "router trace lost the attempt span";
  // The *same* ID reached the shard that served the request: one trace
  // per request across the whole fleet, not one per hop.
  Shard* served = home == 0 ? shard_a.get() : shard_b.get();
  Shard* idle = home == 0 ? shard_b.get() : shard_a.get();
  EXPECT_TRUE(served->handler->trace_log().Find(trace_id, &entry));
  EXPECT_FALSE(entry.spans.empty());
  EXPECT_FALSE(idle->handler->trace_log().Find(trace_id, &entry));

  shard_a->server->Stop();
  shard_b->server->Stop();
}

TEST_F(RouterTest, FailedOverRequestKeepsItsSingleTraceId) {
  std::unique_ptr<Shard> shards[2] = {StartShard(), StartShard()};
  ShardRouter::Options options;
  options.endpoints = {shards[0]->endpoint(), shards[1]->endpoint()};
  options.timeout_ms = 1000;
  options.hedge = false;
  options.health_probes = false;
  ShardRouter router(nullptr, options);

  // A request homed on the victim, with the victim dead: the failover
  // attempt on the survivor must carry the original trace ID, and the
  // router trace must show both the failed and the successful hop. The
  // victim is wherever the first catalog request homes: the ring hashes
  // ephemeral-port labels, so a fixed index may home no request.
  SummaryRequest on_victim;
  on_victim.unit = catalog_->entries().front().unit;
  on_victim.k = catalog_->entries().front().k;
  const size_t victim = router.EndpointFor(on_victim);
  ASSERT_LT(victim, 2u);
  const size_t survivor = 1 - victim;
  shards[victim]->server->Stop();

  const uint64_t trace_id = 0xFA110FFULL;
  const net::HttpResponse response = router.Handle(
      SummarizeWireRequest(on_victim.unit, on_victim.k, trace_id));
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(EchoedTraceId(response), trace_id);

  obs::TraceLog::Entry entry;
  ASSERT_TRUE(router.trace_log().Find(trace_id, &entry));
  bool saw_failure = false;
  bool saw_ok = false;
  for (const obs::Span& span : entry.spans) {
    if (span.name != "attempt") continue;
    if (span.note.find("transport-error") != std::string::npos) {
      saw_failure = true;
    }
    if (span.note.find(" ok") != std::string::npos) saw_ok = true;
  }
  EXPECT_TRUE(saw_failure) << "failed hop missing from the trace";
  EXPECT_TRUE(saw_ok) << "surviving hop missing from the trace";
  EXPECT_TRUE(shards[survivor]->handler->trace_log().Find(trace_id, &entry))
      << "the failover shard saw a different (or no) trace ID";

  shards[survivor]->server->Stop();
}

/// A shard whose /summarize can be slowed after startup — the hedge
/// trigger, without faking transport failures.
struct DelayedShard {
  std::unique_ptr<SummaryService> service;
  std::unique_ptr<SummaryHandler> handler;
  std::unique_ptr<net::HttpServer> server;
  std::shared_ptr<std::atomic<int>> delay_ms =
      std::make_shared<std::atomic<int>>(0);

  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(server->port());
  }
};

std::unique_ptr<DelayedShard> StartDelayedShard(
    GraphSnapshotRegistry* registry, TaskCatalog* catalog) {
  auto shard = std::make_unique<DelayedShard>();
  shard->service = std::make_unique<SummaryService>(registry);
  shard->handler =
      std::make_unique<SummaryHandler>(shard->service.get(), catalog);
  net::HttpServer::Options options;
  options.num_workers = 2;
  SummaryHandler* handler = shard->handler.get();
  auto delay = shard->delay_ms;
  shard->server = std::make_unique<net::HttpServer>(
      [handler, delay](const net::HttpRequest& request) {
        const int ms = delay->load();
        if (ms > 0 && request.target == "/summarize") {
          std::this_thread::sleep_for(std::chrono::milliseconds(ms));
        }
        return handler->Handle(request);
      },
      options);
  EXPECT_TRUE(shard->server->Start().ok());
  return shard;
}

TEST_F(RouterTest, HedgedRequestPropagatesOneTraceIdToBothReplicas) {
  auto shard_a = StartDelayedShard(registry_, catalog_);
  auto shard_b = StartDelayedShard(registry_, catalog_);
  ShardRouter::Options options;
  options.endpoints = {shard_a->endpoint(), shard_b->endpoint()};
  options.hedge = true;
  options.hedge_min_ms = 1;  // fire almost immediately
  options.health_probes = false;
  ShardRouter router(nullptr, options);

  SummaryRequest request;
  request.unit = catalog_->entries().front().unit;
  request.k = 1;
  const size_t primary = router.EndpointFor(request);
  DelayedShard* slow = primary == 0 ? shard_a.get() : shard_b.get();
  DelayedShard* fast = primary == 0 ? shard_b.get() : shard_a.get();
  slow->delay_ms->store(300);

  const uint64_t trace_id = 0x4ED6EULL;
  const net::HttpResponse response =
      router.Handle(SummarizeWireRequest(request.unit, request.k, trace_id));
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(EchoedTraceId(response), trace_id);
  EXPECT_GE(router.stats().hedges, 1u) << "hedge never fired";

  obs::TraceLog::Entry entry;
  ASSERT_TRUE(router.trace_log().Find(trace_id, &entry));
  bool saw_hedge_fire = false;
  for (const obs::Span& span : entry.spans) {
    if (span.name == "hedge.fire") saw_hedge_fire = true;
  }
  EXPECT_TRUE(saw_hedge_fire);
  // The hedge replica answered under the caller's ID immediately; the
  // straggling primary lands the same ID once its sleep expires. One
  // trace ID on every involved endpoint — the acceptance property.
  EXPECT_TRUE(fast->handler->trace_log().Find(trace_id, &entry));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!slow->handler->trace_log().Find(trace_id, &entry) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(slow->handler->trace_log().Find(trace_id, &entry))
      << "the hedged-over primary never saw the shared trace ID";

  shard_a->server->Stop();
  shard_b->server->Stop();
}

/// The fleet-view acceptance property: the router's merged snapshot
/// equals the sum of what the shards themselves expose — exactly, bucket
/// by bucket, because the histograms are mergeable sufficient stats
/// rather than sampled reservoirs.
TEST_F(RouterTest, FleetMetricsEqualsSumOfShardScrapesExactly) {
  auto shard_a = StartShard();
  auto shard_b = StartShard();
  ShardRouter::Options options;
  options.endpoints = {shard_a->endpoint(), shard_b->endpoint()};
  options.hedge = false;
  options.health_probes = false;
  ShardRouter router(nullptr, options);

  size_t sent = 0;
  for (const SummaryRequest& request : IdentitySweep()) {
    ASSERT_EQ(router.Summarize(request).status, 200);
    if (++sent >= 40) break;
  }

  const obs::MetricsSnapshot fleet = router.FleetMetrics();

  obs::MetricsSnapshot summed;
  for (const Shard* shard : {shard_a.get(), shard_b.get()}) {
    const auto scrape = net::HttpFetch("127.0.0.1", shard->server->port(),
                                       "GET", "/metrics.json");
    ASSERT_TRUE(scrape.ok()) << scrape.status();
    ASSERT_EQ(scrape->status, 200);
    const auto json = net::ParseJson(scrape->body);
    ASSERT_TRUE(json.ok()) << json.status().ToString();
    const auto snapshot = obs::MetricsSnapshotFromJson(*json);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    summed += *snapshot;
  }

  // service_* and cache_* metrics move only on /summarize, so the two
  // scrape passes observe identical values: equality is exact, not
  // approximate.
  EXPECT_EQ(fleet.counters.at("service_requests"),
            summed.counters.at("service_requests"));
  EXPECT_EQ(summed.counters.at("service_requests"), sent)
      << "no local fallback ran, so routed == served";
  EXPECT_EQ(fleet.counters.at("service_computed"),
            summed.counters.at("service_computed"));
  EXPECT_EQ(fleet.counters.at("cache_hits"), summed.counters.at("cache_hits"));
  // Bit-exact histogram merge: every bucket, count, sum, min, max.
  EXPECT_EQ(fleet.histograms.at("service_latency_ms"),
            summed.histograms.at("service_latency_ms"));
  EXPECT_EQ(fleet.histograms.at("service_compute_ms"),
            summed.histograms.at("service_compute_ms"));
  EXPECT_EQ(fleet.histograms.at("service_latency_ms").count, sent);
  // Router-side accounting rides the same merged snapshot.
  EXPECT_EQ(fleet.counters.at("router_routed"), sent);
  EXPECT_EQ(fleet.counters.at("router_scrape_errors"), 0u);
  EXPECT_EQ(fleet.gauges.at("router_endpoints"), 2);
  EXPECT_EQ(fleet.histograms.at("router_attempt_ms").count, sent);

  shard_a->server->Stop();
  shard_b->server->Stop();
}

TEST_F(RouterTest, UnitFingerprintSeparatesChainsButNotKs) {
  SummaryRequest request;
  request.unit = 42;
  request.k = 1;
  const uint64_t base = UnitFingerprint(request);
  request.k = 7;
  request.prev_k = 6;
  EXPECT_EQ(UnitFingerprint(request), base) << "k must not affect placement";
  SummaryRequest other = request;
  other.unit = 43;
  EXPECT_NE(UnitFingerprint(other), base);
  other = request;
  other.method = core::SummaryMethod::kPcst;
  EXPECT_NE(UnitFingerprint(other), base);
  other = request;
  other.lambda = 0.5;
  EXPECT_NE(UnitFingerprint(other), base);
}

}  // namespace
}  // namespace xsum::service
