/// Tests of the transport-facing summary handler: request parsing and
/// validation, endpoint dispatch, deterministic response rendering, the
/// predecessor-hint path, and snapshot publication over the wire surface.

#include "service/handler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "core/summarizer.h"
#include "eval/experiment.h"
#include "eval/runner.h"
#include "net/json.h"
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

/// Shared serving stack for the whole suite (graph building dominates
/// test wall time; the handler itself is stateless across tests).
class HandlerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    runner_ = new eval::ExperimentRunner(TinyConfig());
    ASSERT_TRUE(runner_->Init().ok());
    auto data = runner_->ComputeBaseline(rec::RecommenderKind::kPgpr);
    ASSERT_TRUE(data.ok()) << data.status();
    ASSERT_FALSE(data->users.empty());
    catalog_ = new TaskCatalog();
    for (const core::UserRecs& ur : data->users) {
      catalog_->AddUserCentric(runner_->rec_graph(), ur, 5);
    }
    registry_ = new GraphSnapshotRegistry();
    registry_->Publish(GraphSnapshotRegistry::Alias(runner_->rec_graph()));
    service_ = new SummaryService(registry_);
    handler_ = new SummaryHandler(
        service_, catalog_, []() -> Result<uint64_t> {
          return registry_->Publish(
              GraphSnapshotRegistry::Alias(runner_->rec_graph()));
        });
  }

  static void TearDownTestSuite() {
    delete handler_;
    delete service_;
    delete registry_;
    delete catalog_;
    delete runner_;
    handler_ = nullptr;
    service_ = nullptr;
    registry_ = nullptr;
    catalog_ = nullptr;
    runner_ = nullptr;
  }

  static uint32_t FirstUser() { return catalog_->entries().front().unit; }

  static net::HttpResponse Call(const std::string& method,
                                const std::string& target,
                                const std::string& body = "") {
    net::HttpRequest request;
    request.method = method;
    request.target = target;
    request.body = body;
    return handler_->Handle(request);
  }

  static eval::ExperimentRunner* runner_;
  static TaskCatalog* catalog_;
  static GraphSnapshotRegistry* registry_;
  static SummaryService* service_;
  static SummaryHandler* handler_;
};

eval::ExperimentRunner* HandlerTest::runner_ = nullptr;
TaskCatalog* HandlerTest::catalog_ = nullptr;
GraphSnapshotRegistry* HandlerTest::registry_ = nullptr;
SummaryService* HandlerTest::service_ = nullptr;
SummaryHandler* HandlerTest::handler_ = nullptr;

TEST_F(HandlerTest, ParseSummaryRequestAcceptsFullDocument) {
  const auto json = net::ParseJson(
      R"({"scenario":"user-centric","user":12,"k":4,"method":"PCST",)"
      R"("lambda":0.5,"cost_mode":"unit","variant":"kmb","prev_k":3})");
  ASSERT_TRUE(json.ok());
  const auto request = ParseSummaryRequest(*json);
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->scenario, core::Scenario::kUserCentric);
  EXPECT_EQ(request->unit, 12u);
  EXPECT_EQ(request->k, 4);
  EXPECT_EQ(request->method, core::SummaryMethod::kPcst);
  EXPECT_DOUBLE_EQ(request->lambda, 0.5);
  EXPECT_EQ(request->cost_mode, core::CostMode::kUnit);
  EXPECT_EQ(request->variant, core::SteinerOptions::Variant::kKmb);
  EXPECT_EQ(request->prev_k, 3);
}

TEST_F(HandlerTest, ParseSummaryRequestDefaultsAndRoundTrip) {
  const auto json = net::ParseJson(R"({"user":3,"k":1})");
  ASSERT_TRUE(json.ok());
  const auto request = ParseSummaryRequest(*json);
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->method, core::SummaryMethod::kSteiner);
  EXPECT_DOUBLE_EQ(request->lambda, 1.0);
  EXPECT_EQ(request->cost_mode, core::CostMode::kWeightAwareLog);
  EXPECT_EQ(request->prev_k, 0);

  // ToJson -> Parse is the identity.
  const auto round = ParseSummaryRequest(SummaryRequestToJson(*request));
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->unit, request->unit);
  EXPECT_EQ(round->k, request->k);
  EXPECT_EQ(round->method, request->method);
  EXPECT_DOUBLE_EQ(round->lambda, request->lambda);
}

TEST_F(HandlerTest, ParseSummaryRequestRejectsBadDocuments) {
  const std::vector<std::string> bad = {
      R"([1,2,3])",                               // not an object
      R"({"k":1})",                               // missing unit
      R"({"user":-1,"k":1})",                     // negative unit
      R"({"user":"x","k":1})",                    // unit wrong type
      R"({"user":1})",                            // missing k
      R"({"user":1,"k":0})",                      // k out of range
      R"({"user":1,"k":5000})",                   // k out of range
      R"({"user":1,"k":2.5})",                    // k not integral
      R"({"user":1,"k":1,"method":"DIJKSTRA"})",  // unknown method
      R"({"user":1,"k":1,"scenario":"global"})",  // unknown scenario
      R"({"user":1,"k":1,"lambda":-2})",          // negative lambda
      R"({"user":1,"k":1,"cost_mode":"banana"})",
      R"({"user":1,"k":1,"variant":"dreyfus"})",
      R"({"user":1,"k":3,"prev_k":3})",           // hint not < k
      R"({"item":1,"k":1})",  // user-centric requests name a user
  };
  for (const std::string& text : bad) {
    const auto json = net::ParseJson(text);
    ASSERT_TRUE(json.ok()) << text;
    EXPECT_FALSE(ParseSummaryRequest(*json).ok()) << "accepted: " << text;
  }
}

TEST_F(HandlerTest, HealthzReportsVersionAndCatalog) {
  const auto response = Call("GET", "/healthz");
  EXPECT_EQ(response.status, 200);
  const auto json = net::ParseJson(response.body);
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->Find("status")->AsString(), "ok");
  EXPECT_GE(json->Find("snapshot_version")->AsInt(), 1);
  EXPECT_EQ(json->Find("catalog_tasks")->AsInt(),
            static_cast<int64_t>(catalog_->size()));
}

TEST_F(HandlerTest, UnknownEndpointsAnd405s) {
  EXPECT_EQ(Call("GET", "/nope").status, 404);
  EXPECT_EQ(Call("GET", "/summarize").status, 405);
  EXPECT_EQ(Call("POST", "/stats").status, 405);
  EXPECT_EQ(Call("POST", "/healthz").status, 405);
  EXPECT_EQ(Call("GET", "/snapshot").status, 405);
}

TEST_F(HandlerTest, SummarizeBadBodiesAre400NotCrashes) {
  EXPECT_EQ(Call("POST", "/summarize", "").status, 400);
  EXPECT_EQ(Call("POST", "/summarize", "{not json").status, 400);
  EXPECT_EQ(Call("POST", "/summarize", R"({"user":1})").status, 400);
}

TEST_F(HandlerTest, SummarizeUnknownUnitIs404) {
  const auto response =
      Call("POST", "/summarize", R"({"user":999999,"k":3})");
  EXPECT_EQ(response.status, 404);
}

TEST_F(HandlerTest, SummarizeUnitAboveUint32RangeIs400) {
  // 2^32 + u must not wrap to unit u and answer u's summary.
  const uint64_t wrapped = (uint64_t{1} << 32) + FirstUser();
  const auto response =
      Call("POST", "/summarize",
           R"({"user":)" + std::to_string(wrapped) + R"(,"k":3})");
  EXPECT_EQ(response.status, 400) << response.body;
}

TEST_F(HandlerTest, SummarizeOverflowingLambdaIsRejected) {
  // Eq. (1) overflows to inf at λ = 1e308 and the cost transform turns
  // that into NaN costs; no variant may answer with a summary.
  const std::string user = std::to_string(FirstUser());
  for (const char* variant : {"kmb", "mehlhorn"}) {
    const auto response =
        Call("POST", "/summarize",
             R"({"user":)" + user + R"(,"k":3,"lambda":1e308,"variant":")" +
                 variant + R"("})");
    EXPECT_EQ(response.status, 400) << variant << ": " << response.body;
  }
}

TEST_F(HandlerTest, SummarizeMatchesDirectEngineCall) {
  SummaryRequest request;
  request.unit = FirstUser();
  request.k = 3;
  const net::HttpResponse response = handler_->Summarize(request);
  ASSERT_EQ(response.status, 200) << response.body;

  // The response body equals a by-hand rendering of a fresh Summarize.
  const core::SummaryTask* task =
      catalog_->Find(core::Scenario::kUserCentric, request.unit, 3);
  ASSERT_NE(task, nullptr);
  const auto fresh = core::Summarize(runner_->rec_graph(), *task,
                                     RequestOptions(request));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(response.body,
            SummaryToJson(*fresh, service_->serving_version()));

  // Determinism: asking again returns the same bytes.
  EXPECT_EQ(handler_->Summarize(request).body, response.body);
}

TEST_F(HandlerTest, PredecessorHintIsAnOptimizationNotAnInput) {
  SummaryRequest base;
  base.unit = FirstUser();
  base.lambda = 0.0;  // λ=0 keeps the chain signature stable (§5.2)
  base.variant = core::SteinerOptions::Variant::kKmb;

  // Ascending k chain with hints.
  std::vector<std::string> chained;
  for (int k = 1; k <= 5; ++k) {
    SummaryRequest request = base;
    request.k = k;
    request.prev_k = k - 1;  // 0 on the first step = no hint
    const auto response = handler_->Summarize(request);
    ASSERT_EQ(response.status, 200) << response.body;
    chained.push_back(response.body);
  }
  const uint64_t incremental = service_->Stats().incremental;

  // The same ks without hints (cache already has them: identical bytes).
  for (int k = 1; k <= 5; ++k) {
    SummaryRequest request = base;
    request.k = k;
    const auto response = handler_->Summarize(request);
    ASSERT_EQ(response.status, 200);
    EXPECT_EQ(response.body, chained[static_cast<size_t>(k - 1)]);
  }
  // At least one chained step actually reused the predecessor.
  EXPECT_GE(incremental, 1u);

  // A stale hint (unknown predecessor k) degrades to fresh compute.
  SummaryRequest stale = base;
  stale.unit = 999999;
  stale.k = 2;
  stale.prev_k = 1;
  EXPECT_EQ(handler_->Summarize(stale).status, 404);
}

TEST_F(HandlerTest, StatsDocumentCarriesServiceCounters) {
  // Generate traffic first: ctest runs every test in its own process.
  SummaryRequest warm;
  warm.unit = FirstUser();
  warm.k = 1;
  ASSERT_EQ(handler_->Summarize(warm).status, 200);
  const auto response = Call("GET", "/stats");
  EXPECT_EQ(response.status, 200);
  const auto json = net::ParseJson(response.body);
  ASSERT_TRUE(json.ok()) << response.body;
  EXPECT_GE(json->Find("requests")->AsInt(), 1);
  ASSERT_NE(json->Find("cache"), nullptr);
  EXPECT_GE(json->Find("cache")->Find("hits")->AsInt(), 0);
  EXPECT_GE(json->Find("qps")->AsDouble(), 0.0);
}

TEST_F(HandlerTest, SnapshotPublishBumpsServingVersion) {
  const uint64_t before = service_->serving_version();
  const auto response = Call("POST", "/snapshot");
  ASSERT_EQ(response.status, 200) << response.body;
  const auto json = net::ParseJson(response.body);
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->Find("snapshot_version")->AsInt(),
            static_cast<int64_t>(before + 1));
  EXPECT_EQ(service_->serving_version(), before + 1);
}

TEST_F(HandlerTest, SnapshotWithoutPublisherIs503) {
  SummaryHandler no_publish(service_, catalog_);
  net::HttpRequest request;
  request.method = "POST";
  request.target = "/snapshot";
  EXPECT_EQ(no_publish.Handle(request).status, 503);
}

}  // namespace
}  // namespace xsum::service
