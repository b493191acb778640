/// Golden test of the `/summarize` response writer: `SummaryToJson`
/// appends its document directly into one string, and every byte must
/// equal the `net::JsonValue` document it replaced (the routing and
/// replay invariants compare response bytes across processes and
/// versions). The oracle below builds that document member by member.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "core/summarizer.h"
#include "eval/experiment.h"
#include "eval/runner.h"
#include "net/json.h"
#include "service/handler.h"

namespace xsum::service {
namespace {

template <typename T>
net::JsonValue OracleIds(const std::vector<T>& ids) {
  net::JsonValue array = net::JsonValue::Array();
  for (const T id : ids) array.Append(net::JsonValue(static_cast<int64_t>(id)));
  return array;
}

/// The JsonValue-built document, member order and types as served.
std::string OracleSummaryJson(const core::Summary& summary,
                              uint64_t snapshot_version) {
  net::JsonValue json = net::JsonValue::Object();
  json.Set("snapshot_version", snapshot_version);
  json.Set("scenario", core::ScenarioToString(summary.scenario));
  json.Set("method", core::SummaryMethodToString(summary.method));
  json.Set("anchors", OracleIds(summary.anchors));
  json.Set("terminals", OracleIds(summary.terminals));
  json.Set("unreached_terminals", OracleIds(summary.unreached_terminals));
  json.Set("num_nodes", summary.subgraph.num_nodes());
  json.Set("num_edges", summary.subgraph.num_edges());
  json.Set("nodes", OracleIds(summary.subgraph.nodes()));
  json.Set("edges", OracleIds(summary.subgraph.edges()));
  return json.Dump();
}

const std::vector<uint64_t>& Versions() {
  static const std::vector<uint64_t> versions = {
      0,
      1,
      7,
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max()),
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) + 1,
      std::numeric_limits<uint64_t>::max()};
  return versions;
}

void ExpectGolden(const core::Summary& summary, const std::string& label) {
  for (const uint64_t version : Versions()) {
    EXPECT_EQ(SummaryToJson(summary, version),
              OracleSummaryJson(summary, version))
        << label << " at version " << version;
  }
}

TEST(SummaryJsonTest, RealSummariesOfEveryMethodMatchTheOracle) {
  eval::ExperimentConfig config;
  config.scale = 0.02;
  config.users_per_gender = 3;
  config.items_popular = 3;
  config.items_unpopular = 3;
  eval::ExperimentRunner runner(config);
  ASSERT_TRUE(runner.Init().ok());
  auto data = runner.ComputeBaseline(rec::RecommenderKind::kPgpr);
  ASSERT_TRUE(data.ok()) << data.status();
  ASSERT_FALSE(data->users.empty());
  ASSERT_FALSE(data->user_groups.empty());

  std::vector<core::SummaryTask> tasks = {
      core::MakeUserCentricTask(runner.rec_graph(), data->users[0], 1),
      core::MakeUserCentricTask(runner.rec_graph(), data->users[0], 5),
      core::MakeUserGroupTask(runner.rec_graph(), data->user_groups[0], 5)};
  for (const core::SummaryMethod method :
       {core::SummaryMethod::kSteiner, core::SummaryMethod::kPcst,
        core::SummaryMethod::kBaseline}) {
    core::SummarizerOptions options;
    options.method = method;
    for (const core::SummaryTask& task : tasks) {
      const auto summary = core::Summarize(runner.rec_graph(), task, options);
      ASSERT_TRUE(summary.ok()) << summary.status();
      ASSERT_GT(summary->subgraph.num_edges(), 0u);
      ExpectGolden(*summary, core::SummaryMethodToString(method));
    }
  }
}

TEST(SummaryJsonTest, EmptyAndUnreachedAndLargeIdsMatchTheOracle) {
  // An empty summary: every array empty, counts zero.
  core::Summary empty;
  ExpectGolden(empty, "empty");
  EXPECT_EQ(SummaryToJson(empty, 0),
            "{\"snapshot_version\":0,\"scenario\":\"user-centric\","
            "\"method\":\"ST\",\"anchors\":[],\"terminals\":[],"
            "\"unreached_terminals\":[],\"num_nodes\":0,\"num_edges\":0,"
            "\"nodes\":[],\"edges\":[]}");

  // Unreached terminals and ids at and above 2^31 (the id arrays share
  // one writer; the subgraph's arrays are covered by the real summaries).
  core::Summary wide;
  wide.method = core::SummaryMethod::kPcst;
  wide.scenario = core::Scenario::kItemGroup;
  wide.anchors = {0, 0x7FFFFFFFu, 0x80000000u};
  wide.terminals = {1, 0x80000001u, 0xFFFFFFFFu};
  wide.unreached_terminals = {0x80000001u, 0xFFFFFFFFu};
  ExpectGolden(wide, "wide ids");
  for (const core::Scenario scenario :
       {core::Scenario::kUserCentric, core::Scenario::kItemCentric,
        core::Scenario::kUserGroup, core::Scenario::kItemGroup}) {
    wide.scenario = scenario;
    ExpectGolden(wide, core::ScenarioToString(scenario));
  }
  // What the int64 lane prints for versions above INT64_MAX.
  EXPECT_EQ(SummaryToJson(empty, std::numeric_limits<uint64_t>::max())
                .rfind("{\"snapshot_version\":-1,", 0),
            0u);
}

}  // namespace
}  // namespace xsum::service
