/// Unit tests of the service-layer building blocks: cache-key
/// fingerprinting (sensitivity to every knob that changes summary bits),
/// the sharded LRU byte budget, and snapshot registry version pinning.

#include "service/summary_cache.h"

#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/incremental.h"
#include "data/kg_builder.h"
#include "data/synthetic.h"
#include "service/snapshot_registry.h"

namespace xsum::service {
namespace {

core::SummaryTask SmallTask() {
  core::SummaryTask task;
  task.scenario = core::Scenario::kUserCentric;
  task.anchors = {0};
  task.terminals = {0, 5, 9};
  graph::Path path;
  path.nodes = {0, 5};
  path.edges = {3};
  task.paths = {path};
  task.s_size = 2;
  return task;
}

std::pair<uint64_t, uint64_t> Fp(const core::SummaryTask& task,
                                 const core::SummarizerOptions& options) {
  uint64_t hi = 0, lo = 0;
  FingerprintTask(task, options, &hi, &lo);
  return {hi, lo};
}

TEST(FingerprintTest, DeterministicAndSensitive) {
  const core::SummaryTask task = SmallTask();
  core::SummarizerOptions options;
  const auto base = Fp(task, options);
  EXPECT_EQ(base, Fp(task, options));  // pure function

  // Every task field that changes the summary must change the key.
  {
    core::SummaryTask t = task;
    t.scenario = core::Scenario::kUserGroup;
    EXPECT_NE(base, Fp(t, options));
  }
  {
    core::SummaryTask t = task;
    t.terminals.push_back(11);
    EXPECT_NE(base, Fp(t, options));
  }
  {
    core::SummaryTask t = task;
    t.anchors = {1};
    EXPECT_NE(base, Fp(t, options));
  }
  {
    core::SummaryTask t = task;
    t.paths[0].nodes.back() = 6;
    EXPECT_NE(base, Fp(t, options));
  }
  {
    core::SummaryTask t = task;
    t.s_size = 3;
    EXPECT_NE(base, Fp(t, options));
  }
  // ... and every option knob.
  {
    core::SummarizerOptions o = options;
    o.method = core::SummaryMethod::kPcst;
    EXPECT_NE(base, Fp(task, o));
  }
  {
    core::SummarizerOptions o = options;
    o.lambda = 100.0;
    EXPECT_NE(base, Fp(task, o));
  }
  {
    core::SummarizerOptions o = options;
    o.cost_mode = core::CostMode::kUnit;
    EXPECT_NE(base, Fp(task, o));
  }
  {
    core::SummarizerOptions o = options;
    o.steiner.variant = core::SteinerOptions::Variant::kMehlhorn;
    EXPECT_NE(base, Fp(task, o));
  }
  {
    core::SummarizerOptions o = options;
    o.pcst.strong_prune = true;
    EXPECT_NE(base, Fp(task, o));
  }
}

std::shared_ptr<const SummaryRecord> DummyRecord(size_t num_nodes) {
  core::Summary summary;
  summary.terminals.assign(num_nodes, 1);
  return std::make_shared<SummaryRecord>(std::move(summary));
}

CacheKey Key(uint64_t version, uint64_t fp) {
  CacheKey key;
  key.snapshot_version = version;
  key.fp_hi = fp * 0x9E3779B97F4A7C15ULL;
  key.fp_lo = fp;
  return key;
}

TEST(SummaryCacheTest, HitMissAndCounters) {
  SummaryCache cache;
  EXPECT_EQ(cache.Lookup(Key(1, 7)), nullptr);
  cache.Insert(Key(1, 7), DummyRecord(4));
  const auto hit = cache.Lookup(Key(1, 7));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->summary().terminals.size(), 4u);
  // Same fingerprint under another snapshot version is a different entry.
  EXPECT_EQ(cache.Lookup(Key(2, 7)), nullptr);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 1.0 / 3.0);
}

TEST(SummaryCacheTest, AccountedBytesIncludeTheRecordsMetricSlot) {
  const auto record = DummyRecord(4);
  // The memoized metric values are resident bytes too.
  EXPECT_GE(record->FootprintBytes(),
            SummaryFootprintBytes(record->summary()) +
                sizeof(eval::SummaryMetricValues));
  EXPECT_EQ(record->metric_computations(), 0u);
  SummaryCache cache;
  cache.Insert(Key(1, 7), record);
  EXPECT_GT(cache.stats().bytes, record->FootprintBytes());
  // The cache hands out the inserted record itself, never a copy.
  EXPECT_EQ(cache.Lookup(Key(1, 7)), record);
}

TEST(SummaryCacheTest, FirstWriterWins) {
  SummaryCache cache;
  cache.Insert(Key(1, 7), DummyRecord(4));
  cache.Insert(Key(1, 7), DummyRecord(9));  // single-flight loser: ignored
  const auto hit = cache.Lookup(Key(1, 7));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->summary().terminals.size(), 4u);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(SummaryCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  SummaryCache::Options options;
  options.num_shards = 1;  // deterministic single LRU list
  // Room for exactly two dummy entries (96 covers per-entry bookkeeping:
  // key, record/chain pointers, route key, byte count).
  options.max_bytes = 2 * (DummyRecord(8)->FootprintBytes() + 96);
  SummaryCache cache(options);

  cache.Insert(Key(1, 1), DummyRecord(8));
  cache.Insert(Key(1, 2), DummyRecord(8));
  ASSERT_NE(cache.Lookup(Key(1, 1)), nullptr);  // 1 becomes MRU, 2 is LRU
  cache.Insert(Key(1, 3), DummyRecord(8));      // evicts 2

  EXPECT_NE(cache.Lookup(Key(1, 1)), nullptr);
  EXPECT_EQ(cache.Lookup(Key(1, 2)), nullptr);
  EXPECT_NE(cache.Lookup(Key(1, 3)), nullptr);
  const CacheStats stats = cache.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, stats.max_bytes);

  // A value bigger than the whole budget is rejected, not force-fitted.
  cache.Insert(Key(1, 4), DummyRecord(100000));
  EXPECT_EQ(cache.Lookup(Key(1, 4)), nullptr);
  EXPECT_GE(cache.stats().rejected, 1u);
}

TEST(SummaryCacheTest, EvictionDoesNotInvalidateHeldResults) {
  SummaryCache::Options options;
  options.num_shards = 1;
  // Room for exactly one dummy entry.
  options.max_bytes = DummyRecord(8)->FootprintBytes() + 128;
  SummaryCache cache(options);
  cache.Insert(Key(1, 1), DummyRecord(8));
  const auto held = cache.Lookup(Key(1, 1));
  ASSERT_NE(held, nullptr);
  cache.Insert(Key(1, 2), DummyRecord(8));  // evicts entry 1
  EXPECT_EQ(cache.Lookup(Key(1, 1)), nullptr);
  // Still alive and untouched.
  EXPECT_EQ(held->summary().terminals.size(), 8u);
}

TEST(SummaryCacheTest, ClearDropsEntriesKeepsCounters) {
  SummaryCache cache;
  cache.Insert(Key(1, 1), DummyRecord(2));
  ASSERT_NE(cache.Lookup(Key(1, 1)), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.Lookup(Key(1, 1)), nullptr);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.hits, 1u);  // history survives
}

std::shared_ptr<const core::SummaryChain> DummyChain(size_t links) {
  auto chain = std::make_shared<core::SummaryChain>();
  chain->has_state = true;
  chain->links = links;
  return chain;
}

TEST(SummaryCacheTest, ChainOnlyPlaceholderIsALookupMissButAChainHit) {
  SummaryCache cache;
  cache.InsertChainOnly(Key(1, 7), DummyChain(3), /*route_key=*/0xBEEF);
  // A placeholder is not an answer: Lookup must miss so the service
  // computes the summary...
  EXPECT_EQ(cache.Lookup(Key(1, 7)), nullptr);
  // ...but the incremental assist serves the imported checkpoint.
  const auto chain = cache.LookupChain(Key(1, 7));
  ASSERT_NE(chain, nullptr);
  EXPECT_EQ(chain->links, 3u);
}

TEST(SummaryCacheTest, InsertUpgradesPlaceholderInPlaceKeepingItsChain) {
  SummaryCache cache;
  cache.InsertChainOnly(Key(1, 7), DummyChain(3), 0xBEEF);
  // The computed summary arrives without a chain of its own (a plain
  // from-scratch compute): the imported checkpoint must survive.
  cache.Insert(Key(1, 7), DummyRecord(4));
  const auto hit = cache.Lookup(Key(1, 7));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->summary().terminals.size(), 4u);
  const auto chain = cache.LookupChain(Key(1, 7));
  ASSERT_NE(chain, nullptr);
  EXPECT_EQ(chain->links, 3u);
}

TEST(SummaryCacheTest, ResidentChainWinsOverAChainOnlyImport) {
  SummaryCache cache;
  cache.Insert(Key(1, 7), DummyRecord(4), DummyChain(9), 0xA);
  // A drained peer's import for a key we already have state for loses.
  cache.InsertChainOnly(Key(1, 7), DummyChain(1), 0xB);
  const auto chain = cache.LookupChain(Key(1, 7));
  ASSERT_NE(chain, nullptr);
  EXPECT_EQ(chain->links, 9u);
  ASSERT_NE(cache.Lookup(Key(1, 7)), nullptr) << "summary not clobbered";
}

TEST(SummaryCacheTest, ExportChainsReturnsOnlyRouteTaggedChainEntries) {
  SummaryCache cache;
  cache.Insert(Key(1, 1), DummyRecord(4));                   // no chain
  cache.Insert(Key(1, 2), DummyRecord(4), DummyChain(1));    // no route key
  cache.Insert(Key(1, 3), DummyRecord(4), DummyChain(2), 0xCAFE);
  cache.InsertChainOnly(Key(1, 4), DummyChain(3), 0xF00D);
  const auto exports = cache.ExportChains();
  ASSERT_EQ(exports.size(), 2u);
  for (const auto& entry : exports) {
    ASSERT_NE(entry.chain, nullptr);
    ASSERT_NE(entry.route_key, 0u);
    if (entry.key == Key(1, 3)) {
      EXPECT_EQ(entry.route_key, 0xCAFEu);
      EXPECT_EQ(entry.chain->links, 2u);
    } else {
      EXPECT_EQ(entry.key, Key(1, 4));
      EXPECT_EQ(entry.route_key, 0xF00Du);
      EXPECT_EQ(entry.chain->links, 3u);
    }
  }
}

TEST(SnapshotRegistryTest, VersionsAreMonotonicAndPinned) {
  GraphSnapshotRegistry registry;
  EXPECT_EQ(registry.current_version(), 0u);
  EXPECT_FALSE(registry.Current().valid());

  data::Dataset dataset =
      data::MakeSyntheticDataset(data::Ml1mConfig(0.02, 11));
  data::RecGraph graph_a =
      std::move(data::BuildRecGraph(dataset)).ValueOrDie();
  const size_t nodes_a = graph_a.graph().num_nodes();

  EXPECT_EQ(registry.Publish(std::move(graph_a)), 1u);
  const GraphSnapshot pin = registry.Current();
  ASSERT_TRUE(pin.valid());
  EXPECT_EQ(pin.version, 1u);

  data::Dataset dataset_b =
      data::MakeSyntheticDataset(data::Ml1mConfig(0.03, 12));
  data::RecGraph graph_b =
      std::move(data::BuildRecGraph(dataset_b)).ValueOrDie();
  EXPECT_EQ(registry.Publish(std::move(graph_b)), 2u);
  EXPECT_EQ(registry.current_version(), 2u);
  EXPECT_EQ(registry.num_published(), 2u);

  // The old pin still references the version-1 graph, untouched by the
  // swap.
  EXPECT_EQ(pin.graph->graph().num_nodes(), nodes_a);
  EXPECT_NE(registry.Current().graph->graph().num_nodes(), nodes_a);
}

}  // namespace
}  // namespace xsum::service
