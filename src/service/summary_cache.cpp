#include "service/summary_cache.h"

#include <cstring>

#include "core/incremental.h"
#include "util/rng.h"

namespace xsum::service {

namespace {

/// Two-lane SplitMix64 chain; lanes start from distinct constants so the
/// 128-bit fingerprint is not just one 64-bit hash written twice.
struct Fp128 {
  uint64_t hi = 0x8E2B5C1D0F3A7E95ULL;
  uint64_t lo = 0x243F6A8885A308D3ULL;

  void Mix(uint64_t word) {
    hi ^= word + 0x9E3779B97F4A7C15ULL;
    hi = SplitMix64(&hi);
    lo ^= word + 0xBF58476D1CE4E5B9ULL;
    lo = SplitMix64(&lo);
  }

  void MixDouble(double value) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    Mix(bits);
  }

  template <typename T>
  void MixVector(const std::vector<T>& v) {
    Mix(v.size());
    for (const T& x : v) Mix(static_cast<uint64_t>(x));
  }
};

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

void FingerprintTask(const core::SummaryTask& task,
                     const core::SummarizerOptions& options, uint64_t* fp_hi,
                     uint64_t* fp_lo) {
  Fp128 fp;
  // Task identity: scenario, anchors, terminal set, Eq. (1) inputs.
  fp.Mix(static_cast<uint64_t>(task.scenario));
  fp.MixVector(task.anchors);
  fp.MixVector(task.terminals);
  fp.Mix(task.s_size);
  fp.Mix(task.paths.size());
  for (const graph::Path& path : task.paths) {
    fp.MixVector(path.nodes);
    fp.MixVector(path.edges);
  }
  // Option fingerprint: every knob that can change the output bits.
  fp.Mix(static_cast<uint64_t>(options.method));
  fp.MixDouble(options.lambda);
  fp.Mix(static_cast<uint64_t>(options.cost_mode));
  fp.Mix(static_cast<uint64_t>(options.steiner.variant));
  fp.Mix(options.steiner.cleanup ? 1 : 0);
  fp.Mix(static_cast<uint64_t>(options.pcst.prize_policy));
  fp.Mix((options.pcst.use_edge_weights ? 2 : 0) |
         (options.pcst.strong_prune ? 1 : 0));
  fp.MixDouble(options.pcst.growth_slack);
  *fp_hi = fp.hi;
  *fp_lo = fp.lo;
}

size_t SummaryFootprintBytes(const core::Summary& summary) {
  size_t bytes = sizeof(core::Summary);
  bytes += summary.subgraph.MemoryFootprintBytes();
  bytes += summary.anchors.capacity() * sizeof(graph::NodeId);
  bytes += summary.terminals.capacity() * sizeof(graph::NodeId);
  bytes += summary.unreached_terminals.capacity() * sizeof(graph::NodeId);
  for (const graph::Path& path : summary.input_paths) {
    bytes += sizeof(graph::Path);
    bytes += path.nodes.capacity() * sizeof(graph::NodeId);
    bytes += path.edges.capacity() * sizeof(graph::EdgeId);
  }
  return bytes;
}

const eval::SummaryMetricValues& SummaryRecord::MetricValues(
    const data::RecGraph& rec_graph) const {
  std::call_once(metrics_once_, [&] {
    metrics_ = eval::ComputeSummaryMetrics(rec_graph, summary_);
    metric_computations_.fetch_add(1, std::memory_order_release);
  });
  return metrics_;
}

SummaryCache::SummaryCache() : SummaryCache(Options()) {}

SummaryCache::SummaryCache(const Options& options)
    : max_bytes_(options.max_bytes) {
  const size_t shards =
      RoundUpPow2(options.num_shards == 0 ? 1 : options.num_shards);
  shard_mask_ = shards - 1;
  shard_budget_ = max_bytes_ / shards;
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::shared_ptr<const SummaryRecord> SummaryCache::Lookup(
    const CacheKey& key) {
  Shard& shard = ShardFor(key);
  sync::MutexLock lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it == shard.map.end() || it->second->record == nullptr) {
    // A chain-only placeholder (imported drain checkpoint) is a *miss*:
    // it holds reusable closure state, not an answer, and serving it
    // would break the byte-identity invariant.
    ++shard.misses;
    return nullptr;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->record;
}

std::shared_ptr<const core::SummaryChain> SummaryCache::LookupChain(
    const CacheKey& key) {
  Shard& shard = ShardFor(key);
  sync::MutexLock lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return nullptr;
  return it->second->chain;
}

void SummaryCache::EmplaceLocked(Shard& shard, Entry entry) {
  const size_t bytes = entry.bytes;
  if (bytes > shard_budget_) {
    ++shard.rejected;
    return;
  }
  while (shard.bytes + bytes > shard_budget_ && !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.map.erase(victim.key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
  const CacheKey key = entry.key;
  shard.lru.push_front(std::move(entry));
  shard.map[key] = shard.lru.begin();
  shard.bytes += bytes;
  ++shard.insertions;
}

void SummaryCache::Insert(const CacheKey& key,
                          std::shared_ptr<const SummaryRecord> record,
                          std::shared_ptr<const core::SummaryChain> chain,
                          uint64_t route_key) {
  if (record == nullptr) return;
  Shard& shard = ShardFor(key);
  sync::MutexLock lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    if (it->second->record != nullptr) return;  // first full writer wins
    // Chain-only placeholder from a drain handoff: upgrade it. The
    // imported chain survives when the writer brings none (it may hold a
    // longer-reusable closure than this step produced).
    if (chain == nullptr) chain = it->second->chain;
    if (route_key == 0) route_key = it->second->route_key;
    shard.bytes -= it->second->bytes;
    shard.lru.erase(it->second);
    shard.map.erase(it);
  }
  size_t bytes = record->FootprintBytes() + sizeof(Entry);
  if (chain != nullptr) bytes += chain->MemoryFootprintBytes();
  EmplaceLocked(shard, Entry{key, std::move(record), std::move(chain),
                             route_key, bytes});
}

void SummaryCache::InsertChainOnly(
    const CacheKey& key, std::shared_ptr<const core::SummaryChain> chain,
    uint64_t route_key) {
  if (chain == nullptr) return;
  Shard& shard = ShardFor(key);
  sync::MutexLock lock(shard.mutex);
  std::shared_ptr<const SummaryRecord> record;
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    if (it->second->chain != nullptr) return;  // resident checkpoint wins
    // The key holds a summary without a chain (e.g. a non-chainable
    // method landed first under fingerprint reuse is impossible — same
    // key means same options — but a budget-trimmed insert can): attach
    // the imported chain, keeping the summary.
    record = it->second->record;
    if (route_key == 0) route_key = it->second->route_key;
    shard.bytes -= it->second->bytes;
    shard.lru.erase(it->second);
    shard.map.erase(it);
  }
  size_t bytes = sizeof(Entry) + chain->MemoryFootprintBytes();
  if (record != nullptr) bytes += record->FootprintBytes();
  EmplaceLocked(shard, Entry{key, std::move(record), std::move(chain),
                             route_key, bytes});
}

std::vector<SummaryCache::ChainExport> SummaryCache::ExportChains() const {
  std::vector<ChainExport> out;
  for (const auto& shard : shards_) {
    sync::MutexLock lock(shard->mutex);
    for (const Entry& entry : shard->lru) {
      if (entry.chain != nullptr && entry.route_key != 0) {
        out.push_back(ChainExport{entry.key, entry.route_key, entry.chain});
      }
    }
  }
  return out;
}

void SummaryCache::Clear() {
  for (auto& shard : shards_) {
    sync::MutexLock lock(shard->mutex);
    shard->lru.clear();
    shard->map.clear();
    shard->bytes = 0;
  }
}

CacheStats SummaryCache::stats() const {
  CacheStats stats;
  stats.max_bytes = max_bytes_;
  for (const auto& shard : shards_) {
    sync::MutexLock lock(shard->mutex);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.insertions += shard->insertions;
    stats.evictions += shard->evictions;
    stats.rejected += shard->rejected;
    stats.entries += shard->lru.size();
    stats.bytes += shard->bytes;
  }
  return stats;
}

}  // namespace xsum::service
