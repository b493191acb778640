/// \file summary_cache.h
/// \brief Sharded, task-keyed LRU cache of computed `Summary` objects — the
/// result store of the summary service layer (DESIGN.md §3).
///
/// The paper's workloads are inherently repetitive: the same user/group
/// task recurs across metric panels, λ values, and overlapping k-prefixes,
/// and a serving deployment sees the same hot users over and over (Zipf
/// traffic). Recomputing a Steiner/PCST summary costs graph searches; a
/// cache hit costs one hash and one shard-local list splice.
///
/// Keying. A cache key is the pair (graph snapshot version, 128-bit task
/// fingerprint). The fingerprint covers *everything* that determines the
/// summary bits: scenario, anchors, terminal set, explanation paths, |S|,
/// method, λ, cost mode, and the Steiner/PCST option blocks. Entries for a
/// superseded graph version are invalidated *by construction* — their keys
/// can never match a request carrying the new version — and age out under
/// LRU pressure; no scan ever walks the cache (see
/// `GraphSnapshotRegistry`).
///
/// Sharding. Keys are distributed over `num_shards` independent shards
/// (shard = fingerprint-low bits), each with its own mutex, LRU list, and
/// slice of the byte budget, so concurrent requests for different tasks do
/// not serialize on one lock. Values are `shared_ptr<const SummaryRecord>`:
/// readers share the stored record; eviction never invalidates a record a
/// caller already holds.
///
/// Budget. `Options::max_bytes` bounds the *accounted* resident size — the
/// `SummaryRecord::FootprintBytes` of every cached value (the summary plus
/// its memoized metric slot) plus per-entry bookkeeping — enforced per
/// shard (budget / num_shards each); inserting past the budget evicts
/// least-recently-used entries first. A value larger than a whole shard
/// budget is simply not retained.

#ifndef XSUM_SERVICE_SUMMARY_CACHE_H_
#define XSUM_SERVICE_SUMMARY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/summarizer.h"
#include "data/kg_builder.h"
#include "eval/eval_stats.h"
#include "util/sync.h"

namespace xsum::core {
struct SummaryChain;  // incremental.h
}  // namespace xsum::core

namespace xsum::service {

/// \brief Cache key: graph snapshot version + 128-bit task fingerprint.
struct CacheKey {
  uint64_t snapshot_version = 0;
  uint64_t fp_hi = 0;
  uint64_t fp_lo = 0;

  bool operator==(const CacheKey& other) const {
    return snapshot_version == other.snapshot_version &&
           fp_hi == other.fp_hi && fp_lo == other.fp_lo;
  }
};

/// \brief Hash functor for `CacheKey` (the fingerprint already is a hash).
struct CacheKeyHash {
  size_t operator()(const CacheKey& key) const {
    return static_cast<size_t>(key.fp_lo ^ (key.snapshot_version * 0x9E3779B97F4A7C15ULL));
  }
};

/// Computes the 128-bit fingerprint of (task, options): two independently
/// seeded SplitMix64 chains over the task's scenario/anchors/terminals/
/// paths/|S| and the full option block (method, λ bits, cost mode, Steiner
/// variant+cleanup, PCST policy/flags/slack). Collisions between distinct
/// tasks need both 64-bit lanes to collide simultaneously (~2^-128).
void FingerprintTask(const core::SummaryTask& task,
                     const core::SummarizerOptions& options, uint64_t* fp_hi,
                     uint64_t* fp_lo);

/// Accounted resident bytes of a cached summary (subgraph + paths +
/// terminal/anchor vectors + the struct itself).
size_t SummaryFootprintBytes(const core::Summary& summary);

/// \brief One cache value: an immutable summary plus its per-request
/// evaluation values (paper §V-B, `eval::ComputeSummaryMetrics`), which
/// are a pure function of (summary, snapshot graph) and therefore
/// memoized here instead of recomputed on every hit (DESIGN.md §3.1).
///
/// The values are computed lazily, at most once per record, by the first
/// `MetricValues` caller; concurrent first callers block on that one
/// computation and share it. A record is keyed under one snapshot
/// version, so every caller passes that version's graph. Nothing in the
/// cache or the service ever asks for the values: only an eval-enabled
/// handler does, outside every cache-shard lock and worker slot.
class SummaryRecord {
 public:
  explicit SummaryRecord(core::Summary summary)
      : summary_(std::move(summary)) {}

  const core::Summary& summary() const { return summary_; }

  /// The summary's metric values against \p rec_graph, which must be the
  /// graph of the snapshot version this record was computed on.
  const eval::SummaryMetricValues& MetricValues(
      const data::RecGraph& rec_graph) const;

  /// How many times the metric values were computed: 0 until the first
  /// `MetricValues` call, 1 forever after.
  uint32_t metric_computations() const {
    return metric_computations_.load(std::memory_order_acquire);
  }

  /// Accounted resident bytes: the summary's `SummaryFootprintBytes`
  /// plus the record's own memo slot.
  size_t FootprintBytes() const {
    return SummaryFootprintBytes(summary_) + sizeof(SummaryRecord) -
           sizeof(core::Summary);
  }

 private:
  core::Summary summary_;
  mutable std::once_flag metrics_once_;
  mutable eval::SummaryMetricValues metrics_;
  mutable std::atomic<uint32_t> metric_computations_{0};
};

/// \brief Aggregated cache counters (summed over shards).
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;     ///< LRU evictions (budget pressure)
  uint64_t rejected = 0;      ///< values larger than a whole shard budget
  size_t entries = 0;         ///< currently resident entries
  size_t bytes = 0;           ///< currently accounted bytes
  size_t max_bytes = 0;       ///< configured budget

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// \brief The sharded LRU cache. All methods are thread-safe.
class SummaryCache {
 public:
  struct Options {
    /// Total byte budget across all shards.
    size_t max_bytes = 64ull << 20;
    /// Shard count; rounded up to a power of two, min 1.
    size_t num_shards = 8;
  };

  SummaryCache();
  explicit SummaryCache(const Options& options);

  /// Returns the cached record for \p key and marks it most-recently-used,
  /// or nullptr on miss.
  std::shared_ptr<const SummaryRecord> Lookup(const CacheKey& key);

  /// Returns the chain checkpoint stored alongside \p key's summary, or
  /// nullptr when the key is absent or was inserted without one. Does not
  /// touch the hit/miss counters or the LRU order: this is the internal
  /// assist the service uses to summarize a (task, k) miss incrementally
  /// from the (task, k−1) entry, not a cache answer.
  std::shared_ptr<const core::SummaryChain> LookupChain(const CacheKey& key);

  /// Inserts \p record under \p key (no-op if the key already holds a
  /// summary — first writer wins, so concurrent single-flight losers
  /// don't churn the LRU list; a chain-only placeholder from a drain
  /// handoff *is* upgraded in place, keeping its imported chain when the
  /// writer brings none). Evicts LRU entries until the shard fits its
  /// budget slice. \p chain optionally attaches the summarization chain
  /// checkpoint that produced the summary (its footprint counts against
  /// the byte budget); \p route_key tags the entry with its routing
  /// fingerprint (`UnitFingerprint`) so a drain can hand the chain to
  /// the ring inheritor (0 = untagged, not exportable).
  void Insert(const CacheKey& key,
              std::shared_ptr<const SummaryRecord> record,
              std::shared_ptr<const core::SummaryChain> chain = nullptr,
              uint64_t route_key = 0);

  /// Inserts \p chain as a summary-less placeholder entry (a drained
  /// peer's checkpoint import): `Lookup` misses it, `LookupChain` serves
  /// it, and the next computed summary for the key upgrades it in place.
  /// An existing entry that already carries a chain wins over the import.
  void InsertChainOnly(const CacheKey& key,
                       std::shared_ptr<const core::SummaryChain> chain,
                       uint64_t route_key);

  /// \brief One exportable chain checkpoint (drain handoff wire unit).
  struct ChainExport {
    CacheKey key;
    uint64_t route_key = 0;
    std::shared_ptr<const core::SummaryChain> chain;
  };

  /// Every resident entry that carries both a chain checkpoint and a
  /// route key — the state worth handing to ring inheritors on drain.
  std::vector<ChainExport> ExportChains() const;

  /// Drops every entry (counters are kept).
  void Clear();

  /// Aggregated counters over all shards.
  CacheStats stats() const;

  size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    CacheKey key;
    /// Null for a chain-only placeholder (imported drain checkpoint).
    std::shared_ptr<const SummaryRecord> record;
    /// Chain checkpoint of the chained-summarization path (may be null).
    std::shared_ptr<const core::SummaryChain> chain;
    /// `UnitFingerprint` of the request that produced the entry; 0 when
    /// unknown (entries inserted outside the routed path).
    uint64_t route_key = 0;
    size_t bytes = 0;
  };
  /// One independently locked LRU slice; front = most recently used.
  /// The shard mutex is a leaf capability: nothing else is ever acquired
  /// under it (DESIGN.md §9.3 lock hierarchy).
  struct Shard {
    mutable sync::Mutex mutex;
    std::list<Entry> lru XSUM_GUARDED_BY(mutex);
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash> map
        XSUM_GUARDED_BY(mutex);
    size_t bytes XSUM_GUARDED_BY(mutex) = 0;
    uint64_t hits XSUM_GUARDED_BY(mutex) = 0;
    uint64_t misses XSUM_GUARDED_BY(mutex) = 0;
    uint64_t insertions XSUM_GUARDED_BY(mutex) = 0;
    uint64_t evictions XSUM_GUARDED_BY(mutex) = 0;
    uint64_t rejected XSUM_GUARDED_BY(mutex) = 0;
  };

  Shard& ShardFor(const CacheKey& key) {
    return *shards_[key.fp_lo & shard_mask_];
  }

  /// Budget check + LRU eviction + front insertion of \p entry (bytes
  /// already computed). Caller holds the shard lock and has removed any
  /// previous entry for the key.
  void EmplaceLocked(Shard& shard, Entry entry) XSUM_REQUIRES(shard.mutex);

  size_t max_bytes_;
  size_t shard_budget_;
  size_t shard_mask_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace xsum::service

#endif  // XSUM_SERVICE_SUMMARY_CACHE_H_
