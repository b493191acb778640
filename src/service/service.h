/// \file service.h
/// \brief `SummaryService` — the request-serving front end over the batch
/// summarization engine (DESIGN.md §3).
///
/// The batch engine (`core::BatchSummarizer`) answers task *batches* from
/// one driver thread; a serving deployment instead sees a concurrent
/// stream of independent requests with a heavily repeated (Zipf) task mix.
/// The service adds the three serving layers on top:
///
///  1. **Result cache** — a sharded task-keyed LRU (`SummaryCache`); a hit
///     answers without touching the graph.
///  2. **Single-flight deduplication** — concurrent identical misses are
///     coalesced: one leader computes, followers block on the in-flight
///     entry and share its result, so a hot key never computes twice.
///  3. **Snapshot routing** — requests run against the current
///     `GraphSnapshotRegistry` snapshot and pin it for their duration;
///     publishing a new graph hot-swaps the serving state without
///     disturbing in-flight requests, and implicitly invalidates all
///     older-version cache entries (version is part of the key).
///
/// Misses borrow one of `num_workers` `SummarizeContext` slots (blocking
/// when all are busy), so steady-state serving allocates nothing beyond
/// the cached summary records themselves. `Stats()` exposes QPS, hit rate, and
/// p50/p99 latency for dashboards and the service bench.

#ifndef XSUM_SERVICE_SERVICE_H_
#define XSUM_SERVICE_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/batch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/snapshot_registry.h"
#include "service/summary_cache.h"
#include "util/status.h"
#include "util/sync.h"
#include "util/timer.h"

namespace xsum::service {

/// \brief Service configuration.
struct ServiceOptions {
  /// Concurrent summarization slots (one reusable `SummarizeContext`
  /// each). Requests beyond this block until a slot frees.
  size_t num_workers = 1;
  /// Serve results from the cache (false = every request computes; the
  /// control arm of the service bench).
  bool enable_cache = true;
  /// Record latency histograms in the obs registry (false = counters
  /// only, no percentile data; the metrics-off control arm of the
  /// service bench that prices the instrumentation).
  bool enable_metrics = true;
  /// Micro-batching window in microseconds (0 = off, the default). When
  /// set, a cache-miss leader whose request is wave-eligible (ST/KMB, no
  /// usable chain predecessor) waits up to this long for concurrent
  /// eligible misses on the same (snapshot, options) and answers the whole
  /// group through one KMB wave (`core::BatchSummarizer::RunWaveWith`)
  /// on a single worker slot. Responses are bit-identical to unbatched
  /// computes; the window only trades a bounded latency wait for closure
  /// searches shared across the group's terminals. Surfaced
  /// as `XSUM_BATCH_WINDOW_US` by the serving binary and benches.
  int64_t batch_window_us = 0;
  /// Requests per wave at which the window closes early (leader included).
  /// Surfaced as `XSUM_BATCH_MAX`.
  size_t batch_max = 8;
  SummaryCache::Options cache;
};

/// \brief One observable service counter snapshot.
struct ServiceStats {
  uint64_t requests = 0;        ///< Summarize calls answered
  uint64_t computed = 0;        ///< answered by running the engine
  /// Computes that actually reused a (task, k−1) chain's closure rows
  /// (hints that reset the chain and ran from scratch are not counted).
  uint64_t incremental = 0;
  uint64_t coalesced = 0;       ///< answered by joining an in-flight leader
  uint64_t errors = 0;          ///< non-OK responses
  uint64_t snapshot_swaps = 0;  ///< serving-state rebuilds observed
  uint64_t snapshot_version = 0;
  /// Chain checkpoints accepted from a draining peer (`ImportChain`).
  uint64_t chains_imported = 0;
  /// KMB waves run by the micro-batching window (each occupies
  /// one worker slot regardless of its member count).
  uint64_t batch_waves = 0;
  /// Requests answered through a wave (leaders + joined members; their
  /// achieved occupancy distribution is `service_batch_occupancy`).
  uint64_t batch_requests = 0;
  /// Requests currently inside `Summarize` (gauge, not a counter) — the
  /// drain sequence waits for this to reach zero before exporting.
  int64_t in_flight = 0;
  CacheStats cache;
  double uptime_seconds = 0.0;
  double qps = 0.0;     ///< requests / uptime
  double mean_ms = 0.0; ///< mean response latency over all requests
  /// Percentiles over the full request history, read from the obs-layer
  /// log-bucketed histogram (`service_latency_ms`) — mergeable across
  /// shards, unlike the reservoir window they replaced. Well-defined for
  /// every history size: 0 before any traffic, the single sample when
  /// only one request has been served.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// \brief The serving façade. All public methods are thread-safe.
class SummaryService {
 public:
  /// \p registry must outlive the service and have a published snapshot
  /// before the first Summarize call.
  SummaryService(GraphSnapshotRegistry* registry,
                 const ServiceOptions& options = {});
  ~SummaryService();

  SummaryService(const SummaryService&) = delete;
  SummaryService& operator=(const SummaryService&) = delete;

  /// Answers one request: cache hit, coalesced wait, or fresh compute on
  /// the current graph snapshot. The returned summary is shared and
  /// immutable; it stays valid independent of cache eviction or snapshot
  /// swaps.
  ///
  /// \p predecessor optionally names the chain-predecessor task (the same
  /// unit at k−1, built by the k-sweep callers). On a cache miss the
  /// service consults the predecessor's cache entry and, when it carries a
  /// chain checkpoint, summarizes *incrementally* from it — reusing its
  /// metric-closure rows where provably safe (core/incremental.h). The
  /// answer is bit-identical with or without the hint; a wrong or stale
  /// hint degrades to a fresh compute.
  ///
  /// \p served_version, when non-null, receives the version of the
  /// snapshot this request was actually pinned to — which a concurrent
  /// Publish can make different from `serving_version()` read before or
  /// after the call. Responses that report a version (the §6 handler)
  /// must use this, not a registry re-read.
  /// \p route_key optionally tags the resulting cache entry with the
  /// request's routing fingerprint (`UnitFingerprint`), which is what
  /// lets a later drain hand this unit's chain checkpoint to the ring
  /// inheritor. 0 = untagged.
  /// \p trace, when non-null, receives spans for the request's cache
  /// lookup, single-flight wait, worker-slot wait, and kernel time.
  ///
  /// The returned pointer aliases the summary inside the cache record
  /// `SummarizeRecord` answers with (it keeps the whole record alive).
  Result<std::shared_ptr<const core::Summary>> Summarize(
      const core::SummaryTask& task, const core::SummarizerOptions& options,
      const core::SummaryTask* predecessor = nullptr,
      uint64_t* served_version = nullptr, uint64_t route_key = 0,
      obs::Trace* trace = nullptr);

  /// `Summarize` answering with the whole cache record: the summary plus
  /// its memoized metric slot (`SummaryRecord`). Hits, coalesced
  /// followers and wave members all receive the record the leader
  /// cached, so the metric values are computed at most once per
  /// (snapshot version, task fingerprint). The handler's path.
  Result<std::shared_ptr<const SummaryRecord>> SummarizeRecord(
      const core::SummaryTask& task, const core::SummarizerOptions& options,
      const core::SummaryTask* predecessor = nullptr,
      uint64_t* served_version = nullptr, uint64_t route_key = 0,
      obs::Trace* trace = nullptr);

  /// Accepts one chain checkpoint exported by a draining peer: the chain
  /// is re-anchored to *this* process's current graph snapshot (all fleet
  /// processes build bit-identical graphs from the same env knobs and
  /// publish versions in lockstep, so closure rows recorded there are
  /// valid here — DESIGN.md §7) and stored as a summary-less cache entry
  /// that the next (task, k+1) miss extends incrementally.
  /// FailedPrecondition when no snapshot is published; InvalidArgument
  /// when \p key names a different snapshot version than the current one
  /// (stale checkpoints never cross versions).
  Status ImportChain(const CacheKey& key, uint64_t route_key,
                     core::SummaryChain chain);

  /// Every cached chain checkpoint with a route key — the drain export.
  std::vector<SummaryCache::ChainExport> ExportChains() const {
    return cache_.ExportChains();
  }

  /// Requests currently inside `Summarize`.
  int64_t in_flight() const { return in_flight_->Value(); }

  /// Current counters, read from the registry handles below.
  ServiceStats Stats() const;

  /// The service's live metrics registry. The serving binary hands this
  /// to its `net::HttpServer` too, so one process exposes one registry.
  obs::Registry* metrics_registry() { return &metrics_; }

  /// Mergeable snapshot of everything this process observes: the
  /// registry (every service counter, gauge and histogram) plus the
  /// cache's per-shard counters under `cache_*` names. The router `+=`s
  /// these across shards into the fleet-wide `/metrics` view.
  obs::MetricsSnapshot Metrics() const;

  /// Cache counters only, for callers that poll a single number (the
  /// evaluation runner's accessors).
  CacheStats cache_stats() const { return cache_.stats(); }

  /// Version the next request will be served on (observes the registry).
  uint64_t serving_version() const { return registry_->current_version(); }

  /// The registry's current snapshot, pinned by the returned copy (the
  /// handler's eval accumulation evaluates served summaries against it —
  /// and skips when a concurrent Publish made the served version differ).
  GraphSnapshot CurrentSnapshot() const { return registry_->Current(); }

  const ServiceOptions& options() const { return options_; }

 private:
  /// Everything tied to one graph version: the pinned snapshot, its
  /// engine, and the free-list of engine worker slots.
  struct ServingState {
    /// Immutable after construction; read without the slot lock.
    GraphSnapshot snapshot;
    std::unique_ptr<core::BatchSummarizer> engine;
    sync::Mutex mutex;
    std::condition_variable slot_cv;
    std::vector<size_t> free_workers XSUM_GUARDED_BY(mutex);
  };

  /// One in-flight computation; followers block on `cv` until `done`.
  struct Flight {
    sync::Mutex mutex;
    std::condition_variable cv;
    bool done XSUM_GUARDED_BY(mutex) = false;
    Status status XSUM_GUARDED_BY(mutex);
    std::shared_ptr<const SummaryRecord> record XSUM_GUARDED_BY(mutex);
  };

  /// One open micro-batching window: the rendezvous where wave-eligible
  /// single-flight leaders meet. The first leader to open the group waits
  /// out the window (or until `batch_max` requests gathered) and computes
  /// the whole group as one `RunWaveWith` wave; joiners park on their own
  /// Flight exactly like single-flight followers. Keyed by
  /// (snapshot version, options fingerprint) so only requests that would
  /// produce view-compatible kernel queries ever share a wave.
  struct BatchGroup {
    /// A joined request: the leader publishes its result through the
    /// regular flight/cache machinery on its behalf. The task pointer
    /// stays valid because the joiner blocks until its flight is done.
    struct Member {
      const core::SummaryTask* task;
      CacheKey key;
      uint64_t route_key;
      std::shared_ptr<Flight> flight;
    };
    sync::Mutex mutex;
    std::condition_variable leader_cv;  ///< woken when the group fills
    /// No more joins (window elapsed).
    bool closed XSUM_GUARDED_BY(mutex) = false;
    /// Joiners (group leader excluded).
    std::vector<Member> members XSUM_GUARDED_BY(mutex);
  };

  /// Returns the serving state for the registry's current version,
  /// building (and hot-swapping to) a new one when the version moved.
  std::shared_ptr<ServingState> CurrentState();

  /// Leases a worker slot and runs the engine. \p prev_chain (may be null)
  /// seeds the chained summarization; \p out_chain (may be null) receives
  /// the checkpoint the step produced, for caching alongside the summary.
  Result<std::shared_ptr<const SummaryRecord>> ComputeOn(
      ServingState& state, const core::SummaryTask& task,
      const core::SummarizerOptions& options,
      const core::SummaryChain* prev_chain,
      std::shared_ptr<core::SummaryChain>* out_chain, obs::Trace* trace);

  /// Wave leader path: runs the leader's \p task plus every joined
  /// \p members request as one `RunWaveWith` wave on a single worker
  /// slot, then inserts each member's record into the cache and
  /// publishes its flight. Returns the leader's own result (cached and
  /// published by the caller's common path); members are answered as a
  /// side effect. Wave results carry no chain checkpoints (checkpoints
  /// only accelerate later computes — responses are unaffected).
  Result<std::shared_ptr<const SummaryRecord>> ComputeWaveOn(
      ServingState& state, const core::SummaryTask& task,
      std::vector<BatchGroup::Member> members,
      const core::SummarizerOptions& options, obs::Trace* trace);

  void RecordLatency(double ms, bool error);

  GraphSnapshotRegistry* registry_;
  ServiceOptions options_;
  SummaryCache cache_;

  /// Lock order within the service (DESIGN.md §9.3): every acquisition
  /// is leaf-like — no service mutex is ever taken while holding another
  /// — but the declared order pins the permitted direction should a
  /// future change need to nest: state → flights → batches.
  mutable sync::Mutex state_mutex_
      XSUM_ACQUIRED_BEFORE(flights_mutex_, batches_mutex_);
  /// Guards the *pointer*; a ServingState returned from CurrentState()
  /// is pinned by the shared_ptr copy and used lock-free (§9.4), its own
  /// slot free-list guarded by its member mutex.
  std::shared_ptr<ServingState> state_ XSUM_GUARDED_BY(state_mutex_);

  sync::Mutex flights_mutex_ XSUM_ACQUIRED_BEFORE(batches_mutex_);
  std::unordered_map<CacheKey, std::shared_ptr<Flight>, CacheKeyHash> flights_
      XSUM_GUARDED_BY(flights_mutex_);

  /// Open micro-batching windows, keyed by (snapshot version, options
  /// fingerprint) — the CacheKey of an *empty* task under the request's
  /// options, which is exactly the equivalence class of requests whose
  /// kernel queries share one cost view. Entries live only while their
  /// window is open; the leader deregisters on close.
  sync::Mutex batches_mutex_;
  std::unordered_map<CacheKey, std::shared_ptr<BatchGroup>, CacheKeyHash>
      batches_ XSUM_GUARDED_BY(batches_mutex_);

  /// Live metrics: the one source of every service counter, read by
  /// `Stats()`, `Metrics()` and `/stats` alike (DESIGN.md §9.4). The
  /// latency histogram is the percentile source of truth: log-bucketed,
  /// constant memory, and exactly mergeable across shards.
  obs::Registry metrics_;
  obs::Histogram* latency_hist_ = metrics_.GetHistogram("service_latency_ms");
  obs::Histogram* compute_hist_ = metrics_.GetHistogram("service_compute_ms");
  obs::Histogram* slot_wait_hist_ =
      metrics_.GetHistogram("service_slot_wait_ms");
  /// Achieved window occupancy (requests gathered per closed window,
  /// recorded once per window; 1 = the window expired with no joiners and
  /// fell back to a plain chain-recording compute). The log2 buckets are
  /// unit-agnostic — occupancy counts land in the low integer buckets
  /// exactly — so the shared histogram type merges across the fleet like
  /// every other registry histogram.
  obs::Histogram* batch_occupancy_hist_ =
      metrics_.GetHistogram("service_batch_occupancy");
  obs::Counter* requests_ = metrics_.GetCounter("service_requests");
  obs::Counter* computed_ = metrics_.GetCounter("service_computed");
  obs::Counter* incremental_ = metrics_.GetCounter("service_incremental");
  obs::Counter* coalesced_ = metrics_.GetCounter("service_coalesced");
  obs::Counter* errors_ = metrics_.GetCounter("service_errors");
  obs::Counter* snapshot_swaps_ =
      metrics_.GetCounter("service_snapshot_swaps");
  obs::Counter* chains_imported_ =
      metrics_.GetCounter("service_chains_imported");
  obs::Counter* batch_waves_ = metrics_.GetCounter("service_batch_waves");
  obs::Counter* batch_requests_ =
      metrics_.GetCounter("service_batch_requests");
  /// Polled by the drain sequence while requests run.
  obs::Gauge* in_flight_ = metrics_.GetGauge("service_in_flight");
  /// Version of the installed serving state (0 before the first request).
  obs::Gauge* snapshot_version_ =
      metrics_.GetGauge("service_snapshot_version");
  WallTimer uptime_;
};

}  // namespace xsum::service

#endif  // XSUM_SERVICE_SERVICE_H_
