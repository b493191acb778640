#include "service/service.h"

#include <chrono>
#include <utility>

#include "core/incremental.h"

namespace xsum::service {

SummaryService::SummaryService(GraphSnapshotRegistry* registry,
                               const ServiceOptions& options)
    : registry_(registry), options_(options), cache_(options.cache) {
  if (options_.num_workers == 0) options_.num_workers = 1;
  uptime_.Start();
}

SummaryService::~SummaryService() = default;

std::shared_ptr<SummaryService::ServingState> SummaryService::CurrentState() {
  const uint64_t version = registry_->current_version();
  if (version == 0) return nullptr;
  {
    sync::MutexLock lock(state_mutex_);
    if (state_ != nullptr && state_->snapshot.version == version) {
      return state_;
    }
  }
  // Build the new serving state *outside* the lock: engine construction is
  // O(workers · graph) and must not stall concurrent cache hits during a
  // hot swap. Racing builders are possible and harmless — the loser's
  // state is discarded below.
  auto fresh = std::make_shared<ServingState>();
  fresh->snapshot = registry_->Current();
  if (!fresh->snapshot.valid()) return nullptr;
  fresh->engine = std::make_unique<core::BatchSummarizer>(
      *fresh->snapshot.graph, options_.num_workers,
      /*pool_workers=*/1, fresh->snapshot.views);
  fresh->free_workers.reserve(options_.num_workers);
  for (size_t w = options_.num_workers; w > 0; --w) {
    fresh->free_workers.push_back(w - 1);
  }
  sync::MutexLock lock(state_mutex_);
  if (state_ != nullptr && state_->snapshot.version >= fresh->snapshot.version) {
    return state_;  // someone else installed this (or a newer) version
  }
  if (state_ != nullptr) snapshot_swaps_->Add();
  // In-flight requests keep pinning the old state (and through it the old
  // graph snapshot) until they finish; new requests route here.
  state_ = std::move(fresh);
  snapshot_version_->Set(static_cast<int64_t>(state_->snapshot.version));
  return state_;
}

Result<std::shared_ptr<const SummaryRecord>> SummaryService::ComputeOn(
    ServingState& state, const core::SummaryTask& task,
    const core::SummarizerOptions& options,
    const core::SummaryChain* prev_chain,
    std::shared_ptr<core::SummaryChain>* out_chain, obs::Trace* trace) {
  size_t worker = 0;
  {
    obs::SpanTimer slot_span(trace, "slot.wait");
    WallTimer slot_timer;
    slot_timer.Start();
    sync::MutexLock lock(state.mutex);
    while (state.free_workers.empty()) lock.Wait(state.slot_cv);
    worker = state.free_workers.back();
    state.free_workers.pop_back();
    if (options_.enable_metrics) {
      slot_wait_hist_->RecordMs(slot_timer.ElapsedMillis());
    }
  }
  // The cached checkpoint is immutable and shared; the step copies what it
  // can carry into a fresh compact chain (no retained trees — checkpoints
  // are byte-budgeted cache residents) and extends that. Chains exist
  // only for the method that can carry state (ST/KMB); everything else
  // computes chain-free and caches no checkpoint.
  const bool chainable =
      options.method == core::SummaryMethod::kSteiner &&
      options.steiner.variant == core::SteinerOptions::Variant::kKmb;
  std::shared_ptr<core::SummaryChain> next_chain;
  if (out_chain != nullptr && chainable) {
    next_chain = std::make_shared<core::SummaryChain>();
    next_chain->closure.retain_trees = false;
  }
  WallTimer compute_timer;
  compute_timer.Start();
  const double compute_start_ms =
      trace != nullptr ? trace->ElapsedMs() : 0.0;
  Result<core::Summary> result = state.engine->RunChainedWith(
      worker, task, options, prev_chain, next_chain.get());
  const double compute_ms = compute_timer.ElapsedMillis();
  if (options_.enable_metrics) compute_hist_->RecordMs(compute_ms);
  {
    sync::MutexLock lock(state.mutex);
    state.free_workers.push_back(worker);
  }
  state.slot_cv.notify_one();
  // A compute counts as incremental only when the predecessor's closure
  // rows were actually consulted — a stale or signature-mismatched hint
  // resets the chain and runs from scratch, and must not be reported as
  // reuse.
  const bool reused = result.ok() && next_chain != nullptr &&
                      next_chain->has_state &&
                      next_chain->closure.last_reused_pairs > 0;
  if (trace != nullptr) {
    trace->AddSpan("compute", compute_start_ms, compute_ms,
                   !result.ok()        ? "error"
                   : reused            ? "incremental"
                                       : "fresh");
  }
  computed_->Add();
  if (reused) incremental_->Add();
  if (!result.ok()) return result.status();
  if (out_chain != nullptr && next_chain != nullptr &&
      next_chain->has_state) {
    *out_chain = std::move(next_chain);
  }
  return std::shared_ptr<const SummaryRecord>(
      std::make_shared<SummaryRecord>(std::move(*result)));
}

Result<std::shared_ptr<const SummaryRecord>> SummaryService::ComputeWaveOn(
    ServingState& state, const core::SummaryTask& task,
    std::vector<BatchGroup::Member> members,
    const core::SummarizerOptions& options, obs::Trace* trace) {
  size_t worker = 0;
  {
    obs::SpanTimer slot_span(trace, "slot.wait");
    WallTimer slot_timer;
    slot_timer.Start();
    sync::MutexLock lock(state.mutex);
    while (state.free_workers.empty()) lock.Wait(state.slot_cv);
    worker = state.free_workers.back();
    state.free_workers.pop_back();
    if (options_.enable_metrics) {
      slot_wait_hist_->RecordMs(slot_timer.ElapsedMillis());
    }
  }
  // Leader first; the wave answers result[i] for tasks[i], so the order
  // only fixes which lane each request rides — every result is
  // bit-identical to its own solo compute regardless.
  std::vector<const core::SummaryTask*> tasks;
  tasks.reserve(members.size() + 1);
  tasks.push_back(&task);
  for (const BatchGroup::Member& m : members) tasks.push_back(m.task);
  WallTimer compute_timer;
  compute_timer.Start();
  const double compute_start_ms = trace != nullptr ? trace->ElapsedMs() : 0.0;
  std::vector<Result<core::Summary>> results =
      state.engine->RunWaveWith(worker, tasks, options);
  const double compute_ms = compute_timer.ElapsedMillis();
  if (options_.enable_metrics) compute_hist_->RecordMs(compute_ms);
  {
    sync::MutexLock lock(state.mutex);
    state.free_workers.push_back(worker);
  }
  state.slot_cv.notify_one();
  if (trace != nullptr) {
    trace->AddSpan("compute", compute_start_ms, compute_ms, "wave");
  }
  computed_->Add(tasks.size());
  batch_waves_->Add();
  batch_requests_->Add(tasks.size());
  // Publish every member's result exactly as its own leader path would
  // have: cache insert (chain-free — waves record no checkpoints), flight
  // completion, single-flight deregistration. Members wake from their
  // `batch.wait` and record their own latency; their flight followers
  // wake with them.
  for (size_t i = 0; i < members.size(); ++i) {
    BatchGroup::Member& m = members[i];
    Result<core::Summary>& r = results[i + 1];
    std::shared_ptr<const SummaryRecord> shared;
    if (r.ok()) {
      shared = std::make_shared<SummaryRecord>(std::move(*r));
      cache_.Insert(m.key, shared, /*chain=*/nullptr, m.route_key);
    }
    {
      sync::MutexLock lock(m.flight->mutex);
      m.flight->done = true;
      m.flight->status = r.status();
      m.flight->record = shared;
    }
    {
      sync::MutexLock lock(flights_mutex_);
      flights_.erase(m.key);
    }
    m.flight->cv.notify_all();
  }
  Result<core::Summary>& own = results[0];
  if (!own.ok()) return own.status();
  return std::shared_ptr<const SummaryRecord>(
      std::make_shared<SummaryRecord>(std::move(*own)));
}

Result<std::shared_ptr<const core::Summary>> SummaryService::Summarize(
    const core::SummaryTask& task, const core::SummarizerOptions& options,
    const core::SummaryTask* predecessor, uint64_t* served_version,
    uint64_t route_key, obs::Trace* trace) {
  Result<std::shared_ptr<const SummaryRecord>> record = SummarizeRecord(
      task, options, predecessor, served_version, route_key, trace);
  if (!record.ok()) return record.status();
  const std::shared_ptr<const SummaryRecord>& owner = *record;
  return std::shared_ptr<const core::Summary>(owner, &owner->summary());
}

Result<std::shared_ptr<const SummaryRecord>> SummaryService::SummarizeRecord(
    const core::SummaryTask& task, const core::SummarizerOptions& options,
    const core::SummaryTask* predecessor, uint64_t* served_version,
    uint64_t route_key, obs::Trace* trace) {
  WallTimer timer;
  timer.Start();
  in_flight_->Add(1);
  struct InFlightGuard {
    obs::Gauge* gauge;
    ~InFlightGuard() { gauge->Add(-1); }
  } in_flight_guard{in_flight_};
  std::shared_ptr<ServingState> state = CurrentState();
  if (state == nullptr) {
    RecordLatency(timer.ElapsedMillis(), /*error=*/true);
    return Status::FailedPrecondition(
        "SummaryService: no graph snapshot published");
  }
  if (served_version != nullptr) {
    *served_version = state->snapshot.version;
  }

  if (!options_.enable_cache) {
    // Without a cache there is no (task, k−1) entry to seed from; the
    // predecessor hint is meaningless here.
    Result<std::shared_ptr<const SummaryRecord>> result =
        ComputeOn(*state, task, options, /*prev_chain=*/nullptr,
                  /*out_chain=*/nullptr, trace);
    RecordLatency(timer.ElapsedMillis(), !result.ok());
    return result;
  }

  CacheKey key;
  key.snapshot_version = state->snapshot.version;
  FingerprintTask(task, options, &key.fp_hi, &key.fp_lo);

  {
    obs::SpanTimer lookup_span(trace, "cache.lookup");
    std::shared_ptr<const SummaryRecord> hit = cache_.Lookup(key);
    if (hit != nullptr) {
      lookup_span.set_note("hit");
      RecordLatency(timer.ElapsedMillis(), /*error=*/false);
      return hit;
    }
    lookup_span.set_note("miss");
  }

  // Single-flight: first miss for this key becomes the leader; concurrent
  // identical misses block on the leader's flight and share its result.
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    sync::MutexLock lock(flights_mutex_);
    auto it = flights_.find(key);
    if (it != flights_.end()) {
      flight = it->second;
    } else {
      flight = std::make_shared<Flight>();
      flights_[key] = flight;
      leader = true;
    }
  }
  if (!leader) {
    Status status;
    std::shared_ptr<const SummaryRecord> record;
    {
      obs::SpanTimer wait_span(trace, "singleflight.wait");
      sync::MutexLock lock(flight->mutex);
      while (!flight->done) lock.Wait(flight->cv);
      status = flight->status;
      record = flight->record;
    }
    coalesced_->Add();
    RecordLatency(timer.ElapsedMillis(), !status.ok());
    if (!status.ok()) return status;
    return record;
  }

  // Incremental assist: a k-sweep caller names the same unit's k−1 task;
  // its cached chain checkpoint (recorded under the same snapshot version
  // and options) seeds this compute. Validity is re-verified inside the
  // engine (graph + cost signature), so a stale or mismatched hint can
  // only cost the lookup, never change the answer.
  std::shared_ptr<const core::SummaryChain> prev_chain;
  if (predecessor != nullptr) {
    obs::SpanTimer chain_span(trace, "chain.lookup");
    CacheKey pred_key;
    pred_key.snapshot_version = state->snapshot.version;
    FingerprintTask(*predecessor, options, &pred_key.fp_hi, &pred_key.fp_lo);
    prev_chain = cache_.LookupChain(pred_key);
    chain_span.set_note(prev_chain != nullptr ? "reusable" : "absent");
  }

  // Micro-batching window (DESIGN.md §8): wave-eligible leaders — KMB
  // Steiner misses with no usable chain predecessor — rendezvous with
  // concurrent eligible misses on the same (snapshot, options) and are
  // answered by one KMB wave. Off by default; responses are bit-identical
  // either way, the window only trades a bounded wait for closure searches
  // shared under concurrent miss bursts.
  std::shared_ptr<core::SummaryChain> out_chain;
  Result<std::shared_ptr<const SummaryRecord>> result =
      Status::Internal("SummaryService: compute not reached");
  bool waved = false;
  const bool wave_eligible =
      options_.batch_window_us > 0 && options_.batch_max >= 2 &&
      prev_chain == nullptr &&
      options.method == core::SummaryMethod::kSteiner &&
      options.steiner.variant == core::SteinerOptions::Variant::kKmb;
  if (wave_eligible) {
    // The group key is the fingerprint of an *empty* task under these
    // options plus the snapshot version — exactly the equivalence class
    // of requests whose kernel queries share one cost view.
    CacheKey group_key;
    group_key.snapshot_version = state->snapshot.version;
    static const core::SummaryTask kEmptyTask{};
    FingerprintTask(kEmptyTask, options, &group_key.fp_hi, &group_key.fp_lo);
    std::shared_ptr<BatchGroup> group;
    bool opener = false;
    {
      sync::MutexLock lock(batches_mutex_);
      auto it = batches_.find(group_key);
      if (it != batches_.end()) {
        group = it->second;
      } else {
        group = std::make_shared<BatchGroup>();
        batches_[group_key] = group;
        opener = true;
      }
    }
    if (!opener) {
      bool joined = false;
      bool filled = false;
      {
        sync::MutexLock lock(group->mutex);
        if (!group->closed &&
            group->members.size() + 2 <= options_.batch_max) {
          group->members.push_back({&task, key, route_key, flight});
          joined = true;
          filled = group->members.size() + 1 >= options_.batch_max;
        }
      }
      if (joined) {
        if (filled) group->leader_cv.notify_one();
        obs::SpanTimer wait_span(trace, "batch.wait");
        wait_span.set_note("member");
        Status status;
        std::shared_ptr<const SummaryRecord> record;
        {
          sync::MutexLock lock(flight->mutex);
          while (!flight->done) lock.Wait(flight->cv);
          status = flight->status;
          record = flight->record;
        }
        RecordLatency(timer.ElapsedMillis(), !status.ok());
        if (!status.ok()) return status;
        return record;
      }
      // The window closed between discovery and join — compute solo.
    } else {
      std::vector<BatchGroup::Member> members;
      {
        obs::SpanTimer window_span(trace, "batch.wait");
        window_span.set_note("window");
        sync::MutexLock lock(group->mutex);
        const auto window_deadline =
            std::chrono::steady_clock::now() +
            std::chrono::microseconds(options_.batch_window_us);
        while (group->members.size() + 1 < options_.batch_max) {
          if (lock.WaitUntil(group->leader_cv, window_deadline) ==
              std::cv_status::timeout) {
            break;
          }
        }
        group->closed = true;
        members = std::move(group->members);
      }
      {
        sync::MutexLock lock(batches_mutex_);
        batches_.erase(group_key);
      }
      if (options_.enable_metrics) {
        batch_occupancy_hist_->RecordMicros(
            static_cast<uint64_t>(members.size()) + 1);
      }
      if (!members.empty()) {
        result =
            ComputeWaveOn(*state, task, std::move(members), options, trace);
        waved = true;
      }
      // An empty window falls through to the plain compute, which
      // additionally records a chain checkpoint for future k-sweeps.
    }
  }
  if (!waved) {
    result =
        ComputeOn(*state, task, options, prev_chain.get(), &out_chain, trace);
  }
  if (result.ok()) {
    cache_.Insert(key, *result, std::move(out_chain), route_key);
  }
  {
    sync::MutexLock lock(flight->mutex);
    flight->done = true;
    flight->status = result.status();
    if (result.ok()) flight->record = *result;
  }
  {
    sync::MutexLock lock(flights_mutex_);
    flights_.erase(key);
  }
  flight->cv.notify_all();
  RecordLatency(timer.ElapsedMillis(), !result.ok());
  return result;
}

Status SummaryService::ImportChain(const CacheKey& key, uint64_t route_key,
                                   core::SummaryChain chain) {
  std::shared_ptr<ServingState> state = CurrentState();
  if (state == nullptr) {
    return Status::FailedPrecondition(
        "SummaryService: no graph snapshot published");
  }
  if (key.snapshot_version != state->snapshot.version) {
    return Status::InvalidArgument(
        "imported chain names snapshot version " +
        std::to_string(key.snapshot_version) + " but this process serves " +
        std::to_string(state->snapshot.version));
  }
  if (route_key == 0) {
    return Status::InvalidArgument("imported chain carries no route key");
  }
  // Re-anchor: the engine's carry check compares graph *pointers*, so the
  // imported closure rows must claim this process's snapshot graph. That
  // claim is sound because fleet processes build bit-identical graphs
  // from the same dataset knobs and the version equality above pins the
  // publish generation (DESIGN.md §7).
  chain.graph = state->snapshot.graph.get();
  chain.has_state = true;
  chain.closure.retain_trees = false;
  cache_.InsertChainOnly(
      key, std::make_shared<const core::SummaryChain>(std::move(chain)),
      route_key);
  chains_imported_->Add();
  return Status::OK();
}

void SummaryService::RecordLatency(double ms, bool error) {
  if (options_.enable_metrics) latency_hist_->RecordMs(ms);
  requests_->Add();
  if (error) errors_->Add();
}

ServiceStats SummaryService::Stats() const {
  // Each field is one relaxed load of its registry handle, so Stats(),
  // Metrics() and /stats can never disagree about a counter.
  ServiceStats stats;
  stats.cache = cache_.stats();
  stats.requests = requests_->Value();
  stats.computed = computed_->Value();
  stats.incremental = incremental_->Value();
  stats.coalesced = coalesced_->Value();
  stats.errors = errors_->Value();
  stats.snapshot_swaps = snapshot_swaps_->Value();
  stats.snapshot_version = static_cast<uint64_t>(snapshot_version_->Value());
  stats.chains_imported = chains_imported_->Value();
  stats.batch_waves = batch_waves_->Value();
  stats.batch_requests = batch_requests_->Value();
  stats.in_flight = in_flight_->Value();
  stats.uptime_seconds = uptime_.ElapsedSeconds();
  stats.qps = stats.uptime_seconds > 0.0
                  ? static_cast<double>(stats.requests) / stats.uptime_seconds
                  : 0.0;
  // Percentiles come from the mergeable obs histogram (PR 7), which
  // keeps the service-level contract the old reservoir had: no traffic
  // yet reports 0 for mean/p50/p99, one sample reports that sample for
  // every percentile (the snapshot's observed max collapses the bucket
  // bound), pinned by
  // service_test.StatsWellDefinedBeforeAndAfterFirstRequest.
  const obs::HistogramSnapshot latency = latency_hist_->Snapshot();
  if (latency.empty()) {
    stats.mean_ms = 0.0;
    stats.p50_ms = 0.0;
    stats.p99_ms = 0.0;
  } else {
    stats.mean_ms = latency.MeanMs();
    stats.p50_ms = latency.PercentileMs(50.0);
    stats.p99_ms = latency.PercentileMs(99.0);
  }
  return stats;
}

obs::MetricsSnapshot SummaryService::Metrics() const {
  obs::MetricsSnapshot snap = metrics_.Snapshot();
  // The cache counts per shard, under the shard lock its lookups already
  // hold; every CacheStats field is exported here, counts as counters and
  // levels as additive gauges, so the router's `+=` stays exact.
  const CacheStats cache = cache_.stats();
  snap.counters["cache_hits"] = cache.hits;
  snap.counters["cache_misses"] = cache.misses;
  snap.counters["cache_insertions"] = cache.insertions;
  snap.counters["cache_evictions"] = cache.evictions;
  snap.counters["cache_rejected"] = cache.rejected;
  snap.gauges["cache_entries"] = static_cast<int64_t>(cache.entries);
  snap.gauges["cache_bytes"] = static_cast<int64_t>(cache.bytes);
  snap.gauges["cache_max_bytes"] = static_cast<int64_t>(cache.max_bytes);
  return snap;
}

}  // namespace xsum::service
