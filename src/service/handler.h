/// \file handler.h
/// \brief `service::SummaryHandler` — the transport-facing edge of the
/// summary service (DESIGN.md §6): translates JSON requests into
/// `SummaryService::Summarize` calls and renders summaries and stats back
/// as JSON.
///
/// The handler is deliberately transport-agnostic: it consumes
/// `net::HttpRequest` values and produces `net::HttpResponse` values but
/// never touches a socket, so the same object serves an `net::HttpServer`,
/// the shard router's in-process fallback, the `oneshot` CLI mode the CI
/// smoke test diffs against, and the in-process arm of `bench_net`. That
/// one-object-many-transports design is what makes the routing invariant
/// (routed bytes == in-process bytes) testable at all.
///
/// Wire protocol (all bodies JSON):
///   POST /summarize  {scenario, user|item, k, method, lambda?, cost_mode?,
///                     variant?, prev_k?}        -> summary document
///   GET  /stats                                  -> ServiceStats document
///   GET  /healthz                                -> liveness + version
///   GET  /readyz                                 -> readiness (503 while
///                                                   draining / unpublished)
///   POST /snapshot                               -> hot-swap publish
///   POST /drain      {wait_ms?}                  -> readiness off, wait out
///                                                   in-flight, export chains
///   POST /undrain                                -> readiness back on
///   POST /chains     {chains: [...]}             -> import a drained peer's
///                                                   chain checkpoints
///   GET  /metrics                                -> Prometheus text
///                                                   exposition (obs registry)
///   GET  /metrics.json                           -> the same snapshot in its
///                                                   lossless JSON form (what
///                                                   the router scrapes+merges)
///   GET  /evalstats                              -> mergeable evaluation
///                                                   sufficient statistics
///                                                   (eval/eval_stats.h; the
///                                                   router scrapes+merges
///                                                   these bit-exactly)
///   GET  /traces                                 -> recent request traces
///
/// `/summarize` responses contain only *deterministic* fields (subgraph,
/// terminals, anchors, version) — never timings — so two processes that
/// computed the same task return byte-identical bodies. Trace IDs
/// therefore ride exclusively in the `X-Xsum-Trace` header: adopted from
/// the request when present (the router propagates one ID across every
/// attempt), minted here otherwise, echoed on every response.

#ifndef XSUM_SERVICE_HANDLER_H_
#define XSUM_SERVICE_HANDLER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/scenario.h"
#include "core/summarizer.h"
#include "eval/eval_stats.h"
#include "net/http.h"
#include "net/json.h"
#include "service/service.h"
#include "util/status.h"

namespace xsum::service {

/// \brief The wire form of one summarization call: the task-fingerprint
/// fields a client supplies. The handler resolves them to a full
/// `core::SummaryTask` through the `TaskCatalog`.
struct SummaryRequest {
  core::Scenario scenario = core::Scenario::kUserCentric;
  /// The unit id: the user id for user-centric/user-group requests, the
  /// item id for item-centric/item-group ones.
  uint32_t unit = 0;
  /// Recommendation-prefix size (>= 1).
  int k = 1;
  core::SummaryMethod method = core::SummaryMethod::kSteiner;
  double lambda = 1.0;
  core::CostMode cost_mode = core::CostMode::kWeightAwareLog;
  core::SteinerOptions::Variant variant =
      core::SteinerOptions::Variant::kMehlhorn;
  /// Optional chain-predecessor hint: the same unit's k−1 (or any earlier
  /// k) whose cached checkpoint the service may extend incrementally.
  /// 0 = no hint.
  int prev_k = 0;
};

/// Parses the `/summarize` body. Unknown members are ignored (forward
/// compatibility); missing or ill-typed required members, unknown enum
/// strings, and out-of-range values are InvalidArgument.
Result<SummaryRequest> ParseSummaryRequest(const net::JsonValue& json);

/// Renders \p request back to its wire form (the inverse of
/// `ParseSummaryRequest`; used by the router benches and drivers).
net::JsonValue SummaryRequestToJson(const SummaryRequest& request);

/// The engine options a request resolves to.
core::SummarizerOptions RequestOptions(const SummaryRequest& request);

/// \brief Pre-resolved task universe: (scenario, unit, k) -> SummaryTask.
///
/// Task construction needs the recommender outputs (`core::UserRecs`,
/// audiences) which exist only at graph-build time, so the serving binary
/// resolves its unit universe once and the handler answers lookups from
/// this immutable catalog. Shard determinism: two processes built from
/// the same dataset env knobs construct identical catalogs, which is the
/// precondition for routed == in-process responses.
class TaskCatalog {
 public:
  /// Registers \p task under (scenario, unit, k); last insert wins.
  void Add(core::Scenario scenario, uint32_t unit, int k,
           core::SummaryTask task);

  /// Convenience: registers the user-centric tasks for every k-prefix
  /// 1..max_k of \p recs.
  void AddUserCentric(const data::RecGraph& rec_graph,
                      const core::UserRecs& recs, int max_k);

  /// Lookup; nullptr when the triple is unknown.
  const core::SummaryTask* Find(core::Scenario scenario, uint32_t unit,
                                int k) const;

  /// Distinct (scenario, unit, k) triples registered.
  size_t size() const { return tasks_.size(); }

  /// \brief One registered triple (enumeration for drivers and benches,
  /// in insertion order).
  struct Entry {
    core::Scenario scenario;
    uint32_t unit;
    int k;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  static uint64_t Key(core::Scenario scenario, uint32_t unit, int k) {
    return (static_cast<uint64_t>(scenario) << 56) |
           (static_cast<uint64_t>(unit) << 24) |
           (static_cast<uint64_t>(k) & 0xFFFFFF);
  }

  std::unordered_map<uint64_t, core::SummaryTask> tasks_;
  std::vector<Entry> entries_;
};

/// \brief HTTP-facing request handler over one `SummaryService`.
/// Thread-safe: called concurrently by every server worker.
class SummaryHandler {
 public:
  /// Publishes a new graph snapshot on POST /snapshot; wired by the
  /// serving binary (e.g. "rebuild with refreshed weights"). Returns the
  /// new version.
  using PublishFn = std::function<Result<uint64_t>()>;

  /// Appends process-level fields (server queue depth, shed count) into
  /// the `/stats` document; wired by the serving binary which owns the
  /// `net::HttpServer`.
  using ExtraStatsFn = std::function<void(net::JsonValue*)>;

  /// \p service and \p catalog must outlive the handler.
  SummaryHandler(SummaryService* service, const TaskCatalog* catalog,
                 PublishFn publish = nullptr);

  /// Full endpoint dispatch (the `net::HttpServer` handler). Adopts or
  /// mints the request's trace ID, echoes it as an `X-Xsum-Trace`
  /// response header, and records completed `/summarize` traces in
  /// `trace_log()`.
  net::HttpResponse Handle(const net::HttpRequest& request);

  /// The `/summarize` core without HTTP envelope parsing — the entry the
  /// shard router's local fallback, the oneshot CLI, and the in-process
  /// bench arm call directly. \p trace (optional) collects service spans.
  net::HttpResponse Summarize(const SummaryRequest& request,
                              obs::Trace* trace = nullptr);

  /// Draining: readiness reports 503 and the router stops selecting this
  /// shard, but in-flight and straggler `/summarize` requests still
  /// answer (they finish the byte-identical way, DESIGN.md §7.4).
  bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }
  void set_draining(bool draining) {
    draining_.store(draining, std::memory_order_relaxed);
  }

  void set_extra_stats(ExtraStatsFn fn) { extra_stats_ = std::move(fn); }

  /// Tracing toggle (the `XSUM_TRACE` env knob): off skips trace
  /// allocation, spans, the response header echo, and the trace log.
  bool trace_enabled() const {
    return trace_enabled_.load(std::memory_order_relaxed);
  }
  void set_trace_enabled(bool enabled) {
    trace_enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Recent completed `/summarize` traces on this endpoint.
  const obs::TraceLog& trace_log() const { return trace_log_; }

  /// Evaluation-statistics toggle (the `XSUM_EVAL_STATS` env knob): when
  /// on (the default), every served summary is evaluated against the
  /// snapshot it was computed on and folded into the mergeable
  /// accumulator `/evalstats` exposes.
  bool eval_enabled() const {
    return eval_enabled_.load(std::memory_order_relaxed);
  }
  void set_eval_enabled(bool enabled) {
    eval_enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// This endpoint's evaluation sufficient statistics (the `/evalstats`
  /// document before serialization; the router merges these).
  eval::EvalStatsSnapshot EvalSnapshot() const {
    return eval_stats_.Snapshot();
  }

  const TaskCatalog& catalog() const { return *catalog_; }
  SummaryService* service() const { return service_; }

 private:
  net::HttpResponse Dispatch(const net::HttpRequest& request,
                             obs::Trace* trace);
  net::HttpResponse HandleSummarizeBody(const std::string& body,
                                        obs::Trace* trace);
  net::HttpResponse HandleStats();
  net::HttpResponse HandleMetrics(bool json_form);
  net::HttpResponse HandleEvalStats();
  net::HttpResponse HandleTraces();
  net::HttpResponse HandleHealthz();
  net::HttpResponse HandleReadyz();
  net::HttpResponse HandleSnapshot();
  net::HttpResponse HandleDrain(const std::string& body);
  net::HttpResponse HandleUndrain();
  net::HttpResponse HandleChains(const std::string& body);

  SummaryService* service_;
  const TaskCatalog* catalog_;
  PublishFn publish_;
  ExtraStatsFn extra_stats_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> trace_enabled_{true};
  std::atomic<bool> eval_enabled_{true};
  obs::TraceLog trace_log_;
  eval::EvalAccumulator eval_stats_;
};

/// Renders \p summary as the deterministic `/summarize` response document
/// (sorted subgraph ids, no timing fields): `{"snapshot_version",
/// "scenario", "method", "anchors", "terminals", "unreached_terminals",
/// "num_nodes", "num_edges", "nodes", "edges"}`. Written directly into one
/// reserved string, byte-identical to the `net::JsonValue` dump of the
/// same members (tests/service/summary_json_test.cpp).
std::string SummaryToJson(const core::Summary& summary,
                          uint64_t snapshot_version);

/// The `/stats` document as a JSON value (callers merge additional
/// sections before dumping — the handler itself, the router's fleet
/// view).
net::JsonValue ServiceStatsToJsonValue(const ServiceStats& stats);

/// JSON error envelope `{"error": ...}` with the given HTTP status.
net::HttpResponse JsonError(int status, const std::string& message);

}  // namespace xsum::service

#endif  // XSUM_SERVICE_HANDLER_H_
