/// \file shard_router.h
/// \brief `service::ShardRouter` — consistent-hash placement of summary
/// requests over N shard backends, with replication, health-driven
/// failover, latency hedging, and drain orchestration (DESIGN.md §6.3,
/// §7).
///
/// Placement. A `/summarize` request maps to a shard by the consistent
/// hash of its **unit fingerprint** — scenario, unit id, method, λ bits,
/// cost mode, and Steiner variant, with **k and prev_k deliberately
/// excluded**. Every k of a (unit, method, λ, mode) chain therefore lands
/// on the same shard, which is what keeps the incremental k-sweep path
/// alive across the network boundary: the (task, k−1) chain checkpoint a
/// predecessor hint names lives in *that shard's* cache, so shard-sticky
/// chains summarize k from k−1 while a k-spreading placement would
/// recompute every step from scratch (§5.3).
///
/// Ring. Each endpoint contributes `virtual_nodes` points hashed onto a
/// 64-bit ring; a request walks clockwise from its fingerprint and takes
/// endpoints in first-appearance order. The first `replicas` entries of
/// that walk form the request's **replica set**: any member may serve it
/// (responses are byte-identical by the §6 invariant), and the router
/// picks the least-loaded selectable member, preferring ring order on
/// ties. The walk order is also the failover order — a transport-level
/// failure (refused, reset, timeout) moves to the next distinct endpoint,
/// bounded at `max_failover` transport failures per request — and when
/// every allowed attempt fails the router answers from its in-process
/// handler (if configured) or 502. HTTP error *statuses* from a shard are
/// proxied verbatim — they are answers, not transport failures.
/// Consistent hashing keeps placement stable under endpoint-list edits:
/// adding a shard remaps only the ring arcs it claims, preserving the
/// other shards' cache and chain state.
///
/// Health. Each endpoint carries an `EndpointHealth` circuit breaker:
/// consecutive transport failures eject it from selection, and a
/// background probe thread re-checks ejected endpoints after an
/// exponentially backed-off quiet period (and idles a cheap liveness
/// probe over healthy ones, so a silent shard death is noticed without
/// waiting for traffic to trip over it). Probes hit `/readyz`, so a
/// draining or not-yet-published shard is avoided like a dead one.
///
/// Hedging. A request whose first attempt is still pending after an
/// adaptive delay (~1.25 × the router-observed p99, floored at
/// `hedge_min_ms`) issues a second attempt to the next replica and takes
/// whichever answers first. Safe because responses are byte-identical;
/// the cost is bounded duplicated compute on the latency tail.
///
/// Drain. `POST /drain {"endpoint": "host:port"}` takes one shard out of
/// rotation gracefully: readiness off, in-flight requests finish, and the
/// shard's chain checkpoints are exported and handed to each unit's ring
/// inheritor so the §5 incremental k-sweep reuse survives the departure.
///
/// Observability. The router owns an `obs::Registry` (attempt latency
/// histogram and every `RouterStats` counter) and a bounded
/// `obs::TraceLog`. A routed request carries one trace ID end to end:
/// adopted from the inbound `X-Xsum-Trace` header (or minted here),
/// attached to every replica attempt, failover, and hedge as spans, and
/// propagated to the shards as a request header so each involved
/// endpoint's `/traces` shows the same ID. `GET /metrics` answers the *fleet* view: the router's own
/// snapshot, the local service's (when present), and every shard's
/// scraped `/metrics.json`, merged with the exact integer `+=` — bucket
/// counts equal the sum of the per-shard scrapes.
///
/// Roles. One binary runs as a shard (no router), a router (endpoints,
/// no local handler), or both (endpoints + local fallback) — see
/// `examples/xsum_server.cpp`.

#ifndef XSUM_SERVICE_SHARD_ROUTER_H_
#define XSUM_SERVICE_SHARD_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/http.h"
#include "net/http_client.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/endpoint_health.h"
#include "service/handler.h"
#include "util/status.h"
#include "util/sync.h"

namespace xsum::service {

/// Hash of the request fields that identify a summarization *chain* —
/// everything in `SummaryRequest` except k and prev_k. Requests with
/// equal fingerprints are shard-sticky.
uint64_t UnitFingerprint(const SummaryRequest& request);

/// Parses "host:port"; host may be empty ("":8080 -> 127.0.0.1).
Result<std::pair<std::string, uint16_t>> ParseEndpoint(
    const std::string& endpoint);

/// \brief Router counters: a typed view of the router registry's
/// `router_*` counters and the per-endpoint request counters.
struct RouterStats {
  uint64_t routed = 0;     ///< requests answered by a shard backend
  uint64_t local = 0;      ///< answered by the in-process fallback
  uint64_t failovers = 0;  ///< endpoint attempts that failed over
  /// Requests whose failover walk hit `max_failover` with candidate
  /// endpoints still untried.
  uint64_t capped = 0;
  uint64_t hedges = 0;      ///< hedged second attempts launched
  uint64_t hedge_wins = 0;  ///< hedges that answered before the primary
  uint64_t ejections = 0;   ///< endpoint transitions into kEjected
  uint64_t reinstatements = 0;  ///< ejected endpoints brought back
  uint64_t probes = 0;          ///< health probes issued
  uint64_t drains = 0;          ///< drain orchestrations started
  /// Chain checkpoints delivered to ring inheritors during drains.
  uint64_t chains_handed_off = 0;
  /// Requests answered per endpoint (index-aligned with the option list).
  std::vector<uint64_t> per_endpoint;
};

/// \brief The routing front. Thread-safe; keeps a small keep-alive
/// connection pool per endpoint.
class ShardRouter {
 public:
  struct Options {
    /// Backend shards as "host:port" strings. May be empty — the router
    /// then degenerates to the local handler (a pure shard role).
    std::vector<std::string> endpoints;
    /// Ring points per endpoint; more points = smoother key spread.
    size_t virtual_nodes = 64;
    /// Replica-set size: how many distinct ring successors may serve a
    /// unit. 1 = the pre-replication single-home behavior.
    size_t replicas = 2;
    /// Answer from the local handler when every endpoint fails (requires
    /// a local handler).
    bool local_fallback = true;
    /// Per-attempt connect/send/recv timeout. A shard whose *compute*
    /// exceeds this is indistinguishable from a down one: the request
    /// fails over and is recomputed elsewhere (byte-identical by the §6
    /// invariant, so correctness is unaffected — the cost is duplicated
    /// work). Size it well above the slowest expected cold summarize.
    int timeout_ms = 5000;
    /// Transport failures tolerated per request before the walk stops
    /// (remaining candidates are skipped and the request falls back or
    /// 502s). Bounds worst-case added latency to
    /// ~max_failover · timeout_ms.
    int max_failover = 2;
    /// Tail hedging: when a first attempt is still pending after the
    /// adaptive delay, race a second replica and take the first answer.
    bool hedge = true;
    /// Floor for the hedge delay (the adaptive term is ~1.25 × observed
    /// p99, clamped to timeout_ms / 2).
    int hedge_min_ms = 20;
    /// Worker threads that carry hedged primaries. When all are busy the
    /// request simply runs unhedged inline — saturation degrades the
    /// optimization, never correctness.
    size_t hedge_workers = 4;
    /// A replica is demoted behind its peers when its in-flight count
    /// exceeds the replica-set minimum by more than this.
    int load_slack = 2;
    /// Circuit-breaker thresholds shared by every endpoint.
    EndpointHealth::Options health;
    /// Run the background probe thread (ejected-endpoint reinstatement
    /// and periodic liveness checks).
    bool health_probes = true;
    /// Probe-loop tick.
    int probe_interval_ms = 100;
    /// Cadence of liveness probes over healthy endpoints (0 = only probe
    /// ejected endpoints).
    int liveness_interval_ms = 1000;
  };

  /// \p local may be null for a pure forwarding router (then
  /// `local_fallback` is moot and total failure is 502). Must outlive the
  /// router.
  ShardRouter(SummaryHandler* local, Options options);
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Full endpoint dispatch: `/summarize` routes by fingerprint;
  /// `/snapshot` broadcasts to every endpoint and the local handler so a
  /// hot swap reaches all serving processes; `/drain` and `/undrain`
  /// (with an "endpoint" body member) orchestrate graceful shard
  /// removal; `/stats` merges the router and local-service views;
  /// `/metrics` and `/metrics.json` answer the fleet-merged snapshot
  /// (`FleetMetrics`), `/evalstats` the fleet-merged evaluation
  /// statistics (`FleetEvalStats`), and `/traces` this router's trace
  /// log; everything else answers from the local handler when present.
  net::HttpResponse Handle(const net::HttpRequest& request);

  /// Routes one parsed summarize request (bench/driver entry).
  net::HttpResponse Summarize(const SummaryRequest& request);

  /// The fleet-wide metrics view: this router's registry, the local
  /// service's snapshot when a local handler exists, and every shard's
  /// scraped `/metrics.json`, merged exactly. A shard that fails to
  /// scrape is skipped and counted in `router_scrape_errors`.
  obs::MetricsSnapshot FleetMetrics();

  /// The fleet-wide evaluation sufficient statistics: the local
  /// handler's accumulator (when present) plus every shard's scraped
  /// `/evalstats`, merged with the exact integer `+=` of
  /// eval/eval_stats.h — **bit-identical** to one process that evaluated
  /// the whole stream. Scrape failures are skipped and counted in
  /// `router_scrape_errors`, same contract as `FleetMetrics`.
  eval::EvalStatsSnapshot FleetEvalStats();

  /// Tracing toggle (the `XSUM_TRACE` env knob).
  bool trace_enabled() const {
    return trace_enabled_.load(std::memory_order_relaxed);
  }
  void set_trace_enabled(bool enabled) {
    trace_enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Recent routed-request traces (one entry per `/summarize` answered
  /// here, spanning every attempt/hedge/failover it took).
  const obs::TraceLog& trace_log() const { return trace_log_; }

  /// The endpoint index \p request routes to first (tests assert
  /// k-stickiness and placement stability on this). Pure ring placement:
  /// health and load do not move the home.
  size_t EndpointFor(const SummaryRequest& request) const;

  /// The request's replica set: the first `replicas` distinct endpoints
  /// of its ring walk, in ring order (health-agnostic).
  std::vector<size_t> ReplicaSetFor(const SummaryRequest& request) const;

  /// Orchestrates a graceful drain of \p label: marks it draining,
  /// forwards `/drain`, and hands the exported chain checkpoints to each
  /// unit's ring inheritor. Returns the JSON report response.
  net::HttpResponse DrainEndpoint(const std::string& label, int wait_ms);

  /// Clears the draining mark and forwards `/undrain`.
  net::HttpResponse UndrainEndpoint(const std::string& label);

  /// Health state of endpoint \p index (test and /stats introspection).
  /// Reporting paths that need more than one field must take
  /// `EndpointHealth::snapshot()` instead of chaining getters.
  EndpointHealth::State endpoint_state(size_t index) const {
    return endpoints_[index]->health.state();
  }

  size_t num_endpoints() const { return endpoints_.size(); }
  RouterStats stats() const;

 private:
  struct Endpoint {
    explicit Endpoint(const EndpointHealth::Options& health_options)
        : health(health_options) {}

    std::string host;
    uint16_t port = 0;
    std::string label;  ///< original "host:port" string
    EndpointHealth health;
    /// Guards the idle connection pool. Ordered before the breaker lock
    /// (router layer → endpoint-health layer, DESIGN.md §9.3); today
    /// neither is ever held across the other.
    sync::Mutex mutex XSUM_ACQUIRED_BEFORE(health.mu());
    std::vector<std::unique_ptr<net::HttpClient>> idle
        XSUM_GUARDED_BY(mutex);
    /// Requests this endpoint answered (`RouterStats::per_endpoint`).
    obs::Counter requests;
  };

  /// \brief Fixed worker pool that carries hedged primary attempts.
  /// Submission never blocks: a saturated pool refuses and the caller
  /// runs inline (unhedged).
  class HedgePool {
   public:
    explicit HedgePool(size_t workers);
    ~HedgePool();
    bool TrySubmit(std::function<void()> task);

   private:
    void WorkerLoop();

    sync::Mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> queue_ XSUM_GUARDED_BY(mutex_);
    bool stopping_ XSUM_GUARDED_BY(mutex_) = false;
    std::vector<std::thread> workers_;
  };

  /// Endpoint indices in ring walk order starting at \p key's successor;
  /// every distinct endpoint appears exactly once.
  std::vector<size_t> RingOrder(uint64_t key) const;

  /// The attempt order for one request: selectable replica-set members
  /// first (load-aware within the set), then the remaining selectable
  /// endpoints in ring order, then — last resort — the unselectable ones.
  std::vector<size_t> AttemptPlan(const std::vector<size_t>& order) const;

  /// \p fresh bypasses the idle pool (used for non-idempotent sends that
  /// must not ride a maybe-reaped connection).
  std::unique_ptr<net::HttpClient> Acquire(Endpoint& endpoint, bool fresh);
  void Release(Endpoint& endpoint, std::unique_ptr<net::HttpClient> client);

  /// One POST (GET when \p body is empty) to one endpoint; IOError on
  /// transport failure. \p extra_headers ride on the request (the trace
  /// ID propagation path).
  Result<net::HttpResponse> Forward(
      size_t endpoint_index, const std::string& target,
      const std::string& body,
      const net::HttpHeaderList& extra_headers = {});

  /// `Forward` wrapped with health accounting: in-flight gauge, latency
  /// EWMA + attempt histogram on success, circuit-breaker feed on
  /// failure. \p trace (may be null) gets an "attempt" span and the
  /// propagated trace header.
  Result<net::HttpResponse> AttemptOnce(size_t endpoint_index,
                                        const std::string& body,
                                        obs::Trace* trace);

  /// Primary on the hedge pool, secondary raced after the adaptive
  /// delay; first answer wins. \p served receives the endpoint whose
  /// response is returned. \p trace is shared because the pool thread may
  /// append the straggling primary's span after this frame returned.
  Result<net::HttpResponse> HedgedAttempt(
      size_t primary, size_t secondary, const std::string& body,
      const std::shared_ptr<obs::Trace>& trace, size_t* served,
      int* transport_failures);

  /// The routed `/summarize` core shared by `Handle` and `Summarize`.
  net::HttpResponse SummarizeRouted(const SummaryRequest& request,
                                    const std::shared_ptr<obs::Trace>& trace);

  /// The scrape-and-merge step shared by `FleetMetrics` and
  /// `FleetEvalStats`: GETs \p target from every endpoint, parses each
  /// body strictly with \p from_json, and `+=`s it into \p merged. A
  /// failed fetch, parse, or shape check skips that shard and counts
  /// `router_scrape_errors` — never a guessed value.
  template <typename Snapshot>
  void MergeShardScrapes(const std::string& target,
                         Result<Snapshot> (*from_json)(const net::JsonValue&),
                         Snapshot* merged);

  net::HttpResponse HandleMetrics(bool json_form);
  net::HttpResponse HandleEvalStats();
  net::HttpResponse HandleTraces();

  /// Current hedge delay: max(hedge_min_ms, 1.25 × windowed p99),
  /// clamped to timeout_ms / 2.
  int HedgeDelayMs() const;

  /// Background loop: reinstatement probes for ejected endpoints,
  /// periodic liveness probes for the rest.
  void ProbeLoop();
  bool ProbeOnce(size_t endpoint_index);

  /// Index of the endpoint labeled \p label; npos when unknown.
  size_t FindEndpoint(const std::string& label) const;

  net::HttpResponse RouterStatsResponse();

  SummaryHandler* local_;
  Options options_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  /// Sorted (point, endpoint index) ring.
  std::vector<std::pair<uint64_t, size_t>> ring_;

  /// Router-side live metrics, the one source of every `RouterStats`
  /// counter (lock-free, DESIGN.md §9.4). The attempt histogram doubles
  /// as the adaptive hedge delay's p99 source (full-history and
  /// mergeable).
  obs::Registry metrics_;
  obs::Histogram* attempt_hist_ = metrics_.GetHistogram("router_attempt_ms");
  obs::Counter* scrape_errors_ = metrics_.GetCounter("router_scrape_errors");
  obs::Counter* routed_ = metrics_.GetCounter("router_routed");
  obs::Counter* local_answers_ = metrics_.GetCounter("router_local");
  obs::Counter* failovers_ = metrics_.GetCounter("router_failovers");
  obs::Counter* capped_ = metrics_.GetCounter("router_capped");
  obs::Counter* hedges_ = metrics_.GetCounter("router_hedges");
  obs::Counter* hedge_wins_ = metrics_.GetCounter("router_hedge_wins");
  obs::Counter* ejections_ = metrics_.GetCounter("router_ejections");
  obs::Counter* reinstatements_ =
      metrics_.GetCounter("router_reinstatements");
  obs::Counter* probes_ = metrics_.GetCounter("router_probes");
  obs::Counter* drains_ = metrics_.GetCounter("router_drains");
  obs::Counter* chains_handed_off_ =
      metrics_.GetCounter("router_chains_handed_off");

  std::atomic<bool> trace_enabled_{true};
  obs::TraceLog trace_log_;

  sync::Mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stopping_ XSUM_GUARDED_BY(stop_mutex_) = false;
  std::thread probe_thread_;
  /// Declared last: destroyed (joined) first, while endpoints_ and the
  /// metrics still exist for in-flight hedged primaries.
  std::unique_ptr<HedgePool> hedge_pool_;
};

}  // namespace xsum::service

#endif  // XSUM_SERVICE_SHARD_ROUTER_H_
