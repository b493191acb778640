#include "service/shard_router.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <map>
#include <utility>

#include "net/http_server.h"
#include "service/chain_transfer.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace xsum::service {

namespace {

/// FNV-1a over a string, then one SplitMix64 scramble — the ring-point
/// seed for an endpoint label.
uint64_t HashString(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return SplitMix64(&h);
}

}  // namespace

uint64_t UnitFingerprint(const SummaryRequest& request) {
  // k and prev_k are intentionally absent: the fingerprint names the
  // chain, not the step (see file comment in shard_router.h).
  uint64_t state = 0x5851F42D4C957F2DULL;
  state ^= static_cast<uint64_t>(request.scenario);
  state = SplitMix64(&state);
  state ^= request.unit;
  state = SplitMix64(&state);
  state ^= static_cast<uint64_t>(request.method);
  state = SplitMix64(&state);
  uint64_t lambda_bits = 0;
  static_assert(sizeof(lambda_bits) == sizeof(request.lambda));
  std::memcpy(&lambda_bits, &request.lambda, sizeof(lambda_bits));
  state ^= lambda_bits;
  state = SplitMix64(&state);
  state ^= static_cast<uint64_t>(request.cost_mode);
  state = SplitMix64(&state);
  state ^= static_cast<uint64_t>(request.variant);
  return SplitMix64(&state);
}

Result<std::pair<std::string, uint16_t>> ParseEndpoint(
    const std::string& endpoint) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon + 1 >= endpoint.size()) {
    return Status::InvalidArgument("endpoint must be host:port, got '" +
                                   endpoint + "'");
  }
  std::string host = Trim(endpoint.substr(0, colon));
  if (host.empty()) host = "127.0.0.1";
  const std::string port_str = Trim(endpoint.substr(colon + 1));
  uint32_t port = 0;
  for (char c : port_str) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("invalid port in endpoint '" + endpoint +
                                     "'");
    }
    port = port * 10 + static_cast<uint32_t>(c - '0');
    if (port > 65535) {
      return Status::InvalidArgument("port out of range in endpoint '" +
                                     endpoint + "'");
    }
  }
  if (port == 0) {
    return Status::InvalidArgument("port 0 is not routable in endpoint '" +
                                   endpoint + "'");
  }
  return std::make_pair(std::move(host), static_cast<uint16_t>(port));
}

ShardRouter::HedgePool::HedgePool(size_t workers) {
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ShardRouter::HedgePool::~HedgePool() {
  {
    sync::MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool ShardRouter::HedgePool::TrySubmit(std::function<void()> task) {
  {
    sync::MutexLock lock(mutex_);
    // Refusing beyond one queued task per worker keeps hedging from
    // turning into a latency *source*: the caller runs inline instead.
    if (stopping_ || queue_.size() >= workers_.size()) return false;
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return true;
}

void ShardRouter::HedgePool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      sync::MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) lock.Wait(cv_);
      // Accepted tasks always run (a Summarize caller may be blocked on
      // this round's completion); exit only once the queue is drained.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ShardRouter::ShardRouter(SummaryHandler* local, Options options)
    : local_(local), options_(std::move(options)) {
  for (const std::string& label : options_.endpoints) {
    auto parsed = ParseEndpoint(label);
    if (!parsed.ok()) {
      XSUM_LOG_WARN << "shard router: skipping endpoint: "
                    << parsed.status().ToString();
      continue;
    }
    auto endpoint = std::make_unique<Endpoint>(options_.health);
    endpoint->host = parsed->first;
    endpoint->port = parsed->second;
    endpoint->label = label;
    endpoints_.push_back(std::move(endpoint));
  }
  const size_t points = options_.virtual_nodes == 0 ? 1 : options_.virtual_nodes;
  ring_.reserve(endpoints_.size() * points);
  for (size_t e = 0; e < endpoints_.size(); ++e) {
    uint64_t state = HashString(endpoints_[e]->label);
    for (size_t v = 0; v < points; ++v) {
      ring_.emplace_back(SplitMix64(&state), e);
    }
  }
  std::sort(ring_.begin(), ring_.end());
  metrics_.GetGauge("router_endpoints")
      ->Set(static_cast<int64_t>(endpoints_.size()));
  if (options_.health_probes && !endpoints_.empty()) {
    probe_thread_ = std::thread([this] { ProbeLoop(); });
  }
  if (options_.hedge && endpoints_.size() > 1) {
    hedge_pool_ = std::make_unique<HedgePool>(
        std::max<size_t>(1, options_.hedge_workers));
  }
}

ShardRouter::~ShardRouter() {
  {
    sync::MutexLock lock(stop_mutex_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (probe_thread_.joinable()) probe_thread_.join();
  // Joins the hedge workers while endpoints_ and metrics_ still exist for
  // any in-flight hedged primary.
  hedge_pool_.reset();
}

std::vector<size_t> ShardRouter::RingOrder(uint64_t key) const {
  std::vector<size_t> order;
  if (ring_.empty()) return order;
  order.reserve(endpoints_.size());
  std::vector<bool> seen(endpoints_.size(), false);
  // First ring point at or after the key, wrapping.
  const auto start = std::lower_bound(
      ring_.begin(), ring_.end(), std::make_pair(key, size_t{0}));
  const size_t begin = static_cast<size_t>(start - ring_.begin());
  for (size_t i = 0; i < ring_.size() && order.size() < endpoints_.size();
       ++i) {
    const size_t e = ring_[(begin + i) % ring_.size()].second;
    if (!seen[e]) {
      seen[e] = true;
      order.push_back(e);
    }
  }
  return order;
}

size_t ShardRouter::EndpointFor(const SummaryRequest& request) const {
  const std::vector<size_t> order = RingOrder(UnitFingerprint(request));
  return order.empty() ? 0 : order.front();
}

std::vector<size_t> ShardRouter::ReplicaSetFor(
    const SummaryRequest& request) const {
  std::vector<size_t> order = RingOrder(UnitFingerprint(request));
  const size_t window = std::max<size_t>(options_.replicas, 1);
  if (order.size() > window) order.resize(window);
  return order;
}

std::vector<size_t> ShardRouter::AttemptPlan(
    const std::vector<size_t>& order) const {
  // Selectable replica-set members first (load-aware within the set),
  // then the remaining selectable endpoints as the failover tail, then —
  // last resort, so a fully ejected fleet still gets attempts before the
  // 502/local verdict — the unselectable ones in ring order.
  std::vector<size_t> replicas;
  std::vector<size_t> rest;
  std::vector<size_t> last_resort;
  const size_t window =
      std::min(std::max<size_t>(options_.replicas, 1), order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    const size_t e = order[i];
    if (!endpoints_[e]->health.Selectable()) {
      last_resort.push_back(e);
    } else if (i < window) {
      replicas.push_back(e);
    } else {
      rest.push_back(e);
    }
  }
  if (replicas.size() > 1) {
    int min_in_flight = INT_MAX;
    for (const size_t e : replicas) {
      const EndpointHealth& health = endpoints_[e]->health;
      min_in_flight = std::min(
          min_in_flight, health.in_flight.load(std::memory_order_relaxed));
    }
    // Stable partition keeps ring order among peers of equal standing, so
    // an idle fleet routes every unit to its ring primary (deterministic
    // placement) and load only *demotes* an outlier replica. In-flight
    // depth is the one signal used here: per-endpoint latency EWMAs
    // mostly reflect which *units* an endpoint serves (cold expensive
    // ones vs hot cached ones), so demoting on them reroutes cold
    // traffic off its cache- and chain-sticky home. Escaping a genuinely
    // slow endpoint is hedging's job.
    std::stable_partition(
        replicas.begin(), replicas.end(), [&](size_t e) {
          const EndpointHealth& health = endpoints_[e]->health;
          const int load = health.in_flight.load(std::memory_order_relaxed);
          return load <= min_in_flight + options_.load_slack;
        });
  }
  std::vector<size_t> plan = std::move(replicas);
  plan.insert(plan.end(), rest.begin(), rest.end());
  plan.insert(plan.end(), last_resort.begin(), last_resort.end());
  return plan;
}

std::unique_ptr<net::HttpClient> ShardRouter::Acquire(Endpoint& endpoint,
                                                      bool fresh) {
  if (!fresh) {
    sync::MutexLock lock(endpoint.mutex);
    if (!endpoint.idle.empty()) {
      auto client = std::move(endpoint.idle.back());
      endpoint.idle.pop_back();
      return client;
    }
  }
  net::HttpClient::Options client_options;
  client_options.timeout_ms = options_.timeout_ms;
  // No connect retries inside the router: a refused connect must fail
  // over immediately — the circuit breaker and probe thread own the
  // retry policy here, and a retrying attempt would hold the endpoint's
  // in-flight gauge up and skew load-aware replica selection.
  client_options.connect_retries = 0;
  return std::make_unique<net::HttpClient>(endpoint.host, endpoint.port,
                                           client_options);
}

void ShardRouter::Release(Endpoint& endpoint,
                          std::unique_ptr<net::HttpClient> client) {
  sync::MutexLock lock(endpoint.mutex);
  if (endpoint.idle.size() < 8) {
    endpoint.idle.push_back(std::move(client));
  }
  // Beyond the pool bound the connection just closes with the client.
}

Result<net::HttpResponse> ShardRouter::Forward(
    size_t endpoint_index, const std::string& target, const std::string& body,
    const net::HttpHeaderList& extra_headers) {
  Endpoint& endpoint = *endpoints_[endpoint_index];
  // /snapshot is the one non-idempotent endpoint: it gets a *fresh*
  // connection (a pooled one the shard has idle-reaped would fail a
  // healthy broadcast) and no stale-retry (a resend over a maybe-seen
  // first copy could publish twice and skew the shard's version stream).
  const bool non_idempotent = target == "/snapshot";
  std::unique_ptr<net::HttpClient> client =
      Acquire(endpoint, /*fresh=*/non_idempotent);
  Result<net::HttpResponse> result =
      body.empty() ? client->Get(target, extra_headers)
                   : client->Post(target, body,
                                  /*retry_stale=*/!non_idempotent,
                                  extra_headers);
  if (result.ok()) {
    // Only healthy connections return to the pool.
    Release(endpoint, std::move(client));
  }
  return result;
}

Result<net::HttpResponse> ShardRouter::AttemptOnce(size_t endpoint_index,
                                                   const std::string& body,
                                                   obs::Trace* trace) {
  Endpoint& endpoint = *endpoints_[endpoint_index];
  endpoint.health.in_flight.fetch_add(1, std::memory_order_relaxed);
  const double start_ms = trace != nullptr ? trace->ElapsedMs() : 0.0;
  net::HttpHeaderList headers;
  if (trace != nullptr) {
    headers.emplace_back(obs::kTraceHeader, trace->IdHex());
  }
  WallTimer timer;
  timer.Start();
  Result<net::HttpResponse> result =
      Forward(endpoint_index, "/summarize", body, headers);
  endpoint.health.in_flight.fetch_sub(1, std::memory_order_relaxed);
  const double ms = timer.ElapsedMillis();
  if (trace != nullptr) {
    trace->AddSpan("attempt", start_ms, ms,
                   endpoint.label +
                       (result.ok() ? " ok" : " transport-error"));
  }
  if (result.ok()) {
    attempt_hist_->RecordMs(ms);
    if (endpoint.health.RecordSuccess(ms)) reinstatements_->Add();
  } else {
    // Rate-limited: during a fleet outage every request to a dead shard
    // reaches this line, and an unthrottled WARN per attempt would melt
    // the log (and the disk) exactly when the operator needs it.
    static LogRateLimiter warn_limiter(/*per_sec=*/10.0, /*burst=*/20.0);
    if (warn_limiter.Allow()) {
      XSUM_CLOG_WARN("router", trace != nullptr ? trace->id() : 0)
          << "shard " << endpoint.label
          << " unreachable: " << result.status().ToString();
    }
    if (endpoint.health.RecordFailure(std::chrono::steady_clock::now())) {
      ejections_->Add();
    }
  }
  return result;
}

int ShardRouter::HedgeDelayMs() const {
  const obs::HistogramSnapshot attempts = attempt_hist_->Snapshot();
  const double p99 = attempts.empty() ? 0.0 : attempts.PercentileMs(99.0);
  const int adaptive = static_cast<int>(1.25 * p99);
  const int delay = std::max(options_.hedge_min_ms, adaptive);
  return std::min(delay, std::max(1, options_.timeout_ms / 2));
}

Result<net::HttpResponse> ShardRouter::HedgedAttempt(
    size_t primary, size_t secondary, const std::string& body,
    const std::shared_ptr<obs::Trace>& trace, size_t* served,
    int* transport_failures) {
  struct Round {
    sync::Mutex mutex;
    std::condition_variable cv;
    bool done XSUM_GUARDED_BY(mutex) = false;
    Result<net::HttpResponse> result XSUM_GUARDED_BY(mutex){
        Status::IOError("hedge: pending")};
  };
  auto round = std::make_shared<Round>();
  // The lambda captures the trace by shared_ptr: a straggling primary
  // may append its attempt span on the pool thread after this frame —
  // and even after the caller logged the trace — so the Trace must not
  // die under it (the late span is merely absent from the logged copy).
  const bool submitted =
      hedge_pool_ != nullptr &&
      hedge_pool_->TrySubmit([this, round, primary, body, trace] {
        Result<net::HttpResponse> result =
            AttemptOnce(primary, body, trace.get());
        {
          sync::MutexLock lock(round->mutex);
          round->result = std::move(result);
          round->done = true;
        }
        round->cv.notify_all();
      });
  if (!submitted) {
    // Pool saturated (or hedging off): plain unhedged attempt.
    *served = primary;
    Result<net::HttpResponse> result = AttemptOnce(primary, body, trace.get());
    if (!result.ok()) ++*transport_failures;
    return result;
  }
  bool primary_fast = false;
  {
    sync::MutexLock lock(round->mutex);
    const auto hedge_deadline = std::chrono::steady_clock::now() +
                                std::chrono::milliseconds(HedgeDelayMs());
    while (!round->done) {
      if (lock.WaitUntil(round->cv, hedge_deadline) ==
          std::cv_status::timeout) {
        break;
      }
    }
    primary_fast = round->done;
  }
  if (!primary_fast) {
    // Primary still pending past the delay: race the next replica. The
    // two responses are byte-identical (§6 invariant), so whichever
    // lands first is *the* answer.
    hedges_->Add();
    if (trace != nullptr) {
      trace->AddSpan("hedge.fire", trace->ElapsedMs(), 0.0,
                     endpoints_[secondary]->label);
    }
    Result<net::HttpResponse> second =
        AttemptOnce(secondary, body, trace.get());
    if (second.ok()) {
      bool hedge_win = false;
      {
        sync::MutexLock lock(round->mutex);
        if (!round->done) {
          // The straggling primary finishes on the pool thread; its
          // health bookkeeping still happens there.
          hedge_win = true;
        } else if (round->result.ok()) {
          *served = primary;
          return std::move(round->result);
        }
      }
      if (hedge_win) hedge_wins_->Add();
      *served = secondary;
      return second;
    }
    ++*transport_failures;
    // Secondary failed at the transport: the primary is the only hope
    // left in this round — wait it out.
    sync::MutexLock lock(round->mutex);
    while (!round->done) lock.Wait(round->cv);
    *served = primary;
    if (!round->result.ok()) ++*transport_failures;
    return std::move(round->result);
  }
  sync::MutexLock lock(round->mutex);
  *served = primary;
  if (!round->result.ok()) ++*transport_failures;
  return std::move(round->result);
}

net::HttpResponse ShardRouter::Summarize(const SummaryRequest& request) {
  std::shared_ptr<obs::Trace> trace;
  if (trace_enabled()) {
    trace = std::make_shared<obs::Trace>(obs::NewTraceId());
  }
  net::HttpResponse response = SummarizeRouted(request, trace);
  if (trace != nullptr) {
    response.extra_headers.emplace_back(obs::kTraceHeader, trace->IdHex());
    trace_log_.Record(*trace);
  }
  return response;
}

net::HttpResponse ShardRouter::SummarizeRouted(
    const SummaryRequest& request,
    const std::shared_ptr<obs::Trace>& trace) {
  const uint64_t key = UnitFingerprint(request);
  const std::string body = SummaryRequestToJson(request).Dump();
  const std::vector<size_t> order = RingOrder(key);
  const std::vector<size_t> plan = AttemptPlan(order);
  int failures = 0;
  bool capped = false;
  for (size_t i = 0; i < plan.size(); ++i) {
    if (failures > 0 && failures >= options_.max_failover) {
      // The walk already burned its transport-failure budget; skipping
      // the tail bounds worst-case latency at ~max_failover·timeout.
      capped = true;
      break;
    }
    const size_t e = plan[i];
    size_t served = e;
    Result<net::HttpResponse> result = Status::IOError("unattempted");
    if (i == 0 && plan.size() > 1 && hedge_pool_ != nullptr &&
        endpoints_[plan[1]]->health.Selectable()) {
      result = HedgedAttempt(e, plan[1], body, trace, &served, &failures);
    } else {
      result = AttemptOnce(e, body, trace.get());
      if (!result.ok()) ++failures;
    }
    if (result.ok()) {
      // Failover accounting covers both shapes of rerouting: attempts
      // that failed at the transport this request, and unselectable
      // (ejected/draining) ring predecessors the plan skipped outright.
      uint64_t skipped = 0;
      for (size_t j = 0; j < order.size() && order[j] != served; ++j) {
        if (!endpoints_[order[j]]->health.Selectable()) ++skipped;
      }
      uint64_t moved = static_cast<uint64_t>(failures) + skipped;
      // Served off the ring primary with nothing charged above — a hedge
      // win, or a load demotion, against a primary whose failure has not
      // landed yet. The request still left its home endpoint, and that
      // is a failover even before the circuit breaker catches up.
      if (moved == 0 && served != order.front()) moved = 1;
      routed_->Add();
      failovers_->Add(moved);
      endpoints_[served]->requests.Add();
      // The shard echoed the propagated trace ID; the router re-echoes
      // at its own edge, so drop the inner copy to keep one header on
      // the wire.
      if (trace != nullptr) {
        auto& headers = result->extra_headers;
        headers.erase(
            std::remove_if(headers.begin(), headers.end(),
                           [](const std::pair<std::string, std::string>& h) {
                             return h.first == obs::kTraceHeaderLower;
                           }),
            headers.end());
      }
      return *std::move(result);
    }
  }
  failovers_->Add(static_cast<uint64_t>(failures));
  if (capped) capped_->Add();
  if (local_ != nullptr && (options_.local_fallback || order.empty())) {
    local_answers_->Add();
    obs::SpanTimer local_span(trace.get(), "local.fallback");
    return local_->Summarize(request, trace.get());
  }
  return JsonError(502, "all shard endpoints unreachable");
}

void ShardRouter::ProbeLoop() {
  while (true) {
    {
      sync::MutexLock lock(stop_mutex_);
      const auto tick_deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(std::max(1, options_.probe_interval_ms));
      while (!stopping_) {
        if (lock.WaitUntil(stop_cv_, tick_deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      if (stopping_) return;
    }
    for (size_t e = 0; e < endpoints_.size(); ++e) {
      {
        sync::MutexLock lock(stop_mutex_);
        if (stopping_) return;
      }
      EndpointHealth& health = endpoints_[e]->health;
      if (!health.ShouldProbe(std::chrono::steady_clock::now(),
                              options_.liveness_interval_ms)) {
        continue;
      }
      probes_->Add();
      const EndpointHealth::State before = health.state();
      const bool ok = ProbeOnce(e);
      const bool reinstated =
          health.OnProbeResult(ok, std::chrono::steady_clock::now());
      const EndpointHealth::State after = health.state();
      if (reinstated) reinstatements_->Add();
      if (before != EndpointHealth::State::kEjected &&
          after == EndpointHealth::State::kEjected) {
        ejections_->Add();
      }
    }
  }
}

bool ShardRouter::ProbeOnce(size_t endpoint_index) {
  const Endpoint& endpoint = *endpoints_[endpoint_index];
  net::HttpClient::Options client_options;
  // Probes answer "is it back" — they get a short leash and no connect
  // retries; the next loop tick is the retry.
  client_options.timeout_ms = std::min(options_.timeout_ms, 1000);
  client_options.connect_retries = 0;
  net::HttpClient client(endpoint.host, endpoint.port, client_options);
  const auto result = client.Get("/readyz");
  // Readiness, not liveness: a 503 (draining, no snapshot) keeps the
  // endpoint out of rotation exactly like a dead one.
  return result.ok() && result->status == 200;
}

size_t ShardRouter::FindEndpoint(const std::string& label) const {
  for (size_t e = 0; e < endpoints_.size(); ++e) {
    if (endpoints_[e]->label == label) return e;
  }
  // Accept a normalized host:port spelling of a known endpoint too.
  auto parsed = ParseEndpoint(label);
  if (parsed.ok()) {
    for (size_t e = 0; e < endpoints_.size(); ++e) {
      if (endpoints_[e]->host == parsed->first &&
          endpoints_[e]->port == parsed->second) {
        return e;
      }
    }
  }
  return static_cast<size_t>(-1);
}

net::HttpResponse ShardRouter::DrainEndpoint(const std::string& label,
                                             int wait_ms) {
  const size_t source = FindEndpoint(label);
  if (source == static_cast<size_t>(-1)) {
    return JsonError(404, "unknown endpoint: " + label);
  }
  // Stop selecting the shard *before* asking it to drain, so no request
  // races into it between the flip and the export.
  endpoints_[source]->health.set_draining(true);
  drains_->Add();
  net::JsonValue drain_body = net::JsonValue::Object();
  drain_body.Set("wait_ms", static_cast<int64_t>(wait_ms));
  auto drained = Forward(source, "/drain", drain_body.Dump());
  if (!drained.ok()) {
    // The draining mark stays: the operator asked this shard out of
    // rotation, reachability problems don't override that.
    return JsonError(502, "drain of " + label +
                              " failed: " + drained.status().ToString());
  }
  if (drained->status != 200) return *drained;
  auto report = net::ParseJson(drained->body);
  if (!report.ok() || !report->is_object()) {
    return JsonError(502, "drain of " + label + " returned a bad report");
  }
  const net::JsonValue* chains = report->Find("chains");

  // Hand each exported checkpoint to its unit's ring inheritor: the first
  // selectable endpoint on the unit's ring walk that is not the drained
  // source. With none left, the local handler (when present) inherits —
  // local fallback serves those units next.
  std::map<size_t, net::JsonValue> batches;  // inheritor -> chains array
  const size_t kLocal = static_cast<size_t>(-1);
  int64_t exported = 0;
  int64_t unroutable = 0;
  if (chains != nullptr && chains->is_array()) {
    for (const net::JsonValue& entry : chains->items()) {
      auto checkpoint = ChainCheckpointFromJson(entry);
      if (!checkpoint.ok()) {
        ++unroutable;
        continue;
      }
      ++exported;
      size_t inheritor = kLocal;
      for (const size_t e : RingOrder(checkpoint->route_key)) {
        if (e != source && endpoints_[e]->health.Selectable()) {
          inheritor = e;
          break;
        }
      }
      if (inheritor == kLocal && local_ == nullptr) {
        ++unroutable;
        continue;
      }
      auto it = batches.find(inheritor);
      if (it == batches.end()) {
        it = batches.emplace(inheritor, net::JsonValue::Array()).first;
      }
      it->second.Append(entry);
    }
  }

  net::JsonValue handoff = net::JsonValue::Array();
  for (auto& [inheritor, batch] : batches) {
    const int64_t batch_size = static_cast<int64_t>(batch.items().size());
    net::JsonValue chains_body = net::JsonValue::Object();
    chains_body.Set("chains", std::move(batch));
    net::JsonValue row = net::JsonValue::Object();
    row.Set("endpoint",
            inheritor == kLocal ? "local" : endpoints_[inheritor]->label);
    row.Set("chains", batch_size);
    net::HttpResponse imported_response;
    if (inheritor == kLocal) {
      net::HttpRequest chains_request;
      chains_request.method = "POST";
      chains_request.target = "/chains";
      chains_request.body = chains_body.Dump();
      imported_response = local_->Handle(chains_request);
    } else {
      auto forwarded = Forward(inheritor, "/chains", chains_body.Dump());
      if (!forwarded.ok()) {
        row.Set("status", 502);
        row.Set("error", forwarded.status().message());
        handoff.Append(std::move(row));
        continue;
      }
      imported_response = *std::move(forwarded);
    }
    row.Set("status", imported_response.status);
    auto imported_json = net::ParseJson(imported_response.body);
    if (imported_json.ok() && imported_json->is_object()) {
      if (const net::JsonValue* imported = imported_json->Find("imported")) {
        if (imported->is_int()) {
          row.Set("imported", imported->AsInt());
          chains_handed_off_->Add(
              static_cast<uint64_t>(std::max<int64_t>(0, imported->AsInt())));
        }
      }
    }
    handoff.Append(std::move(row));
  }

  net::JsonValue json = net::JsonValue::Object();
  json.Set("drained", endpoints_[source]->label);
  json.Set("exported", exported);
  json.Set("unroutable", unroutable);
  json.Set("handoff", std::move(handoff));
  net::HttpResponse response;
  response.body = json.Dump();
  return response;
}

net::HttpResponse ShardRouter::UndrainEndpoint(const std::string& label) {
  const size_t e = FindEndpoint(label);
  if (e == static_cast<size_t>(-1)) {
    return JsonError(404, "unknown endpoint: " + label);
  }
  auto undrained = Forward(e, "/undrain", "{}");
  if (!undrained.ok()) {
    return JsonError(502, "undrain of " + label +
                              " failed: " + undrained.status().ToString());
  }
  // Clear the router-side mark only after the shard accepted traffic
  // again, so selection can't race ahead of the shard's readiness flip.
  endpoints_[e]->health.set_draining(false);
  net::JsonValue json = net::JsonValue::Object();
  json.Set("undrained", endpoints_[e]->label);
  json.Set("status", undrained->status);
  net::HttpResponse response;
  response.body = json.Dump();
  return response;
}

net::HttpResponse ShardRouter::RouterStatsResponse() {
  RouterStats rs = stats();
  net::JsonValue router = net::JsonValue::Object();
  router.Set("routed", rs.routed);
  router.Set("local", rs.local);
  router.Set("failovers", rs.failovers);
  router.Set("capped", rs.capped);
  router.Set("hedges", rs.hedges);
  router.Set("hedge_wins", rs.hedge_wins);
  router.Set("ejections", rs.ejections);
  router.Set("reinstatements", rs.reinstatements);
  router.Set("probes", rs.probes);
  router.Set("drains", rs.drains);
  router.Set("chains_handed_off", rs.chains_handed_off);
  net::JsonValue per_endpoint = net::JsonValue::Array();
  for (size_t e = 0; e < endpoints_.size(); ++e) {
    const Endpoint& endpoint = *endpoints_[e];
    net::JsonValue row = net::JsonValue::Object();
    row.Set("endpoint", endpoint.label);
    row.Set("requests", rs.per_endpoint[e]);
    // One snapshot() call, not four chained getters: the row must be an
    // internally consistent view of the endpoint (a healthy endpoint
    // never shows residual consecutive failures, for instance).
    const EndpointHealth::Snapshot snap = endpoint.health.snapshot();
    row.Set("state", EndpointStateName(snap.state));
    row.Set("draining", snap.draining);
    row.Set("in_flight",
            static_cast<int64_t>(
                endpoint.health.in_flight.load(std::memory_order_relaxed)));
    row.Set("ewma_ms", snap.ewma_ms);
    per_endpoint.Append(std::move(row));
  }
  router.Set("endpoints", std::move(per_endpoint));
  net::JsonValue json = net::JsonValue::Object();
  json.Set("router", std::move(router));
  if (local_ != nullptr) {
    net::HttpRequest stats_request;
    stats_request.method = "GET";
    stats_request.target = "/stats";
    auto parsed = net::ParseJson(local_->Handle(stats_request).body);
    if (parsed.ok()) json.Set("service", *std::move(parsed));
  }
  net::HttpResponse response;
  response.body = json.Dump();
  return response;
}

template <typename Snapshot>
void ShardRouter::MergeShardScrapes(
    const std::string& target,
    Result<Snapshot> (*from_json)(const net::JsonValue&), Snapshot* merged) {
  for (size_t e = 0; e < endpoints_.size(); ++e) {
    auto scraped = Forward(e, target, "");
    if (!scraped.ok() || scraped->status != 200) {
      scrape_errors_->Add();
      continue;
    }
    auto json = net::ParseJson(scraped->body);
    if (!json.ok()) {
      scrape_errors_->Add();
      continue;
    }
    auto snapshot = from_json(*json);
    if (!snapshot.ok()) {
      scrape_errors_->Add();
      continue;
    }
    *merged += *snapshot;
  }
}

obs::MetricsSnapshot ShardRouter::FleetMetrics() {
  obs::MetricsSnapshot merged = metrics_.Snapshot();
  if (local_ != nullptr) merged += local_->service()->Metrics();
  MergeShardScrapes("/metrics.json", &obs::MetricsSnapshotFromJson, &merged);
  return merged;
}

net::HttpResponse ShardRouter::HandleMetrics(bool json_form) {
  const obs::MetricsSnapshot merged = FleetMetrics();
  net::HttpResponse response;
  if (json_form) {
    response.body = merged.ToJson().Dump();
  } else {
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = merged.PrometheusText();
  }
  return response;
}

eval::EvalStatsSnapshot ShardRouter::FleetEvalStats() {
  eval::EvalStatsSnapshot merged;
  if (local_ != nullptr) merged += local_->EvalSnapshot();
  MergeShardScrapes("/evalstats", &eval::EvalStatsSnapshotFromJson, &merged);
  return merged;
}

net::HttpResponse ShardRouter::HandleEvalStats() {
  net::HttpResponse response;
  response.body = FleetEvalStats().ToJson().Dump();
  return response;
}

net::HttpResponse ShardRouter::HandleTraces() {
  net::HttpResponse response;
  response.body = trace_log_.ToJson().Dump();
  return response;
}

net::HttpResponse ShardRouter::Handle(const net::HttpRequest& request) {
  if (request.target == "/summarize") {
    if (request.method != "POST") {
      return JsonError(405, "/summarize requires POST");
    }
    auto json = net::ParseJson(request.body);
    if (!json.ok()) return JsonError(400, json.status().message());
    auto parsed = ParseSummaryRequest(*json);
    if (!parsed.ok()) return JsonError(400, parsed.status().message());
    std::shared_ptr<obs::Trace> trace;
    if (trace_enabled()) {
      // Adopt the caller's ID (a router stacked above this one) or mint
      // the fleet-wide one here.
      uint64_t trace_id = 0;
      if (const std::string* header =
              request.FindHeader(obs::kTraceHeaderLower)) {
        obs::ParseTraceId(*header, &trace_id);
      }
      if (trace_id == 0) trace_id = obs::NewTraceId();
      trace = std::make_shared<obs::Trace>(trace_id);
      if (const std::string* wait =
              request.FindHeader(net::kQueueWaitHeader)) {
        trace->AddSpan("queue.wait", 0.0,
                       std::strtod(wait->c_str(), nullptr));
      }
    }
    net::HttpResponse response = SummarizeRouted(*parsed, trace);
    if (trace != nullptr) {
      response.extra_headers.emplace_back(obs::kTraceHeader,
                                          trace->IdHex());
      trace_log_.Record(*trace);
    }
    return response;
  }
  if (request.target == "/snapshot" && request.method == "POST") {
    // Broadcast the hot swap: every shard republishes, then the local
    // handler (when present). Per-shard outcomes are reported; a
    // partially reachable fleet is visible, not hidden.
    net::JsonValue shards = net::JsonValue::Array();
    for (size_t e = 0; e < endpoints_.size(); ++e) {
      net::JsonValue entry = net::JsonValue::Object();
      entry.Set("endpoint", endpoints_[e]->label);
      auto result = Forward(e, "/snapshot", request.body.empty()
                                                ? "{}"
                                                : request.body);
      if (result.ok()) {
        entry.Set("status", result->status);
      } else {
        entry.Set("status", 502);
        entry.Set("error", result.status().message());
      }
      shards.Append(std::move(entry));
    }
    net::JsonValue json = net::JsonValue::Object();
    json.Set("shards", std::move(shards));
    if (local_ != nullptr) {
      const net::HttpResponse local = local_->Handle(request);
      json.Set("local_status", local.status);
    }
    net::HttpResponse response;
    response.body = json.Dump();
    return response;
  }
  if (!endpoints_.empty()) {
    if (request.target == "/stats" && request.method == "GET") {
      return RouterStatsResponse();
    }
    if (request.target == "/metrics" && request.method == "GET") {
      return HandleMetrics(/*json_form=*/false);
    }
    if (request.target == "/metrics.json" && request.method == "GET") {
      return HandleMetrics(/*json_form=*/true);
    }
    if (request.target == "/evalstats" && request.method == "GET") {
      return HandleEvalStats();
    }
    if (request.target == "/traces" && request.method == "GET") {
      return HandleTraces();
    }
    if ((request.target == "/drain" || request.target == "/undrain") &&
        request.method == "POST" && !request.body.empty()) {
      // An "endpoint" member addresses a fleet shard (router
      // orchestration); without one the request is for the local shard
      // and falls through to the handler below.
      auto json = net::ParseJson(request.body);
      if (json.ok() && json->is_object()) {
        if (const net::JsonValue* target = json->Find("endpoint")) {
          if (!target->is_string()) {
            return JsonError(400, "'endpoint' must be a host:port string");
          }
          if (request.target == "/undrain") {
            return UndrainEndpoint(target->AsString());
          }
          int wait_ms = 2000;
          if (const net::JsonValue* wait = json->Find("wait_ms")) {
            if (!wait->is_int() || wait->AsInt() < 0 ||
                wait->AsInt() > 60000) {
              return JsonError(400,
                               "wait_ms must be an integer in [0, 60000]");
            }
            wait_ms = static_cast<int>(wait->AsInt());
          }
          return DrainEndpoint(target->AsString(), wait_ms);
        }
      }
    }
  }
  if (local_ != nullptr) {
    // /healthz, /readyz, shard-side /drain, and anything else answer
    // from the local handler: the router-level service view (404s
    // included).
    return local_->Handle(request);
  }
  if (request.target == "/healthz" && request.method == "GET") {
    net::JsonValue json = net::JsonValue::Object();
    json.Set("status", "ok");
    json.Set("role", "router");
    json.Set("endpoints", endpoints_.size());
    net::HttpResponse response;
    response.body = json.Dump();
    return response;
  }
  if (request.target == "/readyz" && request.method == "GET") {
    // A pure router is ready as soon as it is constructed; per-shard
    // readiness lives behind each endpoint's own /readyz.
    net::JsonValue json = net::JsonValue::Object();
    json.Set("status", "ready");
    json.Set("role", "router");
    net::HttpResponse response;
    response.body = json.Dump();
    return response;
  }
  if (request.target == "/stats" && request.method == "GET") {
    return RouterStatsResponse();
  }
  return JsonError(404, "unknown endpoint: " + request.target);
}

RouterStats ShardRouter::stats() const {
  RouterStats rs;
  rs.routed = routed_->Value();
  rs.local = local_answers_->Value();
  rs.failovers = failovers_->Value();
  rs.capped = capped_->Value();
  rs.hedges = hedges_->Value();
  rs.hedge_wins = hedge_wins_->Value();
  rs.ejections = ejections_->Value();
  rs.reinstatements = reinstatements_->Value();
  rs.probes = probes_->Value();
  rs.drains = drains_->Value();
  rs.chains_handed_off = chains_handed_off_->Value();
  rs.per_endpoint.reserve(endpoints_.size());
  for (const auto& endpoint : endpoints_) {
    rs.per_endpoint.push_back(endpoint->requests.Value());
  }
  return rs;
}

}  // namespace xsum::service
