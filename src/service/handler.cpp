#include "service/handler.h"

#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <thread>
#include <utility>

#include "net/http_server.h"
#include "obs/trace.h"
#include "service/chain_transfer.h"
#include "service/shard_router.h"
#include "util/timer.h"

namespace xsum::service {

namespace {

Status ParseScenario(const std::string& s, core::Scenario* out) {
  if (s == "user-centric") {
    *out = core::Scenario::kUserCentric;
  } else if (s == "item-centric") {
    *out = core::Scenario::kItemCentric;
  } else if (s == "user-group") {
    *out = core::Scenario::kUserGroup;
  } else if (s == "item-group") {
    *out = core::Scenario::kItemGroup;
  } else {
    return Status::InvalidArgument("unknown scenario: " + s);
  }
  return Status::OK();
}

Status ParseMethod(const std::string& s, core::SummaryMethod* out) {
  if (s == "baseline") {
    *out = core::SummaryMethod::kBaseline;
  } else if (s == "ST") {
    *out = core::SummaryMethod::kSteiner;
  } else if (s == "PCST") {
    *out = core::SummaryMethod::kPcst;
  } else {
    return Status::InvalidArgument("unknown method: " + s);
  }
  return Status::OK();
}

Status ParseCostMode(const std::string& s, core::CostMode* out) {
  if (s == "log") {
    *out = core::CostMode::kWeightAwareLog;
  } else if (s == "linear") {
    *out = core::CostMode::kWeightAware;
  } else if (s == "unit") {
    *out = core::CostMode::kUnit;
  } else {
    return Status::InvalidArgument("unknown cost_mode: " + s);
  }
  return Status::OK();
}

Status ParseVariant(const std::string& s,
                    core::SteinerOptions::Variant* out) {
  if (s == "kmb") {
    *out = core::SteinerOptions::Variant::kKmb;
  } else if (s == "mehlhorn") {
    *out = core::SteinerOptions::Variant::kMehlhorn;
  } else {
    return Status::InvalidArgument("unknown variant: " + s);
  }
  return Status::OK();
}

const char* CostModeToString(core::CostMode mode) {
  switch (mode) {
    case core::CostMode::kWeightAwareLog:
      return "log";
    case core::CostMode::kWeightAware:
      return "linear";
    case core::CostMode::kUnit:
      return "unit";
  }
  return "log";
}

const char* VariantToString(core::SteinerOptions::Variant variant) {
  return variant == core::SteinerOptions::Variant::kKmb ? "kmb" : "mehlhorn";
}

bool UnitIsUser(core::Scenario scenario) {
  return scenario == core::Scenario::kUserCentric ||
         scenario == core::Scenario::kUserGroup;
}

/// `SummaryToJson`'s integer form: `net::JsonValue`'s int64 lane, so an
/// unsigned value above INT64_MAX prints as its two's-complement int64.
void AppendInt(int64_t value, std::string* out) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  (void)ec;
  out->append(buf, ptr);
}

/// Appends `,"key":[id,id,...]`.
template <typename T>
void AppendIdArray(std::string_view key, const std::vector<T>& ids,
                   std::string* out) {
  out->append(",\"").append(key).append("\":[");
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) out->push_back(',');
    AppendInt(static_cast<int64_t>(ids[i]), out);
  }
  out->push_back(']');
}

}  // namespace

Result<SummaryRequest> ParseSummaryRequest(const net::JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  SummaryRequest request;
  if (const net::JsonValue* scenario = json.Find("scenario")) {
    if (!scenario->is_string()) {
      return Status::InvalidArgument("scenario must be a string");
    }
    XSUM_RETURN_NOT_OK(ParseScenario(scenario->AsString(), &request.scenario));
  }
  const char* unit_key = UnitIsUser(request.scenario) ? "user" : "item";
  const net::JsonValue* unit = json.Find(unit_key);
  if (unit == nullptr || !unit->is_int() || unit->AsInt() < 0 ||
      unit->AsInt() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        std::string("request requires an integer '") + unit_key +
        "' in [0, 4294967295]");
  }
  request.unit = static_cast<uint32_t>(unit->AsInt());
  const net::JsonValue* k = json.Find("k");
  if (k == nullptr || !k->is_int() || k->AsInt() < 1 || k->AsInt() > 1000) {
    return Status::InvalidArgument("k must be an integer in [1, 1000]");
  }
  request.k = static_cast<int>(k->AsInt());
  if (const net::JsonValue* method = json.Find("method")) {
    if (!method->is_string()) {
      return Status::InvalidArgument("method must be a string");
    }
    XSUM_RETURN_NOT_OK(ParseMethod(method->AsString(), &request.method));
  }
  if (const net::JsonValue* lambda = json.Find("lambda")) {
    if (!lambda->is_number()) {
      return Status::InvalidArgument("lambda must be a number");
    }
    request.lambda = lambda->AsDouble();
    if (request.lambda < 0.0) {
      return Status::InvalidArgument("lambda must be >= 0");
    }
  }
  if (const net::JsonValue* mode = json.Find("cost_mode")) {
    if (!mode->is_string()) {
      return Status::InvalidArgument("cost_mode must be a string");
    }
    XSUM_RETURN_NOT_OK(ParseCostMode(mode->AsString(), &request.cost_mode));
  }
  if (const net::JsonValue* variant = json.Find("variant")) {
    if (!variant->is_string()) {
      return Status::InvalidArgument("variant must be a string");
    }
    XSUM_RETURN_NOT_OK(ParseVariant(variant->AsString(), &request.variant));
  }
  if (const net::JsonValue* prev = json.Find("prev_k")) {
    if (!prev->is_int() || prev->AsInt() < 0 || prev->AsInt() >= request.k) {
      return Status::InvalidArgument("prev_k must be an integer in [0, k)");
    }
    request.prev_k = static_cast<int>(prev->AsInt());
  }
  return request;
}

net::JsonValue SummaryRequestToJson(const SummaryRequest& request) {
  net::JsonValue json = net::JsonValue::Object();
  json.Set("scenario", core::ScenarioToString(request.scenario));
  json.Set(UnitIsUser(request.scenario) ? "user" : "item",
           static_cast<int64_t>(request.unit));
  json.Set("k", static_cast<int64_t>(request.k));
  json.Set("method", core::SummaryMethodToString(request.method));
  json.Set("lambda", request.lambda);
  json.Set("cost_mode", CostModeToString(request.cost_mode));
  json.Set("variant", VariantToString(request.variant));
  if (request.prev_k > 0) {
    json.Set("prev_k", static_cast<int64_t>(request.prev_k));
  }
  return json;
}

core::SummarizerOptions RequestOptions(const SummaryRequest& request) {
  core::SummarizerOptions options;
  options.method = request.method;
  options.lambda = request.lambda;
  options.cost_mode = request.cost_mode;
  options.steiner.variant = request.variant;
  return options;
}

void TaskCatalog::Add(core::Scenario scenario, uint32_t unit, int k,
                      core::SummaryTask task) {
  const uint64_t key = Key(scenario, unit, k);
  if (tasks_.find(key) == tasks_.end()) {
    entries_.push_back(Entry{scenario, unit, k});
  }
  tasks_[key] = std::move(task);
}

void TaskCatalog::AddUserCentric(const data::RecGraph& rec_graph,
                                 const core::UserRecs& recs, int max_k) {
  for (int k = 1; k <= max_k; ++k) {
    Add(core::Scenario::kUserCentric, recs.user, k,
        core::MakeUserCentricTask(rec_graph, recs, k));
  }
}

const core::SummaryTask* TaskCatalog::Find(core::Scenario scenario,
                                           uint32_t unit, int k) const {
  const auto it = tasks_.find(Key(scenario, unit, k));
  return it == tasks_.end() ? nullptr : &it->second;
}

SummaryHandler::SummaryHandler(SummaryService* service,
                               const TaskCatalog* catalog, PublishFn publish)
    : service_(service), catalog_(catalog), publish_(std::move(publish)) {}

net::HttpResponse JsonError(int status, const std::string& message) {
  net::JsonValue json = net::JsonValue::Object();
  json.Set("error", message);
  net::HttpResponse response;
  response.status = status;
  response.body = json.Dump();
  return response;
}

net::HttpResponse SummaryHandler::Handle(const net::HttpRequest& request) {
  if (!trace_enabled()) return Dispatch(request, nullptr);
  // Adopt the caller's trace ID (the router propagates one ID across
  // every replica attempt) or mint a fresh one at this edge.
  uint64_t trace_id = 0;
  if (const std::string* header =
          request.FindHeader(obs::kTraceHeaderLower)) {
    obs::ParseTraceId(*header, &trace_id);
  }
  if (trace_id == 0) trace_id = obs::NewTraceId();
  obs::Trace trace(trace_id);
  // The server stamps how long the connection queued for a worker; that
  // wait happened *before* the trace was born, so anchor it at 0.
  if (const std::string* wait = request.FindHeader(net::kQueueWaitHeader)) {
    trace.AddSpan("queue.wait", 0.0, std::strtod(wait->c_str(), nullptr));
  }
  net::HttpResponse response = Dispatch(request, &trace);
  response.extra_headers.emplace_back(obs::kTraceHeader,
                                      obs::TraceIdToHex(trace_id));
  // Only request traces are worth keeping; health probes and metric
  // scrapes would churn the bounded log into noise.
  if (request.target == "/summarize") trace_log_.Record(trace);
  return response;
}

net::HttpResponse SummaryHandler::Dispatch(const net::HttpRequest& request,
                                           obs::Trace* trace) {
  if (request.target == "/summarize") {
    if (request.method != "POST") {
      return JsonError(405, "/summarize requires POST");
    }
    return HandleSummarizeBody(request.body, trace);
  }
  if (request.target == "/stats") {
    if (request.method != "GET") return JsonError(405, "/stats requires GET");
    return HandleStats();
  }
  if (request.target == "/healthz") {
    if (request.method != "GET") {
      return JsonError(405, "/healthz requires GET");
    }
    return HandleHealthz();
  }
  if (request.target == "/readyz") {
    if (request.method != "GET") {
      return JsonError(405, "/readyz requires GET");
    }
    return HandleReadyz();
  }
  if (request.target == "/snapshot") {
    if (request.method != "POST") {
      return JsonError(405, "/snapshot requires POST");
    }
    return HandleSnapshot();
  }
  if (request.target == "/drain") {
    if (request.method != "POST") {
      return JsonError(405, "/drain requires POST");
    }
    return HandleDrain(request.body);
  }
  if (request.target == "/undrain") {
    if (request.method != "POST") {
      return JsonError(405, "/undrain requires POST");
    }
    return HandleUndrain();
  }
  if (request.target == "/chains") {
    if (request.method != "POST") {
      return JsonError(405, "/chains requires POST");
    }
    return HandleChains(request.body);
  }
  if (request.target == "/metrics") {
    if (request.method != "GET") {
      return JsonError(405, "/metrics requires GET");
    }
    return HandleMetrics(/*json_form=*/false);
  }
  if (request.target == "/metrics.json") {
    if (request.method != "GET") {
      return JsonError(405, "/metrics.json requires GET");
    }
    return HandleMetrics(/*json_form=*/true);
  }
  if (request.target == "/evalstats") {
    if (request.method != "GET") {
      return JsonError(405, "/evalstats requires GET");
    }
    return HandleEvalStats();
  }
  if (request.target == "/traces") {
    if (request.method != "GET") {
      return JsonError(405, "/traces requires GET");
    }
    return HandleTraces();
  }
  return JsonError(404, "unknown endpoint: " + request.target);
}

net::HttpResponse SummaryHandler::HandleSummarizeBody(const std::string& body,
                                                      obs::Trace* trace) {
  auto json = net::ParseJson(body);
  if (!json.ok()) {
    return JsonError(400, json.status().message());
  }
  auto request = ParseSummaryRequest(*json);
  if (!request.ok()) {
    return JsonError(400, request.status().message());
  }
  return Summarize(*request, trace);
}

net::HttpResponse SummaryHandler::Summarize(const SummaryRequest& request,
                                            obs::Trace* trace) {
  const core::SummaryTask* task =
      catalog_->Find(request.scenario, request.unit, request.k);
  if (task == nullptr) {
    return JsonError(404, "no task for this (scenario, unit, k)");
  }
  // A stale or unknown predecessor hint is dropped, not an error: hints
  // are a reuse opportunity, never a correctness input (DESIGN.md §5.3).
  const core::SummaryTask* predecessor =
      request.prev_k > 0
          ? catalog_->Find(request.scenario, request.unit, request.prev_k)
          : nullptr;
  // The version must be the one the request was *pinned* to, not a
  // registry read racing a concurrent /snapshot publish.
  uint64_t version = 0;
  const auto result =
      service_->SummarizeRecord(*task, RequestOptions(request), predecessor,
                                &version, UnitFingerprint(request), trace);
  if (!result.ok()) {
    // No published snapshot is a *readiness* condition, not a server bug:
    // the process answers 503 so routers fail over instead of ejecting it
    // for an application error.
    if (result.status().IsFailedPrecondition()) {
      net::HttpResponse response =
          JsonError(503, result.status().ToString());
      response.extra_headers.emplace_back("Retry-After", "1");
      return response;
    }
    // The kernels reject the costs a request's own parameters produce
    // (an Eq. (1) overflow under a huge λ) as InvalidArgument: a client
    // error, not a server fault.
    return JsonError(result.status().IsInvalidArgument() ? 400 : 500,
                     result.status().ToString());
  }
  const SummaryRecord& record = **result;
  if (eval_enabled()) {
    // Evaluate against the snapshot the request was pinned to. A
    // concurrent /snapshot publish can move the registry between the
    // compute and this read; evaluating a summary against a *different*
    // graph would poison the fleet-merge bit-identity, so a version
    // mismatch is counted as a skip instead (itself a mergeable stat).
    // The values themselves are memoized in the record: the first
    // eval-enabled answer computes them, every later hit folds them.
    const GraphSnapshot snap = service_->CurrentSnapshot();
    if (snap.valid() && snap.version == version) {
      eval_stats_.RecordSummary(record.summary(),
                                record.MetricValues(*snap.graph));
    } else {
      eval_stats_.RecordSkipped();
    }
  }
  net::HttpResponse response;
  response.body = SummaryToJson(record.summary(), version);
  return response;
}

net::HttpResponse SummaryHandler::HandleEvalStats() {
  net::HttpResponse response;
  response.body = EvalSnapshot().ToJson().Dump();
  return response;
}

net::HttpResponse SummaryHandler::HandleStats() {
  net::JsonValue json = ServiceStatsToJsonValue(service_->Stats());
  json.Set("draining", draining());
  if (extra_stats_) extra_stats_(&json);
  net::HttpResponse response;
  response.body = json.Dump();
  return response;
}

net::HttpResponse SummaryHandler::HandleMetrics(bool json_form) {
  const obs::MetricsSnapshot snapshot = service_->Metrics();
  net::HttpResponse response;
  if (json_form) {
    response.body = snapshot.ToJson().Dump();
  } else {
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = snapshot.PrometheusText();
  }
  return response;
}

net::HttpResponse SummaryHandler::HandleTraces() {
  net::HttpResponse response;
  response.body = trace_log_.ToJson().Dump();
  return response;
}

net::HttpResponse SummaryHandler::HandleHealthz() {
  net::JsonValue json = net::JsonValue::Object();
  json.Set("status", "ok");
  json.Set("snapshot_version", service_->serving_version());
  json.Set("catalog_tasks", catalog_->size());
  net::HttpResponse response;
  response.body = json.Dump();
  return response;
}

net::HttpResponse SummaryHandler::HandleReadyz() {
  const uint64_t version = service_->serving_version();
  net::JsonValue json = net::JsonValue::Object();
  json.Set("snapshot_version", version);
  json.Set("draining", draining());
  net::HttpResponse response;
  if (draining()) {
    json.Set("status", "draining");
    response.status = 503;
    response.extra_headers.emplace_back("Retry-After", "1");
  } else if (version == 0) {
    json.Set("status", "no snapshot published");
    response.status = 503;
    response.extra_headers.emplace_back("Retry-After", "1");
  } else {
    json.Set("status", "ready");
  }
  response.body = json.Dump();
  return response;
}

net::HttpResponse SummaryHandler::HandleDrain(const std::string& body) {
  int wait_ms = 2000;
  if (!body.empty()) {
    auto json = net::ParseJson(body);
    if (!json.ok()) return JsonError(400, json.status().message());
    if (const net::JsonValue* wait = json->Find("wait_ms")) {
      if (!wait->is_int() || wait->AsInt() < 0 || wait->AsInt() > 60000) {
        return JsonError(400, "wait_ms must be an integer in [0, 60000]");
      }
      wait_ms = static_cast<int>(wait->AsInt());
    }
  }
  // Flip readiness off first so the router (and its probes) stop sending
  // new work here, then wait out requests already inside the service.
  // The wait is bounded: a straggler past the budget still finishes and
  // answers correctly — it just races the export, and a checkpoint it
  // writes after the export is simply not handed off.
  set_draining(true);
  WallTimer timer;
  timer.Start();
  while (service_->in_flight() > 0 && timer.ElapsedMillis() < wait_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  net::JsonValue chains = net::JsonValue::Array();
  for (const SummaryCache::ChainExport& entry : service_->ExportChains()) {
    chains.Append(ChainCheckpointToJson(entry));
  }
  net::JsonValue json = net::JsonValue::Object();
  json.Set("draining", true);
  json.Set("in_flight", service_->in_flight());
  json.Set("chains", std::move(chains));
  net::HttpResponse response;
  response.body = json.Dump();
  return response;
}

net::HttpResponse SummaryHandler::HandleUndrain() {
  set_draining(false);
  net::JsonValue json = net::JsonValue::Object();
  json.Set("draining", false);
  net::HttpResponse response;
  response.body = json.Dump();
  return response;
}

net::HttpResponse SummaryHandler::HandleChains(const std::string& body) {
  auto json = net::ParseJson(body);
  if (!json.ok()) return JsonError(400, json.status().message());
  if (!json->is_object()) {
    return JsonError(400, "/chains body must be a JSON object");
  }
  const net::JsonValue* chains = json->Find("chains");
  if (chains == nullptr || !chains->is_array()) {
    return JsonError(400, "/chains requires a 'chains' array");
  }
  // Imports are best-effort per entry: a checkpoint recorded under a
  // different snapshot version (or malformed) is skipped, never fatal —
  // the unit it covered just computes from scratch on its first miss.
  int64_t imported = 0;
  int64_t skipped = 0;
  for (const net::JsonValue& entry : chains->items()) {
    auto checkpoint = ChainCheckpointFromJson(entry);
    if (!checkpoint.ok()) {
      ++skipped;
      continue;
    }
    const Status status =
        service_->ImportChain(checkpoint->key, checkpoint->route_key,
                              std::move(checkpoint->chain));
    if (status.ok()) {
      ++imported;
    } else {
      ++skipped;
    }
  }
  net::JsonValue out = net::JsonValue::Object();
  out.Set("imported", imported);
  out.Set("skipped", skipped);
  net::HttpResponse response;
  response.body = out.Dump();
  return response;
}

net::HttpResponse SummaryHandler::HandleSnapshot() {
  if (!publish_) {
    return JsonError(503, "no snapshot publisher configured");
  }
  const auto version = publish_();
  if (!version.ok()) {
    return JsonError(500, version.status().ToString());
  }
  net::JsonValue json = net::JsonValue::Object();
  json.Set("snapshot_version", *version);
  net::HttpResponse response;
  response.body = json.Dump();
  return response;
}

std::string SummaryToJson(const core::Summary& summary,
                          uint64_t snapshot_version) {
  // Written straight into one buffer, byte-identical to dumping the
  // equivalent `net::JsonValue` object (keys in this order, no
  // whitespace, integers through the int64 lane). The scenario and
  // method names are fixed ASCII tokens with nothing to escape.
  const size_t ids = summary.anchors.size() + summary.terminals.size() +
                     summary.unreached_terminals.size() +
                     summary.subgraph.num_nodes() +
                     summary.subgraph.num_edges();
  std::string out;
  out.reserve(192 + 11 * ids);
  out.append("{\"snapshot_version\":");
  AppendInt(static_cast<int64_t>(snapshot_version), &out);
  out.append(",\"scenario\":\"")
      .append(core::ScenarioToString(summary.scenario))
      .append("\",\"method\":\"")
      .append(core::SummaryMethodToString(summary.method))
      .push_back('"');
  AppendIdArray("anchors", summary.anchors, &out);
  AppendIdArray("terminals", summary.terminals, &out);
  AppendIdArray("unreached_terminals", summary.unreached_terminals, &out);
  out.append(",\"num_nodes\":");
  AppendInt(static_cast<int64_t>(summary.subgraph.num_nodes()), &out);
  out.append(",\"num_edges\":");
  AppendInt(static_cast<int64_t>(summary.subgraph.num_edges()), &out);
  AppendIdArray("nodes", summary.subgraph.nodes(), &out);
  AppendIdArray("edges", summary.subgraph.edges(), &out);
  out.push_back('}');
  return out;
}

net::JsonValue ServiceStatsToJsonValue(const ServiceStats& stats) {
  net::JsonValue json = net::JsonValue::Object();
  json.Set("requests", stats.requests);
  json.Set("computed", stats.computed);
  json.Set("incremental", stats.incremental);
  json.Set("coalesced", stats.coalesced);
  json.Set("errors", stats.errors);
  json.Set("snapshot_swaps", stats.snapshot_swaps);
  json.Set("snapshot_version", stats.snapshot_version);
  json.Set("chains_imported", stats.chains_imported);
  json.Set("batch_waves", stats.batch_waves);
  json.Set("batch_requests", stats.batch_requests);
  json.Set("in_flight", stats.in_flight);
  json.Set("uptime_seconds", stats.uptime_seconds);
  json.Set("qps", stats.qps);
  json.Set("mean_ms", stats.mean_ms);
  json.Set("p50_ms", stats.p50_ms);
  json.Set("p99_ms", stats.p99_ms);
  net::JsonValue cache = net::JsonValue::Object();
  cache.Set("hits", stats.cache.hits);
  cache.Set("misses", stats.cache.misses);
  cache.Set("hit_rate", stats.cache.HitRate());
  cache.Set("insertions", stats.cache.insertions);
  cache.Set("evictions", stats.cache.evictions);
  cache.Set("rejected", stats.cache.rejected);
  cache.Set("entries", stats.cache.entries);
  cache.Set("bytes", stats.cache.bytes);
  cache.Set("max_bytes", stats.cache.max_bytes);
  json.Set("cache", std::move(cache));
  return json;
}

}  // namespace xsum::service
