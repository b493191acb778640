#include "util/env.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "util/logging.h"

namespace xsum {

namespace {

/// True iff \p rest is empty or all ASCII whitespace (a parse that stopped
/// here consumed the whole meaningful value).
bool OnlyTrailingSpace(const char* rest) {
  for (; *rest != '\0'; ++rest) {
    if (!std::isspace(static_cast<unsigned char>(*rest))) return false;
  }
  return true;
}

void WarnInvalid(const std::string& name, const char* raw,
                 const char* expected) {
  XSUM_LOG_WARN << name << "=\"" << raw << "\" is not a valid " << expected
                << "; ignoring it and using the default";
}

}  // namespace

double GetEnvDouble(const std::string& name, double fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr || raw[0] == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(raw, &end);
  // ERANGE: the digits parsed but the value saturated (inf / 0) — treat
  // it as invalid rather than silently serving the saturated value.
  if (end == raw || !OnlyTrailingSpace(end) || errno == ERANGE) {
    WarnInvalid(name, raw, "number");
    return fallback;
  }
  return v;
}

int64_t GetEnvInt(const std::string& name, int64_t fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr || raw[0] == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(raw, &end, 10);
  if (end == raw || !OnlyTrailingSpace(end) || errno == ERANGE) {
    WarnInvalid(name, raw, "integer");
    return fallback;
  }
  return static_cast<int64_t>(v);
}

int64_t GetEnvNonNegativeInt(const std::string& name, int64_t fallback) {
  const int64_t v = GetEnvInt(name, fallback);
  if (v < 0) {
    const char* raw = std::getenv(name.c_str());
    XSUM_LOG_WARN << name << "=" << (raw != nullptr ? raw : "") << " is "
                  << "negative; ignoring it and using the default ("
                  << fallback << ")";
    return fallback;
  }
  return v;
}

std::string GetEnvString(const std::string& name,
                         const std::string& fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr) return fallback;
  return raw;
}

const std::vector<EnvVarInfo>& EnvVarCatalog() {
  // Display order == docs/OPERATIONS.md table order: dataset knobs,
  // engine knobs, serving knobs, network knobs, output knobs.
  static const std::vector<EnvVarInfo> catalog = {
      {"XSUM_SCALE", "double", "bench-specific (0.08 eval, 0.03 serving)",
       "> 0", "all benches, examples",
       "dataset scale factor; 1.0 = the paper's Table II graphs"},
      {"XSUM_USERS", "int", "bench-specific (30 eval, 12 serving)", ">= 0",
       "all benches, examples",
       "sampled users (paper: 200; eval splits them per gender)"},
      {"XSUM_ITEMS", "int", "24", ">= 0", "eval benches",
       "sampled items for item-centric panels (paper: 100)"},
      {"XSUM_SEED", "int", "42", ">= 0", "all benches, examples",
       "master RNG seed; every derived stream is seeded from it"},
      {"XSUM_WORKERS", "int", "0 (auto)", ">= 0",
       "eval benches, examples (panel evaluation)",
       "worker threads for panel evaluation; 0 = one per hardware thread"},
      {"XSUM_CACHE", "int", "1", "0 or 1", "eval benches, xsum_server",
       "route panel/service summarization through the summary cache"},
      {"XSUM_CACHE_MB", "int", "64", ">= 0", "eval benches, xsum_server",
       "summary-cache byte budget in MiB"},
      {"XSUM_BATCH_WINDOW_US", "int", "0 (off)", ">= 0",
       "xsum_server, bench_service",
       "service micro-batching window in microseconds: concurrent "
       "cache-miss computes coalesce into one KMB wave that searches each "
       "shared terminal once"},
      {"XSUM_BATCH_MAX", "int", "8", ">= 2",
       "xsum_server, bench_service",
       "requests per wave at which the micro-batching window closes early"},
      {"XSUM_REQUESTS", "int", "bench-specific (2000 bench_service, "
       "400 xsum_server, 300 bench_net)", ">= 0",
       "bench_service, bench_net, xsum_server",
       "total requests replayed per serving arm/phase"},
      {"XSUM_CLIENTS", "int", "2", ">= 1", "bench_net, bench_service, xsum_server",
       "concurrent client threads driving the request stream"},
      {"XSUM_ZIPF", "double", "1.1", ">= 0",
       "bench_service, bench_net, xsum_server",
       "Zipf skew of the synthetic task mix (0 = uniform)"},
      {"XSUM_PORT", "int", "8080", "0..65535 (0 = ephemeral)",
       "xsum_server serve",
       "HTTP listen port of the serving process"},
      {"XSUM_SHARDS", "string", "\"\" (no shards: run as a plain shard)",
       "comma-separated host:port list", "xsum_server serve",
       "backend shard endpoints; non-empty makes the process a router"},
      {"XSUM_NET_WORKERS", "int", "4", ">= 1",
       "xsum_server serve, bench_net",
       "HTTP server worker threads (connection-serving pool)"},
      {"XSUM_LOCAL_FALLBACK", "int", "1", "0 or 1", "xsum_server serve",
       "router answers from its in-process engine when all shards are down"},
      {"XSUM_REPLICAS", "int", "2", ">= 1", "xsum_server serve",
       "replica-set size: ring successors eligible to serve each unit"},
      {"XSUM_MAX_FAILOVER", "int", "2", ">= 0", "xsum_server serve",
       "transport failures tolerated per routed request before giving up"},
      {"XSUM_HEDGE", "int", "1", "0 or 1", "xsum_server serve",
       "hedge slow requests to a second replica after the adaptive delay"},
      {"XSUM_HEDGE_MS", "int", "20", ">= 1", "xsum_server serve",
       "floor of the adaptive (p99-driven) hedge delay, in milliseconds"},
      {"XSUM_EJECT_MS", "int", "500", ">= 1", "xsum_server serve",
       "base reinstatement backoff after an ejection; doubles per failed "
       "probe"},
      {"XSUM_MAX_QUEUE", "int", "256", ">= 0 (0 = unbounded)",
       "xsum_server serve",
       "accepted-connection queue bound; overflow sheds 503 + Retry-After"},
      {"XSUM_QUEUE_MS", "int", "250", ">= 0 (0 = off)", "xsum_server serve",
       "queue-age budget: connections that waited longer are shed unread"},
      {"XSUM_LOG_LEVEL", "string", "warn",
       "debug, info, warn, error, off, or 0..4",
       "xsum_server, all benches",
       "minimum stderr log level (util/logging structured lines)"},
      {"XSUM_TRACE", "int", "1", "0 or 1", "xsum_server serve",
       "per-request tracing: X-Xsum-Trace propagation, spans, /traces log"},
      {"XSUM_EVAL_STATS", "int", "1", "0 or 1", "xsum_server serve",
       "evaluate every served summary into the mergeable /evalstats "
       "sufficient statistics (eval/eval_stats.h)"},
      {"XSUM_TRACE_RECORD", "string", "\"\" (disabled)", "file path",
       "xsum_server serve",
       "record every answered /summarize to this replay-trace JSONL file"},
      {"XSUM_TARGET", "string", "\"\" (in-process)", "host:port",
       "xsum_server record/replay",
       "serving endpoint the record/replay drivers issue against; empty "
       "answers from a fresh in-process stack"},
      {"XSUM_SCENARIO", "string", "hotkey",
       "diurnal, hotkey, tenants, or recency", "xsum_server record",
       "synthetic workload generator for recorded traces (src/replay)"},
      {"XSUM_GAP_US", "int", "1000", ">= 0", "xsum_server record",
       "mean inter-arrival gap of the generated scenario, in microseconds"},
      {"XSUM_REPLAY_SPEED", "double", "1.0", "> 0", "xsum_server replay",
       "replay speed as a multiple of the recorded inter-arrival gaps"},
      {"XSUM_FAULT", "int", "0", "0 or 1", "bench_net",
       "run the fault-injection arm: kill one shard of a replicated fleet "
       "mid-stream, rejoin it, report per-phase latency"},
      {"XSUM_JSON", "string", "\"\" (disabled)", "file path or \"-\"",
       "all benches",
       "append machine-readable perf records here (\"-\" = stdout)"},
      {"XSUM_CSV_DIR", "string", "\"\" (disabled)", "directory path",
       "eval benches", "export per-panel CSV series into this directory"},
  };
  return catalog;
}

}  // namespace xsum
