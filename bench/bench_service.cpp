/// \file bench_service.cpp
/// \brief Throughput of the summary service on a Zipf-skewed repeated-task
/// request stream: warm-cache vs cache-disabled, plus the cold (filling)
/// pass. Production recommendation traffic is heavily repeated — a few hot
/// users/groups dominate — which is exactly what the service's sharded
/// result cache exploits.
///
/// The bench also proves the cache is *safe*: for a sample of distinct
/// requests it compares the cached response bit-for-bit against a fresh
/// single-shot `Summarize` call and aborts on any mismatch.
///
/// A fourth warm arm runs with histogram recording disabled
/// (`ServiceOptions::enable_metrics = false`) — the control that prices
/// the observability layer on the hottest path. Its overhead line is
/// informational: a warm arm lasts well under a millisecond at CI's
/// request counts, too short to resolve a 2% difference.
///
/// A final pair of arms replays a burst of *distinct* KMB requests from
/// concurrent client threads — all cache misses — with the micro-batching
/// window off and then on, and checks the batched responses bit-for-bit
/// against fresh `Summarize` calls. This is the regression row for the
/// cross-request KMB wave at the service layer.
///
/// Env knobs (on top of the standard XSUM_* set):
///   XSUM_REQUESTS         requests per arm                    (default 2000)
///   XSUM_ZIPF             task-mix skew s                     (default 1.1)
///   XSUM_CLIENTS          threads in the concurrent-miss arms (default 6)
///   XSUM_BATCH_WINDOW_US  batched arm's window                (default 1000)
///   XSUM_BATCH_MAX        batched arm's wave-size cap         (default 8)
///
/// A handler arm times warm `SummaryHandler::Handle("/summarize")` hits
/// per method (ST, PCST) with eval on — parse, cache lookup, the fold of
/// the record's memoized metric values, and the response write — and
/// checks each warm body against the fresh summary's bytes.
///
/// XSUM_JSON emits one record per arm; `bench/compare_perf.py` diffs these
/// across commits.

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/scenario.h"
#include "net/http.h"
#include "service/handler.h"
#include "service/service.h"
#include "service/snapshot_registry.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/timer.h"

using namespace xsum;

namespace {

/// One request of the synthetic stream.
struct Request {
  const core::SummaryTask* task;
  const core::SummarizerOptions* options;
};

void CheckIdentical(const core::Summary& fresh, const core::Summary& cached) {
  bool same = fresh.subgraph.nodes() == cached.subgraph.nodes() &&
              fresh.subgraph.edges() == cached.subgraph.edges() &&
              fresh.unreached_terminals == cached.unreached_terminals &&
              fresh.terminals == cached.terminals &&
              fresh.anchors == cached.anchors &&
              fresh.method == cached.method &&
              fresh.scenario == cached.scenario &&
              fresh.memory_bytes == cached.memory_bytes &&
              fresh.input_paths.size() == cached.input_paths.size();
  for (size_t p = 0; same && p < fresh.input_paths.size(); ++p) {
    same = fresh.input_paths[p].nodes == cached.input_paths[p].nodes &&
           fresh.input_paths[p].edges == cached.input_paths[p].edges;
  }
  if (!same) {
    std::fprintf(stderr,
                 "FATAL: cached summary differs from fresh Summarize call\n");
    std::exit(1);
  }
}

}  // namespace

int main() {
  eval::ExperimentConfig defaults;
  defaults.scale = 0.05;
  defaults.users_per_gender = 8;
  defaults.items_popular = 6;
  defaults.items_unpopular = 6;
  eval::ExperimentRunner runner = bench::MakeRunner(defaults);
  const auto data = bench::ValueOrDie(
      runner.ComputeBaseline(rec::RecommenderKind::kPgpr), "baseline");

  // Distinct task universe: every user unit and user group at every
  // k-prefix — the request shapes panel evaluation and serving repeat.
  std::vector<core::SummaryTask> tasks;
  for (const core::UserRecs& ur : data.users) {
    for (int k = 1; k <= 10; ++k) {
      tasks.push_back(core::MakeUserCentricTask(runner.rec_graph(), ur, k));
    }
  }
  for (const auto& group : data.user_groups) {
    for (int k = 1; k <= 10; ++k) {
      tasks.push_back(core::MakeUserGroupTask(runner.rec_graph(), group, k));
    }
  }
  std::vector<core::SummarizerOptions> methods(2);
  methods[0].method = core::SummaryMethod::kSteiner;
  methods[0].lambda = 1.0;
  methods[1].method = core::SummaryMethod::kPcst;

  // Zipf-skewed stream over (task, method) pairs.
  const size_t num_requests = static_cast<size_t>(
      GetEnvNonNegativeInt("XSUM_REQUESTS", 2000));
  const double skew = GetEnvDouble("XSUM_ZIPF", 1.1);
  const size_t universe = tasks.size() * methods.size();
  ZipfTable zipf(universe, skew);
  Rng rng(runner.config().seed + 99);
  std::vector<Request> stream;
  stream.reserve(num_requests);
  for (size_t r = 0; r < num_requests; ++r) {
    const uint64_t pick = zipf.Sample(&rng);
    stream.push_back({&tasks[pick % tasks.size()],
                      &methods[pick / tasks.size()]});
  }

  std::printf("bench_service: Zipf(s=%.2f) stream of %zu requests over %zu "
              "distinct (task, method) pairs\n",
              skew, stream.size(), universe);
  std::printf("config: %s\n\n", runner.config().Describe().c_str());

  service::GraphSnapshotRegistry registry;
  registry.Publish(
      service::GraphSnapshotRegistry::Alias(runner.rec_graph()));

  const auto replay = [&](service::SummaryService& service) {
    WallTimer timer;
    timer.Start();
    for (const Request& request : stream) {
      const auto result = service.Summarize(*request.task, *request.options);
      bench::CheckOk(result.status(), "service request");
    }
    return timer.ElapsedMillis();
  };

  // Arm 1: cache disabled — every request runs the engine.
  service::ServiceOptions uncached_options;
  uncached_options.enable_cache = false;
  service::SummaryService uncached(&registry, uncached_options);
  const double uncached_ms = replay(uncached);

  // Arm 2: cache enabled — a cold filling pass, then the warm pass the
  // serving steady state looks like.
  service::SummaryService cached(&registry, service::ServiceOptions());
  const double cold_ms = replay(cached);
  const double warm_ms = replay(cached);
  const service::ServiceStats stats = cached.Stats();

  // Arm 3: warm cache with histogram recording off — the control that
  // prices the observability layer; counters stay on in both arms (they
  // are not optional). The printed overhead is informational, not a gate:
  // at XSUM_REQUESTS=600 each warm arm lasts about 0.4 ms, so timer and
  // scheduling noise swamp a 2% difference.
  service::ServiceOptions nometrics_options;
  nometrics_options.enable_metrics = false;
  service::SummaryService nometrics(&registry, nometrics_options);
  replay(nometrics);  // fill
  const double nometrics_warm_ms = replay(nometrics);

  // Safety: cached responses are bit-identical to fresh computation.
  size_t checked = 0;
  for (size_t i = 0; i < tasks.size() && checked < 100; i += 7) {
    for (const core::SummarizerOptions& options : methods) {
      const auto hit = cached.Summarize(tasks[i], options);
      bench::CheckOk(hit.status(), "verify request");
      const auto fresh = core::Summarize(runner.rec_graph(), tasks[i], options);
      bench::CheckOk(fresh.status(), "verify fresh");
      CheckIdentical(*fresh, **hit);
      ++checked;
    }
  }

  const size_t n = runner.rec_graph().graph().num_nodes();
  size_t terminal_sum = 0;
  for (const core::SummaryTask& task : tasks) {
    terminal_sum += task.terminals.size();
  }
  const size_t mean_t = tasks.empty() ? 0 : terminal_sum / tasks.size();

  TextTable table({"arm", "requests", "wall ms", "QPS", "hit rate",
                   "p50 ms", "p99 ms"});
  const auto qps = [&](double ms) {
    return ms > 0.0 ? 1000.0 * static_cast<double>(stream.size()) / ms : 0.0;
  };
  table.AddRow({"cache off", FormatCount(static_cast<int64_t>(stream.size())),
                FormatDouble(uncached_ms, 1), FormatDouble(qps(uncached_ms), 0),
                "-", "-", "-"});
  table.AddRow({"cache cold", FormatCount(static_cast<int64_t>(stream.size())),
                FormatDouble(cold_ms, 1), FormatDouble(qps(cold_ms), 0), "-",
                "-", "-"});
  table.AddRow({"cache warm", FormatCount(static_cast<int64_t>(stream.size())),
                FormatDouble(warm_ms, 1), FormatDouble(qps(warm_ms), 0),
                FormatDouble(100.0 * stats.cache.HitRate(), 1) + "%",
                FormatDouble(stats.p50_ms, 4), FormatDouble(stats.p99_ms, 4)});
  table.AddRow({"warm, metrics off",
                FormatCount(static_cast<int64_t>(stream.size())),
                FormatDouble(nometrics_warm_ms, 1),
                FormatDouble(qps(nometrics_warm_ms), 0), "-", "-", "-"});
  table.Print(std::cout);

  const double metrics_overhead_pct =
      nometrics_warm_ms > 0.0
          ? 100.0 * (warm_ms - nometrics_warm_ms) / nometrics_warm_ms
          : 0.0;
  std::printf("\nmetrics-on overhead vs metrics-off (warm cache): %+.2f%% "
              "(informational; not gated)\n",
              metrics_overhead_pct);

  const double speedup = warm_ms > 0.0 ? uncached_ms / warm_ms : 0.0;
  std::printf(
      "\nwarm-cache speedup vs cache-off: %.1fx (target >= 5x); "
      "%zu cached responses verified bit-identical to fresh Summarize\n",
      speedup, checked);
  std::printf(
      "cache: %zu entries, %s of %s budget, %llu evictions, "
      "%llu single-flight coalesced\n",
      stats.cache.entries, FormatBytes(stats.cache.bytes).c_str(),
      FormatBytes(stats.cache.max_bytes).c_str(),
      static_cast<unsigned long long>(stats.cache.evictions),
      static_cast<unsigned long long>(stats.coalesced));

  const double per_request_uncached =
      uncached_ms / static_cast<double>(stream.size());
  const double per_request_warm =
      warm_ms / static_cast<double>(stream.size());
  bench::EmitPerfJson({"service.zipf", "ST+PCST.uncached", n, mean_t,
                       per_request_uncached, 0});
  bench::EmitPerfJson({"service.zipf", "ST+PCST.cached_warm", n, mean_t,
                       per_request_warm, stats.cache.bytes});
  bench::EmitPerfJson({"service.zipf", "ST+PCST.cached_warm_nometrics", n,
                       mean_t,
                       nometrics_warm_ms / static_cast<double>(stream.size()),
                       0});

  // Arm 5: warm handler hits, one row per method. Every user-centric
  // (unit, k) request is answered once to fill the cache (computing and
  // memoizing its metric values), then the timed rounds replay them all.
  service::TaskCatalog catalog;
  for (const core::UserRecs& ur : data.users) {
    catalog.AddUserCentric(runner.rec_graph(), ur, 10);
  }
  service::SummaryService handler_service(&registry,
                                          service::ServiceOptions());
  service::SummaryHandler handler(&handler_service, &catalog);
  const size_t warm_rounds = std::max<size_t>(
      1, num_requests / std::max<size_t>(catalog.size(), 1));
  for (const core::SummaryMethod method :
       {core::SummaryMethod::kSteiner, core::SummaryMethod::kPcst}) {
    std::vector<net::HttpRequest> requests;
    for (const service::TaskCatalog::Entry& entry : catalog.entries()) {
      service::SummaryRequest request;
      request.scenario = entry.scenario;
      request.unit = entry.unit;
      request.k = entry.k;
      request.method = method;
      net::HttpRequest http;
      http.method = "POST";
      http.target = "/summarize";
      http.body = service::SummaryRequestToJson(request).Dump();
      requests.push_back(std::move(http));
      const net::HttpResponse fill = handler.Handle(requests.back());
      const auto fresh = core::Summarize(
          runner.rec_graph(),
          *catalog.Find(entry.scenario, entry.unit, entry.k),
          service::RequestOptions(request));
      bench::CheckOk(fresh.status(), "handler verify fresh");
      if (fill.status != 200 ||
          fill.body != service::SummaryToJson(
                           *fresh, handler_service.serving_version())) {
        std::fprintf(stderr, "FATAL: handler body differs from fresh\n");
        std::exit(1);
      }
    }
    WallTimer timer;
    timer.Start();
    for (size_t round = 0; round < warm_rounds; ++round) {
      for (const net::HttpRequest& http : requests) {
        if (handler.Handle(http).status != 200) {
          std::fprintf(stderr, "FATAL: warm handler hit failed\n");
          std::exit(1);
        }
      }
    }
    const double hit_ms = timer.ElapsedMillis() /
                          static_cast<double>(warm_rounds * requests.size());
    const char* label = core::SummaryMethodToString(method);
    std::printf("\nhandler warm hit (%s, eval on): %.4f ms/request over %zu "
                "requests\n",
                label, hit_ms, warm_rounds * requests.size());
    bench::EmitPerfJson({"service.handler",
                         std::string(label) + ".warm_hit", n, mean_t, hit_ms,
                         0});
  }

  // Arm 6/7: concurrent cold-miss burst — the micro-batching window's
  // target shape. Client threads race *distinct* KMB requests at a cold
  // cache (every one a miss, nothing to coalesce key-wise); λ = 0 keeps
  // the Eq. (1) overlay a no-op so the misses are wave-eligible. The pair
  // replays the identical stream with the window off, then on
  // (XSUM_BATCH_WINDOW_US / XSUM_BATCH_MAX), and compares wall clock and
  // the service-recorded p99.
  core::SummarizerOptions kmb_eligible;
  kmb_eligible.method = core::SummaryMethod::kSteiner;
  kmb_eligible.lambda = 0.0;
  const size_t clients = static_cast<size_t>(
      std::max<int64_t>(2, GetEnvNonNegativeInt("XSUM_CLIENTS", 6)));
  const auto concurrent_replay = [&](service::SummaryService& service) {
    std::atomic<size_t> next{0};
    WallTimer timer;
    timer.Start();
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        for (;;) {
          const size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= tasks.size()) return;
          const auto result = service.Summarize(tasks[i], kmb_eligible);
          bench::CheckOk(result.status(), "concurrent miss request");
        }
      });
    }
    for (std::thread& t : threads) t.join();
    return timer.ElapsedMillis();
  };

  service::SummaryService miss_unbatched(&registry,
                                         service::ServiceOptions());
  const double miss_unbatched_ms = concurrent_replay(miss_unbatched);
  const service::ServiceStats unbatched_stats = miss_unbatched.Stats();

  service::ServiceOptions window_options;
  window_options.batch_window_us =
      GetEnvNonNegativeInt("XSUM_BATCH_WINDOW_US", 1000);
  window_options.batch_max = static_cast<size_t>(
      std::max<int64_t>(2, GetEnvNonNegativeInt("XSUM_BATCH_MAX", 8)));
  service::SummaryService miss_batched(&registry, window_options);
  const double miss_batched_ms = concurrent_replay(miss_batched);
  const service::ServiceStats batched_stats = miss_batched.Stats();

  std::printf(
      "\nconcurrent-miss burst (%zu clients, %zu distinct KMB requests):\n"
      "  window off: %8.1f ms  p50 %7.3f ms  p99 %7.3f ms\n"
      "  window on:  %8.1f ms  p50 %7.3f ms  p99 %7.3f ms "
      "(%llu waves, %llu wave requests)\n",
      clients, tasks.size(), miss_unbatched_ms, unbatched_stats.p50_ms,
      unbatched_stats.p99_ms, miss_batched_ms, batched_stats.p50_ms,
      batched_stats.p99_ms,
      static_cast<unsigned long long>(batched_stats.batch_waves),
      static_cast<unsigned long long>(batched_stats.batch_requests));

  // Safety: the batched service's responses (served from its now-warm
  // cache) stay bit-identical to fresh computation — including the
  // memory_bytes accounting the wave layer mirrors.
  size_t wave_checked = 0;
  for (size_t i = 0; i < tasks.size() && wave_checked < 50; i += 11) {
    const auto hit = miss_batched.Summarize(tasks[i], kmb_eligible);
    bench::CheckOk(hit.status(), "batched verify request");
    const auto fresh =
        core::Summarize(runner.rec_graph(), tasks[i], kmb_eligible);
    bench::CheckOk(fresh.status(), "batched verify fresh");
    CheckIdentical(*fresh, **hit);
    ++wave_checked;
  }
  std::printf("%zu batched responses verified bit-identical to fresh "
              "Summarize\n",
              wave_checked);

  bench::EmitPerfJson({"service.batch", "KMB.concurrent_miss.unbatched", n,
                       mean_t,
                       miss_unbatched_ms / static_cast<double>(tasks.size()),
                       0});
  bench::EmitPerfJson({"service.batch", "KMB.concurrent_miss.batched", n,
                       mean_t,
                       miss_batched_ms / static_cast<double>(tasks.size()),
                       0});
  return 0;
}
