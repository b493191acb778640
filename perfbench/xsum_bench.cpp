/// \file xsum_bench.cpp
/// \brief The xsum benchmark: one binary, three workloads.
///
///   panel_sweep  offline k-sweeps of every unit of all four scenarios
///                through `BatchSummarizer::RunPanelSweep` (ST-KMB,
///                ST-Mehlhorn, PCST); no service, no sockets.
///   serve_hot    open-loop Zipf traffic over loopback into one
///                `net::HttpServer` → `SummaryHandler` → `SummaryService`
///                with a pre-warmed cache (hits dominate).
///   serve_sweep  open-loop k-sweep sessions through a `ShardRouter` front
///                to two shard servers whose caches are smaller than the
///                working set (misses, chain reuse and evictions dominate).
///
/// Usage:
///   xsum_bench --workload W --seed N --seconds S --trace 0|1
///              [--tiny] [--spans FILE]
///
/// The untraced run (--trace 0) prints the end-to-end metrics; the traced
/// run (--trace 1) prints the per-layer metrics, computed from spans the
/// benchmark records around calls into each layer's public functions and
/// from public counters. Every served response is byte-compared against a
/// reference computed with a fresh single-shot `core::Summarize`; any
/// mismatch makes the run exit nonzero. The last stdout line is the JSON
/// result.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/batch.h"
#include "core/cost_views.h"
#include "core/pcst.h"
#include "core/scenario.h"
#include "core/steiner.h"
#include "core/summarizer.h"
#include "eval/eval_stats.h"
#include "eval/runner.h"
#include "graph/dijkstra.h"
#include "graph/search_workspace.h"
#include "loadgen.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "obs/trace.h"
#include "service/handler.h"
#include "service/service.h"
#include "service/shard_router.h"
#include "service/snapshot_registry.h"
#include "service/summary_cache.h"
#include "util/rng.h"

#ifndef XSUM_BENCH_BUILD_TYPE
#define XSUM_BENCH_BUILD_TYPE "unknown"
#endif

using namespace xsum;
using namespace xsum::perfbench;

namespace {

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string spans_path;  ///< where the traced run writes its spans
};

/// The constants of each workload; the seed is the only input a run
/// varies. The reasons for each value are in perfbench/README.md.
struct Workload {
  const char* name;
  double rate;        ///< reference rate, requests/s (serve_*)
  double limit_ms;    ///< p99 limit of the max-rate search (serve_*)
  size_t cache_kb;    ///< per-shard cache budget, KiB (0: service default)
  double pcst_share;  ///< share of PCST requests (serve_hot)
};

constexpr Workload kWorkloads[] = {
    {"panel_sweep", 0.0, 0.0, 0, 0.0},
    {"serve_hot", 200.0, 100.0, 0, 0.667},
    {"serve_sweep", 168.0, 200.0, 256, 0.0},
};

/// Set-ups per run; `setup_s` is their median.
constexpr int kSetups = 25;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "xsum_bench: %s\nusage: xsum_bench --workload "
               "panel_sweep|serve_hot|serve_sweep --seed N --seconds S "
               "--trace 0|1 [--tiny] [--spans FILE]\n",
               why);
  std::exit(2);
}

const Workload& FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  Usage(("unknown workload " + name).c_str());
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    const double number = std::strtod(value, &end);
    const bool numeric = end != value && *end == '\0';
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else if (!numeric || number < 0) {
      Usage(("bad value for " + flag).c_str());
    } else if (flag == "--seed") {
      args.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds") {
      args.seconds = number;
    } else if (flag == "--trace") {
      args.trace = number != 0.0;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (args.seconds <= 0) Usage("--seconds must be positive");
  return args;
}

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "xsum_bench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

size_t Nproc() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

/// Runs fn(worker, i) for i in [0, n) on `Nproc()` threads.
void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  const size_t workers = std::min(Nproc(), std::max<size_t>(1, n));
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (size_t i = next++; i < n; i = next++) fn(w, i);
    });
  }
  for (std::thread& t : threads) t.join();
}

double MsSince(int64_t start_ns) { return NsToMs(NowNs() - start_ns); }

// ---------------------------------------------------------------------------
// Dataset, units and methods
// ---------------------------------------------------------------------------

/// The recommender output every workload summarizes (`data`/`rec` layers).
struct Dataset {
  std::unique_ptr<eval::ExperimentRunner> runner;
  eval::BaselineData baseline;
  double dataset_ms = 0.0;
  double recommend_ms = 0.0;
  const data::RecGraph& graph() const { return runner->rec_graph(); }
};

Dataset BuildDataset(double scale, bool tiny) {
  eval::ExperimentConfig config;
  config.scale = scale;
  config.num_workers = Nproc();
  if (tiny) {
    config.users_per_gender = 4;
    config.items_popular = 3;
    config.items_unpopular = 3;
    config.user_group_size = 4;
    config.item_group_size = 3;
  }
  Dataset dataset;
  int64_t t0 = NowNs();
  dataset.runner = std::make_unique<eval::ExperimentRunner>(config);
  const Status init = dataset.runner->Init();
  if (!init.ok()) Die("dataset init", init);
  dataset.dataset_ms = MsSince(t0);
  t0 = NowNs();
  auto baseline = dataset.runner->ComputeBaseline(rec::RecommenderKind::kPgpr);
  if (!baseline.ok()) Die("recommender baseline", baseline.status());
  dataset.baseline = std::move(baseline).ValueOrDie();
  dataset.recommend_ms = MsSince(t0);
  return dataset;
}

/// One summarization unit: a user, item, user group or item group, and
/// the task builder of its k-prefixes.
struct Unit {
  core::Scenario scenario;
  uint32_t id;
  std::function<core::SummaryTask(int)> build;
};

std::vector<Unit> AllUnits(const Dataset& ds, bool all_scenarios) {
  const data::RecGraph& g = ds.graph();
  std::vector<Unit> units;
  for (const core::UserRecs& ur : ds.baseline.users) {
    units.push_back({core::Scenario::kUserCentric, ur.user, [&g, &ur](int k) {
                       return core::MakeUserCentricTask(g, ur, k);
                     }});
  }
  if (!all_scenarios) return units;
  for (const core::ItemAudience& ia : ds.baseline.items) {
    units.push_back({core::Scenario::kItemCentric, ia.item, [&g, &ia](int k) {
                       return core::MakeItemCentricTask(g, ia.item,
                                                        ia.audience, k);
                     }});
  }
  for (size_t i = 0; i < ds.baseline.user_groups.size(); ++i) {
    const auto& group = ds.baseline.user_groups[i];
    units.push_back({core::Scenario::kUserGroup, static_cast<uint32_t>(i),
                     [&g, &group](int k) {
                       return core::MakeUserGroupTask(g, group, k);
                     }});
  }
  for (size_t i = 0; i < ds.baseline.item_groups.size(); ++i) {
    const auto& group = ds.baseline.item_groups[i];
    units.push_back({core::Scenario::kItemGroup, static_cast<uint32_t>(i),
                     [&g, &group](int k) {
                       return core::MakeItemGroupTask(g, group, k);
                     }});
  }
  return units;
}

const std::vector<int> kKs = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};

core::SummarizerOptions SteinerOptions(core::SteinerOptions::Variant v) {
  core::SummarizerOptions options;
  options.method = core::SummaryMethod::kSteiner;
  options.lambda = 1.0;
  options.steiner.variant = v;
  return options;
}

core::SummarizerOptions PcstOptions() {
  core::SummarizerOptions options;
  options.method = core::SummaryMethod::kPcst;
  return options;
}

size_t SummaryNodes(const core::Summary& s) { return s.subgraph.nodes().size(); }

// ---------------------------------------------------------------------------
// Kernels (graph + core), called directly over the shared base views
// ---------------------------------------------------------------------------

/// Median per-call time of each kernel over the terminal sets \p sets.
void MeasureKernels(const data::RecGraph& g,
                    const std::vector<std::vector<graph::NodeId>>& sets,
                    SpanRecorder* spans, MetricSink* out) {
  core::SharedCostViews views(g);
  const graph::CostView& st_view =
      views.ForMode(core::CostMode::kWeightAwareLog);
  const graph::CostView& unit_view = views.unit();
  graph::SearchWorkspace ws;
  std::vector<double> kmb, mehlhorn, pcst, dijkstra;
  core::SteinerOptions kmb_options;
  kmb_options.variant = core::SteinerOptions::Variant::kKmb;
  core::SteinerOptions mehlhorn_options;
  mehlhorn_options.variant = core::SteinerOptions::Variant::kMehlhorn;
  const core::PcstOptions pcst_options;
  const auto time = [&](const char* name, std::vector<double>* into,
                        const std::function<void()>& fn) {
    const int64_t t0 = NowNs();
    fn();
    const int64_t t1 = NowNs();
    spans->Record(name, t0, t1, 0);
    into->push_back(NsToMs(t1 - t0));
  };
  for (int rep = 0; rep < 3; ++rep) {
    for (const auto& terminals : sets) {
      if (terminals.empty()) continue;
      time("kernel.kmb", &kmb, [&] {
        if (!core::SteinerTree(st_view, terminals, kmb_options, &ws).ok()) {
          std::fprintf(stderr, "kernel: KMB failed\n");
        }
      });
      time("kernel.mehlhorn", &mehlhorn, [&] {
        if (!core::SteinerTree(st_view, terminals, mehlhorn_options, &ws)
                 .ok()) {
          std::fprintf(stderr, "kernel: Mehlhorn failed\n");
        }
      });
      time("kernel.pcst", &pcst, [&] {
        if (!core::PcstSummary(unit_view, g.base_weights(), terminals,
                               pcst_options, &ws)
                 .ok()) {
          std::fprintf(stderr, "kernel: PCST failed\n");
        }
      });
      time("kernel.dijkstra", &dijkstra, [&] {
        graph::DijkstraInto(st_view, terminals.front(), terminals, ws);
      });
    }
  }
  out->Set("kernel.kmb_ms", Median(kmb), "ms");
  out->Set("kernel.mehlhorn_ms", Median(mehlhorn), "ms");
  out->Set("kernel.pcst_ms", Median(pcst), "ms");
  out->Set("kernel.dijkstra_us", Median(dijkstra) * 1e3, "us");
}

/// Every per-layer metric, zero-initialised in the order the traced run
/// prints them. A layer a workload does not pass through keeps 0.
void DeclareLayerMetrics(MetricSink* out) {
  const std::pair<const char*, const char*> metrics[] = {
      {"setup.dataset_ms", "ms"},        {"setup.recommend_ms", "ms"},
      {"setup.catalog_ms", "ms"},        {"setup.engine_ms", "ms"},
      {"setup.first_pass_ms", "ms"},     {"core.sweep_ms.kmb", "ms"},
      {"core.sweep_ms.mehlhorn", "ms"},  {"core.sweep_ms.pcst", "ms"},
      {"core.unit_p50_ms", "ms"},        {"core.unit_max_ms", "ms"},
      {"core.peak_workspace_bytes", "bytes"},
      {"core.summary_nodes.st", "count"},
      {"core.summary_nodes.pcst", "count"},
      {"kernel.kmb_ms", "ms"},           {"kernel.mehlhorn_ms", "ms"},
      {"kernel.pcst_ms", "ms"},          {"kernel.dijkstra_us", "us"},
      {"service.hit_ratio", "ratio"},    {"service.incremental_ratio", "ratio"},
      {"service.computed", "count"},     {"service.coalesced", "count"},
      {"service.evictions", "count"},    {"service.rejected", "count"},
      {"service.cache_bytes", "bytes"},  {"handler.handle_p50_ms", "ms"},
      {"handler.handle_p99_ms", "ms"},   {"handler.parse_us.st", "us"},
      {"handler.parse_us.pcst", "us"},   {"handler.lookup_us.st", "us"},
      {"handler.lookup_us.pcst", "us"},  {"handler.eval_us.st", "us"},
      {"handler.eval_us.pcst", "us"},    {"handler.serialize_us.st", "us"},
      {"handler.serialize_us.pcst", "us"},
      {"handler.unattributed_us.st", "us"},
      {"handler.unattributed_us.pcst", "us"},
      {"net.transport_p50_ms", "ms"},    {"net.transport_p99_ms", "ms"},
      {"net.resp_bytes", "bytes"},       {"net.shed", "count"},
      {"router.overhead_p50_ms", "ms"},  {"router.max_shard_share", "ratio"},
      {"router.failovers", "count"},     {"router.hedges", "count"},
      {"capacity.ops_per_s", "1/s"},     {"latency.p99_ms", "ms"},
      {"loadgen.lag_p99_ms", "ms"},
      {"bench.trace_overhead_pct", "%"},
      {"fail_frac", "ratio"},
  };
  for (const auto& [name, unit] : metrics) out->Set(name, 0.0, unit);
}

/// Result bookkeeping shared by every workload.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatched = 0;
};

void PrintEnvironment(const Args& args) {
  std::fprintf(stderr,
               "xsum_bench: workload=%s seed=%llu seconds=%.3g trace=%d "
               "tiny=%d nproc=%zu compiler=%s build=%s\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), args.seconds,
               args.trace ? 1 : 0, args.tiny ? 1 : 0, Nproc(), __VERSION__,
               XSUM_BENCH_BUILD_TYPE);
}

/// Writes the traced run's spans, prints the result line and returns the
/// exit code: 1 when any output differed from its reference.
int Finish(const Args& args, SpanRecorder* spans, const MetricSink& out,
           const Outcome& outcome) {
  if (args.trace && !args.spans_path.empty()) {
    spans->Resolve();
    if (!spans->WriteJsonl(args.spans_path)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   args.spans_path.c_str());
    }
  }
  const bool correct = outcome.mismatched == 0;
  out.PrintResult(correct, outcome.attempted, outcome.failed);
  return correct ? 0 : 1;
}

/// Keeps every CPU busy for \p seconds. On an idle VM the first second
/// of work ran up to 3× slower than the rest, which made set-up times
/// depend on what the machine did before the run.
void WarmUpCpus(double seconds) {
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  ParallelFor(Nproc(), [end](size_t, size_t) {
    volatile uint64_t sink = 0;
    while (NowNs() < end) {
      for (int i = 0; i < 1000; ++i) sink = sink + static_cast<uint64_t>(i);
    }
  });
}

/// Median of repeated set-ups, after a CPU warm-up; the last stack
/// survives for the run.
template <typename Stack>
std::unique_ptr<Stack> RepeatSetup(
    int setups, const std::function<std::unique_ptr<Stack>()>& build,
    std::vector<double>* setup_s) {
  WarmUpCpus(1.0);
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < setups; ++i) {
    stack.reset();
    const int64_t t0 = NowNs();
    stack = build();
    setup_s->push_back(NsToMs(NowNs() - t0) * 1e-3);
    std::fprintf(stderr, "set-up %d: %.4f s\n", i + 1, setup_s->back());
  }
  return stack;
}

// ---------------------------------------------------------------------------
// panel_sweep
// ---------------------------------------------------------------------------

struct PanelStack {
  Dataset data;
  std::vector<Unit> units;
  std::vector<std::function<core::SummaryTask(int)>> builders;
  std::unique_ptr<core::BatchSummarizer> engine;
  double catalog_ms = 0.0;
  double engine_ms = 0.0;
};

struct PanelMethod {
  const char* name;
  core::SummarizerOptions options;
};

int RunPanelSweep(const Args& args) {
  std::vector<double> setup_s;
  std::vector<double> dataset_ms, recommend_ms, catalog_ms, engine_ms;
  std::unique_ptr<PanelStack> stack = RepeatSetup<PanelStack>(
      kSetups,
      [&] {
        auto s = std::make_unique<PanelStack>();
        s->data = BuildDataset(args.tiny ? 0.02 : 0.25, args.tiny);
        int64_t t0 = NowNs();
        s->units = AllUnits(s->data, /*all_scenarios=*/true);
        for (const Unit& u : s->units) s->builders.push_back(u.build);
        s->catalog_ms = MsSince(t0);
        t0 = NowNs();
        s->engine = std::make_unique<core::BatchSummarizer>(s->data.graph(),
                                                            Nproc());
        s->engine_ms = MsSince(t0);
        dataset_ms.push_back(s->data.dataset_ms);
        recommend_ms.push_back(s->data.recommend_ms);
        catalog_ms.push_back(s->catalog_ms);
        engine_ms.push_back(s->engine_ms);
        return s;
      },
      &setup_s);
  const data::RecGraph& g = stack->data.graph();
  std::fprintf(stderr, "panel_sweep: %zu nodes, %zu edges, %zu units\n",
               g.graph().num_nodes(), g.graph().num_edges(),
               stack->units.size());

  const std::vector<PanelMethod> methods = {
      {"kmb", SteinerOptions(core::SteinerOptions::Variant::kKmb)},
      {"mehlhorn", SteinerOptions(core::SteinerOptions::Variant::kMehlhorn)},
      {"pcst", PcstOptions()}};
  Outcome outcome;
  core::BatchSummarizer& engine = *stack->engine;

  // Untimed first pass: warms the engine's workspaces and cost views.
  // Its results also feed the correctness sample below.
  int64_t t0 = NowNs();
  std::vector<std::vector<std::vector<Result<core::Summary>>>> first(
      methods.size());
  for (size_t m = 0; m < methods.size(); ++m) {
    first[m] = engine.RunPanelSweep(stack->builders, kKs, methods[m].options);
  }
  const double first_pass_ms = MsSince(t0);

  // Correctness: a seeded sample of the sweep's summaries must equal a
  // fresh single-shot core::Summarize, byte for byte in wire form.
  Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 17);
  size_t st_nodes = 0, pcst_nodes = 0;
  for (size_t m = 0; m < methods.size(); ++m) {
    for (size_t u = 0; u < first[m].size(); ++u) {
      for (const auto& r : first[m][u]) {
        ++outcome.attempted;
        if (!r.ok()) {
          ++outcome.failed;
          continue;
        }
        if (m == 1) st_nodes += SummaryNodes(*r);
        if (m == 2) pcst_nodes += SummaryNodes(*r);
      }
    }
    const size_t samples = args.tiny ? 8 : 25;
    for (size_t i = 0; i < samples; ++i) {
      const size_t u = rng.Uniform(stack->units.size());
      const size_t k = rng.Uniform(kKs.size());
      const auto& swept = first[m][u][k];
      const auto fresh = core::Summarize(g, stack->units[u].build(kKs[k]),
                                         methods[m].options);
      if (!swept.ok() || !fresh.ok() ||
          service::SummaryToJson(*swept, 0) !=
              service::SummaryToJson(*fresh, 0)) {
        ++outcome.mismatched;
        std::fprintf(stderr, "panel_sweep: %s unit %zu k=%d differs from a "
                             "single-shot Summarize\n",
                     methods[m].name, u, kKs[k]);
      }
    }
  }
  first.clear();

  // Timed window: round-robin RunPanelSweep calls over the three methods.
  // Per-summary cost is kept per method and combined as a balanced mix,
  // so a window that ends mid-round does not skew the figure. Wall times
  // are the benchmark's own clock around each call, so task building and
  // the worker fan-out count as well as the kernels.
  struct MethodTally {
    double wall_ms = 0.0;
    double cpu_us = 0.0;
    size_t summaries = 0;
    std::vector<double> call_ms;
    std::vector<double> call_ms_per_summary;
    std::vector<std::vector<double>> elapsed;  ///< per call
  };
  SpanRecorder spans(args.trace);
  const auto window = [&](double seconds, bool traced) {
    std::vector<MethodTally> tally(methods.size());
    const int64_t start = NowNs();
    for (size_t call = 0;; ++call) {
      const size_t m = call % methods.size();
      if (call >= methods.size() && MsSince(start) >= seconds * 1e3) break;
      const double cpu0 = CpuUs();
      const int64_t c0 = NowNs();
      auto results =
          engine.RunPanelSweep(stack->builders, kKs, methods[m].options);
      const int64_t c1 = NowNs();
      if (traced) {
        spans.Record(m == 0 ? "core.panel_sweep.kmb"
                            : m == 1 ? "core.panel_sweep.mehlhorn"
                                     : "core.panel_sweep.pcst",
                     c0, c1, 0);
      }
      MethodTally& t = tally[m];
      t.cpu_us += CpuUs() - cpu0;
      t.wall_ms += NsToMs(c1 - c0);
      t.call_ms.push_back(NsToMs(c1 - c0));
      t.elapsed.emplace_back();
      for (const auto& unit : results) {
        for (const auto& r : unit) {
          ++outcome.attempted;
          if (!r.ok()) {
            ++outcome.failed;
            continue;
          }
          t.elapsed.back().push_back(r->elapsed_ms);
        }
      }
      t.summaries += t.elapsed.back().size();
      t.call_ms_per_summary.push_back(
          NsToMs(c1 - c0) /
          static_cast<double>(std::max<size_t>(1, t.elapsed.back().size())));
    }
    return tally;
  };
  // Median wall time per summary of each method's calls, averaged over
  // the methods.
  const auto wall_ms_per_summary = [&](const std::vector<MethodTally>& tally) {
    double sum = 0.0;
    for (const MethodTally& t : tally) sum += Median(t.call_ms_per_summary);
    return sum / static_cast<double>(tally.size());
  };
  const auto balanced_ops = [&](const std::vector<MethodTally>& tally) {
    double ms_per_summary = 0.0;
    for (const MethodTally& t : tally) {
      ms_per_summary += t.wall_ms / static_cast<double>(t.summaries);
    }
    return 1e3 * static_cast<double>(tally.size()) / ms_per_summary;
  };
  // Per-summary engine time (Summary::elapsed_ms, the library's own
  // timer) over complete rounds; only the traced run's tail uses it.
  const auto elapsed_ms = [&](const std::vector<MethodTally>& tally) {
    size_t rounds = tally[0].elapsed.size();
    for (const MethodTally& t : tally) {
      rounds = std::min(rounds, t.elapsed.size());
    }
    std::vector<double> elapsed;
    for (const MethodTally& t : tally) {
      for (size_t c = 0; c < rounds; ++c) {
        elapsed.insert(elapsed.end(), t.elapsed[c].begin(),
                       t.elapsed[c].end());
      }
    }
    return elapsed;
  };

  MetricSink out;
  if (!args.trace) {
    const auto tally = window(args.seconds, false);
    double cpu_per_summary = 0.0;
    for (const MethodTally& t : tally) {
      cpu_per_summary += t.cpu_us / static_cast<double>(t.summaries);
    }
    std::fprintf(stderr,
                 "panel_sweep: %zu/%zu/%zu calls, %.2f summaries/s\n",
                 tally[0].call_ms.size(), tally[1].call_ms.size(),
                 tally[2].call_ms.size(), balanced_ops(tally));
    out.Set("setup_s", Median(setup_s), "s");
    out.Set("p50_ms", wall_ms_per_summary(tally), "ms");
    out.Set("cpu_us_per_op",
            cpu_per_summary / static_cast<double>(tally.size()), "us");
    out.Set("peak_rss_mb", PeakRssMb(), "MiB");
  } else {
    DeclareLayerMetrics(&out);
    out.Set("setup.dataset_ms", Median(dataset_ms), "ms");
    out.Set("setup.recommend_ms", Median(recommend_ms), "ms");
    out.Set("setup.catalog_ms", Median(catalog_ms), "ms");
    out.Set("setup.engine_ms", Median(engine_ms), "ms");
    out.Set("setup.first_pass_ms", first_pass_ms, "ms");
    const auto untraced = window(args.seconds / 2, false);
    const double untraced_ops = balanced_ops(untraced);
    out.Set("capacity.ops_per_s", untraced_ops, "1/s");
    out.Set("latency.p99_ms", Percentile(elapsed_ms(untraced), 99.0), "ms");
    const auto traced = window(args.seconds / 2, true);
    const double traced_ops = balanced_ops(traced);
    out.Set("core.sweep_ms.kmb", Median(traced[0].call_ms), "ms");
    out.Set("core.sweep_ms.mehlhorn", Median(traced[1].call_ms), "ms");
    out.Set("core.sweep_ms.pcst", Median(traced[2].call_ms), "ms");
    out.Set("bench.trace_overhead_pct",
            100.0 * (untraced_ops - traced_ops) / untraced_ops, "%");

    // Per-unit sweeps: one RunSweep chain per (unit, method), units fanned
    // over the engine's workers. The slowest unit sets a sweep's tail.
    std::vector<double> unit_ms(stack->units.size() * methods.size());
    for (size_t m = 0; m < methods.size(); ++m) {
      ParallelFor(stack->units.size(), [&](size_t worker, size_t u) {
        const int64_t u0 = NowNs();
        const auto results = engine.RunSweep(
            worker % engine.num_workers(), stack->units[u].build, kKs,
            methods[m].options);
        const int64_t u1 = NowNs();
        spans.Record("core.unit_sweep", u0, u1, 0);
        unit_ms[m * stack->units.size() + u] = NsToMs(u1 - u0);
        for (const auto& r : results) {
          if (!r.ok()) std::fprintf(stderr, "unit sweep failed\n");
        }
      });
    }
    out.Set("core.unit_p50_ms", Median(unit_ms), "ms");
    out.Set("core.unit_max_ms",
            *std::max_element(unit_ms.begin(), unit_ms.end()), "ms");
    out.Set("core.peak_workspace_bytes",
            static_cast<double>(engine.peak_workspace_bytes()), "bytes");
    out.Set("core.summary_nodes.st", static_cast<double>(st_nodes), "count");
    out.Set("core.summary_nodes.pcst", static_cast<double>(pcst_nodes),
            "count");
    std::vector<std::vector<graph::NodeId>> sets;
    for (const Unit& u : stack->units) sets.push_back(u.build(10).terminals);
    MeasureKernels(g, sets, &spans, &out);
    out.Set("fail_frac",
            outcome.attempted ? static_cast<double>(outcome.failed) /
                                    static_cast<double>(outcome.attempted)
                              : 0.0,
            "ratio");
  }
  return Finish(args, &spans, out, outcome);
}

// ---------------------------------------------------------------------------
// serve_hot and serve_sweep
// ---------------------------------------------------------------------------

/// One distinct request of a serving workload: its wire body and the
/// reference response bytes every served answer must equal.
struct Request {
  service::SummaryRequest request;
  std::string body;
  std::string expected;
};

/// One in-process serving process: service, handler and HTTP front.
struct Shard {
  std::unique_ptr<service::SummaryService> service;
  std::unique_ptr<service::SummaryHandler> handler;
  std::unique_ptr<net::HttpServer> server;
};

/// The serving stack of one workload. serve_hot: one shard answered
/// directly. serve_sweep: two shards behind a `ShardRouter` front.
struct ServeStack {
  Dataset data;
  std::vector<Unit> units;
  service::TaskCatalog catalog;
  service::GraphSnapshotRegistry registry;
  std::vector<Shard> shards;
  std::unique_ptr<service::ShardRouter> router;
  std::unique_ptr<net::HttpServer> router_server;
  double catalog_ms = 0.0;
  double engine_ms = 0.0;

  ~ServeStack() {
    if (router_server) router_server->Stop();
    for (Shard& shard : shards) shard.server->Stop();
  }
  uint16_t front_port() const {
    return router_server ? router_server->port() : shards[0].server->port();
  }
};

/// Wraps a server callback so the traced run records its span, keyed by
/// the request id the client sent in the trace header.
net::HttpServer::Handler Spanned(SpanRecorder* spans, const char* name,
                                 net::HttpServer::Handler inner) {
  return [spans, name, inner](const net::HttpRequest& request) {
    if (!spans->enabled()) return inner(request);
    const int64_t t0 = NowNs();
    net::HttpResponse response = inner(request);
    const int64_t t1 = NowNs();
    uint64_t id = 0;
    if (const std::string* h = request.FindHeader(obs::kTraceHeaderLower)) {
      obs::ParseTraceId(*h, &id);
    }
    spans->Record(name, t0, t1, id);
    return response;
  };
}

net::HttpServer::Options ServerOptions(obs::Registry* metrics) {
  // The serving binary's production defaults: admission control on, one
  // metrics registry per process.
  net::HttpServer::Options options;
  options.num_workers = Nproc();
  options.max_pending = 256;
  options.queue_budget_ms = 250;
  options.metrics = metrics;
  return options;
}

service::ServiceOptions ShardServiceOptions(size_t cache_bytes) {
  service::ServiceOptions options;
  options.num_workers = Nproc();
  if (cache_bytes > 0) options.cache.max_bytes = cache_bytes;
  return options;
}

std::unique_ptr<ServeStack> BuildServeStack(const Args& args, bool sweep,
                                            size_t cache_bytes,
                                            SpanRecorder* spans) {
  auto s = std::make_unique<ServeStack>();
  s->data = BuildDataset(args.tiny ? 0.02 : 0.08, args.tiny);
  int64_t t0 = NowNs();
  s->units = AllUnits(s->data, /*all_scenarios=*/sweep);
  for (const Unit& u : s->units) {
    for (int k : kKs) s->catalog.Add(u.scenario, u.id, k, u.build(k));
  }
  s->catalog_ms = MsSince(t0);
  t0 = NowNs();
  s->registry.Publish(
      service::GraphSnapshotRegistry::Alias(s->data.graph()));
  const size_t num_shards = sweep ? 2 : 1;
  for (size_t i = 0; i < num_shards; ++i) {
    Shard shard;
    shard.service = std::make_unique<service::SummaryService>(
        &s->registry, ShardServiceOptions(cache_bytes));
    shard.handler =
        std::make_unique<service::SummaryHandler>(shard.service.get(),
                                                  &s->catalog);
    service::SummaryHandler* handler = shard.handler.get();
    shard.server = std::make_unique<net::HttpServer>(
        Spanned(spans, sweep ? "shard.handle" : "server.handle",
                [handler](const net::HttpRequest& request) {
                  return handler->Handle(request);
                }),
        ServerOptions(shard.service->metrics_registry()));
    const Status started = shard.server->Start();
    if (!started.ok()) Die("shard server start", started);
    s->shards.push_back(std::move(shard));
  }
  if (sweep) {
    service::ShardRouter::Options options;
    for (const Shard& shard : s->shards) {
      options.endpoints.push_back("127.0.0.1:" +
                                  std::to_string(shard.server->port()));
    }
    options.local_fallback = false;
    s->router = std::make_unique<service::ShardRouter>(nullptr, options);
    service::ShardRouter* router = s->router.get();
    s->router_server = std::make_unique<net::HttpServer>(
        Spanned(spans, "router.handle",
                [router](const net::HttpRequest& request) {
                  return router->Handle(request);
                }),
        ServerOptions(nullptr));
    const Status started = s->router_server->Start();
    if (!started.ok()) Die("router server start", started);
  }
  s->engine_ms = MsSince(t0);
  return s;
}

/// Methods a workload requests: 0 = ST (Mehlhorn, λ=1, the serving
/// default), 1 = PCST, and on serve_sweep also 2 = ST-KMB with λ=0, the
/// only configuration whose k-sweeps reuse chain state (DESIGN.md §5).
size_t NumMethods(bool sweep) { return sweep ? 3 : 2; }

/// The request universe: every catalog (unit, k) under every method,
/// index `NumMethods * entry + method`. serve_sweep requests carry the
/// `prev_k = k - 1` chain hint.
std::vector<Request> BuildUniverse(const ServeStack& s, bool sweep) {
  std::vector<Request> universe;
  for (const auto& entry : s.catalog.entries()) {
    for (size_t m = 0; m < NumMethods(sweep); ++m) {
      Request r;
      r.request.scenario = entry.scenario;
      r.request.unit = entry.unit;
      r.request.k = entry.k;
      if (m == 1) r.request.method = core::SummaryMethod::kPcst;
      if (m == 2) {
        r.request.variant = core::SteinerOptions::Variant::kKmb;
        r.request.lambda = 0.0;
      }
      if (sweep) r.request.prev_k = entry.k - 1;
      r.body = service::SummaryRequestToJson(r.request).Dump();
      universe.push_back(std::move(r));
    }
  }
  return universe;
}

/// Reference bytes: a fresh single-shot `core::Summarize` per distinct
/// request, rendered with `SummaryToJson`. Also counts the ST-Mehlhorn
/// and PCST summary nodes and the summaries' cache footprint.
void ComputeReference(const ServeStack& s, bool sweep,
                      std::vector<Request>* universe, size_t* st_nodes,
                      size_t* pcst_nodes, size_t* footprint) {
  const uint64_t version = s.registry.current_version();
  std::vector<size_t> nodes(universe->size(), 0), bytes(universe->size(), 0);
  ParallelFor(universe->size(), [&](size_t, size_t i) {
    Request& r = (*universe)[i];
    const core::SummaryTask* task =
        s.catalog.Find(r.request.scenario, r.request.unit, r.request.k);
    const auto fresh = core::Summarize(s.data.graph(), *task,
                                       service::RequestOptions(r.request));
    if (!fresh.ok()) Die("reference summarize", fresh.status());
    r.expected = service::SummaryToJson(*fresh, version);
    nodes[i] = SummaryNodes(*fresh);
    bytes[i] = service::SummaryFootprintBytes(*fresh);
  });
  for (size_t i = 0; i < universe->size(); ++i) {
    // Method 0 is ST-Mehlhorn and method 1 PCST (see NumMethods).
    const size_t method = i % NumMethods(sweep);
    if (method == 0) *st_nodes += nodes[i];
    if (method == 1) *pcst_nodes += nodes[i];
    *footprint += bytes[i];
  }
}

/// Sums of the public counters the traced run reports as deltas.
struct Counters {
  uint64_t computed = 0, incremental = 0, coalesced = 0;
  uint64_t hits = 0, misses = 0, evictions = 0, rejected = 0;
  uint64_t cache_bytes = 0, shed = 0, failovers = 0, hedges = 0;
  std::vector<uint64_t> per_endpoint;
};

Counters ReadCounters(const ServeStack& s) {
  Counters c;
  for (const Shard& shard : s.shards) {
    const service::ServiceStats st = shard.service->Stats();
    c.computed += st.computed;
    c.incremental += st.incremental;
    c.coalesced += st.coalesced;
    c.hits += st.cache.hits;
    c.misses += st.cache.misses;
    c.evictions += st.cache.evictions;
    c.rejected += st.cache.rejected;
    c.cache_bytes += st.cache.bytes;
    c.shed += shard.server->requests_shed();
  }
  if (s.router) {
    const service::RouterStats rs = s.router->stats();
    c.failovers = rs.failovers;
    c.hedges = rs.hedges;
    c.per_endpoint = rs.per_endpoint;
    c.shed += s.router_server->requests_shed();
  }
  return c;
}

/// Per-request wire-level accounting of one phase.
struct WireTally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> mismatched{0};
  std::atomic<uint64_t> resp_bytes{0};
};

/// The open-loop driver of one serving workload.
class ServeDriver {
 public:
  ServeDriver(bool sweep, double pcst_share, const ServeStack& stack,
              const std::vector<Request>* universe, SpanRecorder* spans)
      : sweep_(sweep), pcst_share_(pcst_share), universe_(universe),
        spans_(spans), methods_(NumMethods(sweep)),
        hot_zipf_(std::max<size_t>(1, universe->size() / methods_), 1.1) {
    for (size_t c = 0; c < Nproc(); ++c) {
      clients_.push_back(std::make_unique<net::HttpClient>(
          "127.0.0.1", stack.front_port()));
    }
    // serve_hot popularity: Zipf ranks over (unit, k) entries in one
    // fixed shuffled order, so every seed sees the same hot set and only
    // the draw sequence varies; the method is a coin with P(PCST) =
    // \p pcst_share.
    hot_order_.resize(universe->size() / methods_);
    std::iota(hot_order_.begin(), hot_order_.end(), 0u);
    Rng fixed(0x5EED);
    fixed.Shuffle(&hot_order_);
    // serve_sweep deck: every unit under ST-Mehlhorn and PCST, and the
    // group units also under ST-KMB λ=0. Group sweeps have the largest
    // terminal sets, so chain reuse saves most there; KMB λ=0 sessions of
    // every unit would put the request median into the gap between the
    // cache-hit and cache-miss modes (README, "The sweep mix").
    for (uint32_t pair = 0; pair < universe->size() / kKs.size(); ++pair) {
      const core::Scenario scenario = stack.units[pair / methods_].scenario;
      if (pair % methods_ < 2 || scenario == core::Scenario::kUserGroup ||
          scenario == core::Scenario::kItemGroup) {
        deck_.push_back(pair);
      }
    }
  }

  /// Requests per job (a serve_sweep session walks k = 1..10).
  double RequestsPerJob() const { return sweep_ ? kKs.size() : 1.0; }

  /// Poisson schedule at \p rate_rps requests/s over \p seconds.
  std::vector<Shot> Schedule(double rate_rps, double seconds, Rng* rng) {
    return Jobs(static_cast<size_t>(
                    std::llround(rate_rps / RequestsPerJob() * seconds)),
                seconds, rng);
  }

  /// \p count jobs at Poisson times over \p seconds (0: all at once).
  std::vector<Shot> Jobs(size_t count, double seconds, Rng* rng) {
    deck_pos_ = deck_.size();  // every phase starts on a fresh deck
    return PoissonSchedule(
        count, seconds, rng, [&](Rng* r) {
          if (sweep_) {
            // A session: one (unit, method) pair dealt from a shuffled
            // deck of all pairs, so every unit of the four scenarios and
            // every method recurs equally often and a phase that deals
            // whole decks has the same work mix for every seed; the seed
            // only orders the deck.
            if (deck_pos_ == deck_.size()) {
              r->Shuffle(&deck_);
              deck_pos_ = 0;
            }
            return deck_[deck_pos_++];
          }
          const uint32_t method = r->Bernoulli(pcst_share_) ? 1 : 0;
          const uint32_t entry =
              hot_order_[static_cast<size_t>(hot_zipf_.Sample(r))];
          return static_cast<uint32_t>(methods_ * entry + method);
        });
  }

  PhaseResult Run(const std::vector<Shot>& shots, double cutoff_s,
                  WireTally* tally) {
    return RunOpenLoop(
        clients_.size(), shots, cutoff_s,
        [&](size_t c, const Shot& shot, int64_t due,
            std::vector<Sample>* out) {
          if (!sweep_) {
            out->push_back(Issue(c, shot.item, due, tally));
            return;
          }
          // Session: universe index of (unit u, k, method m) is
          // M * (u * 10 + k - 1) + m; each step is due when the previous
          // one completed.
          const size_t unit = shot.item / methods_;
          const size_t method = shot.item % methods_;
          for (size_t k = 0; k < kKs.size(); ++k) {
            const size_t index = methods_ * (unit * kKs.size() + k) + method;
            out->push_back(Issue(c, index, due, tally));
            due = NowNs();
          }
        });
  }

 private:
  Sample Issue(size_t c, size_t index, int64_t due, WireTally* tally) {
    const Request& r = (*universe_)[index];
    const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
    const int64_t t0 = NowNs();
    const auto response = clients_[c]->Post(
        "/summarize", r.body, /*retry_stale=*/true,
        {{obs::kTraceHeader, obs::TraceIdToHex(id)}});
    const int64_t t1 = NowNs();
    spans_->Record("client.post", t0, t1, id);
    Sample sample;
    sample.latency_ms = NsToMs(t1 - due);
    tally->attempted.fetch_add(1, std::memory_order_relaxed);
    if (!response.ok() || response->status != 200) {
      tally->failed.fetch_add(1, std::memory_order_relaxed);
      if (failures_logged_.fetch_add(1) < 5) {
        std::fprintf(stderr, "request failed: %s\n",
                     response.ok() ? response->body.c_str()
                                   : response.status().ToString().c_str());
      }
      return sample;
    }
    tally->resp_bytes.fetch_add(response->body.size(),
                                std::memory_order_relaxed);
    if (response->body != r.expected) {
      tally->failed.fetch_add(1, std::memory_order_relaxed);
      tally->mismatched.fetch_add(1, std::memory_order_relaxed);
      if (failures_logged_.fetch_add(1) < 5) {
        std::fprintf(stderr, "response bytes differ from the reference: %s\n",
                     r.body.c_str());
      }
      return sample;
    }
    sample.ok = true;
    return sample;
  }

  const bool sweep_;
  const double pcst_share_;
  const std::vector<Request>* universe_;
  SpanRecorder* spans_;
  std::vector<std::unique_ptr<net::HttpClient>> clients_;
  const size_t methods_;
  ZipfTable hot_zipf_;
  std::vector<uint32_t> hot_order_;
  std::vector<uint32_t> deck_;  ///< serve_sweep (unit, method) pairs
  size_t deck_pos_ = 0;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> failures_logged_{0};
};

std::vector<double> Latencies(const PhaseResult& phase) {
  std::vector<double> out;
  out.reserve(phase.samples.size());
  for (const Sample& s : phase.samples) out.push_back(s.latency_ms);
  return out;
}

bool AllOk(const PhaseResult& phase) {
  for (const Sample& s : phase.samples) {
    if (!s.ok) return false;
  }
  return phase.unsent == 0;
}

/// Per-method warm-hit waterfall on a twin service: times the public
/// pieces the handler is made of, then `SummaryHandler::Handle` on the
/// same request, and reports each piece's median and the median gap.
void HandlerWaterfall(ServeStack& s, const std::vector<Request>& universe,
                      size_t methods, uint64_t seed, SpanRecorder* spans,
                      MetricSink* out, Outcome* outcome) {
  service::SummaryService twin(&s.registry, ShardServiceOptions(0));
  service::SummaryHandler twin_handler(&twin, &s.catalog);
  eval::EvalAccumulator accumulator;
  for (int m = 0; m < 2; ++m) {
    // A seeded sample of distinct (unit, k) entries under method m.
    std::vector<size_t> sample;
    Rng rng(seed + static_cast<uint64_t>(m));
    const size_t entries = universe.size() / methods;
    for (size_t i = 0; i < std::min<size_t>(entries, 100); ++i) {
      sample.push_back(methods * rng.Uniform(entries) + m);
    }
    for (size_t i : sample) twin_handler.Summarize(universe[i].request);
    std::vector<double> parse, lookup, evaluate, serialize, gap;
    uint64_t id = 1ull << 48;
    for (int rep = 0; rep < 4; ++rep) {
      for (size_t i : sample) {
        const Request& r = universe[i];
        ++id;
        net::HttpRequest http;
        http.method = "POST";
        http.target = "/summarize";
        http.body = r.body;
        http.headers.emplace_back(obs::kTraceHeaderLower,
                                  obs::TraceIdToHex(id));
        // Odd repetitions time Handle first, so neither side always runs
        // on caches the other just warmed.
        net::HttpResponse response;
        int64_t t5 = 0, t6 = 0;
        const auto handle = [&] {
          t5 = NowNs();
          response = twin_handler.Handle(http);
          t6 = NowNs();
        };
        if (rep % 2 == 1) handle();
        ++outcome->attempted;
        const int64_t t0 = NowNs();
        auto json = net::ParseJson(r.body);
        auto request = json.ok() ? service::ParseSummaryRequest(*json)
                                 : Result<service::SummaryRequest>(
                                       json.status());
        const core::SummaryTask* task =
            request.ok()
                ? s.catalog.Find(request->scenario, request->unit, request->k)
                : nullptr;
        if (task == nullptr) {
          ++outcome->failed;
          continue;
        }
        const core::SummaryTask* predecessor =
            request->prev_k > 0 ? s.catalog.Find(request->scenario,
                                                 request->unit,
                                                 request->prev_k)
                                : nullptr;
        const int64_t t1 = NowNs();
        uint64_t version = 0;
        const auto result = twin.Summarize(
            *task, service::RequestOptions(*request), predecessor, &version,
            service::UnitFingerprint(*request));
        const int64_t t2 = NowNs();
        if (!result.ok()) {
          ++outcome->failed;
          continue;
        }
        const service::GraphSnapshot snap = twin.CurrentSnapshot();
        accumulator.RecordSummary(*snap.graph, **result);
        const int64_t t3 = NowNs();
        const std::string body = service::SummaryToJson(**result, version);
        const int64_t t4 = NowNs();
        if (rep % 2 == 0) handle();
        spans->Record("handler.parse", t0, t1, id);
        spans->Record("handler.lookup", t1, t2, id);
        spans->Record("handler.eval", t2, t3, id);
        spans->Record("handler.serialize", t3, t4, id);
        spans->Record("handler.handle", t5, t6, id + (1ull << 47));
        if (body != r.expected || response.body != r.expected) {
          ++outcome->mismatched;
          ++outcome->failed;
        }
        parse.push_back(NsToUs(t1 - t0));
        lookup.push_back(NsToUs(t2 - t1));
        evaluate.push_back(NsToUs(t3 - t2));
        serialize.push_back(NsToUs(t4 - t3));
        gap.push_back(NsToUs((t6 - t5) - (t4 - t0)));
      }
    }
    const std::string suffix = m == 0 ? ".st" : ".pcst";
    out->Set("handler.parse_us" + suffix, Median(parse), "us");
    out->Set("handler.lookup_us" + suffix, Median(lookup), "us");
    out->Set("handler.eval_us" + suffix, Median(evaluate), "us");
    out->Set("handler.serialize_us" + suffix, Median(serialize), "us");
    out->Set("handler.unattributed_us" + suffix, Median(gap), "us");
  }
}

int RunServe(const Args& args, bool sweep) {
  const Workload& w = FindWorkload(args.workload);
  SpanRecorder spans(false);
  const size_t cache_bytes = w.cache_kb << 10;
  std::vector<double> setup_s;
  std::vector<double> dataset_ms, recommend_ms, catalog_ms, engine_ms;
  std::unique_ptr<ServeStack> stack = RepeatSetup<ServeStack>(
      kSetups,
      [&] {
        auto s = BuildServeStack(args, sweep, cache_bytes, &spans);
        dataset_ms.push_back(s->data.dataset_ms);
        recommend_ms.push_back(s->data.recommend_ms);
        catalog_ms.push_back(s->catalog_ms);
        engine_ms.push_back(s->engine_ms);
        return s;
      },
      &setup_s);

  std::vector<Request> universe = BuildUniverse(*stack, sweep);
  size_t st_nodes = 0, pcst_nodes = 0, footprint = 0;
  ComputeReference(*stack, sweep, &universe, &st_nodes, &pcst_nodes,
                   &footprint);
  std::fprintf(stderr,
               "%s: %zu nodes, %zu units, %zu distinct requests, summary "
               "working set %.1f KiB, shard cache budget %.1f KiB\n",
               args.workload.c_str(), stack->data.graph().graph().num_nodes(),
               stack->units.size(), universe.size(),
               static_cast<double>(footprint) / 1024.0,
               static_cast<double>(cache_bytes) / 1024.0);

  ServeDriver driver(sweep, w.pcst_share, *stack, &universe, &spans);
  Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 3);
  Outcome outcome;
  const auto account = [&](const WireTally& t) {
    outcome.attempted += t.attempted.load();
    outcome.failed += t.failed.load();
    outcome.mismatched += t.mismatched.load();
  };
  const double cutoff_grace_s = w.limit_ms * 1e-3;

  // Untimed warm-up: serve_hot pre-warms the cache with every distinct
  // request; both then run a short open-loop burst to warm connections.
  int64_t t0 = NowNs();
  if (!sweep) {
    ParallelFor(universe.size(), [&](size_t, size_t i) {
      stack->shards[0].handler->Summarize(universe[i].request);
    });
  }
  {
    WireTally warm;
    driver.Run(driver.Schedule(w.rate, args.tiny ? 0.2 : 1.0, &rng),
               10.0, &warm);
    account(warm);
  }
  const double first_pass_ms = MsSince(t0);

  // The untraced run measures one reference phase of --seconds; the
  // traced run splits it into an untraced and a traced half.
  const double half_s = args.seconds / 2;
  const auto reference_phase = [&](double seconds, WireTally* tally) {
    PhaseResult phase = driver.Run(driver.Schedule(w.rate, seconds, &rng),
                                   seconds + cutoff_grace_s + 1.0, tally);
    // Jobs the generator never started are timeouts.
    tally->attempted += phase.unsent;
    tally->failed += phase.unsent;
    return phase;
  };

  const auto max_rate_search = [&] {
    // Max-rate search. A saturation probe offers as many jobs as the
    // untraced run's reference phase all at once (on serve_sweep at 30 s
    // four whole decks of sessions, so its work mix is fixed); the rate
    // at which it completed requests is the capacity X the search is
    // anchored to, so the steps land near the knee however fast the
    // machine is, and no ceiling caps a gain. Three bisection steps of the
    // same job count over offered rates in [0.5 X, X] then find the
    // highest rate that passes: every response correct, p99 within the
    // workload's limit, and no backlog (every job due in the step started
    // before the step ended, plus the limit). The knee is interpolated on
    // log p99 between the last passing and the first failing rate.
    struct Step {
      double done_rate;  ///< requests completed per second
      double p99;
      bool clean;  ///< no failure, no mismatch, nothing left unsent
    };
    const size_t jobs = std::max<size_t>(
        1, static_cast<size_t>(std::llround(
               w.rate / driver.RequestsPerJob() * args.seconds)));
    const auto step = [&](double rate, const char* label) {
      // rate 0 = the probe: every job due at once.
      const double seconds =
          rate > 0.0 ? jobs * driver.RequestsPerJob() / rate : 0.0;
      WireTally tally;
      PhaseResult phase =
          driver.Run(driver.Jobs(jobs, seconds, &rng),
                     rate > 0.0 ? seconds + cutoff_grace_s : 60.0, &tally);
      account(tally);
      const double p99 = Percentile(Latencies(phase), 99.0);
      std::fprintf(stderr,
                   "  %s %.1f req/s: %zu done in %.3f s, p99 %.3f ms, "
                   "unsent %zu\n",
                   label, rate, phase.samples.size(), phase.wall_s, p99,
                   phase.unsent);
      return Step{static_cast<double>(phase.samples.size()) / phase.wall_s,
                  p99, AllOk(phase)};
    };
    const double capacity = step(0.0, "probe").done_rate;
    double lo = 0.0, lo_p99 = 0.0, hi = 0.0, hi_p99 = 0.0;
    double f_lo = 0.5, f_hi = 1.0;
    for (int i = 0; i < 3; ++i) {
      const double f = i == 0 ? 0.8 : (f_lo + f_hi) / 2;
      const double rate = f * capacity;
      const Step result = step(rate, "step");
      if (result.clean && result.p99 <= w.limit_ms) {
        f_lo = f;
        lo = rate;
        lo_p99 = result.p99;
      } else {
        f_hi = f;
        hi = rate;
        hi_p99 = result.p99;
      }
    }
    double max_rate = lo;
    if (lo > 0.0 && hi > 0.0 && hi_p99 > lo_p99) {
      const double f = std::clamp(
          (std::log(w.limit_ms) - std::log(lo_p99)) /
              (std::log(hi_p99) - std::log(lo_p99)),
          0.0, 1.0);
      max_rate = lo * std::pow(hi / lo, f);
    }
    return max_rate;
  };

  MetricSink out;
  if (!args.trace) {
    WireTally ref_tally;
    const PhaseResult ref = reference_phase(args.seconds, &ref_tally);
    account(ref_tally);
    const std::vector<double> ref_lat = Latencies(ref);
    std::fprintf(stderr,
                 "reference phase: %zu samples at %.0f req/s, p50 %.4f ms, "
                 "p99 %.4f ms, lag p99 %.4f ms\n",
                 ref_lat.size(), w.rate, Percentile(ref_lat, 50.0),
                 Percentile(ref_lat, 99.0), Percentile(ref.lag_ms, 99.0));
    out.Set("setup_s", Median(setup_s), "s");
    out.Set("p50_ms", Percentile(ref_lat, 50.0), "ms");
    out.Set("cpu_us_per_op",
            ref.cpu_us / static_cast<double>(std::max<size_t>(
                             1, ref.samples.size())),
            "us");
    out.Set("peak_rss_mb", PeakRssMb(), "MiB");
  } else {
    DeclareLayerMetrics(&out);
    out.Set("setup.dataset_ms", Median(dataset_ms), "ms");
    out.Set("setup.recommend_ms", Median(recommend_ms), "ms");
    out.Set("setup.catalog_ms", Median(catalog_ms), "ms");
    out.Set("setup.engine_ms", Median(engine_ms), "ms");
    out.Set("setup.first_pass_ms", first_pass_ms, "ms");
    out.Set("core.summary_nodes.st", static_cast<double>(st_nodes), "count");
    out.Set("core.summary_nodes.pcst", static_cast<double>(pcst_nodes),
            "count");

    WireTally untraced_tally;
    const PhaseResult untraced = reference_phase(half_s, &untraced_tally);
    account(untraced_tally);
    const Counters before = ReadCounters(*stack);
    spans.set_enabled(true);
    WireTally traced_tally;
    const PhaseResult traced = reference_phase(half_s, &traced_tally);
    spans.set_enabled(false);
    const Counters after = ReadCounters(*stack);
    account(traced_tally);

    const double p50_untraced = Percentile(Latencies(untraced), 50.0);
    const double p50_traced = Percentile(Latencies(traced), 50.0);
    out.Set("latency.p99_ms", Percentile(Latencies(untraced), 99.0), "ms");
    out.Set("bench.trace_overhead_pct",
            100.0 * (p50_traced - p50_untraced) / p50_untraced, "%");
    out.Set("loadgen.lag_p99_ms", Percentile(traced.lag_ms, 99.0), "ms");
    out.Set("fail_frac",
            static_cast<double>(traced_tally.failed.load()) /
                static_cast<double>(
                    std::max<uint64_t>(1, traced_tally.attempted.load())),
            "ratio");
    out.Set("net.resp_bytes",
            static_cast<double>(traced_tally.resp_bytes.load()) /
                static_cast<double>(
                    std::max<uint64_t>(1, traced_tally.attempted.load())),
            "bytes");
    out.Set("net.shed", static_cast<double>(after.shed - before.shed),
            "count");

    const auto delta = [](uint64_t a, uint64_t b) {
      return static_cast<double>(a - b);
    };
    const double hits = delta(after.hits, before.hits);
    const double misses = delta(after.misses, before.misses);
    const double computed = delta(after.computed, before.computed);
    out.Set("service.hit_ratio", hits / std::max(1.0, hits + misses),
            "ratio");
    out.Set("service.incremental_ratio",
            delta(after.incremental, before.incremental) /
                std::max(1.0, computed),
            "ratio");
    out.Set("service.computed", computed, "count");
    out.Set("service.coalesced", delta(after.coalesced, before.coalesced),
            "count");
    out.Set("service.evictions", delta(after.evictions, before.evictions),
            "count");
    out.Set("service.rejected", delta(after.rejected, before.rejected),
            "count");
    out.Set("service.cache_bytes", static_cast<double>(after.cache_bytes),
            "bytes");
    if (sweep) {
      double routed = 0.0, top = 0.0;
      for (size_t e = 0; e < after.per_endpoint.size(); ++e) {
        const double d = delta(after.per_endpoint[e],
                               e < before.per_endpoint.size()
                                   ? before.per_endpoint[e]
                                   : 0);
        routed += d;
        top = std::max(top, d);
      }
      out.Set("router.max_shard_share", top / std::max(1.0, routed), "ratio");
      out.Set("router.failovers", delta(after.failovers, before.failovers),
              "count");
      out.Set("router.hedges", delta(after.hedges, before.hedges), "count");
    }

    // Layer self times from the traced phase's spans: the client span's
    // self time is the transport, the router span's self time is the
    // router's own cost, the innermost server span is the handler.
    spans.Resolve();
    const auto self = spans.SelfTimesMs();
    const auto series = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? std::vector<double>() : it->second;
    };
    const std::vector<double> transport = series("client.post");
    out.Set("net.transport_p50_ms", Percentile(transport, 50.0), "ms");
    out.Set("net.transport_p99_ms", Percentile(transport, 99.0), "ms");
    const std::vector<double> handle =
        series(sweep ? "shard.handle" : "server.handle");
    out.Set("handler.handle_p50_ms", Percentile(handle, 50.0), "ms");
    out.Set("handler.handle_p99_ms", Percentile(handle, 99.0), "ms");
    if (sweep) {
      out.Set("router.overhead_p50_ms",
              Percentile(series("router.handle"), 50.0), "ms");
    }

    out.Set("capacity.ops_per_s", max_rate_search(), "1/s");
    spans.set_enabled(true);
    HandlerWaterfall(*stack, universe, NumMethods(sweep), args.seed, &spans,
                     &out, &outcome);
    std::vector<std::vector<graph::NodeId>> sets;
    for (const Unit& u : stack->units) sets.push_back(u.build(10).terminals);
    MeasureKernels(stack->data.graph(), sets, &spans, &out);
    spans.set_enabled(false);
  }
  return Finish(args, &spans, out, outcome);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  PrintEnvironment(args);
  FindWorkload(args.workload);  // exits 2 on an unknown name
  if (args.workload == "panel_sweep") return RunPanelSweep(args);
  return RunServe(args, /*sweep=*/args.workload == "serve_sweep");
}
