/// \file batch.h
/// \brief The batch summarization engine: answer many `SummaryTask`s with
/// zero steady-state allocation and optional parallelism.
///
/// `Summarize` (summarizer.h) is a convenience wrapper that pays for a
/// fresh O(|V|) search workspace and fresh O(|E|) cost views on every
/// call. The batch engine hoists that state into a `SummarizeContext` that
/// is epoch-reset between tasks, and `BatchSummarizer` owns one context per
/// worker plus a thread pool and the graph's shared base cost views
/// (`SharedCostViews`), so a stream of tasks runs allocation-free and in
/// parallel — zero-overlay tasks do not even rebuild costs. Results are
/// bit-identical to single-shot `Summarize` calls — both run the same code
/// path; the workspace epochs and view reuse only change *when* memory is
/// recycled, never what a query observes. See DESIGN.md §2 and §4.

#ifndef XSUM_CORE_BATCH_H_
#define XSUM_CORE_BATCH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/cost_views.h"
#include "core/summarizer.h"
#include "graph/cost_view.h"
#include "graph/search_workspace.h"
#include "util/thread_pool.h"

namespace xsum::core {

struct SummaryChain;  // incremental.h

/// \brief Reusable per-worker scratch state for `SummarizeWith`.
///
/// Holds the graph-search workspace plus the Eq. (1) weight-adjustment
/// buffers and the task-local cost views. Reusable across tasks, methods,
/// and graphs of different sizes (capacity grows monotonically). Not
/// thread-safe: one context per worker.
struct SummarizeContext {
  graph::SearchWorkspace workspace;
  /// Eq. (1) output (|E| doubles).
  std::vector<double> adjusted_weights;
  /// Edge-occurrence scratch for `AdjustWeightsInto` (all-zero between
  /// calls) and the list of edges it touched.
  std::vector<uint32_t> edge_counts;
  std::vector<graph::EdgeId> touched_edges;

  /// Task-local cost view, rebuilt in place (capacity retained) for ST
  /// tasks whose Eq. (1) overlay actually changes costs and for the PCST
  /// raw-weight ablation. Every other task borrows a shared prebuilt view
  /// instead and never touches this.
  graph::CostView cost_view;

  /// Cost-transform cache: the base weights Eq. (1) starts from change only
  /// when the graph changes, so their scaled images (the log1p pass of
  /// `CostMode::kWeightAwareLog` — the most expensive per-edge op in the
  /// whole pipeline) are computed once and revalidated with a bitwise
  /// compare. Per task only the few path-touched edges are re-scaled.
  std::vector<double> cost_cache_base;    ///< base weights the cache is for
  std::vector<double> cost_cache_scaled;  ///< scale(base) per edge
  int cost_cache_mode = -1;               ///< CostMode of the cache, or -1

  /// Resident bytes of all retained buffers.
  size_t MemoryFootprintBytes() const {
    return workspace.MemoryFootprintBytes() +
           (adjusted_weights.capacity() + cost_cache_base.capacity() +
            cost_cache_scaled.capacity()) *
               sizeof(double) +
           cost_view.MemoryFootprintBytes() +
           edge_counts.capacity() * sizeof(uint32_t) +
           touched_edges.capacity() * sizeof(graph::EdgeId);
  }
};

/// Indices of \p ks in ascending-k order (stable): the walk order every
/// sweep path uses so each step's terminal set nests into the next one's
/// (the k-prefix property of the scenario builders). Shared by
/// `BatchSummarizer::RunSweep` and the evaluation runner's service route,
/// which must agree on the order for predecessor hints to line up.
std::vector<size_t> AscendingKOrder(const std::vector<int>& ks);

/// Runs the configured summarizer on \p task, borrowing all scratch state
/// from \p ctx and every base cost view from \p views (the prebuilt views
/// of `rec_graph`; InvalidArgument if built for another graph). Tasks
/// whose costs equal a base view read it directly; the rest rebuild
/// `ctx.cost_view`. `Summarize` == `SummarizeWith` on a throwaway context
/// and throwaway views.
Result<Summary> SummarizeWith(const data::RecGraph& rec_graph,
                              const SummaryTask& task,
                              const SummarizerOptions& options,
                              SummarizeContext& ctx,
                              const SharedCostViews& views);

/// \brief Façade answering many summarization tasks over one graph.
///
/// Owns `num_workers` contexts, a thread pool, and the graph's shared base
/// cost views. `RunAll` fans a task batch across the workers and returns
/// results in task order; `Run` / `RunWith` serve call sites that loop
/// over tasks themselves (the evaluation runner drives its units through
/// `RunWith`, one worker per pool thread).
class BatchSummarizer {
 public:
  /// \p num_workers is the number of reusable contexts (the concurrency
  /// the engine can serve). \p pool_workers sizes the internal thread pool
  /// `RunAll` fans over: 0 (default) matches `num_workers`; callers that
  /// drive concurrency from their own threads via `RunWith` (the summary
  /// service) pass 1 so no idle pool threads are spawned. Clamped to
  /// [1, num_workers]. \p views lets the caller supply prebuilt base
  /// views of `rec_graph` (a graph snapshot's); when absent or built for a
  /// different graph, the engine builds its own.
  explicit BatchSummarizer(
      const data::RecGraph& rec_graph, size_t num_workers = 1,
      size_t pool_workers = 0,
      std::shared_ptr<const SharedCostViews> views = nullptr);

  size_t num_workers() const { return contexts_.size(); }
  ThreadPool& pool() { return pool_; }

  /// The shared base cost views every worker consumes.
  const SharedCostViews& views() const { return *views_; }

  /// Runs one task on the calling thread with worker 0's context.
  Result<Summary> Run(const SummaryTask& task, const SummarizerOptions& options);

  /// Runs one task on the calling thread with \p worker's context. Safe to
  /// call concurrently for distinct workers (ThreadPool::ParallelFor hands
  /// each worker id to exactly one thread at a time).
  Result<Summary> RunWith(size_t worker, const SummaryTask& task,
                          const SummarizerOptions& options);

  /// Runs the whole batch across the pool; `result[i]` corresponds to
  /// `tasks[i]` regardless of scheduling.
  std::vector<Result<Summary>> RunAll(const std::vector<SummaryTask>& tasks,
                                      const SummarizerOptions& options);

  /// Runs a set of tasks sharing one `options` as a *wave* on \p worker's
  /// context: wave-eligible tasks (KMB Steiner whose Eq. (1) overlay is a
  /// no-op, so all resolve to the shared base view) go through
  /// `SteinerTreeWave` — one search per closure-row source deduplicated
  /// across tasks — and the rest fall back to the per-task path inside
  /// the same call. `result[i]` corresponds to `tasks[i]` and
  /// is bit-identical to `RunWith(worker, *tasks[i], options)` (summary
  /// bytes and memory accounting; `elapsed_ms` reports wave wall time,
  /// which is shared by construction). The service's micro-batching window
  /// and the wave benches drive this entry.
  std::vector<Result<Summary>> RunWaveWith(
      size_t worker, const std::vector<const SummaryTask*>& tasks,
      const SummarizerOptions& options);

  /// Runs one *chained* task on \p worker's context: like `RunWith`
  /// (bit-identical summary), but reusing the closure state of \p prev
  /// when provably safe and recording into \p next (incremental.h;
  /// prev may be null or alias next). The summary service threads cached
  /// chain checkpoints through here.
  Result<Summary> RunChainedWith(size_t worker, const SummaryTask& task,
                                 const SummarizerOptions& options,
                                 const SummaryChain* prev,
                                 SummaryChain* next);

  /// Sweeps one task chain on \p worker: builds `builder(k)` for every k
  /// of \p ks and summarizes them through a single chain, walking the ks
  /// in ascending order so each step extends the previous one's closure
  /// state. `result[i]` corresponds to `ks[i]` regardless of the walk
  /// order; every summary is bit-identical to an independent `RunWith`
  /// call for that k.
  std::vector<Result<Summary>> RunSweep(
      size_t worker, const std::function<SummaryTask(int)>& builder,
      const std::vector<int>& ks, const SummarizerOptions& options);

  /// Panel sweep: one chain per unit, units fanned across the pool (each
  /// worker walks its unit's ks ascending). `result[u][i]` corresponds to
  /// `units[u](ks[i])`; deterministic and worker-count independent like
  /// `RunAll`. This is the k-axis-figure serving path of the evaluation
  /// runner.
  std::vector<std::vector<Result<Summary>>> RunPanelSweep(
      const std::vector<std::function<SummaryTask(int)>>& units,
      const std::vector<int>& ks, const SummarizerOptions& options);

  /// Largest per-worker scratch footprint seen so far (perf reporting).
  size_t peak_workspace_bytes() const;

 private:
  const data::RecGraph& rec_graph_;
  ThreadPool pool_;
  std::shared_ptr<const SharedCostViews> views_;
  std::vector<std::unique_ptr<SummarizeContext>> contexts_;
};

}  // namespace xsum::core

#endif  // XSUM_CORE_BATCH_H_
