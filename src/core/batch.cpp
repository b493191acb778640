#include "core/batch.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <numeric>

#include "core/baseline.h"
#include "core/incremental.h"
#include "core/weight_adjust.h"
#include "util/timer.h"

namespace xsum::core {

namespace {

double ScaleWeight(double w, CostMode mode) {
  if (mode == CostMode::kWeightAwareLog) return std::log1p(std::max(w, 0.0));
  return w;
}

/// Cached equivalent of `WeightsToCostsInto(ctx.adjusted_weights, mode,
/// out)`: identical output bits, but the O(|E|) scale pass over the base
/// weights runs once per (graph, mode) instead of once per task — only the
/// Eq.-(1)-touched edges are re-scaled. The cache is validated with a
/// bitwise compare of the base weights, so a context reused across graphs
/// (of any sizes) transparently rebuilds. Only overlay tasks reach here:
/// `kUnit` and edgeless graphs always read the shared views.
void CostsFromAdjusted(const std::vector<double>& base_weights, CostMode mode,
                       SummarizeContext& ctx, std::vector<double>* out) {
  const std::vector<double>& adjusted = ctx.adjusted_weights;
  assert(mode != CostMode::kUnit && !ctx.touched_edges.empty());
  if (ctx.cost_cache_mode != static_cast<int>(mode) ||
      ctx.cost_cache_base != base_weights) {
    ctx.cost_cache_base = base_weights;
    ctx.cost_cache_scaled.resize(base_weights.size());
    for (size_t e = 0; e < base_weights.size(); ++e) {
      ctx.cost_cache_scaled[e] = ScaleWeight(base_weights[e], mode);
    }
    ctx.cost_cache_mode = static_cast<int>(mode);
  }
  // scale() is non-decreasing, so the scaled extremes are the scaled
  // images of the raw extremes — same reduction as WeightsToCostsInto.
  const auto [min_it, max_it] =
      std::minmax_element(adjusted.begin(), adjusted.end());
  const double w_min = ScaleWeight(*min_it, mode);
  const double w_max = ScaleWeight(*max_it, mode);
  const double span = w_max - w_min;
  if (span <= 0.0) {
    out->assign(adjusted.size(), 1.0);
    return;
  }
  out->resize(adjusted.size());
  for (size_t e = 0; e < adjusted.size(); ++e) {
    (*out)[e] = 1.0 + (w_max - ctx.cost_cache_scaled[e]) / span;
  }
  for (graph::EdgeId e : ctx.touched_edges) {
    (*out)[e] = 1.0 + (w_max - ScaleWeight(adjusted[e], mode)) / span;
  }
}

/// Resolves the cost view an ST task runs under. Zero-overlay tasks (no
/// input path touched an edge — then `adjusted_weights` is bitwise equal
/// to the base weights) and all `kUnit` tasks read the shared prebuilt
/// view; overlay tasks rebuild the context-local view in place. Either
/// way the values are bit-identical to `WeightsToCostsInto` over the
/// adjusted weights. \p overlay_is_noop lets the chained path extend the
/// shared-view fast path to tasks whose overlay touched edges *without
/// moving any value* (a λ = 0 sweep: the cost signature proved
/// adjusted == base bitwise, so the rebuild would reproduce the shared
/// view exactly).
const graph::CostView& SteinerCostView(const data::RecGraph& rec_graph,
                                       CostMode mode, SummarizeContext& ctx,
                                       const SharedCostViews& views,
                                       bool overlay_is_noop = false) {
  if (mode == CostMode::kUnit || ctx.touched_edges.empty() ||
      overlay_is_noop) {
    return views.ForMode(mode);
  }
  std::vector<double>& out = ctx.cost_view.StartAssign(rec_graph.graph());
  CostsFromAdjusted(rec_graph.base_weights(), mode, ctx, &out);
  ctx.cost_view.Commit();
  return ctx.cost_view;
}

/// Resolves the cost view a PCST task runs under: the shared all-ones view
/// (the paper's configuration, §V-A), or for the `use_edge_weights`
/// ablation the base weights clamped at 0, rebuilt into the context view.
const graph::CostView& PcstCostView(const data::RecGraph& rec_graph,
                                    const PcstOptions& options,
                                    SummarizeContext& ctx,
                                    const SharedCostViews& views) {
  if (!options.use_edge_weights) return views.unit();
  const std::vector<double>& weights = rec_graph.base_weights();
  std::vector<double>& out = ctx.cost_view.StartAssign(rec_graph.graph());
  for (size_t e = 0; e < out.size(); ++e) out[e] = std::max(0.0, weights[e]);
  ctx.cost_view.Commit();
  return ctx.cost_view;
}

/// True when no input path of \p task touches an edge (an empty Eq. (1)
/// overlay).
bool NoPathEdges(const SummaryTask& task) {
  for (const graph::Path& path : task.paths) {
    for (const graph::EdgeId e : path.edges) {
      if (e != graph::kInvalidEdge) return false;
    }
  }
  return true;
}

/// Materializes the lazily built shared base view a task will read, so
/// the view's one-time O(|E|) build is not billed to whichever summary
/// happens to come first (its `Summary::elapsed_ms`). ST reads it for
/// kUnit, for an empty overlay, and — where \p noop_overlay_shares, the
/// chained and wave paths — for the bitwise no-op overlay of λ = 0. PCST
/// reads the all-ones view unless it weighs edges.
void ResolveSharedView(const SummaryTask& task,
                       const SummarizerOptions& options,
                       bool noop_overlay_shares,
                       const SharedCostViews& views) {
  if (options.method == SummaryMethod::kSteiner &&
      (options.cost_mode == CostMode::kUnit || NoPathEdges(task) ||
       (noop_overlay_shares && options.lambda == 0.0))) {
    views.ForMode(options.cost_mode);
  } else if (options.method == SummaryMethod::kPcst &&
             !options.pcst.use_edge_weights) {
    views.unit();
  }
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Computes the cost signature (incremental.h) of the ST cost vector the
/// current Eq. (1) state in \p ctx resolves to, in O(|touched edges|):
/// `AdjustWeightsInto` resets every untouched edge to its base weight, so
/// (mode, deviating-edge bits) reconstructs the whole adjusted-weight
/// vector and signature equality implies a bitwise-equal cost vector.
CostSignature SteinerCostSignature(const data::RecGraph& rec_graph,
                                   CostMode mode, SummarizeContext& ctx) {
  CostSignature sig;
  sig.mode = mode;
  if (mode == CostMode::kUnit) {
    sig.kind = CostSignature::Kind::kUnit;
    return sig;
  }
  const std::vector<double>& base = rec_graph.base_weights();
  const std::vector<double>& adjusted = ctx.adjusted_weights;
  for (graph::EdgeId e : ctx.touched_edges) {
    if (DoubleBits(adjusted[e]) != DoubleBits(base[e])) {
      sig.deviations.push_back({e, DoubleBits(adjusted[e])});
    }
  }
  if (sig.deviations.empty()) {
    sig.kind = CostSignature::Kind::kBase;
    return sig;
  }
  std::sort(sig.deviations.begin(), sig.deviations.end());
  sig.deviations.erase(
      std::unique(sig.deviations.begin(), sig.deviations.end()),
      sig.deviations.end());
  sig.kind = CostSignature::Kind::kOverlay;
  return sig;
}

/// Drops a chain's reusable state (method change, cost-signature move,
/// graph change, non-KMB step). Counted so tests and benches can observe
/// when reuse disengaged.
void ResetChainState(SummaryChain* chain) {
  if (chain == nullptr) return;
  if (chain->has_state) ++chain->resets;
  chain->has_state = false;
  chain->links = 0;
  chain->closure.Clear();
}

/// The one place a summary's perf counters are filled: the one-shot
/// (`Summarize`), batch (`SummarizeWith` / `RunWith`), and chained sweep
/// paths all finish through here, so none of them can return the zeroed
/// defaults (Summary::elapsed_ms / memory_bytes feed the paper's
/// Fig. 9-11 panels and the service accounting).
void FinalizeSummaryPerf(const WallTimer& timer, size_t memory_bytes,
                         Summary* summary) {
  summary->memory_bytes = memory_bytes;
  summary->elapsed_ms = timer.ElapsedMillis();
}

}  // namespace

std::vector<size_t> AscendingKOrder(const std::vector<int>& ks) {
  std::vector<size_t> order(ks.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return ks[a] < ks[b]; });
  return order;
}

Result<Summary> SummarizeChained(const data::RecGraph& rec_graph,
                                 const SummaryTask& task,
                                 const SummarizerOptions& options,
                                 SummarizeContext& ctx,
                                 const SharedCostViews& views,
                                 const SummaryChain* prev,
                                 SummaryChain* next) {
  const graph::KnowledgeGraph& g = rec_graph.graph();
  Summary summary;
  summary.method = options.method;
  summary.scenario = task.scenario;
  summary.input_paths = task.paths;
  summary.anchors = task.anchors;
  summary.terminals = task.terminals;

  if (!views.Matches(rec_graph)) {
    return Status::InvalidArgument(
        "SummarizeWith: shared cost views built for a different graph");
  }

  ResolveSharedView(
      task, options,
      /*noop_overlay_shares=*/next != nullptr &&
          options.steiner.variant == SteinerOptions::Variant::kKmb,
      views);
  WallTimer timer;
  timer.Start();

  switch (options.method) {
    case SummaryMethod::kBaseline: {
      // The path union carries nothing a later step could reuse.
      ResetChainState(next);
      summary.subgraph = UnionOfPaths(g, task.paths);
      FinalizeSummaryPerf(timer, summary.subgraph.MemoryFootprintBytes(),
                          &summary);
      break;
    }
    case SummaryMethod::kSteiner: {
      // Eq. (1) weight adjustment, then the max-weight -> min-cost
      // transform into a cost view (shared when the overlay is a no-op),
      // then Algorithm 1 — all in reused or prebuilt storage.
      AdjustWeightsInto(g, rec_graph.base_weights(), task.paths,
                        options.lambda, task.s_size, &ctx.edge_counts,
                        &ctx.touched_edges, &ctx.adjusted_weights);
      const bool chain_kmb =
          next != nullptr &&
          options.steiner.variant == SteinerOptions::Variant::kKmb;
      CostSignature sig;
      if (chain_kmb) {
        sig = SteinerCostSignature(rec_graph, options.cost_mode, ctx);
      }
      const graph::CostView& costs = SteinerCostView(
          rec_graph, options.cost_mode, ctx, views,
          /*overlay_is_noop=*/chain_kmb &&
              sig.kind != CostSignature::Kind::kOverlay);
      SteinerResult st;
      if (!chain_kmb) {
        // Plain path (no recording). A Mehlhorn step also lands here: its
        // single multi-source sweep has nothing to memoize, so only the
        // context/workspace reuse applies.
        ResetChainState(next);
        XSUM_ASSIGN_OR_RETURN(
            st, SteinerTree(costs, task.terminals, options.steiner,
                            &ctx.workspace));
      } else {
        // Reuse engages only when the previous step's closure entries are
        // provably valid: same graph, same method/variant, and a cost
        // signature match (bitwise-equal cost vectors). Anything else
        // restarts the chain — the step then runs from scratch and seeds
        // the store for the next one.
        const bool carry = prev != nullptr && prev->has_state &&
                           prev->graph == &rec_graph &&
                           prev->method == SummaryMethod::kSteiner &&
                           prev->variant == SteinerOptions::Variant::kKmb &&
                           prev->cost_sig == sig;
        if (next != prev) {
          const bool retain = next->closure.retain_trees;
          if (carry) {
            next->closure = prev->closure;
            next->links = prev->links;
            next->resets = prev->resets;
            next->closure.retain_trees = retain;
            if (!retain) next->closure.trees.clear();
          } else {
            ResetChainState(next);
            if (prev != nullptr && prev->has_state) ++next->resets;
          }
        } else if (!carry) {
          ResetChainState(next);
        }
        Result<SteinerResult> chained =
            SteinerTreeChained(costs, task.terminals, options.steiner,
                               &ctx.workspace, &next->closure);
        if (!chained.ok()) {
          ResetChainState(next);
          return chained.status();
        }
        st = std::move(*chained);
        next->has_state = true;
        next->graph = &rec_graph;
        next->method = SummaryMethod::kSteiner;
        next->variant = SteinerOptions::Variant::kKmb;
        next->cost_sig = std::move(sig);
        ++next->links;
      }
      summary.subgraph = std::move(st.tree);
      summary.unreached_terminals = std::move(st.unreached_terminals);
      // The adjusted-weight vector and the cost view are part of the ST
      // working set.
      FinalizeSummaryPerf(timer,
                          st.workspace_bytes + g.num_edges() * sizeof(double) +
                              graph::CostView::RequiredBytes(g),
                          &summary);
      break;
    }
    case SummaryMethod::kPcst: {
      // The growth is one global priority-queue sweep whose pop sequence
      // changes with every added seed, so no structural state carries over
      // bit-safely — chained PCST steps reuse the context workspace and
      // the cost views, nothing more (DESIGN.md §5).
      ResetChainState(next);
      XSUM_ASSIGN_OR_RETURN(
          PcstResult pc,
          PcstSummary(PcstCostView(rec_graph, options.pcst, ctx, views),
                      rec_graph.base_weights(), task.terminals, options.pcst,
                      &ctx.workspace));
      summary.subgraph = std::move(pc.tree);
      summary.unreached_terminals = std::move(pc.unreached_terminals);
      FinalizeSummaryPerf(timer, pc.workspace_bytes, &summary);
      break;
    }
  }
  return summary;
}

Result<Summary> SummarizeWith(const data::RecGraph& rec_graph,
                              const SummaryTask& task,
                              const SummarizerOptions& options,
                              SummarizeContext& ctx,
                              const SharedCostViews& views) {
  return SummarizeChained(rec_graph, task, options, ctx, views,
                          /*prev=*/nullptr, /*next=*/nullptr);
}

BatchSummarizer::BatchSummarizer(const data::RecGraph& rec_graph,
                                 size_t num_workers, size_t pool_workers,
                                 std::shared_ptr<const SharedCostViews> views)
    : rec_graph_(rec_graph),
      pool_(std::min(pool_workers == 0 ? num_workers : pool_workers,
                     std::max<size_t>(num_workers, 1))),
      views_(std::move(views)) {
  if (views_ == nullptr || !views_->Matches(rec_graph_)) {
    views_ = std::make_shared<SharedCostViews>(rec_graph_);
  }
  const size_t contexts = std::max<size_t>(num_workers, 1);
  contexts_.reserve(contexts);
  for (size_t w = 0; w < contexts; ++w) {
    contexts_.push_back(std::make_unique<SummarizeContext>());
  }
}

Result<Summary> BatchSummarizer::Run(const SummaryTask& task,
                                     const SummarizerOptions& options) {
  return RunWith(0, task, options);
}

Result<Summary> BatchSummarizer::RunWith(size_t worker, const SummaryTask& task,
                                         const SummarizerOptions& options) {
  assert(worker < contexts_.size());
  return SummarizeWith(rec_graph_, task, options, *contexts_[worker],
                       *views_);
}

std::vector<Result<Summary>> BatchSummarizer::RunAll(
    const std::vector<SummaryTask>& tasks, const SummarizerOptions& options) {
  std::vector<Result<Summary>> results(
      tasks.size(), Result<Summary>(Status::Internal("task not run")));
  pool_.ParallelFor(tasks.size(), [&](size_t worker, size_t i) {
    results[i] = RunWith(worker, tasks[i], options);
  });
  return results;
}

std::vector<Result<Summary>> BatchSummarizer::RunWaveWith(
    size_t worker, const std::vector<const SummaryTask*>& tasks,
    const SummarizerOptions& options) {
  assert(worker < contexts_.size());
  SummarizeContext& ctx = *contexts_[worker];
  std::vector<Result<Summary>> results(
      tasks.size(), Result<Summary>(Status::Internal("wave task not run")));
  const graph::KnowledgeGraph& g = rec_graph_.graph();
  const bool wave_method =
      options.method == SummaryMethod::kSteiner &&
      options.steiner.variant == SteinerOptions::Variant::kKmb;

  // The wave reads the shared view whenever any task's overlay is a
  // no-op; the per-task fallbacks resolve their own before their timers.
  if (wave_method) {
    for (const SummaryTask* task : tasks) {
      ResolveSharedView(*task, options, /*noop_overlay_shares=*/true,
                        *views_);
    }
  }
  WallTimer timer;
  timer.Start();

  // Partition: kernel-eligible tasks are KMB Steiner whose cost view is
  // the shared base view — kUnit always, other modes when the Eq. (1)
  // overlay moved no edge value (a rebuilt view would be bitwise equal to
  // the shared one, so substituting it cannot change any summary byte).
  // Everything else runs the plain per-task path inside this call.
  std::vector<size_t> eligible;
  std::vector<std::vector<graph::NodeId>> terminal_sets;
  for (size_t i = 0; i < tasks.size(); ++i) {
    const SummaryTask& task = *tasks[i];
    bool shared_costs = false;
    if (wave_method) {
      if (options.cost_mode == CostMode::kUnit) {
        shared_costs = true;
      } else {
        AdjustWeightsInto(g, rec_graph_.base_weights(), task.paths,
                          options.lambda, task.s_size, &ctx.edge_counts,
                          &ctx.touched_edges, &ctx.adjusted_weights);
        shared_costs =
            SteinerCostSignature(rec_graph_, options.cost_mode, ctx).kind !=
            CostSignature::Kind::kOverlay;
      }
    }
    if (!shared_costs) {
      results[i] = SummarizeWith(rec_graph_, task, options, ctx, *views_);
      continue;
    }
    eligible.push_back(i);
    terminal_sets.push_back(task.terminals);
  }
  if (eligible.empty()) return results;

  const graph::CostView& costs = views_->ForMode(options.cost_mode);
  std::vector<Result<SteinerResult>> wave =
      SteinerTreeWave(costs, terminal_sets, options.steiner, &ctx.workspace);
  for (size_t m = 0; m < eligible.size(); ++m) {
    const size_t i = eligible[m];
    const SummaryTask& task = *tasks[i];
    if (!wave[m].ok()) {
      results[i] = wave[m].status();
      continue;
    }
    SteinerResult st = std::move(*wave[m]);
    Summary summary;
    summary.method = options.method;
    summary.scenario = task.scenario;
    summary.input_paths = task.paths;
    summary.anchors = task.anchors;
    summary.terminals = task.terminals;
    summary.subgraph = std::move(st.tree);
    summary.unreached_terminals = std::move(st.unreached_terminals);
    // Same working-set terms as the per-task ST path.
    FinalizeSummaryPerf(timer,
                        st.workspace_bytes + g.num_edges() * sizeof(double) +
                            graph::CostView::RequiredBytes(g),
                        &summary);
    results[i] = std::move(summary);
  }
  return results;
}

Result<Summary> BatchSummarizer::RunChainedWith(size_t worker,
                                                const SummaryTask& task,
                                                const SummarizerOptions& options,
                                                const SummaryChain* prev,
                                                SummaryChain* next) {
  assert(worker < contexts_.size());
  return SummarizeChained(rec_graph_, task, options, *contexts_[worker],
                          *views_, prev, next);
}

std::vector<Result<Summary>> BatchSummarizer::RunSweep(
    size_t worker, const std::function<SummaryTask(int)>& builder,
    const std::vector<int>& ks, const SummarizerOptions& options) {
  assert(worker < contexts_.size());
  // Walk the ks ascending (slots are still filled in the caller's order).
  const std::vector<size_t> order = AscendingKOrder(ks);
  SummaryChain chain;
  chain.closure.retain_trees = true;
  std::vector<Result<Summary>> results(
      ks.size(), Result<Summary>(Status::Internal("k not run")));
  for (size_t idx : order) {
    results[idx] =
        SummarizeChained(rec_graph_, builder(ks[idx]), options,
                         *contexts_[worker], *views_, &chain, &chain);
  }
  return results;
}

std::vector<std::vector<Result<Summary>>> BatchSummarizer::RunPanelSweep(
    const std::vector<std::function<SummaryTask(int)>>& units,
    const std::vector<int>& ks, const SummarizerOptions& options) {
  std::vector<std::vector<Result<Summary>>> results(units.size());
  pool_.ParallelFor(units.size(), [&](size_t worker, size_t u) {
    results[u] = RunSweep(worker, units[u], ks, options);
  });
  return results;
}

size_t BatchSummarizer::peak_workspace_bytes() const {
  size_t peak = 0;
  for (const auto& ctx : contexts_) {
    peak = std::max(peak, ctx->MemoryFootprintBytes());
  }
  return peak;
}

}  // namespace xsum::core
