/// \file pcst.h
/// \brief Algorithm 2 of the paper: PCST-based summary explanations.
///
/// The Prize-Collecting Steiner Tree relaxes the hard connectivity
/// constraint of the Steiner Tree: terminals carry prizes and may be left
/// out when connecting them costs more than their prize. The paper's final
/// configuration (§V-A) assigns p(v) = 1 to terminals, p(v) = 0 otherwise,
/// and ignores edge weights (unit costs); the α/β weighted-prize policy
/// the paper describes and then abandons is kept as an option for the
/// ablation bench.
///
/// Implementation note (documented deviation, DESIGN.md §1.3): Algorithm 2
/// as printed grows until the priority queue empties, which would sweep the
/// whole graph into V_S. We terminate the growth once all terminals share
/// one component (or the queue empties). By default the *entire grown
/// region* is kept as the summary — this matches every PCST observation in
/// the paper: summaries larger than ST's ("often including additional
/// nodes to ensure connectivity", §V-B-1), higher diversity and privacy
/// via the extra entity nodes (§V-B-3/7), and higher relevance because
/// "larger summaries ... aggregate more total wM" (§V-B-6). Enabling
/// `strong_prune` instead trims prize-less leaf chains down to a tight
/// terminal-spanning tree (the Goemans-Williamson post-pass), kept as an
/// ablation. The growth is a single priority-queue sweep —
/// O((|V|+|E|) log |V|), *independent of |T|* — which is exactly the
/// property the paper's Figures 9-11 attribute to PCST.

#ifndef XSUM_CORE_PCST_H_
#define XSUM_CORE_PCST_H_

#include <cstdint>
#include <vector>

#include "graph/cost_view.h"
#include "graph/knowledge_graph.h"
#include "graph/search_workspace.h"
#include "graph/subgraph.h"
#include "util/status.h"

namespace xsum::core {

/// \brief PCST configuration.
struct PcstOptions {
  /// How node prizes are assigned.
  enum class PrizePolicy : uint8_t {
    /// p = 1 for terminals, 0 otherwise (the paper's final choice).
    kUnitTerminal = 0,
    /// p = max(w) for terminals, min(w) otherwise (the α/β policy the
    /// paper describes in §IV-B and abandons in §V-A).
    kAlphaBeta = 1,
    /// p = 1 for terminals, 0.5·degree-centrality otherwise: central hub
    /// nodes become cheap to include. The prize refinement the paper's
    /// §VII proposes as future work ("considering incorporating node
    /// centrality measures").
    kDegreeCentrality = 2,
  };
  PrizePolicy prize_policy = PrizePolicy::kUnitTerminal;

  /// Whether edge costs come from weights or are all 1. The paper's final
  /// configuration ignores edge weights.
  bool use_edge_weights = false;

  /// Trim prize-less leaf chains after growth (Goemans-Williamson strong
  /// pruning). Off by default: the paper's PCST keeps the grown region
  /// (see the file comment); enable for a tight terminal-spanning tree.
  bool strong_prune = false;

  /// Slack added to the growth priorities (deterministic per-edge hash in
  /// [0, growth_slack)). Models the Goemans-Williamson moat discretization:
  /// wavefronts merge along first-meeting rather than globally shortest
  /// connections, which is why the paper's PCST summaries are larger than
  /// its ST summaries (§V-B-1). 0 disables the slack and yields
  /// near-optimal (Prim-like) connections.
  double growth_slack = 0.0;
};

/// \brief Outcome of the PCST construction.
struct PcstResult {
  graph::Subgraph tree;
  /// Terminals left unconnected (prize forgone).
  std::vector<graph::NodeId> unreached_terminals;
  /// The objective C(S) = Σ cost(e) − Σ p(v) over the final subgraph.
  double objective = 0.0;
  /// Approximate workspace bytes (for the memory metric).
  size_t workspace_bytes = 0;
};

/// \brief Runs the prize-collecting growth of Algorithm 2 under the edge
/// costs carried by \p costs (a committed `graph::CostView`; the paper's
/// configuration uses the all-ones view, the `use_edge_weights` ablation a
/// view of the weights clamped at 0 — the caller builds either, this call
/// never does). A view holding a negative or non-finite cost is rejected
/// as InvalidArgument. \p weights are the raw edge weights, consulted only
/// by the α/β prize policy. Duplicate terminals are ignored.
///
/// Passing a \p workspace lets repeated calls reuse the O(|V|) growth
/// state (epoch-reset, no per-call allocation); results are identical to a
/// fresh-workspace call. The workspace contents are invalidated on return.
Result<PcstResult> PcstSummary(const graph::CostView& costs,
                               const std::vector<double>& weights,
                               const std::vector<graph::NodeId>& terminals,
                               const PcstOptions& options = {},
                               graph::SearchWorkspace* workspace = nullptr);

}  // namespace xsum::core

#endif  // XSUM_CORE_PCST_H_
