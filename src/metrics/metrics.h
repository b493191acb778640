/// \file metrics.h
/// \brief The paper's §V-B explanation-quality metrics, generalized (as in
/// the paper) from paths to arbitrary explanation subgraphs.
///
/// Baseline explanations are multisets of separate paths (duplicates count:
/// the Table I example has "total length 13"); summaries are subgraphs with
/// unique nodes/edges. `ExplanationView` normalizes both into the multiset
/// representation every metric consumes, so one metric implementation
/// serves baselines and summaries alike.

#ifndef XSUM_METRICS_METRICS_H_
#define XSUM_METRICS_METRICS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/summarizer.h"
#include "data/kg_builder.h"
#include "graph/path.h"
#include "graph/subgraph.h"

namespace xsum::metrics {

/// \brief Normalized explanation content for metric computation.
struct ExplanationView {
  /// Every edge occurrence as an endpoint pair. Baselines keep one entry
  /// per path hop (duplicates across paths remain); summaries have one
  /// entry per subgraph edge. Hallucinated hops (no KG edge) still appear
  /// as node pairs.
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edge_occurrences;
  /// Real KG edge ids behind the occurrences (hallucinated hops omitted),
  /// with duplicates for baselines.
  std::vector<graph::EdgeId> edge_ids;
  /// Every node occurrence. Baselines: concatenated path node sequences.
  /// Summaries: the subgraph's (unique) node set.
  std::vector<graph::NodeId> node_occurrences;
  /// Deduplicated node set.
  std::vector<graph::NodeId> unique_nodes;
};

/// Builds the view of a path multiset (the baseline representation).
ExplanationView MakeViewFromPaths(const std::vector<graph::Path>& paths);

/// Builds the view of a summary subgraph.
ExplanationView MakeViewFromSubgraph(const graph::KnowledgeGraph& graph,
                                     const graph::Subgraph& subgraph);

/// Dispatches on the summary's method: baselines view their input paths,
/// ST/PCST view their subgraph.
ExplanationView MakeView(const graph::KnowledgeGraph& graph,
                         const core::Summary& summary);

/// \brief Comprehensibility C(S) = 1 / |E_S| (§V-B-1). Higher = briefer.
/// Empty explanations score 0 by convention.
double Comprehensibility(const ExplanationView& view);

/// \brief Actionability A(S) = #item nodes / |V_S| over unique nodes
/// (§V-B-2). Item nodes are the only actionable ones.
double Actionability(const graph::KnowledgeGraph& graph,
                     const ExplanationView& view);

/// \brief Diversity D(S) = mean over edge pairs of (1 − Jaccard of their
/// endpoint sets) (§V-B-3). Explanations with < 2 edges score 0.
///
/// Exact (all m·(m−1)/2 pairs of the m edge occurrences) up to
/// \p max_pairs pairs. Larger views are estimated on exactly \p max_pairs
/// pairs drawn with replacement from `Rng(seed)`: i uniform, j uniform
/// over the other m−1 occurrences. The fixed seed makes the estimate
/// deterministic, which memoized serving values rely on (DESIGN.md §10.5,
/// "Memoized values keep the identity").
double Diversity(const ExplanationView& view, size_t max_pairs = 200000,
                 uint64_t seed = 13);

/// \brief Redundancy R(S) = duplicate node occurrences / total occurrences
/// (§V-B-4). Subgraph summaries have unique node sets, so their redundancy
/// is 0 by construction; baselines repeat nodes across paths.
double Redundancy(const ExplanationView& view);

/// \brief Consistency C(S) = mean Jaccard similarity of the node sets of
/// consecutive-k explanations (§V-B-5). \p per_k holds the view at each k
/// (k = 1..K in order).
double Consistency(const std::vector<ExplanationView>& per_k);

/// \brief Relevance R(S) = Σ wM(e) over the explanation's edges (§V-B-6),
/// using the *base* (unadjusted) interaction weights. Baselines count
/// duplicates, matching "total weight of its paths".
double Relevance(const ExplanationView& view,
                 const std::vector<double>& base_weights);

/// \brief Privacy P(S) = 1 − #user nodes / |V_S| over unique nodes
/// (§V-B-7). Higher = fewer user nodes exposed.
double Privacy(const graph::KnowledgeGraph& graph,
               const ExplanationView& view);

}  // namespace xsum::metrics

#endif  // XSUM_METRICS_METRICS_H_
