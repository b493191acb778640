#include "graph/cost_view.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>

namespace xsum::graph {

namespace {

/// Commit stamps are process-global so no two committed views (or two
/// commits of one view) ever share a version.
std::atomic<uint64_t> g_next_version{1};

}  // namespace

void CostView::Assign(const KnowledgeGraph& graph,
                      std::span<const double> edge_costs) {
  assert(edge_costs.size() >= graph.num_edges());
  std::vector<double>& out = StartAssign(graph);
  std::copy_n(edge_costs.begin(), graph.num_edges(), out.begin());
  Commit();
}

void CostView::AssignUnit(const KnowledgeGraph& graph) {
  StartAssign(graph).assign(graph.num_edges(), 1.0);
  Commit();
}

std::vector<double>& CostView::StartAssign(const KnowledgeGraph& graph) {
  graph_ = &graph;
  version_ = 0;  // invalid until Commit
  edge_costs_.resize(graph.num_edges());
  return edge_costs_;
}

void CostView::Commit() {
  assert(graph_ != nullptr && "Commit without StartAssign");
  // Interleave: every slot record is rewritten (not just the cost field),
  // so a committed view is consistent with the bound graph even when the
  // buffers were last used for a different one.
  const std::span<const AdjEntry> adj = graph_->adjacency();
  slots_.resize(adj.size());
  for (size_t i = 0; i < adj.size(); ++i) {
    slots_[i] = CostSlot{adj[i].neighbor, adj[i].edge,
                         edge_costs_[adj[i].edge]};
  }
  min_cost_ = std::numeric_limits<double>::infinity();
  max_cost_ = -std::numeric_limits<double>::infinity();
  for (double c : edge_costs_) {
    // std::min/std::max skip a NaN operand; a NaN cost must instead make
    // both extremes NaN so every range check on them fails.
    if (std::isnan(c)) {
      min_cost_ = max_cost_ = c;
      break;
    }
    min_cost_ = std::min(min_cost_, c);
    max_cost_ = std::max(max_cost_, c);
  }
  version_ = g_next_version.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace xsum::graph
