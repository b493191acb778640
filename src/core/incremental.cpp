#include "core/incremental.h"

namespace xsum::core {

size_t SummaryChain::MemoryFootprintBytes() const {
  return sizeof(*this) + closure.MemoryFootprintBytes() +
         cost_sig.deviations.capacity() * sizeof(cost_sig.deviations[0]);
}

IncrementalSummarizer::IncrementalSummarizer(
    const data::RecGraph& rec_graph,
    std::shared_ptr<const SharedCostViews> views, bool retain_trees)
    : rec_graph_(rec_graph), views_(std::move(views)) {
  if (views_ == nullptr || !views_->Matches(rec_graph_)) {
    views_ = std::make_shared<SharedCostViews>(rec_graph_);
  }
  chain_.closure.retain_trees = retain_trees;
}

Result<Summary> IncrementalSummarizer::Next(const SummaryTask& task,
                                            const SummarizerOptions& options) {
  return SummarizeChained(rec_graph_, task, options, ctx_, *views_,
                          &chain_, &chain_);
}

void IncrementalSummarizer::Reset() {
  const bool retain = chain_.closure.retain_trees;
  chain_ = SummaryChain{};
  chain_.closure.retain_trees = retain;
}

}  // namespace xsum::core
