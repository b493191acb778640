#include "core/summarizer.h"

#include "core/batch.h"
#include "util/string_util.h"

namespace xsum::core {

const char* SummaryMethodToString(SummaryMethod method) {
  switch (method) {
    case SummaryMethod::kBaseline:
      return "baseline";
    case SummaryMethod::kSteiner:
      return "ST";
    case SummaryMethod::kPcst:
      return "PCST";
  }
  return "?";
}

std::string SummarizerOptions::Label() const {
  switch (method) {
    case SummaryMethod::kBaseline:
      return "baseline";
    case SummaryMethod::kSteiner:
      return StrCat("ST l=", FormatDouble(lambda, lambda < 0.1 ? 2 : 0));
    case SummaryMethod::kPcst:
      return "PCST";
  }
  return "?";
}

Result<Summary> Summarize(const data::RecGraph& rec_graph,
                          const SummaryTask& task,
                          const SummarizerOptions& options) {
  // Single-shot path: same engine as the batch façade, on a throwaway
  // context and throwaway base views. Keeping one code path is what makes
  // the batch-vs-single bit-identical equivalence hold by construction.
  SummarizeContext ctx;
  const SharedCostViews views(rec_graph);
  return SummarizeWith(rec_graph, task, options, ctx, views);
}

}  // namespace xsum::core
