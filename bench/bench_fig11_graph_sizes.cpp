/// \file bench_fig11_graph_sizes.cpp
/// \brief Reproduces paper Figure 11 (with Table III's synthetic graphs):
/// summarization time and memory vs graph size for the user-centric and
/// user-group scenarios, k = 10 and user groups as in §V-B-8.
///
/// The paper tests five random graphs of 10k-30k nodes with ML1M-like
/// type ratios and ~56 edges per node, using synthetic random 3-hop
/// user→item paths as input explanations. Defaults here are a quarter of
/// Table III's node counts (XSUM_SCALE scales them; 4.0 = paper size).
///
/// Expected shape: both algorithms slow with graph size; ST rises much
/// faster (|T| Dijkstra runs over a growing graph) — especially user-group
/// — while PCST grows gently.
///
/// All queries share one batch-engine context whose workspace grows to the
/// largest graph and is epoch-reused across sizes — the cross-graph reuse
/// path of `core::SummarizeContext` — and each graph's queries share its
/// `core::SharedCostViews`, as the engine's do. Cells land as JSON perf
/// records when XSUM_JSON is set.

#include <vector>

#include "bench_common.h"
#include "core/batch.h"
#include "data/synthetic.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table.h"

namespace {

using namespace xsum;

/// Builds a random ≤3-hop explanation path u -> i1 -> x -> i2 ending at a
/// random item, mimicking the paper's synthetic baseline paths.
graph::Path RandomPath(const data::RecGraph& rg, uint32_t user, Rng* rng) {
  const graph::KnowledgeGraph& g = rg.graph();
  graph::Path path;
  const graph::NodeId u = rg.UserNode(user);
  path.nodes.push_back(u);
  graph::NodeId current = u;
  for (int hop = 0; hop < 3; ++hop) {
    const auto nbrs = g.Neighbors(current);
    if (nbrs.empty()) break;
    // On the last hop insist on an item endpoint if one is adjacent.
    graph::AdjEntry chosen = nbrs[rng->Uniform(nbrs.size())];
    if (hop == 2) {
      for (int attempt = 0; attempt < 8 && !g.IsItem(chosen.neighbor);
           ++attempt) {
        chosen = nbrs[rng->Uniform(nbrs.size())];
      }
    }
    path.nodes.push_back(chosen.neighbor);
    path.edges.push_back(chosen.edge);
    current = chosen.neighbor;
  }
  return path;
}

}  // namespace

int main() {
  const double scale = GetEnvDouble("XSUM_SCALE", 0.25);
  const std::vector<size_t> paper_nodes = {10000, 15000, 20000, 25000, 30000};
  constexpr int kK = 10;
  constexpr size_t kGroupSize = 25;  // paper: two groups of 100 users
  constexpr size_t kNumGroups = 2;
  constexpr size_t kUserCentricSamples = 20;

  std::cout << "Figure 11: performance vs synthetic graph size "
            << "(Table III graphs at scale " << FormatDouble(scale, 2)
            << "; XSUM_SCALE=4.0 would exceed Table III)\n\n";

  std::vector<std::string> headers = {"method"};
  for (size_t i = 0; i < paper_nodes.size(); ++i) {
    headers.push_back(StrCat(
        "G", i + 1, "=",
        static_cast<size_t>(static_cast<double>(paper_nodes[i]) * scale)));
  }
  TextTable time_uc(headers), time_ug(headers), mem_uc(headers),
      mem_ug(headers);

  core::SummarizerOptions st;
  st.method = core::SummaryMethod::kSteiner;
  st.steiner.variant = core::SteinerOptions::Variant::kKmb;
  core::SummarizerOptions pcst;
  pcst.method = core::SummaryMethod::kPcst;

  core::SummarizeContext ctx;  // shared across methods and graph sizes
  for (const auto& [label, options] :
       {std::pair{std::string("ST l=1"), st},
        std::pair{std::string("PCST"), pcst}}) {
    std::vector<double> tuc, tug, muc, mug;
    for (size_t paper_n : paper_nodes) {
      const size_t total_nodes =
          std::max<size_t>(static_cast<size_t>(paper_n * scale), 64);
      auto synth = data::ScalingConfig(total_nodes, /*seed=*/44);
      const data::Dataset ds = data::MakeSyntheticDataset(synth);
      const auto rg = bench::ValueOrDie(data::BuildRecGraph(ds), "graph");
      const core::SharedCostViews views(rg);
      Rng rng(91);

      StatAccumulator t_uc, t_ug, m_uc, m_ug;
      // User-centric: random users with k random paths each.
      for (size_t s = 0; s < kUserCentricSamples; ++s) {
        core::UserRecs recs;
        recs.user = static_cast<uint32_t>(rng.Uniform(ds.num_users));
        for (int r = 0; r < kK; ++r) {
          graph::Path p = RandomPath(rg, recs.user, &rng);
          if (p.nodes.size() < 2 || !rg.graph().IsItem(p.nodes.back())) {
            continue;
          }
          recs.recs.push_back(
              {rg.NodeToItem(p.nodes.back()), 1.0, std::move(p)});
        }
        if (recs.recs.empty()) continue;
        const auto task = core::MakeUserCentricTask(rg, recs, kK);
        const auto summary = bench::ValueOrDie(
            core::SummarizeWith(rg, task, options, ctx, views), "sum");
        t_uc.Add(summary.elapsed_ms);
        m_uc.Add(static_cast<double>(summary.memory_bytes) / (1024.0 * 1024.0));
      }
      // User-group: two groups of kGroupSize users.
      size_t group_tasks = 0;
      size_t group_terminals = 0;
      for (size_t gidx = 0; gidx < kNumGroups; ++gidx) {
        std::vector<core::UserRecs> group;
        for (size_t member = 0; member < kGroupSize; ++member) {
          core::UserRecs recs;
          recs.user = static_cast<uint32_t>(rng.Uniform(ds.num_users));
          for (int r = 0; r < kK; ++r) {
            graph::Path p = RandomPath(rg, recs.user, &rng);
            if (p.nodes.size() < 2 || !rg.graph().IsItem(p.nodes.back())) {
              continue;
            }
            recs.recs.push_back(
                {rg.NodeToItem(p.nodes.back()), 1.0, std::move(p)});
          }
          if (!recs.recs.empty()) group.push_back(std::move(recs));
        }
        if (group.empty()) continue;
        const auto task = core::MakeUserGroupTask(rg, group, kK);
        const auto summary = bench::ValueOrDie(
            core::SummarizeWith(rg, task, options, ctx, views), "sum");
        t_ug.Add(summary.elapsed_ms);
        m_ug.Add(static_cast<double>(summary.memory_bytes) / (1024.0 * 1024.0));
        ++group_tasks;
        group_terminals += task.terminals.size();
      }
      tuc.push_back(t_uc.Mean());
      tug.push_back(t_ug.Mean());
      muc.push_back(m_uc.Mean());
      mug.push_back(m_ug.Mean());
      bench::EmitPerfJson({"fig11.user_centric", label,
                           rg.graph().num_nodes(), kK + 1, t_uc.Mean(),
                           ctx.MemoryFootprintBytes()});
      if (group_tasks > 0) {
        bench::EmitPerfJson({"fig11.user_group", label, rg.graph().num_nodes(),
                             group_terminals / group_tasks, t_ug.Mean(),
                             ctx.MemoryFootprintBytes()});
      }
    }
    time_uc.AddDoubleRow(label, tuc, 2);
    time_ug.AddDoubleRow(label, tug, 2);
    mem_uc.AddDoubleRow(label, muc, 3);
    mem_ug.AddDoubleRow(label, mug, 3);
  }

  std::cout << "(a) user-centric time (ms)\n" << time_uc.ToString() << "\n";
  std::cout << "(b) user-group time (ms)\n" << time_ug.ToString() << "\n";
  std::cout << "(c) user-centric memory (MiB)\n" << mem_uc.ToString() << "\n";
  std::cout << "(d) user-group memory (MiB)\n" << mem_ug.ToString() << "\n";
  return 0;
}
