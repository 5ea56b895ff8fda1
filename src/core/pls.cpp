#include "core/pls.hpp"

#include "partition/union_subgraph.hpp"
#include "util/check.hpp"

namespace gsoup {

PartitionLearnedSouper::PartitionLearnedSouper(const Dataset& data,
                                               PlsConfig config)
    : learned_(config.base),
      num_parts_(config.num_parts),
      budget_(config.budget),
      source_nodes_(data.num_nodes()) {
  GSOUP_CHECK_MSG(budget_ >= 1 && budget_ <= num_parts_,
                  "PLS budget R must be in [1, K]");
  PartitionOptions opt;
  opt.num_parts = num_parts_;
  opt.epsilon = config.epsilon;
  opt.seed = config.base.seed ^ 0x9e3779b9ULL;
  parts_ = run_partitioner(data.graph, config.algo, opt, data.val_mask);
}

ParamStore PartitionLearnedSouper::mix(const SoupContext& sctx) {
  GSOUP_CHECK_MSG(sctx.data.num_nodes() == source_nodes_,
                  "PLS was partitioned for a different dataset");
  double subgraph_nodes_acc = 0.0;
  ParamStore soup = learned_.mix(sctx, [&](Rng& rng, const SoupStep& step) {
    // Subgraph <- partitionSelection(P, R): union of R random partitions,
    // cut edges between them restored (Eq. 5). Resample (bounded) if the
    // draw carries no validation nodes.
    Subgraph sub;
    bool has_val = false;
    for (int attempt = 0; attempt < 8 && !has_val; ++attempt) {
      const auto selected = sample_partitions(num_parts_, budget_, rng);
      sub = partition_union_subgraph(sctx.data, parts_, selected);
      has_val = sub.data.split_size(Split::kVal) > 0;
    }
    GSOUP_CHECK_MSG(has_val,
                    "could not draw a partition subset with validation "
                    "nodes; partitioning is degenerate");
    subgraph_nodes_acc += static_cast<double>(sub.data.num_nodes()) /
                          static_cast<double>(sctx.data.num_nodes());
    step(GraphContext(sub.data.graph, sctx.model.config().arch), sub.data);
  });
  mean_subgraph_fraction_ =
      subgraph_nodes_acc / static_cast<double>(loss_history().size());
  return soup;
}

}  // namespace gsoup
