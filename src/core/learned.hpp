// Learned Souping for GNNs (LS) — Algorithm 3, the paper's first
// contribution. The interpolation ratios α_i^l of Eq. 3 are treated as
// learnable parameters: each epoch builds the soup W_soup^l = Σ_i α_i^l
// W_i^l as a differentiable mixture, evaluates the validation loss with a
// forward pass, and updates the alphas by backpropagation (Eq. 4) using
// SGD with cosine annealing (§III-B). Replaces GIS's O(N·g·F_v)
// exhaustive ratio search with O(e·(F_v + B_v)).
#pragma once

#include <functional>

#include "core/alpha.hpp"
#include "core/soup.hpp"
#include "train/optimizer.hpp"

namespace gsoup {

struct LearnedSoupConfig {
  std::int64_t epochs = 60;
  /// "relatively large base learning rates often yielded the best
  /// results" (§VI-A).
  double lr = 0.2;
  double min_lr = 0.0;      ///< cosine annealing floor
  double momentum = 0.9;
  double weight_decay = 0.0;
  /// SGD per the paper; AdamW available for the optimiser ablation.
  OptimizerKind optimizer = OptimizerKind::kSgd;
  AlphaGranularity granularity = AlphaGranularity::kLayer;
  std::uint64_t seed = 13;
  /// Snapshot the alphas at the best validation accuracy and restore them
  /// at the end. Off by default — the paper notes early stopping only as
  /// future work (§VI-A/§VIII) — but exposed for the ablation bench.
  bool keep_best = false;
  std::int64_t eval_every = 10;  ///< val-accuracy probe cadence (keep_best)
  /// Ingredient drop-out (paper §VIII: "methods could be used to more
  /// easily 'drop-out' poor performing ingredients"): at the 1/3 and 2/3
  /// epoch marks, hard-suppress ingredients whose softmax weight fell
  /// below `prune_threshold`·(1/N) — the exact-zero the softmax itself
  /// cannot reach (§V-A). 0 disables (paper behaviour).
  double prune_threshold = 0.0;
};

/// One epoch's descent step: the validation loss of the current soup on
/// (context, dataset), backpropagated into the alphas.
using SoupStep = std::function<void(const GraphContext&, const Dataset&)>;

/// Chooses an epoch's graph and runs `step` on it exactly once. Draws
/// come from the loop's Rng, after the alpha initialisation. Whatever the
/// selector builds lives only for the call, so one epoch's subgraph is
/// freed before the next one is drawn.
using EpochSelector = std::function<void(Rng& rng, const SoupStep& step)>;

class LearnedSouper final : public Souper {
 public:
  explicit LearnedSouper(LearnedSoupConfig config = {});
  std::string name() const override { return "LS"; }
  /// Alg. 3: every epoch's loss is taken on the full graph.
  ParamStore mix(const SoupContext& sctx) override;
  /// The learned-souping loop with each epoch's graph chosen by `select`;
  /// keep-best still probes the full graph in `sctx`.
  ParamStore mix(const SoupContext& sctx, const EpochSelector& select);

  /// Validation-loss trajectory of the last mix() (diagnostics/tests).
  const std::vector<double>& loss_history() const { return loss_history_; }
  /// Final per-group ingredient weights of the last mix().
  const std::vector<std::vector<float>>& final_weights() const {
    return final_weights_;
  }
  /// (group, ingredient) entries hard-suppressed by ingredient drop-out
  /// during the last mix().
  std::int64_t pruned_entries() const { return pruned_entries_; }

 private:
  LearnedSoupConfig config_;
  std::vector<double> loss_history_;
  std::vector<std::vector<float>> final_weights_;
  std::int64_t pruned_entries_ = 0;
};

}  // namespace gsoup
