// Full-batch ingredient training (Phase 1, per worker): standard GNN
// training loop with optional best-validation checkpointing. The trained
// weights update the caller's ParamStore in place.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/dataset.hpp"
#include "nn/graph_context.hpp"
#include "nn/model.hpp"
#include "nn/param.hpp"
#include "train/optimizer.hpp"
#include "train/scheduler.hpp"

namespace gsoup {

struct TrainConfig {
  std::int64_t epochs = 100;
  OptimizerConfig optimizer;
  ScheduleConfig schedule;  ///< schedule.base_lr overrides optimizer.lr
  std::uint64_t seed = 0;   ///< dropout stream
  /// Restore the parameters with the best validation accuracy at the end.
  bool keep_best = true;
  /// Stop after this many epochs without validation improvement (0 = off).
  std::int64_t patience = 0;
  /// Evaluate validation accuracy every `eval_every` epochs.
  std::int64_t eval_every = 1;
};

struct TrainResult {
  std::vector<double> train_loss;  ///< one entry per epoch
  std::vector<double> val_acc;     ///< one entry per evaluation
  double best_val_acc = 0.0;
  std::int64_t best_epoch = -1;
  std::int64_t epochs_run = 0;
  double seconds = 0.0;
};

/// One training epoch: a forward, backward and optimizer step per batch
/// on `leaves`, the trainable aliases of the caller's params. Returns the
/// epoch's mean training loss.
using EpochStep =
    std::function<double(const ParamMap& leaves, Optimizer& optimizer)>;

/// The epoch driver: builds the leaves and the optimizer, sets each
/// epoch's scheduled lr, runs `step`, and owns the validation cadence,
/// best-epoch checkpointing, patience and the final restore. Callers check
/// the dataset's plan space before building the step.
TrainResult train_epochs(const GnnModel& model, const GraphContext& ctx,
                         const Dataset& data, ParamStore& params,
                         const TrainConfig& config, const EpochStep& step);

/// Train `params` on the dataset's train split. The context must match the
/// model's architecture and wrap the dataset's graph.
TrainResult train_full_batch(const GnnModel& model, const GraphContext& ctx,
                             const Dataset& data, ParamStore& params,
                             const TrainConfig& config);

}  // namespace gsoup
