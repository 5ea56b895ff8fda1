#include "train/trainer.hpp"

#include <optional>

#include "ag/loss.hpp"
#include "ag/ops.hpp"
#include "exec/executor.hpp"
#include "obs/trace.hpp"
#include "train/metrics.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace gsoup {

TrainResult train_epochs(const GnnModel& model, const GraphContext& ctx,
                         const Dataset& data, ParamStore& params,
                         const TrainConfig& config, const EpochStep& step) {
  Timer timer;
  TrainResult result;

  ParamMap leaves = as_leaves(params, /*requires_grad=*/true);
  std::vector<ag::Value> leaf_list;
  leaf_list.reserve(leaves.size());
  for (auto& [name, leaf] : leaves) leaf_list.push_back(leaf);

  OptimizerConfig opt_config = config.optimizer;
  opt_config.lr = config.schedule.base_lr;
  auto optimizer = make_optimizer(leaf_list, opt_config);

  ParamStore best;
  std::int64_t since_best = 0;

  for (std::int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    OBS_SPAN("train.epoch");
    optimizer->set_lr(scheduled_lr(config.schedule, epoch, config.epochs));
    result.train_loss.push_back(step(leaves, *optimizer));
    ++result.epochs_run;

    if (config.eval_every > 0 &&
        (epoch % config.eval_every == 0 || epoch + 1 == config.epochs)) {
      const double acc =
          evaluate_split(model, ctx, data, params, Split::kVal);
      result.val_acc.push_back(acc);
      if (acc > result.best_val_acc || result.best_epoch < 0) {
        result.best_val_acc = acc;
        result.best_epoch = epoch;
        since_best = 0;
        if (config.keep_best) best = params.clone();
      } else {
        ++since_best;
        if (config.patience > 0 && since_best >= config.patience) break;
      }
    }
  }

  if (config.keep_best && best.size() > 0) {
    for (const auto& e : best.entries()) {
      params.get_mutable(e.name).copy_(e.tensor);
    }
  }
  result.seconds = timer.seconds();
  return result;
}

TrainResult train_full_batch(const GnnModel& model, const GraphContext& ctx,
                             const Dataset& data, ParamStore& params,
                             const TrainConfig& config) {
  GSOUP_CHECK_MSG(config.epochs > 0, "need at least one epoch");
  // This step reads labels/masks by node id; a reordered context needs
  // the dataset in the same plan space. Caught here once, not per epoch.
  ctx.check_plan_space(data.graph);
  Rng dropout_rng(config.seed ^ 0x5eed5eedULL);
  const ag::Value features = ag::constant(data.features);
  const auto train_nodes = data.split_nodes(Split::kTrain);
  GSOUP_CHECK_MSG(!train_nodes.empty(), "dataset has no training nodes");

  // Parameter Values bound to the plan's steps once, on the first epoch:
  // every forward walks an indexed vector instead of doing per-layer
  // name→Value map lookups. The bound handles alias the same leaves the
  // optimizer steps, so no refresh is ever needed.
  const exec::LayerPlan& plan = ctx.layer_plan(model.config());
  std::optional<exec::TapeBindings> bound;

  // The epoch's tape stays alive through the driver's evaluation and is
  // dropped before the next forward. Freed any earlier, its pages go back
  // to the OS and the evaluation faults them in again (twice the minor
  // page faults in a 4-worker farm).
  ag::Value last_loss;
  const EpochStep step = [&](const ParamMap& leaves, Optimizer& optimizer) {
    last_loss = nullptr;
    if (!bound) bound.emplace(plan, leaves);
    const ag::Value logits = exec::run_train(plan, features, *bound,
                                             /*training=*/true, &dropout_rng);
    last_loss = ag::cross_entropy(logits, data.labels, train_nodes);
    ag::backward(last_loss);
    optimizer.step();
    optimizer.zero_grad();
    return static_cast<double>(last_loss->value.at(0));
  };
  return train_epochs(model, ctx, data, params, config, step);
}

}  // namespace gsoup
