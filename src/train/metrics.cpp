#include "train/metrics.hpp"

#include "ag/value.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace gsoup {

double accuracy(const Tensor& logits, std::span<const std::int32_t> labels,
                std::span<const std::int64_t> nodes) {
  GSOUP_CHECK_MSG(!nodes.empty(), "accuracy needs a non-empty node set");
  const auto pred = ops::row_argmax(logits);
  std::int64_t correct = 0;
  for (const auto v : nodes) {
    if (pred[v] == labels[v]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(nodes.size());
}

double evaluate_split(const GnnModel& model, const GraphContext& ctx,
                      const Dataset& data, const ParamStore& params,
                      Split split) {
  ag::NoGradGuard no_grad;
  const ParamMap map = as_leaves(params, /*requires_grad=*/false);
  const ag::Value x = ag::constant(data.features);
  const ag::Value logits = model.forward(ctx, x, map);
  const auto nodes = data.split_nodes(split);
  return accuracy(logits->value, data.labels, nodes);
}

}  // namespace gsoup
