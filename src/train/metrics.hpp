// Evaluation utilities: classification accuracy over node subsets, and
// whole-model split evaluation (inference-mode forward, no tape).
#pragma once

#include <cstdint>
#include <span>

#include "graph/dataset.hpp"
#include "nn/graph_context.hpp"
#include "nn/model.hpp"
#include "nn/param.hpp"

namespace gsoup {

/// Fraction of `nodes` whose argmax logit equals the label.
double accuracy(const Tensor& logits, std::span<const std::int32_t> labels,
                std::span<const std::int64_t> nodes);

/// Inference-mode forward + accuracy on one split of the dataset.
double evaluate_split(const GnnModel& model, const GraphContext& ctx,
                      const Dataset& data, const ParamStore& params,
                      Split split);

}  // namespace gsoup
