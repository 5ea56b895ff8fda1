#include "partition/partitioner.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace gsoup {

std::vector<std::int64_t> Partitioning::part_nodes(std::int64_t part) const {
  std::vector<std::int64_t> nodes;
  for (std::size_t v = 0; v < assignment.size(); ++v) {
    if (assignment[v] == part) nodes.push_back(static_cast<std::int64_t>(v));
  }
  return nodes;
}

std::vector<std::int64_t> Partitioning::part_sizes() const {
  std::vector<std::int64_t> sizes(static_cast<std::size_t>(num_parts), 0);
  for (const auto p : assignment) ++sizes[p];
  return sizes;
}

std::vector<std::int64_t> Partitioning::part_mask_counts(
    std::span<const std::uint8_t> mask) const {
  GSOUP_CHECK_MSG(mask.size() == assignment.size(),
                  "mask size != assignment size");
  std::vector<std::int64_t> counts(static_cast<std::size_t>(num_parts), 0);
  for (std::size_t v = 0; v < assignment.size(); ++v) {
    if (mask[v] != 0) ++counts[assignment[v]];
  }
  return counts;
}

void Partitioning::validate(std::int64_t num_nodes) const {
  GSOUP_CHECK_MSG(num_parts > 0, "num_parts must be positive");
  GSOUP_CHECK_MSG(static_cast<std::int64_t>(assignment.size()) == num_nodes,
                  "assignment size != num_nodes");
  for (const auto p : assignment) {
    GSOUP_CHECK_MSG(p >= 0 && p < num_parts, "part id out of range");
  }
}

void ensure_nonempty_parts(Partitioning& parts) {
  auto sizes = parts.part_sizes();
  // Donor scan index: nodes are reassigned from whichever part is largest
  // at the time each empty part is repaired.
  for (std::int32_t p = 0; p < parts.num_parts; ++p) {
    if (sizes[p] > 0) continue;
    const auto donor = static_cast<std::int32_t>(
        std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
    GSOUP_CHECK_MSG(sizes[donor] > 1,
                    "cannot repair empty part: not enough nodes");
    for (std::size_t v = 0; v < parts.assignment.size(); ++v) {
      if (parts.assignment[v] == donor) {
        parts.assignment[v] = p;
        --sizes[donor];
        ++sizes[p];
        break;
      }
    }
  }
}

PartitionQuality evaluate_partitioning(
    const Csr& graph, const Partitioning& parts,
    std::span<const std::uint8_t> val_mask) {
  parts.validate(graph.num_nodes);
  PartitionQuality q;
  for (std::int64_t i = 0; i < graph.num_nodes; ++i) {
    for (const auto j : graph.neighbors(i)) {
      if (parts.assignment[i] != parts.assignment[j]) ++q.cut_edges;
    }
  }
  q.edge_cut_fraction =
      graph.num_edges() > 0
          ? static_cast<double>(q.cut_edges) /
                static_cast<double>(graph.num_edges())
          : 0.0;

  const auto sizes = parts.part_sizes();
  const double ideal = static_cast<double>(graph.num_nodes) /
                       static_cast<double>(parts.num_parts);
  const auto max_size = *std::max_element(sizes.begin(), sizes.end());
  q.node_imbalance = ideal > 0 ? static_cast<double>(max_size) / ideal : 0.0;

  if (!val_mask.empty()) {
    const auto val_counts = parts.part_mask_counts(val_mask);
    std::int64_t total_val = 0;
    for (const auto c : val_counts) total_val += c;
    const double val_ideal = static_cast<double>(total_val) /
                             static_cast<double>(parts.num_parts);
    const auto max_val =
        *std::max_element(val_counts.begin(), val_counts.end());
    q.val_imbalance =
        val_ideal > 0 ? static_cast<double>(max_val) / val_ideal : 1.0;
  }
  return q;
}

PartitionAlgo parse_partition_algo(std::string_view name) {
  if (name == "random") return PartitionAlgo::kRandom;
  if (name == "ldg") return PartitionAlgo::kLdg;
  if (name == "multilevel") return PartitionAlgo::kMultilevel;
  GSOUP_CHECK_MSG(false, "unknown partitioner '"
                             << name << "' (random | ldg | multilevel)");
  return {};
}

Partitioning run_partitioner(const Csr& graph, PartitionAlgo algo,
                             const PartitionOptions& opt,
                             std::span<const std::uint8_t> val_mask) {
  switch (algo) {
    case PartitionAlgo::kMultilevel:
      return multilevel_partition(graph, opt, val_mask);
    case PartitionAlgo::kLdg:
      return ldg_partition(graph, opt, val_mask);
    case PartitionAlgo::kRandom:
      return random_partition(graph, opt);
  }
  GSOUP_CHECK_MSG(false, "unknown partition algorithm");
  return {};
}

}  // namespace gsoup
