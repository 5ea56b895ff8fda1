// Graph partitioning interface — the METIS substitute required by
// Partition Learned Souping (paper §III-C: "PLS begins by partitioning the
// graph into a set of P partitions using a partitioning algorithm such as
// Metis, which balances the number of validation nodes across partitions").
//
// Three algorithms are provided:
//   * random hashing            — baseline, maximal cut, perfect balance
//   * LDG streaming             — one-pass linear deterministic greedy
//   * multilevel (HEM + refine) — METIS-family; default for PLS
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/csr.hpp"
#include "graph/dataset.hpp"
#include "util/rng.hpp"

namespace gsoup {

/// Result of partitioning: node -> part assignment.
struct Partitioning {
  std::int64_t num_parts = 0;
  std::vector<std::int32_t> assignment;  ///< size num_nodes, in [0,num_parts)

  /// Node ids of one part, ascending.
  std::vector<std::int64_t> part_nodes(std::int64_t part) const;
  /// Node count per part.
  std::vector<std::int64_t> part_sizes() const;
  /// Count per part of nodes with mask[v] != 0 (e.g. validation nodes).
  std::vector<std::int64_t> part_mask_counts(
      std::span<const std::uint8_t> mask) const;

  void validate(std::int64_t num_nodes) const;
};

/// Quality metrics for reporting and tests.
struct PartitionQuality {
  std::int64_t cut_edges = 0;   ///< directed edges crossing parts
  double edge_cut_fraction = 0; ///< cut_edges / num_edges
  double node_imbalance = 0;    ///< max part size / ideal size
  double val_imbalance = 0;     ///< same for validation-node counts
};

PartitionQuality evaluate_partitioning(const Csr& graph,
                                       const Partitioning& parts,
                                       std::span<const std::uint8_t> val_mask);

struct PartitionOptions {
  std::int64_t num_parts = 32;
  /// Allowed node-count imbalance: max part ≤ (1+epsilon) · ideal.
  double epsilon = 0.1;
  std::uint64_t seed = 7;
};

/// Uniform random assignment (balanced by construction, ignores edges).
Partitioning random_partition(const Csr& graph, const PartitionOptions& opt);

/// Linear Deterministic Greedy streaming partitioner (Stanton & Kliot):
/// nodes stream in BFS order; each goes to the part with most neighbours,
/// damped by a fullness penalty. Balances validation nodes via a secondary
/// capacity on the validation count.
Partitioning ldg_partition(const Csr& graph, const PartitionOptions& opt,
                           std::span<const std::uint8_t> val_mask);

/// Multilevel partitioner: heavy-edge-matching coarsening, greedy growing
/// on the coarsest graph, boundary refinement on each uncoarsening level.
/// The refinement respects both node-count and validation-count balance.
Partitioning multilevel_partition(const Csr& graph,
                                  const PartitionOptions& opt,
                                  std::span<const std::uint8_t> val_mask);

enum class PartitionAlgo { kMultilevel, kLdg, kRandom };

/// Parses "random", "ldg" or "multilevel"; any other name is a
/// CheckError naming the three.
PartitionAlgo parse_partition_algo(std::string_view name);

/// Runs the partitioner `algo` selects. `val_mask` is the secondary
/// balance constraint (ignored by random hashing); an all-zero mask
/// balances node counts only.
Partitioning run_partitioner(const Csr& graph, PartitionAlgo algo,
                             const PartitionOptions& opt,
                             std::span<const std::uint8_t> val_mask);

/// Repair pass: guarantee every part is non-empty by moving nodes out of
/// the largest parts. PLS samples partition subsets, so an empty part
/// would make some subsets degenerate (empty subgraphs).
void ensure_nonempty_parts(Partitioning& parts);

}  // namespace gsoup
