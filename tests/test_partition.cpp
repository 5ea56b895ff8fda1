// Partitioner tests: balance (nodes and validation nodes), cut quality
// ordering (multilevel ≤ LDG ≤ random), partition-union subgraphs with
// cut-edge preservation, and partition sampling — the substrate PLS
// depends on (§III-C).
#include <gtest/gtest.h>

#include "graph/generator.hpp"
#include "partition/partitioner.hpp"
#include "partition/union_subgraph.hpp"
#include "test_helpers.hpp"

namespace gsoup {
namespace {

Dataset community_dataset(std::int64_t n = 1200, std::uint64_t seed = 21) {
  SyntheticSpec spec;
  spec.num_nodes = n;
  spec.num_classes = 8;
  spec.avg_degree = 12;
  spec.homophily = 0.8;  // clustered graph: partitioners can find structure
  spec.seed = seed;
  return generate_dataset(spec);
}

TEST(RandomPartition, BalancedAndComplete) {
  const Dataset data = community_dataset();
  PartitionOptions opt;
  opt.num_parts = 16;
  const Partitioning parts = random_partition(data.graph, opt);
  parts.validate(data.num_nodes());
  const auto sizes = parts.part_sizes();
  const auto mx = *std::max_element(sizes.begin(), sizes.end());
  const auto mn = *std::min_element(sizes.begin(), sizes.end());
  EXPECT_LE(mx - mn, 1);  // round-robin + shuffle: near-perfect balance
}

TEST(LdgPartition, RespectsNodeCapacity) {
  const Dataset data = community_dataset();
  PartitionOptions opt;
  opt.num_parts = 16;
  opt.epsilon = 0.1;
  const Partitioning parts = ldg_partition(data.graph, opt, data.val_mask);
  parts.validate(data.num_nodes());
  const auto q = evaluate_partitioning(data.graph, parts, data.val_mask);
  EXPECT_LE(q.node_imbalance, 1.15);
}

TEST(MultilevelPartition, BalancedWithModerateCut) {
  const Dataset data = community_dataset();
  PartitionOptions opt;
  opt.num_parts = 16;
  const Partitioning parts =
      multilevel_partition(data.graph, opt, data.val_mask);
  parts.validate(data.num_nodes());
  const auto q = evaluate_partitioning(data.graph, parts, data.val_mask);
  EXPECT_LE(q.node_imbalance, 1.25);
  EXPECT_LT(q.edge_cut_fraction, 1.0);
}

TEST(MultilevelPartition, BeatsRandomOnEdgeCut) {
  const Dataset data = community_dataset();
  PartitionOptions opt;
  opt.num_parts = 8;
  const auto q_random = evaluate_partitioning(
      data.graph, random_partition(data.graph, opt), data.val_mask);
  const auto q_ml = evaluate_partitioning(
      data.graph, multilevel_partition(data.graph, opt, data.val_mask),
      data.val_mask);
  // A clustered graph must partition far better than random hashing.
  EXPECT_LT(q_ml.edge_cut_fraction, 0.8 * q_random.edge_cut_fraction);
}

TEST(MultilevelPartition, BalancesValidationNodes) {
  // The property the paper requires of the METIS substitute: validation
  // nodes spread across partitions (§III-C).
  const Dataset data = community_dataset(2000, 77);
  PartitionOptions opt;
  opt.num_parts = 8;
  const Partitioning parts =
      multilevel_partition(data.graph, opt, data.val_mask);
  const auto counts = parts.part_mask_counts(data.val_mask);
  const auto total = data.split_size(Split::kVal);
  const double ideal = static_cast<double>(total) / 8.0;
  for (const auto c : counts) {
    EXPECT_GT(static_cast<double>(c), 0.3 * ideal);
    EXPECT_LT(static_cast<double>(c), 2.0 * ideal);
  }
}

TEST(PartitionerDispatch, NamesSelectTheirPartitioner) {
  const Dataset data = community_dataset(400, 5);
  PartitionOptions opt;
  opt.num_parts = 4;
  const auto by_name = [&](const char* name) {
    return run_partitioner(data.graph, parse_partition_algo(name), opt,
                           data.val_mask)
        .assignment;
  };
  EXPECT_EQ(by_name("random"), random_partition(data.graph, opt).assignment);
  EXPECT_EQ(by_name("ldg"),
            ldg_partition(data.graph, opt, data.val_mask).assignment);
  EXPECT_EQ(by_name("multilevel"),
            multilevel_partition(data.graph, opt, data.val_mask).assignment);
  EXPECT_THROW(parse_partition_algo("metis"), CheckError);
  EXPECT_THROW(parse_partition_algo(""), CheckError);
}

class PartitionerSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PartitionerSweep, AllAlgorithmsProduceValidBalancedParts) {
  const auto [algo_id, k] = GetParam();
  const Dataset data = community_dataset(800, 13);
  PartitionOptions opt;
  opt.num_parts = k;
  Partitioning parts;
  switch (algo_id) {
    case 0: parts = random_partition(data.graph, opt); break;
    case 1: parts = ldg_partition(data.graph, opt, data.val_mask); break;
    case 2:
      parts = multilevel_partition(data.graph, opt, data.val_mask);
      break;
  }
  parts.validate(data.num_nodes());
  const auto sizes = parts.part_sizes();
  for (const auto s : sizes) EXPECT_GT(s, 0);
  const auto q = evaluate_partitioning(data.graph, parts, data.val_mask);
  EXPECT_LE(q.node_imbalance, 1.6);
}

INSTANTIATE_TEST_SUITE_P(
    AlgoByK, PartitionerSweep,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(2, 4, 8, 32)));

TEST(UnionSubgraph, PreservesCutEdgesBetweenSelectedParts) {
  const Dataset data = community_dataset(600, 31);
  PartitionOptions opt;
  opt.num_parts = 6;
  const Partitioning parts =
      multilevel_partition(data.graph, opt, data.val_mask);
  const std::vector<std::int32_t> selected{1, 3};
  const Subgraph sub = partition_union_subgraph(data, parts, selected);

  // Manually count parent edges whose endpoints both lie in parts {1,3};
  // this includes edges CUT between part 1 and part 3 (Eq. 5's guarantee).
  std::int64_t expected = 0;
  std::int64_t cross_part = 0;
  for (std::int64_t i = 0; i < data.num_nodes(); ++i) {
    const auto pi = parts.assignment[i];
    if (pi != 1 && pi != 3) continue;
    for (const auto j : data.graph.neighbors(i)) {
      const auto pj = parts.assignment[j];
      if (pj != 1 && pj != 3) continue;
      ++expected;
      if (pi != pj) ++cross_part;
    }
  }
  EXPECT_EQ(sub.data.num_edges(), expected);
  EXPECT_GT(cross_part, 0) << "test graph should have cut edges between "
                              "the selected partitions";
}

TEST(UnionSubgraph, NodeUnionIsExact) {
  const Dataset data = community_dataset(400, 32);
  PartitionOptions opt;
  opt.num_parts = 4;
  const Partitioning parts = random_partition(data.graph, opt);
  const std::vector<std::int32_t> selected{0, 2};
  const auto nodes = partition_union_nodes(parts, selected);
  std::int64_t expected = 0;
  for (const auto p : parts.assignment) {
    expected += (p == 0 || p == 2) ? 1 : 0;
  }
  EXPECT_EQ(static_cast<std::int64_t>(nodes.size()), expected);
  EXPECT_TRUE(std::is_sorted(nodes.begin(), nodes.end()));
}

TEST(SamplePartitions, UniformDistinctSubsets) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const auto sel = sample_partitions(32, 8, rng);
    EXPECT_EQ(sel.size(), 8u);
    EXPECT_TRUE(std::is_sorted(sel.begin(), sel.end()));
    EXPECT_TRUE(std::adjacent_find(sel.begin(), sel.end()) == sel.end());
    for (const auto p : sel) {
      EXPECT_GE(p, 0);
      EXPECT_LT(p, 32);
    }
  }
}

TEST(SamplePartitions, FullBudgetSelectsEverything) {
  Rng rng(4);
  const auto sel = sample_partitions(8, 8, rng);
  for (std::int32_t p = 0; p < 8; ++p) EXPECT_EQ(sel[p], p);
}

TEST(SamplePartitions, CoversAllPartsEventually) {
  Rng rng(5);
  std::set<std::int32_t> seen;
  for (int trial = 0; trial < 200; ++trial) {
    for (const auto p : sample_partitions(16, 2, rng)) seen.insert(p);
  }
  EXPECT_EQ(seen.size(), 16u);
}

TEST(MultilevelPartition, NoEmptyPartsOnPaperPresets) {
  // Regression: flickr-like at K=32 produced empty partitions before the
  // repair pass, which made PLS's partition sampling throw on subsets
  // consisting solely of empty parts.
  const Dataset data = generate_dataset(flickr_like_spec());
  for (const std::int64_t k : {8LL, 32LL, 64LL}) {
    PartitionOptions opt;
    opt.num_parts = k;
    const Partitioning parts =
        multilevel_partition(data.graph, opt, data.val_mask);
    for (const auto s : parts.part_sizes()) {
      EXPECT_GT(s, 0) << "empty part at K=" << k;
    }
    const Partitioning ldg = ldg_partition(data.graph, opt, data.val_mask);
    for (const auto s : ldg.part_sizes()) {
      EXPECT_GT(s, 0) << "empty LDG part at K=" << k;
    }
  }
}

// ---- Partition invariants (the contract sharded serving stands on) -------
//
// build_shard_set trusts the partitioning for exactly three things: every
// node is assigned exactly once, parts stay within a balance tolerance,
// and the structure-aware partitioners don't do worse than random hashing
// on the edge cut (cut edges become halo replication — a worse cut is a
// strictly larger serving memory bill).

Dataset invariant_power_law(std::uint64_t seed) {
  SyntheticSpec spec;
  spec.num_nodes = 700;
  spec.num_classes = 6;
  spec.avg_degree = 8;
  spec.degree_sigma = 1.3;  // heavy tail: hubs stress greedy placement
  spec.homophily = 0.6;
  spec.seed = seed;
  return generate_dataset(spec);
}

TEST(PartitionInvariants, EveryNodeAssignedExactlyOnce) {
  for (const std::uint64_t seed : {3u, 17u, 91u}) {
    const Dataset data = invariant_power_law(seed);
    PartitionOptions opt;
    opt.num_parts = 7;
    opt.seed = seed;
    const Partitioning variants[] = {
        random_partition(data.graph, opt),
        ldg_partition(data.graph, opt, data.val_mask),
        multilevel_partition(data.graph, opt, data.val_mask),
    };
    for (const Partitioning& parts : variants) {
      ASSERT_EQ(static_cast<std::int64_t>(parts.assignment.size()),
                data.num_nodes());
      // Ownership is a function: part_nodes lists partition the id space.
      std::vector<int> owned(static_cast<std::size_t>(data.num_nodes()), 0);
      for (std::int32_t p = 0; p < parts.num_parts; ++p) {
        for (const std::int64_t g : parts.part_nodes(p)) {
          ASSERT_GE(g, 0);
          ASSERT_LT(g, data.num_nodes());
          ASSERT_EQ(parts.assignment[static_cast<std::size_t>(g)], p);
          owned[static_cast<std::size_t>(g)]++;
        }
      }
      for (const int c : owned) EXPECT_EQ(c, 1);
    }
  }
}

TEST(PartitionInvariants, BalanceWithinTolerance) {
  for (const std::uint64_t seed : {5u, 23u}) {
    const Dataset data = invariant_power_law(seed);
    PartitionOptions opt;
    opt.num_parts = 6;
    opt.epsilon = 0.1;
    opt.seed = seed;
    const auto q_ldg = evaluate_partitioning(
        data.graph, ldg_partition(data.graph, opt, data.val_mask),
        data.val_mask);
    EXPECT_LE(q_ldg.node_imbalance, 1.0 + opt.epsilon + 0.05);
    const auto q_ml = evaluate_partitioning(
        data.graph, multilevel_partition(data.graph, opt, data.val_mask),
        data.val_mask);
    EXPECT_LE(q_ml.node_imbalance, 1.3);
  }
}

TEST(PartitionInvariants, StructuredCutNeverWorseThanRandom) {
  for (const std::uint64_t seed : {7u, 29u, 101u}) {
    const Dataset data = invariant_power_law(seed);
    PartitionOptions opt;
    opt.num_parts = 5;
    opt.seed = seed;
    const double random_cut =
        evaluate_partitioning(data.graph, random_partition(data.graph, opt),
                              data.val_mask)
            .edge_cut_fraction;
    const double ldg_cut = evaluate_partitioning(
                               data.graph,
                               ldg_partition(data.graph, opt, data.val_mask),
                               data.val_mask)
                               .edge_cut_fraction;
    const double ml_cut =
        evaluate_partitioning(
            data.graph, multilevel_partition(data.graph, opt, data.val_mask),
            data.val_mask)
            .edge_cut_fraction;
    EXPECT_LE(ldg_cut, random_cut) << "seed " << seed;
    EXPECT_LE(ml_cut, random_cut) << "seed " << seed;
  }
}

TEST(PartitionInvariants, DegenerateInputs) {
  PartitionOptions opt;
  opt.num_parts = 1;
  const std::vector<std::uint8_t> no_val_1(1, 0);

  // Empty graph: build_csr refuses to make one, and a hand-built empty
  // CSR is refused by the partitioners — no valid 1-part partitioning.
  EXPECT_THROW(build_csr(0, {}), CheckError);
  Csr empty;
  empty.num_nodes = 0;
  empty.indptr = {0};
  EXPECT_THROW(random_partition(empty, opt), CheckError);

  // Single node: the only partitioning is {0}; all three agree.
  const Csr one = build_csr(1, {}, {.symmetrize = false,
                                    .add_self_loops = true});
  for (int algo = 0; algo < 3; ++algo) {
    Partitioning parts;
    switch (algo) {
      case 0: parts = random_partition(one, opt); break;
      case 1: parts = ldg_partition(one, opt, no_val_1); break;
      case 2: parts = multilevel_partition(one, opt, no_val_1); break;
    }
    parts.validate(1);
    EXPECT_EQ(parts.assignment[0], 0);
  }

  // More parts than nodes is refused at the partition layer (the serving
  // layer clamps and pads with empty shards instead — test_shard.cpp).
  const Dataset tiny = invariant_power_law(1);
  PartitionOptions over;
  over.num_parts = tiny.num_nodes() + 1;
  EXPECT_THROW(random_partition(tiny.graph, over), CheckError);
  EXPECT_THROW(ldg_partition(tiny.graph, over, tiny.val_mask), CheckError);
  EXPECT_THROW(multilevel_partition(tiny.graph, over, tiny.val_mask),
               CheckError);
}

TEST(PartitionQuality, PerfectPartitionOfDisconnectedCliques) {
  // Two disconnected triangles: 2-way partition along components is
  // discoverable with zero cut.
  std::vector<Edge> edges{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}};
  const Csr g = build_csr(6, edges,
                          {.symmetrize = true, .add_self_loops = false});
  PartitionOptions opt;
  opt.num_parts = 2;
  const std::vector<std::uint8_t> no_val(6, 0);
  const Partitioning parts = multilevel_partition(g, opt, no_val);
  const auto q = evaluate_partitioning(g, parts, no_val);
  EXPECT_EQ(q.cut_edges, 0);
}

}  // namespace
}  // namespace gsoup
