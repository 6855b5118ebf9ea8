// Property tests of the bin partitioner: over random weight sets and random
// QN block structures, every bin lands on exactly one rank and no rank's load
// exceeds the documented total/R + w_max bound of the cyclic deal.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "runtime/partition.hpp"
#include "support/rng.hpp"
#include "symm/block_ops.hpp"

namespace {

using tt::Rng;
using tt::index_t;
using tt::rt::Partition;
using tt::rt::choose_replicated;
using tt::rt::partition_bins;
using tt::symm::BlockTensor;
using tt::symm::Dir;
using tt::symm::Index;
using tt::symm::QN;
using tt::symm::Sector;

// Random index: 1–4 sectors with distinct small charges, dims 1–4 (the
// tests/symm random-structure idiom).
Index random_index(Rng& rng, Dir dir) {
  const int nsec = static_cast<int>(rng.integer(1, 4));
  std::vector<Sector> sectors;
  std::vector<QN> used;
  while (static_cast<int>(sectors.size()) < nsec) {
    QN q(static_cast<int>(rng.integer(-2, 2)));
    bool fresh = true;
    for (const QN& u : used) fresh &= !(u == q);
    if (!fresh) continue;
    used.push_back(q);
    sectors.push_back({q, rng.integer(1, 4)});
  }
  return Index(sectors, dir);
}

// Invariants every partition must satisfy, for any weights and rank count.
void check_partition(const Partition& p, const std::vector<double>& weights,
                     int num_ranks) {
  ASSERT_EQ(p.rank_of.size(), weights.size());
  ASSERT_EQ(p.rank_load.size(), static_cast<std::size_t>(num_ranks));

  // Every bin assigned exactly once, to a valid rank.
  std::vector<double> recomputed(static_cast<std::size_t>(num_ranks), 0.0);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    ASSERT_GE(p.rank_of[i], 0);
    ASSERT_LT(p.rank_of[i], num_ranks);
    recomputed[static_cast<std::size_t>(p.rank_of[i])] += weights[i];
  }

  // Reported loads match the assignment, and each respects the bound.
  double total = 0.0, wmax = 0.0;
  for (double w : weights) {
    total += w;
    wmax = std::max(wmax, w);
  }
  const double bound = (num_ranks > 0 ? total / num_ranks : 0.0) + wmax;
  EXPECT_NEAR(p.load_bound(), bound, 1e-9 * (1.0 + bound));
  for (int r = 0; r < num_ranks; ++r) {
    EXPECT_NEAR(p.rank_load[static_cast<std::size_t>(r)],
                recomputed[static_cast<std::size_t>(r)], 1e-9 * (1.0 + total));
    EXPECT_LE(p.rank_load[static_cast<std::size_t>(r)],
              bound * (1.0 + 1e-12) + 1e-12);
  }
}

TEST(Partition, RandomWeightsStayWithinTheDocumentedBound) {
  Rng rng(101);
  for (int trial = 0; trial < 200; ++trial) {
    const int nbins = static_cast<int>(rng.integer(0, 60));
    const int ranks = static_cast<int>(rng.integer(1, 8));
    std::vector<double> weights(static_cast<std::size_t>(nbins));
    for (double& w : weights) {
      // Heavy-tailed weights: the adversarial case for load balance.
      w = std::pow(10.0, rng.uniform(0.0, 4.0));
      if (rng.integer(0, 9) == 0) w = 0.0;  // empty-ish bins occur in practice
    }
    check_partition(partition_bins(weights, ranks), weights, ranks);
  }
}

TEST(Partition, RandomQnBlockStructuresStayWithinTheBound) {
  // The real workload: bins enumerated from random symmetric block structures,
  // weighted by estimated flops.
  Rng rng(202);
  int structures_checked = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Index shared = random_index(rng, Dir::Out);
    const BlockTensor a = BlockTensor::random(
        {random_index(rng, Dir::In), shared, random_index(rng, Dir::Out)},
        QN(static_cast<int>(rng.integer(-1, 1))), rng);
    const BlockTensor b = BlockTensor::random(
        {shared.reversed(), random_index(rng, Dir::In)},
        QN(static_cast<int>(rng.integer(-1, 1))), rng);
    if (a.num_blocks() == 0 || b.num_blocks() == 0) continue;

    const std::vector<std::pair<int, int>> pairs = {{1, 0}};
    const auto plan = tt::symm::make_contract_plan(a, b, pairs);
    const auto bins = tt::symm::enumerate_bins(a, b, plan);
    std::vector<double> weights(bins.size());
    for (std::size_t i = 0; i < bins.size(); ++i) {
      EXPECT_FALSE(bins.pairs_of(i).empty());  // a bin exists only if touched
      EXPECT_GT(bins.est_flops[i], 0.0);
      weights[i] = bins.est_flops[i];
    }
    for (int ranks : {1, 2, 3, 4, 7})
      check_partition(partition_bins(weights, ranks), weights, ranks);
    ++structures_checked;
  }
  EXPECT_GT(structures_checked, 10);  // the sweep must actually exercise bins
}

TEST(Partition, IsDeterministicIncludingTies) {
  const std::vector<double> weights = {5, 5, 5, 1, 1, 9, 9, 0, 3};
  const Partition first = partition_bins(weights, 3);
  for (int repeat = 0; repeat < 5; ++repeat) {
    const Partition again = partition_bins(weights, 3);
    EXPECT_EQ(first.rank_of, again.rank_of);
    EXPECT_EQ(first.rank_load, again.rank_load);
  }
}

TEST(Partition, SingleRankGetsEverything) {
  const std::vector<double> weights = {2, 7, 1};
  const Partition p = partition_bins(weights, 1);
  EXPECT_EQ(p.rank_of, (std::vector<int>{0, 0, 0}));
  EXPECT_DOUBLE_EQ(p.rank_load[0], 10.0);
}

TEST(Partition, MoreRanksThanBinsLeavesSpareRanksIdle) {
  const std::vector<double> weights = {4, 2};
  const Partition p = partition_bins(weights, 5);
  check_partition(p, weights, 5);
  int loaded = 0;
  for (double l : p.rank_load) loaded += l > 0 ? 1 : 0;
  EXPECT_EQ(loaded, 2);
}

TEST(Partition, EmptyBinListIsFine) {
  const Partition p = partition_bins({}, 4);
  EXPECT_TRUE(p.rank_of.empty());
  EXPECT_DOUBLE_EQ(p.total_weight, 0.0);
}

TEST(Partition, RejectsInvalidInput) {
  EXPECT_THROW(partition_bins({1.0}, 0), tt::Error);
  EXPECT_THROW(partition_bins({-1.0}, 2), tt::Error);
}

TEST(Partition, ChooseReplicatedPicksTheSmallerOperand) {
  EXPECT_EQ(choose_replicated(10.0, 100.0), 0);
  EXPECT_EQ(choose_replicated(100.0, 10.0), 1);
  EXPECT_EQ(choose_replicated(50.0, 50.0), 0);  // ties replicate a
}

}  // namespace
