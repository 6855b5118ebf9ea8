#include <gtest/gtest.h>

#include "common/naive_einsum.hpp"
#include "symm/block_ops.hpp"
#include "common/fuse.hpp"
#include "tensor/contract.hpp"

namespace {

using tt::Rng;
using tt::symm::BlockTensor;
using tt::symm::ContractStats;
using tt::symm::Dir;
using tt::symm::Index;
using tt::symm::QN;

Index even_bond(Dir d) { return Index({{QN(-2), 2}, {QN(0), 3}, {QN(2), 1}}, d); }
Index odd_bond(Dir d) { return Index({{QN(-1), 2}, {QN(1), 2}, {QN(3), 1}}, d); }
Index phys(Dir d) { return Index({{QN(-1), 1}, {QN(1), 1}}, d); }

BlockTensor site_a(Rng& rng) {
  return BlockTensor::random({even_bond(Dir::In), phys(Dir::In), odd_bond(Dir::Out)},
                             QN::zero(1), rng);
}
BlockTensor site_b(Rng& rng) {
  return BlockTensor::random({odd_bond(Dir::In), phys(Dir::In), even_bond(Dir::Out)},
                             QN::zero(1), rng);
}

TEST(BlockContract, MatchesFusedDenseEinsum) {
  Rng rng(21);
  BlockTensor a = site_a(rng);
  BlockTensor b = site_b(rng);
  // Contract a's right bond with b's left bond: theta(l,s1,s2,r).
  BlockTensor c = tt::symm::contract(a, b, {{2, 0}});
  // Reference: loop-based contraction of the fused dense operands.
  auto da = tt::testing::fuse_dense(a);
  auto db = tt::testing::fuse_dense(b);
  auto want = tt::testing::naive_einsum("lsr,rtm->lstm", da, db);
  auto got = tt::testing::fuse_dense(c);
  EXPECT_LT(tt::tensor::max_abs_diff(got, want), 1e-10 * (1.0 + want.max_abs()));
}

TEST(BlockContract, OutputStructure) {
  Rng rng(22);
  BlockTensor a = site_a(rng);
  BlockTensor b = site_b(rng);
  BlockTensor c = tt::symm::contract(a, b, {{2, 0}});
  EXPECT_EQ(c.order(), 4);
  EXPECT_TRUE(c.index(0).same_space(a.index(0)));
  EXPECT_TRUE(c.index(1).same_space(a.index(1)));
  EXPECT_TRUE(c.index(2).same_space(b.index(1)));
  EXPECT_TRUE(c.index(3).same_space(b.index(2)));
  EXPECT_EQ(c.flux(), QN(0));
  for (const auto& [key, blk] : c.blocks()) EXPECT_TRUE(c.key_allowed(key));
}

TEST(BlockContract, MultiModeContraction) {
  Rng rng(23);
  BlockTensor a = site_a(rng);
  // Contract over both bond AND phys: overlap-style double contraction with
  // the dagger of an identically-structured tensor.
  BlockTensor b = site_a(rng).dagger();
  BlockTensor c = tt::symm::contract(a, b, {{1, 1}, {2, 2}});
  auto want = tt::testing::naive_einsum("lsr,msr->lm", tt::testing::fuse_dense(a),
                                       tt::testing::fuse_dense(b));
  EXPECT_LT(tt::tensor::max_abs_diff(tt::testing::fuse_dense(c), want),
            1e-10 * (1.0 + want.max_abs()));
}

TEST(BlockContract, FullContractionToScalar) {
  Rng rng(24);
  BlockTensor a = site_a(rng);
  BlockTensor adag = a.dagger();
  BlockTensor c = tt::symm::contract(a, adag, {{0, 0}, {1, 1}, {2, 2}});
  EXPECT_EQ(c.order(), 0);
  ASSERT_EQ(c.num_blocks(), 1);
  const double norm2 = a.norm2() * a.norm2();
  EXPECT_NEAR(c.blocks().begin()->second[0], norm2, 1e-9 * (1.0 + norm2));
}

TEST(BlockContract, StatsCountBlockPairsAndFlops) {
  Rng rng(25);
  BlockTensor a = site_a(rng);
  BlockTensor b = site_b(rng);
  // The stats total the bin list's pair costs in bin order; the costs are
  // priced from block shapes at enumeration: 2·m·n·k flops and m·n result
  // words, with m the free(a), n the free(b) and k the contracted extent of
  // the pair's blocks — the extents of the GEMM that executes the pair, whose
  // result holds m·n words.
  auto expect_priced_as_executed = [](const BlockTensor& x, const BlockTensor& y,
                                      const std::vector<std::pair<int, int>>& pairs) {
    ContractStats st;
    tt::symm::contract(x, y, pairs, &st);
    const tt::symm::ContractPlan plan = tt::symm::make_contract_plan(x, y, pairs);
    const auto bins = tt::symm::enumerate_bins(x, y, plan);
    EXPECT_EQ(st.num_bins, static_cast<int>(bins.size()));
    double sum = 0.0;
    std::size_t npairs = 0;
    for (const auto& bin : bins)
      for (const auto& pw : bin.pairs) {
        ++npairs;
        double m = 1.0, n = 1.0, k = 1.0;
        for (int mode : plan.layout.free_a) m *= static_cast<double>(pw.ablk->dim(mode));
        for (int mode : plan.layout.free_b) n *= static_cast<double>(pw.bblk->dim(mode));
        for (auto [ma, mb] : pairs) k *= static_cast<double>(pw.ablk->dim(ma));
        const auto& op = pw.cost;
        sum += op.flops;
        EXPECT_GT(op.flops, 0.0);
        EXPECT_EQ(op.flops, 2.0 * m * n * k);
        EXPECT_EQ(op.words_a, static_cast<double>(pw.ablk->size()));
        EXPECT_EQ(op.words_b, static_cast<double>(pw.bblk->size()));
        EXPECT_EQ(op.words_c, m * n);
        const auto executed = tt::tensor::contract(*pw.ablk, *pw.bblk, pairs);
        EXPECT_EQ(op.words_c, static_cast<double>(executed.size()));
      }
    EXPECT_GT(npairs, 0u);
    EXPECT_EQ(sum, st.total_flops);
  };
  expect_priced_as_executed(a, b, {{2, 0}});
  expect_priced_as_executed(a, a.dagger(), {{1, 1}, {2, 2}});
}

TEST(BlockContract, RejectsNonContractibleLegs) {
  Rng rng(26);
  BlockTensor a = site_a(rng);
  BlockTensor b = site_b(rng);
  // a mode 2 (odd Out) against b mode 2 (even Out): same dir and different
  // sectors — both violations.
  EXPECT_THROW(tt::symm::contract(a, b, {{2, 2}}), tt::Error);
  // a phys (In) against b phys (In): same direction.
  EXPECT_THROW(tt::symm::contract(a, b, {{1, 1}}), tt::Error);
}

TEST(BlockContract, RejectsOutOfRangeAndDuplicateModes) {
  Rng rng(27);
  BlockTensor a = site_a(rng);
  BlockTensor b = site_b(rng);
  EXPECT_THROW(tt::symm::contract(a, b, {{3, 0}}), tt::Error);
  EXPECT_THROW(tt::symm::contract(a, b, {{2, 0}, {2, 0}}), tt::Error);
}

TEST(BlockContract, FluxAddsThroughContraction) {
  // Give one operand a nonzero flux and check the output flux.
  Rng rng(28);
  Index l({{QN(0), 2}}, Dir::In);
  BlockTensor a = BlockTensor::random({l, phys(Dir::In)}, QN(1), rng);
  BlockTensor b =
      BlockTensor::random({phys(Dir::Out), odd_bond(Dir::Out)}, QN(-1), rng);
  BlockTensor c = tt::symm::contract(a, b, {{1, 0}});
  EXPECT_EQ(c.flux(), QN(0));
  // And the contraction matches the fused reference.
  auto want = tt::testing::naive_einsum("ls,sr->lr", tt::testing::fuse_dense(a),
                                       tt::testing::fuse_dense(b));
  EXPECT_LT(tt::tensor::max_abs_diff(tt::testing::fuse_dense(c), want), 1e-10);
}

TEST(BlockContract, EmptyOperandGivesEmptyResult) {
  Rng rng(29);
  BlockTensor a(
      {even_bond(Dir::In), phys(Dir::In), odd_bond(Dir::Out)}, QN::zero(1));
  BlockTensor b = site_b(rng);
  BlockTensor c = tt::symm::contract(a, b, {{2, 0}});
  EXPECT_EQ(c.num_blocks(), 0);
}

}  // namespace
