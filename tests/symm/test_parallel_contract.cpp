// Determinism and correctness of the thread-parallel block-contraction
// executor: bitwise-identical outputs and ContractStats at any thread count,
// and agreement with the fused dense oracle.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "dmrg/engine.hpp"
#include "runtime/machine.hpp"
#include "runtime/tracker.hpp"
#include "common/naive_einsum.hpp"
#include "support/thread_pool.hpp"
#include "symm/block_ops.hpp"
#include "common/fuse.hpp"

namespace {

using tt::Rng;
using tt::index_t;
using tt::symm::BlockTensor;
using tt::symm::ContractStats;
using tt::symm::Dir;
using tt::symm::Index;
using tt::symm::QN;

// A bond with many sectors so a single contraction produces dozens of bins.
Index wide_bond(Dir d, int nsec, int dim0) {
  std::vector<tt::symm::Sector> secs;
  for (int q = 0; q < nsec; ++q)
    secs.push_back({QN(q - nsec / 2), static_cast<index_t>(dim0 + q % 3)});
  return Index(secs, d);
}

Index phys(Dir d) { return Index({{QN(-1), 2}, {QN(1), 2}}, d); }

// Many-block operand pair sharing a contractible middle bond.
std::pair<BlockTensor, BlockTensor> many_block_pair(unsigned seed) {
  Rng rng(seed);
  const Index mid = wide_bond(Dir::Out, 11, 3);
  BlockTensor a = BlockTensor::random(
      {wide_bond(Dir::In, 9, 2), phys(Dir::In), mid}, QN::zero(1), rng);
  BlockTensor b = BlockTensor::random(
      {mid.reversed(), phys(Dir::In), wide_bond(Dir::Out, 9, 2)}, QN::zero(1), rng);
  return {std::move(a), std::move(b)};
}

// Bitwise block-tensor equality (not tolerance-based: the executor promises
// identical floating-point reductions at every thread count).
void expect_bitwise_equal(const BlockTensor& x, const BlockTensor& y) {
  ASSERT_TRUE(x.same_structure(y));
  ASSERT_EQ(x.num_blocks(), y.num_blocks());
  for (const auto& [key, blk] : x.blocks()) {
    const tt::tensor::DenseTensor* other = y.find_block(key);
    ASSERT_NE(other, nullptr);
    ASSERT_EQ(blk.shape(), other->shape());
    ASSERT_EQ(std::memcmp(blk.data(), other->data(),
                          static_cast<std::size_t>(blk.size()) * sizeof(double)),
              0);
  }
}

void expect_identical_stats(const ContractStats& x, const ContractStats& y) {
  // Bitwise: the cross-bin merge order is fixed, so even the floating-point
  // reductions must agree exactly.
  EXPECT_EQ(x.total_flops, y.total_flops);
  EXPECT_EQ(x.num_bins, y.num_bins);
}

TEST(ParallelContract, BitwiseIdenticalAcrossThreadCounts) {
  auto [a, b] = many_block_pair(31);
  ContractStats st1;
  const BlockTensor ref = tt::symm::contract(a, b, {{2, 0}}, &st1, /*num_threads=*/1);
  ASSERT_GT(ref.num_blocks(), 8);  // the workload must actually have many bins
  EXPECT_GT(st1.num_bins, 8);

  for (int threads : {2, 8}) {
    ContractStats st;
    const BlockTensor c = tt::symm::contract(a, b, {{2, 0}}, &st, threads);
    expect_bitwise_equal(ref, c);
    expect_identical_stats(st1, st);
  }
}

TEST(ParallelContract, TtThreadsGlobalKnobIsUsedByDefault) {
  auto [a, b] = many_block_pair(32);
  ContractStats st1, st8;
  tt::support::set_num_threads(1);
  const BlockTensor ref = tt::symm::contract(a, b, {{2, 0}}, &st1);
  tt::support::set_num_threads(8);
  const BlockTensor c = tt::symm::contract(a, b, {{2, 0}}, &st8);
  tt::support::set_num_threads(0);
  expect_bitwise_equal(ref, c);
  expect_identical_stats(st1, st8);
}

TEST(ParallelContract, MatchesFusedDenseOracle) {
  auto [a, b] = many_block_pair(33);
  const BlockTensor c = tt::symm::contract(a, b, {{2, 0}}, nullptr, /*num_threads=*/4);
  auto want = tt::testing::naive_einsum("lsr,rtm->lstm", tt::testing::fuse_dense(a),
                                        tt::testing::fuse_dense(b));
  auto got = tt::testing::fuse_dense(c);
  EXPECT_LT(tt::tensor::max_abs_diff(got, want), 1e-10 * (1.0 + want.max_abs()));
}

TEST(ParallelContract, MultiModeAndScalarOutputsStayDeterministic) {
  auto [a, b] = many_block_pair(34);
  (void)b;
  const BlockTensor adag = a.dagger();
  const int serial = 1, par = 8;
  // Overlap-style double contraction (order-2 output).
  expect_bitwise_equal(tt::symm::contract(a, adag, {{1, 1}, {2, 2}}, nullptr, serial),
                       tt::symm::contract(a, adag, {{1, 1}, {2, 2}}, nullptr, par));
  // Full contraction to a scalar (single bin).
  expect_bitwise_equal(
      tt::symm::contract(a, adag, {{0, 0}, {1, 1}, {2, 2}}, nullptr, serial),
      tt::symm::contract(a, adag, {{0, 0}, {1, 1}, {2, 2}}, nullptr, par));
}

TEST(ParallelContract, EnginesProduceIdenticalResultsAtAnyThreadCount) {
  auto [a, b] = many_block_pair(37);
  tt::dmrg::ContractionEngine serial, par;
  serial.set_num_threads(1);
  par.set_num_threads(8);
  serial.set_logging(true);
  par.set_logging(true);
  using tt::dmrg::Role;
  const BlockTensor c1 =
      serial.contract(a, Role::kOperator, b, Role::kIntermediate, {{2, 0}});
  const BlockTensor c8 =
      par.contract(a, Role::kOperator, b, Role::kIntermediate, {{2, 0}});
  expect_bitwise_equal(c1, c8);
  // The recorded log, and with it every modelled cost, must not depend on
  // the thread count either.
  ASSERT_EQ(serial.log().size(), 1u);
  EXPECT_TRUE(serial.log() == par.log());
}

}  // namespace
