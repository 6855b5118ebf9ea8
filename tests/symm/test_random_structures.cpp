// Property sweep over randomized block structures: for arbitrary sector
// layouts, directions, and fluxes, the algebraic identities of the symmetric
// tensor layer must hold — factorization invariants and the fused-format
// norm. (Contraction of the same seeded structures against the fused-dense
// oracle, on every executor, is runtime/contract_matrix.)
#include <gtest/gtest.h>

#include <vector>

#include "common/fuse.hpp"
#include "common/parity.hpp"
#include "symm/block_factor.hpp"
#include "symm/block_ops.hpp"

namespace {

using tt::Rng;
using tt::index_t;
using tt::symm::BlockTensor;
using tt::symm::Dir;
using tt::symm::Index;
using tt::symm::QN;
using tt::testing::random_flux;
using tt::testing::random_index;

class RandomStructure : public ::testing::TestWithParam<int> {};

TEST_P(RandomStructure, SvdReconstructsChargedTensors) {
  Rng rng(static_cast<unsigned>(GetParam()) * 1234 + 3);
  const int rank = GetParam() % 2 + 1;
  BlockTensor a;
  for (int attempt = 0; attempt < 50 && a.num_blocks() == 0; ++attempt)
    a = BlockTensor::random(
        {random_index(rng, rank, Dir::In), random_index(rng, rank, Dir::In),
         random_index(rng, rank, Dir::Out)},
        random_flux(rng, rank), rng);
  ASSERT_GT(a.num_blocks(), 0);

  // Try both bipartitions, including a non-contiguous one.
  for (const std::vector<int>& rows : {std::vector<int>{0}, {0, 2}}) {
    auto f = tt::symm::block_svd(a, rows);
    // U carries flux 0, Vt the original flux; both are isometries and the
    // product reconstructs a (no truncation).
    EXPECT_TRUE(f.u.flux().is_zero());
    EXPECT_EQ(f.vt.flux(), a.flux());
    BlockTensor usv = tt::symm::contract(f.u_times_s(), f.vt,
                                         {{f.u.order() - 1, 0}});
    // Output mode order is rows-then-cols; bring the comparison onto fused
    // matrices of the same bipartition to stay order-agnostic.
    EXPECT_NEAR(usv.norm2(), a.norm2(), 1e-9 * (1.0 + a.norm2()));
    EXPECT_NEAR(f.truncation_error, 0.0, 1e-16);
  }
}

TEST_P(RandomStructure, QrIsometryOnChargedTensors) {
  Rng rng(static_cast<unsigned>(GetParam()) * 1234 + 4);
  const int rank = GetParam() % 2 + 1;
  BlockTensor a;
  for (int attempt = 0; attempt < 50 && a.num_blocks() == 0; ++attempt)
    a = BlockTensor::random(
        {random_index(rng, rank, Dir::In), random_index(rng, rank, Dir::Out),
         random_index(rng, rank, Dir::Out)},
        random_flux(rng, rank), rng);
  ASSERT_GT(a.num_blocks(), 0);

  auto f = tt::symm::block_qr(a, {0, 1});
  BlockTensor qr = tt::symm::contract(f.q, f.r, {{2, 0}});
  EXPECT_LT(tt::symm::max_abs_diff(qr, a), 1e-9 * (1.0 + a.norm2()));
  BlockTensor g = tt::symm::contract(f.q.dagger(), f.q, {{0, 0}, {1, 1}});
  for (const auto& [key, blk] : g.blocks()) {
    ASSERT_EQ(key[0], key[1]);
    for (index_t i = 0; i < blk.dim(0); ++i)
      for (index_t j = 0; j < blk.dim(1); ++j)
        EXPECT_NEAR(blk.at({i, j}), i == j ? 1.0 : 0.0, 1e-10);
  }
}

TEST_P(RandomStructure, FuseDensePreservesNorm) {
  Rng rng(static_cast<unsigned>(GetParam()) * 1234 + 5);
  const int rank = GetParam() % 2 + 1;
  BlockTensor a;
  for (int attempt = 0; attempt < 50 && a.num_blocks() == 0; ++attempt)
    a = BlockTensor::random(
        {random_index(rng, rank, Dir::In), random_index(rng, rank, Dir::Out)},
        random_flux(rng, rank), rng);
  ASSERT_GT(a.num_blocks(), 0);

  // Parseval: the fused norm equals the block norm.
  EXPECT_NEAR(tt::testing::fuse_dense(a).norm2(), a.norm2(), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStructure, ::testing::Range(0, 12));

}  // namespace
