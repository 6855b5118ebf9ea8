#include <gtest/gtest.h>

#include "common/fuse.hpp"

namespace {

using tt::Rng;
using tt::index_t;
using tt::symm::BlockTensor;
using tt::symm::Dir;
using tt::symm::Index;
using tt::symm::QN;

Index even_bond(Dir d) { return Index({{QN(-2), 2}, {QN(0), 3}, {QN(2), 1}}, d); }
Index odd_bond(Dir d) { return Index({{QN(-1), 2}, {QN(1), 2}, {QN(3), 1}}, d); }
Index phys(Dir d) { return Index({{QN(-1), 1}, {QN(1), 1}}, d); }

BlockTensor site(Rng& rng) {
  return BlockTensor::random({even_bond(Dir::In), phys(Dir::In), odd_bond(Dir::Out)},
                             QN::zero(1), rng);
}

TEST(Fuse, DenseShapeIsFusedDims) {
  Rng rng(51);
  BlockTensor t = site(rng);
  auto d = tt::testing::fuse_dense(t);
  EXPECT_EQ(d.shape(), (std::vector<index_t>{6, 2, 5}));
}

TEST(Fuse, BlockValuesLandAtSectorOffsets) {
  Rng rng(56);
  BlockTensor t = site(rng);
  auto d = tt::testing::fuse_dense(t);
  // Block (l=0 sector id 1, s=+1 id 1, r=+1 id 1): offsets l:2, s:1, r:2.
  const auto blk = t.find_block({1, 1, 1});
  ASSERT_TRUE(blk.has_value());
  EXPECT_DOUBLE_EQ(d.at({2, 1, 2}), blk->at({0, 0, 0}));
  EXPECT_DOUBLE_EQ(d.at({4, 1, 3}), blk->at({2, 0, 1}));
}

TEST(Fuse, DenseKeepsNormAndZerosOutsideBlocks) {
  Rng rng(53);
  BlockTensor t = site(rng);
  auto d = tt::testing::fuse_dense(t);
  EXPECT_NEAR(d.norm2(), t.norm2(), 1e-12);
  index_t nonzero = 0;
  for (index_t i = 0; i < d.size(); ++i) nonzero += d[i] != 0.0 ? 1 : 0;
  // Random normal entries are never exactly zero in practice.
  EXPECT_EQ(nonzero, t.num_elements());
}

}  // namespace
