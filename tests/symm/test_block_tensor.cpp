#include <gtest/gtest.h>

#include <cmath>

#include "support/error.hpp"
#include "symm/block_tensor.hpp"

namespace {

using tt::Rng;
using tt::index_t;
using tt::symm::BlockKey;
using tt::symm::BlockTensor;
using tt::symm::Dir;
using tt::symm::Index;
using tt::symm::QN;

Index bond(Dir d) { return Index({{QN(-1), 2}, {QN(1), 3}}, d); }
Index phys(Dir d) { return Index({{QN(-1), 1}, {QN(1), 1}}, d); }

// Order-3 MPS-like structure: (left In, phys In, right Out), flux 0.
BlockTensor mps_like(Rng& rng) {
  return BlockTensor::random({bond(Dir::In), phys(Dir::In), bond(Dir::Out)}, QN::zero(1),
                             rng);
}

TEST(BlockTensor, AdmissibleKeysObeyConservation) {
  Rng rng(1);
  BlockTensor t = mps_like(rng);
  // q_l + q_s - q_r = 0: (-1)+(-1)-(-2)? -2 not a sector; valid combos:
  // (-1,+1,0)? 0 absent. Sectors are ±1 only: l+s ∈ {-2,0,2}, r ∈ {-1,1}.
  // So admissible keys require q_l + q_s = q_r: impossible parity ⇒ none!
  // Wait: l,s ∈ {-1,1} so l+s ∈ {-2,0,2}, r ∈ {-1,1}: indeed empty.
  EXPECT_TRUE(t.admissible_keys().empty());
}

// A structure that does have admissible blocks: left bond carries even
// charges, physical ±1, right bond odd charges.
BlockTensor workable(Rng& rng) {
  Index l({{QN(-2), 2}, {QN(0), 3}, {QN(2), 1}}, Dir::In);
  Index s = phys(Dir::In);
  Index r({{QN(-1), 2}, {QN(1), 2}, {QN(3), 1}}, Dir::Out);
  return BlockTensor::random({l, s, r}, QN::zero(1), rng);
}

TEST(BlockTensor, WorkableStructureHasExpectedBlocks) {
  Rng rng(2);
  BlockTensor t = workable(rng);
  // Conservation q_l + q_s = q_r over l∈{-2,0,2}, s∈{-1,1}, r∈{-1,1,3}:
  // (-2,+1,-1),(0,-1,-1),(0,+1,1),(2,-1,1),(2,+1,3) = 5 blocks.
  EXPECT_EQ(t.num_blocks(), 5);
  for (const auto& [key, blk] : t.blocks()) {
    EXPECT_TRUE(t.key_allowed(key));
    EXPECT_EQ(blk.shape(), t.block_shape(key));
  }
}

TEST(BlockTensor, BlockCreationRejectsViolatingKey) {
  Rng rng(3);
  BlockTensor t = workable(rng);
  EXPECT_THROW(t.block({0, 0, 0}), tt::Error);  // -2 -1 != -1
  EXPECT_THROW(t.block({9, 0, 0}), tt::Error);  // sector out of range
}

TEST(BlockTensor, NumElementsAndDenseSize) {
  Rng rng(4);
  BlockTensor t = workable(rng);
  // Block sizes: (2·1·2)+(3·1·2)+(3·1·2)+(1·1·2)+(1·1·1) = 4+6+6+2+1 = 19.
  EXPECT_EQ(t.num_elements(), 19);
  EXPECT_EQ(t.dense_size(), 6 * 2 * 5);
  EXPECT_NEAR(t.fill_fraction(), 19.0 / 60.0, 1e-12);
}

TEST(BlockTensor, PartialCharge) {
  Rng rng(6);
  BlockTensor t = workable(rng);
  const BlockKey key{2, 1, 2};  // l=+2 (In), s=+1 (In), r=+3 (Out)
  EXPECT_EQ(t.partial_charge(key, {0, 1}), QN(3));
  EXPECT_EQ(t.partial_charge(key, {2}), QN(-3));
  EXPECT_EQ(t.partial_charge(key, {0, 1, 2}), QN(0));
}

TEST(BlockTensor, AccumulateAddsIntoExistingBlock) {
  Rng rng(7);
  BlockTensor t = workable(rng);
  const BlockKey key{1, 1, 1};  // l=0,s=+1,r=+1
  const double before = t.find_block(key)->at({0, 0, 0});
  tt::tensor::DenseTensor add(t.block_shape(key));
  add.fill(2.0);
  t.accumulate(key, add);
  EXPECT_DOUBLE_EQ(t.find_block(key)->at({0, 0, 0}), before + 2.0);
}

TEST(BlockTensor, AccumulateRejectsWrongShape) {
  Rng rng(8);
  BlockTensor t = workable(rng);
  tt::tensor::DenseTensor wrong({1, 1, 1});
  EXPECT_THROW(t.accumulate({1, 1, 1}, wrong), tt::Error);
}

TEST(BlockTensor, DotAndNormConsistency) {
  Rng rng(9);
  BlockTensor t = workable(rng);
  EXPECT_NEAR(std::sqrt(tt::symm::dot(t, t)), t.norm2(), 1e-12);
}

TEST(BlockTensor, AxpyLinearity) {
  Rng rng(10);
  BlockTensor a = workable(rng);
  BlockTensor b = workable(rng);
  const double ab = tt::symm::dot(a, b);
  const double aa = tt::symm::dot(a, a);
  const double bb = tt::symm::dot(b, b);
  BlockTensor c = a;
  c.axpy(3.0, b);
  EXPECT_NEAR(tt::symm::dot(c, c), aa + 6.0 * ab + 9.0 * bb, 1e-9);
}

TEST(BlockTensor, ScaleScalesNorm) {
  Rng rng(11);
  BlockTensor t = workable(rng);
  const double n = t.norm2();
  t.scale(-0.5);
  EXPECT_NEAR(t.norm2(), 0.5 * n, 1e-12);
}

TEST(BlockTensor, DaggerFlipsStructureKeepsData) {
  Rng rng(12);
  BlockTensor t = workable(rng);
  BlockTensor d = t.dagger();
  EXPECT_EQ(d.flux(), -t.flux());
  for (int m = 0; m < t.order(); ++m) {
    EXPECT_EQ(d.index(m).dir(), tt::symm::reverse(t.index(m).dir()));
    EXPECT_EQ(d.index(m).sectors(), t.index(m).sectors());
  }
  EXPECT_EQ(d.num_blocks(), t.num_blocks());
  EXPECT_NEAR(d.norm2(), t.norm2(), 0.0);
}

TEST(BlockTensor, NonzeroFluxShiftsAdmissibleKeys) {
  Index l({{QN(0), 2}}, Dir::In);
  Index s = phys(Dir::In);
  BlockTensor t({l, s}, QN(1));
  // q_l + q_s = flux=1 ⇒ only s=+1 sector admissible.
  auto keys = t.admissible_keys();
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], (BlockKey{0, 1}));
}

TEST(BlockTensor, DotStructureMismatchThrows) {
  Rng rng(14);
  BlockTensor a = workable(rng);
  BlockTensor b = a.dagger();
  EXPECT_THROW(tt::symm::dot(a, b), tt::Error);
}

TEST(BlockTensor, MaxAbsDiffSeesMissingBlocks) {
  Rng rng(15);
  BlockTensor a = workable(rng);
  // b holds every block of a except {1,1,1}.
  BlockTensor b(a.indices(), a.flux());
  for (const auto& [key, blk] : a.blocks())
    if (key != BlockKey{1, 1, 1}) b.accumulate(key, blk);
  const double diff = tt::symm::max_abs_diff(a, b);
  EXPECT_DOUBLE_EQ(diff, a.find_block({1, 1, 1})->max_abs());
}

}  // namespace
