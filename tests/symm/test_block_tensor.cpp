#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>

#include "common/parity.hpp"
#include "support/error.hpp"
#include "symm/block_tensor.hpp"

namespace {

using tt::Rng;
using tt::index_t;
using tt::real_t;
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
    for (int m = 0; m < t.order(); ++m)
      EXPECT_EQ(blk.dim(m), t.index(m).sector(key[static_cast<std::size_t>(m)]).dim);
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

TEST(BlockTensor, BlockWritesInPlace) {
  Rng rng(7);
  BlockTensor t = workable(rng);
  const BlockKey key{1, 1, 1};  // l=0,s=+1,r=+1
  const double before = t.find_block(key)->at({0, 0, 0});
  t.block(key).at({0, 0, 0}) += 2.0;
  EXPECT_DOUBLE_EQ(t.find_block(key)->at({0, 0, 0}), before + 2.0);
  EXPECT_FALSE(t.find_block({0, 0, 0}).has_value());  // inadmissible: never stored
}

TEST(BlockTensor, BlockInsertsAZeroBlockBetweenStoredOnes) {
  Rng rng(8);
  const BlockTensor full = workable(rng);
  // Every block but {1, 1, 1}, then that block inserted mid-table.
  const std::vector<BlockKey> others{{0, 1, 0}, {1, 0, 0}, {2, 0, 1}, {2, 1, 2}};
  BlockTensor t(full.indices(), full.flux(), others);
  for (const auto& [key, blk] : t.blocks()) {
    const auto src = *full.find_block(key);
    std::copy_n(src.data(), src.size(), blk.data());
  }
  const tt::tensor::View fresh = t.block({1, 1, 1});
  EXPECT_EQ(fresh.max_abs(), 0.0);
  EXPECT_EQ(t.num_elements(), full.num_elements());
  std::copy_n(full.find_block({1, 1, 1})->data(), fresh.size(), fresh.data());
  EXPECT_TRUE(tt::testing::bitwise_equal(t, full));
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
  std::vector<BlockKey> keys;
  for (const auto& [key, blk] : a.blocks())
    if (!std::ranges::equal(key, BlockKey{1, 1, 1}))
      keys.emplace_back(key.begin(), key.end());
  BlockTensor b(a.indices(), a.flux(), keys);
  for (const auto& [key, blk] : b.blocks()) {
    const auto src = *a.find_block(key);
    std::copy_n(src.data(), src.size(), blk.data());
  }
  const double diff = tt::symm::max_abs_diff(a, b);
  EXPECT_DOUBLE_EQ(diff, a.find_block({1, 1, 1})->max_abs());
}

// --- the flat layout, against a per-block reference ---------------------------

using Reference = std::map<BlockKey, tt::tensor::DenseTensor>;

// One of the seeded random structures of runtime/contract_matrix's inputs:
// an order-3 tensor over random_index legs with a random_flux. Seeds whose
// structure admits no block are skipped by the callers.
BlockTensor random_structure(int seed, bool all_blocks) {
  Rng rng(static_cast<unsigned>(seed) * 1234 + 1);
  const int rank = seed % 2 + 1;
  std::vector<Index> legs{tt::testing::random_index(rng, rank, Dir::In),
                          tt::testing::random_index(rng, rank, Dir::Out),
                          tt::testing::random_index(rng, rank, Dir::Out)};
  BlockTensor t = BlockTensor::random(legs, tt::testing::random_flux(rng, rank), rng);
  if (all_blocks) return t;
  // Drop every other block, so two such tensors hold different block sets.
  std::vector<BlockKey> keep;
  int i = 0;
  for (const auto& [key, blk] : t.blocks())
    if (i++ % 2 == static_cast<int>(rng.integer(0, 1)))
      keep.emplace_back(key.begin(), key.end());
  BlockTensor sparse(t.indices(), t.flux(), keep);
  for (const auto& [key, blk] : sparse.blocks()) {
    const auto src = *t.find_block(key);
    std::copy_n(src.data(), src.size(), blk.data());
  }
  return sparse;
}

Reference reference_of(const BlockTensor& t) {
  Reference ref;
  for (const auto& [key, blk] : t.blocks())
    ref.emplace(BlockKey(key.begin(), key.end()), tt::tensor::DenseTensor(blk));
  return ref;
}

::testing::AssertionResult matches(const BlockTensor& t, const Reference& ref) {
  if (t.num_blocks() != static_cast<int>(ref.size()))
    return ::testing::AssertionFailure() << t.num_blocks() << " blocks vs " << ref.size();
  auto it = ref.begin();
  for (const auto& [key, blk] : t.blocks()) {
    if (!std::ranges::equal(key, it->first))
      return ::testing::AssertionFailure() << "a block out of key order";
    const auto& want = it->second;
    if (!tt::tensor::same_shape(blk.shape(), want.shape()) ||
        !std::equal(want.data(), want.data() + want.size(), blk.data(),
                    [](double x, double y) { return tt::testing::same_bits(x, y); }))
      return ::testing::AssertionFailure() << "a block's shape or bits differ";
    ++it;
  }
  return ::testing::AssertionSuccess();
}

TEST(BlockTensorLayout, BlocksVisitKeysInMapOrderAndFillTheBuffer) {
  int tested = 0;
  for (int seed = 0; seed < 12; ++seed) {
    SCOPED_TRACE(seed);
    const BlockTensor t = random_structure(seed, true);
    if (t.num_blocks() == 0) continue;
    ++tested;
    EXPECT_TRUE(matches(t, reference_of(t)));
    index_t sum = 0;
    const real_t* next = t.elements().data();
    for (const auto& [key, blk] : t.blocks()) {
      EXPECT_EQ(blk.data(), next);  // blocks tile the buffer in key order
      next += blk.size();
      sum += blk.size();
    }
    EXPECT_EQ(static_cast<index_t>(t.elements().size()), t.num_elements());
    EXPECT_EQ(sum, t.num_elements());
  }
  EXPECT_GE(tested, 6);
}

TEST(BlockTensorLayout, AxpyCopyMoveAndDaggerMatchThePerBlockReference) {
  for (int seed = 0; seed < 12; ++seed) {
    SCOPED_TRACE(seed);
    const BlockTensor x = random_structure(seed, false);
    // A second, differently thinned tensor over the same structure.
    Rng rng(static_cast<unsigned>(seed) + 7);
    std::vector<BlockKey> keep;
    for (const BlockKey& key : x.admissible_keys())
      if (rng.uniform() < 0.6) keep.push_back(key);
    BlockTensor y(x.indices(), x.flux(), keep);
    for (const auto& [key, blk] : y.blocks())
      for (index_t i = 0; i < blk.size(); ++i) blk[i] = rng.normal();
    const real_t alpha = -0.75;
    Reference want = reference_of(y);
    for (const auto& [key, blk] : reference_of(x)) {
      auto it = want.find(key);
      if (it == want.end()) {
        tt::tensor::DenseTensor scaled = blk;
        scaled.scale(alpha);
        want.emplace(key, std::move(scaled));
      } else {
        it->second.axpy(alpha, blk);
      }
    }
    BlockTensor sum = y;
    sum.axpy(alpha, x);
    EXPECT_TRUE(matches(sum, want));
    EXPECT_TRUE(matches(y, reference_of(y)));  // the copy left y alone

    BlockTensor same = sum;  // equal tables: the one-pass path
    same.axpy(alpha, sum);
    for (auto& [key, blk] : want) blk.scale(1.0 + alpha);
    for (const auto& [key, blk] : same.blocks())
      for (index_t i = 0; i < blk.size(); ++i)
        EXPECT_NEAR(blk[i], want.at(BlockKey(key.begin(), key.end()))[i], 1e-14);

    BlockTensor moved = std::move(same);
    EXPECT_EQ(same.num_blocks(), 0);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(same.num_elements(), 0);
    EXPECT_TRUE(matches(moved.dagger(), reference_of(moved)));
    EXPECT_EQ(moved.dagger().flux(), -moved.flux());
  }
}

TEST(BlockTensorLayout, DotAndNorm2SumBlockByBlockInKeyOrder) {
  for (int seed = 0; seed < 12; ++seed) {
    SCOPED_TRACE(seed);
    const BlockTensor a = random_structure(seed, false);
    const BlockTensor b = random_structure(seed, true);
    const Reference ra = reference_of(a), rb = reference_of(b);
    real_t dot = 0.0, norm = 0.0;
    for (const auto& [key, blk] : ra) {
      norm += blk.norm2() * blk.norm2();
      if (auto it = rb.find(key); it != rb.end()) dot += tt::tensor::dot(blk, it->second);
    }
    EXPECT_TRUE(tt::testing::same_bits(tt::symm::dot(a, b), dot));
    EXPECT_TRUE(tt::testing::same_bits(a.norm2(), std::sqrt(norm)));
  }
}

}  // namespace
