#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "symm/block_factor.hpp"
#include "symm/block_ops.hpp"
#include "common/fuse.hpp"

namespace {

using tt::Rng;
using tt::index_t;
using tt::symm::BlockTensor;
using tt::symm::Dir;
using tt::symm::Index;
using tt::symm::QN;
using tt::symm::TruncParams;

Index even_bond(Dir d) { return Index({{QN(-2), 2}, {QN(0), 3}, {QN(2), 1}}, d); }
Index odd_bond(Dir d) { return Index({{QN(-1), 2}, {QN(1), 2}, {QN(3), 1}}, d); }
Index phys(Dir d) { return Index({{QN(-1), 1}, {QN(1), 1}}, d); }

BlockTensor site(Rng& rng) {
  return BlockTensor::random({even_bond(Dir::In), phys(Dir::In), odd_bond(Dir::Out)},
                             QN::zero(1), rng);
}

// Two-site tensor theta(l, s1, s2, r).
BlockTensor theta(Rng& rng) {
  BlockTensor a = site(rng);
  BlockTensor b = BlockTensor::random(
      {odd_bond(Dir::In), phys(Dir::In), even_bond(Dir::Out)}, QN::zero(1), rng);
  return tt::symm::contract(a, b, {{2, 0}});
}

// Checks Q†Q = 1 on the bond: contract Q's dagger with Q over the row modes.
void expect_isometry_columns(const BlockTensor& q, const std::vector<int>& row_modes) {
  std::vector<std::pair<int, int>> pairs;
  for (int m : row_modes) pairs.emplace_back(m, m);
  BlockTensor g = tt::symm::contract(q.dagger(), q, pairs);
  ASSERT_EQ(g.order(), 2);
  for (const auto& [key, blk] : g.blocks()) {
    ASSERT_EQ(key[0], key[1]);  // charge-diagonal
    for (index_t i = 0; i < blk.dim(0); ++i)
      for (index_t j = 0; j < blk.dim(1); ++j)
        EXPECT_NEAR(blk.at({i, j}), i == j ? 1.0 : 0.0, 1e-10);
  }
}

// Checks QQ† = 1: orthonormal rows over the trailing col modes.
void expect_isometry_rows(const BlockTensor& q, const std::vector<int>& col_modes) {
  std::vector<std::pair<int, int>> pairs;
  for (int m : col_modes) pairs.emplace_back(m, m);
  BlockTensor g = tt::symm::contract(q, q.dagger(), pairs);
  ASSERT_EQ(g.order(), 2);
  for (const auto& [key, blk] : g.blocks()) {
    ASSERT_EQ(key[0], key[1]);
    for (index_t i = 0; i < blk.dim(0); ++i)
      for (index_t j = 0; j < blk.dim(1); ++j)
        EXPECT_NEAR(blk.at({i, j}), i == j ? 1.0 : 0.0, 1e-10);
  }
}

TEST(BlockQr, ReconstructsInput) {
  Rng rng(31);
  BlockTensor a = site(rng);
  auto f = tt::symm::block_qr(a, {0, 1});
  BlockTensor qr = tt::symm::contract(f.q, f.r, {{2, 0}});
  EXPECT_LT(tt::symm::max_abs_diff(qr, a), 1e-10 * (1.0 + a.norm2()));
}

TEST(BlockQr, QIsIsometry) {
  Rng rng(32);
  BlockTensor a = site(rng);
  auto f = tt::symm::block_qr(a, {0, 1});
  expect_isometry_columns(f.q, {0, 1});
}

TEST(BlockQr, StructurePreservesMpsConvention) {
  Rng rng(33);
  BlockTensor a = site(rng);
  auto f = tt::symm::block_qr(a, {0, 1});
  // Q keeps (l In, s In, bond Out) and flux 0 — a valid MPS site.
  EXPECT_EQ(f.q.index(0).dir(), Dir::In);
  EXPECT_EQ(f.q.index(1).dir(), Dir::In);
  EXPECT_EQ(f.q.index(2).dir(), Dir::Out);
  EXPECT_TRUE(f.q.flux().is_zero());
  // R carries the original flux and a bond In leg.
  EXPECT_EQ(f.r.index(0).dir(), Dir::In);
  EXPECT_EQ(f.r.flux(), a.flux());
}

TEST(BlockLq, ReconstructsInput) {
  Rng rng(34);
  BlockTensor a = site(rng);
  auto f = tt::symm::block_lq(a, {0});
  BlockTensor lq = tt::symm::contract(f.l, f.q, {{1, 0}});
  EXPECT_LT(tt::symm::max_abs_diff(lq, a), 1e-10 * (1.0 + a.norm2()));
}

TEST(BlockLq, QHasOrthonormalRowsAndMpsConvention) {
  Rng rng(35);
  BlockTensor a = site(rng);
  auto f = tt::symm::block_lq(a, {0});
  expect_isometry_rows(f.q, {1, 2});
  // Q = (bond In, s In, r Out), flux 0 — valid MPS site.
  EXPECT_EQ(f.q.index(0).dir(), Dir::In);
  EXPECT_TRUE(f.q.flux().is_zero());
}

TEST(BlockSvd, FullRankReconstructs) {
  Rng rng(36);
  BlockTensor t = theta(rng);
  auto f = tt::symm::block_svd(t, {0, 1});
  BlockTensor usv = tt::symm::contract(f.u_times_s(), f.vt, {{2, 0}});
  EXPECT_LT(tt::symm::max_abs_diff(usv, t), 1e-9 * (1.0 + t.norm2()));
  EXPECT_NEAR(f.truncation_error, 0.0, 1e-18);
}

TEST(BlockSvd, FactorsAreIsometries) {
  Rng rng(37);
  BlockTensor t = theta(rng);
  auto f = tt::symm::block_svd(t, {0, 1});
  expect_isometry_columns(f.u, {0, 1});
  expect_isometry_rows(f.vt, {1, 2});
}

TEST(BlockSvd, SingularValuesSortedWithinSectors) {
  Rng rng(38);
  BlockTensor t = theta(rng);
  auto f = tt::symm::block_svd(t, {0, 1});
  for (const auto& sv : f.singular_values) {
    for (std::size_t i = 0; i + 1 < sv.size(); ++i) EXPECT_GE(sv[i], sv[i + 1]);
    for (double s : sv) EXPECT_GE(s, 0.0);
  }
}

TEST(BlockSvd, BondCapRespectedGlobally) {
  Rng rng(39);
  BlockTensor t = theta(rng);
  TruncParams tr;
  tr.max_dim = 3;
  auto f = tt::symm::block_svd(t, {0, 1}, tr);
  EXPECT_EQ(f.kept, 3);
  EXPECT_EQ(f.bond.dim(), 3);
  EXPECT_GT(f.truncation_error, 0.0);
}

TEST(BlockSvd, GlobalTruncationKeepsLargestAcrossSectors) {
  Rng rng(40);
  BlockTensor t = theta(rng);
  auto full = tt::symm::block_svd(t, {0, 1});
  // Pool all singular values, find the 3 largest.
  std::vector<double> all;
  for (const auto& sv : full.singular_values) all.insert(all.end(), sv.begin(), sv.end());
  std::sort(all.rbegin(), all.rend());

  TruncParams tr;
  tr.max_dim = 3;
  auto cut = tt::symm::block_svd(t, {0, 1}, tr);
  std::vector<double> kept;
  for (const auto& sv : cut.singular_values) kept.insert(kept.end(), sv.begin(), sv.end());
  std::sort(kept.rbegin(), kept.rend());
  ASSERT_EQ(kept.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(kept[static_cast<std::size_t>(i)],
                                          all[static_cast<std::size_t>(i)], 1e-10);
}

TEST(BlockSvd, TruncationErrorEqualsDiscardedWeight) {
  Rng rng(41);
  BlockTensor t = theta(rng);
  auto full = tt::symm::block_svd(t, {0, 1});
  std::vector<double> all;
  for (const auto& sv : full.singular_values) all.insert(all.end(), sv.begin(), sv.end());
  std::sort(all.rbegin(), all.rend());

  TruncParams tr;
  tr.max_dim = 4;
  auto cut = tt::symm::block_svd(t, {0, 1}, tr);
  double want = 0.0;
  for (std::size_t i = 4; i < all.size(); ++i) want += all[i] * all[i];
  EXPECT_NEAR(cut.truncation_error, want, 1e-9 * (1.0 + want));
}

TEST(BlockSvd, TruncationErrorBoundsReconstruction) {
  Rng rng(42);
  BlockTensor t = theta(rng);
  TruncParams tr;
  tr.max_dim = 2;
  auto f = tt::symm::block_svd(t, {0, 1}, tr);
  BlockTensor approx = tt::symm::contract(f.u_times_s(), f.vt, {{2, 0}});
  approx.axpy(-1.0, t);
  EXPECT_NEAR(approx.norm2(), std::sqrt(f.truncation_error),
              1e-8 * (1.0 + t.norm2()));
}

// Truncation floor: the bond is never emptied, and the floor applies after
// the cap, so a cap of 0 still keeps the largest σ.
TEST(BlockSvd, MaxDimZeroKeepsExactlyOneSigma) {
  Rng rng(48);
  BlockTensor t = theta(rng);
  TruncParams tr;
  tr.max_dim = 0;
  auto f = tt::symm::block_svd(t, {0, 1}, tr);
  EXPECT_EQ(f.kept, 1);
  EXPECT_EQ(f.bond.dim(), 1);
}

TEST(BlockSvd, CutoffAboveEverySigmaKeepsExactlyOneSigma) {
  Rng rng(43);
  BlockTensor t = theta(rng);
  const auto full = tt::symm::block_svd(t, {0, 1});
  double largest = 0.0;
  for (const auto& sv : full.singular_values)
    for (double s : sv) largest = std::max(largest, s);
  TruncParams tr;
  tr.cutoff = 2.0 * largest;
  auto f = tt::symm::block_svd(t, {0, 1}, tr);
  EXPECT_EQ(f.kept, 1);
  ASSERT_EQ(f.singular_values.size(), 1u);
  EXPECT_EQ(f.singular_values[0], std::vector<double>{largest});
}

TEST(BlockSvd, AllZeroGroupGetsNoBondSector) {
  // Two quantum-number groups on a matrix; the charge-1 block is all zero,
  // so its σ are 0 and the default cutoff of 0 drops the whole group.
  const Index l({{QN(0), 2}, {QN(1), 2}}, Dir::In);
  const Index r({{QN(0), 3}, {QN(1), 2}}, Dir::Out);
  BlockTensor t({l, r}, QN::zero(1));
  const tt::tensor::View live = t.block({0, 0});
  for (index_t i = 0; i < live.size(); ++i) live[i] = 1.0 + static_cast<double>(i);
  t.block({1, 1});  // admissible, all zero
  ASSERT_EQ(t.num_blocks(), 2);
  auto f = tt::symm::block_svd(t, {0});
  ASSERT_EQ(f.bond.num_sectors(), 1);
  EXPECT_EQ(f.bond.sector(0).qn, QN(0));
  EXPECT_EQ(f.kept, f.bond.dim());
}

TEST(BlockSvd, AbsorbLeftVsRightConsistent) {
  Rng rng(44);
  BlockTensor t = theta(rng);
  auto f = tt::symm::block_svd(t, {0, 1});
  BlockTensor left = tt::symm::contract(f.u_times_s(), f.vt, {{2, 0}});
  BlockTensor right = tt::symm::contract(f.u, f.s_times_vt(), {{2, 0}});
  EXPECT_LT(tt::symm::max_abs_diff(left, right), 1e-10 * (1.0 + t.norm2()));
}

TEST(BlockSvd, ShapesReportedForCostModel) {
  Rng rng(45);
  BlockTensor t = theta(rng);
  auto f = tt::symm::block_svd(t, {0, 1});
  EXPECT_FALSE(f.shapes.empty());
  for (const auto& s : f.shapes) {
    EXPECT_GT(s.rows, 0);
    EXPECT_GT(s.cols, 0);
  }
}

TEST(BlockSvd, BitwiseAcrossThreadCounts) {
  // Two U(1) charges (particle number, 2·Sz) as in the electron models; the
  // (2, 0) group is 128×120, wide enough for a real bidiagonal QR.
  auto bond = [](Dir d) {
    return Index({{QN(0, 0), 64}, {QN(1, 1), 40}, {QN(1, -1), 40}, {QN(2, 0), 48}}, d);
  };
  const Index s({{QN(0, 0), 1}, {QN(1, 1), 1}, {QN(1, -1), 1}, {QN(2, 0), 1}}, Dir::In);
  const Index r({{QN(1, 1), 100}, {QN(1, -1), 100}, {QN(2, 0), 120}}, Dir::Out);
  Rng rng(47);
  const BlockTensor t = BlockTensor::random({bond(Dir::In), s, r}, QN::zero(2), rng);
  auto values = [](tt::tensor::ConstView b) {
    return std::vector<double>(b.data(), b.data() + b.size());
  };
  const auto ref = tt::symm::block_svd(t, {0, 1}, {}, 1);
  index_t widest = 0;
  for (const auto& sh : ref.shapes) widest = std::max(widest, std::min(sh.rows, sh.cols));
  ASSERT_GE(widest, 96);
  for (int threads : {2, 3, 8}) {
    const auto f = tt::symm::block_svd(t, {0, 1}, {}, threads);
    EXPECT_EQ(f.singular_values, ref.singular_values) << threads << " threads";
    ASSERT_EQ(f.u.num_blocks(), ref.u.num_blocks());
    ASSERT_EQ(f.vt.num_blocks(), ref.vt.num_blocks());
    for (const auto& [key, blk] : ref.u.blocks())
      EXPECT_EQ(values(*f.u.find_block(key)), values(blk)) << threads << " threads";
    for (const auto& [key, blk] : ref.vt.blocks())
      EXPECT_EQ(values(*f.vt.find_block(key)), values(blk)) << threads << " threads";
  }
}

TEST(BlockFactor, RejectsDegenerateBipartitions) {
  Rng rng(46);
  BlockTensor a = site(rng);
  EXPECT_THROW(tt::symm::block_qr(a, {}), tt::Error);
  EXPECT_THROW(tt::symm::block_qr(a, {0, 1, 2}), tt::Error);
  EXPECT_THROW(tt::symm::block_qr(a, {0, 0}), tt::Error);
  EXPECT_THROW(tt::symm::block_svd(a, {5}), tt::Error);
}

TEST(BlockFactor, RejectsEmptyTensor) {
  BlockTensor empty({even_bond(Dir::In), phys(Dir::In), odd_bond(Dir::Out)},
                    QN::zero(1));
  EXPECT_THROW(tt::symm::block_qr(empty, {0, 1}), tt::Error);
  EXPECT_THROW(tt::symm::block_svd(empty, {0, 1}), tt::Error);
}

}  // namespace
