// Property sweep over randomized block structures: for arbitrary sector
// layouts, directions, and fluxes, the algebraic identities of the symmetric
// tensor layer must hold — factorization invariants and the fused-format
// norm — and the Algorithm 2 bin list must be the one a brute-force nested
// loop gives. (Contraction of the same seeded structures against the
// fused-dense oracle, on every executor, is runtime/contract_matrix.)
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/fuse.hpp"
#include "common/parity.hpp"
#include "symm/block_factor.hpp"
#include "symm/block_ops.hpp"

namespace {

using tt::Rng;
using tt::index_t;
using tt::symm::BlockOpCost;
using tt::symm::BlockTensor;
using tt::symm::Dir;
using tt::symm::Index;
using tt::symm::QN;
using tt::testing::random_flux;
using tt::testing::random_index;
using tt::testing::wide_bond;
using Pairs = std::vector<std::pair<int, int>>;

// One bin of the reference list: its output code, its pairs as (a block, b
// block, cost) and the sum of their flops in pair order.
struct RefPair {
  const double* a;
  const double* b;
  BlockOpCost cost;
};
struct RefBin {
  std::uint64_t out_code;
  std::vector<RefPair> pairs;
  double est_flops = 0.0;
};

// The bin list by brute force: every A block in key order against every B
// block in key order, a pair wherever the contracted sectors agree, binned by
// first touch with a linear search. The output code is the mixed-radix
// number of free(a) ++ free(b), last mode fastest.
std::vector<RefBin> reference_bins(const BlockTensor& a, const BlockTensor& b,
                                   const Pairs& pairs) {
  const auto layout = tt::symm::make_contract_plan(a, b, pairs).layout;
  std::vector<RefBin> bins;
  for (const auto& [akey, ablk] : a.blocks())
    for (const auto& [bkey, bblk] : b.blocks()) {
      bool match = true;
      for (auto [ma, mb] : pairs) match = match && akey[ma] == bkey[mb];
      if (!match) continue;
      std::uint64_t code = 0;
      for (int m : layout.free_a)
        code = code * static_cast<std::uint64_t>(a.index(m).num_sectors()) +
               static_cast<std::uint64_t>(akey[m]);
      for (int m : layout.free_b)
        code = code * static_cast<std::uint64_t>(b.index(m).num_sectors()) +
               static_cast<std::uint64_t>(bkey[m]);
      double m_dim = 1.0, n_dim = 1.0, k_dim = 1.0;
      for (int m : layout.free_a) m_dim *= static_cast<double>(ablk.dim(m));
      for (int m : layout.free_b) n_dim *= static_cast<double>(bblk.dim(m));
      for (int m : layout.con_a) k_dim *= static_cast<double>(ablk.dim(m));
      const BlockOpCost cost{2.0 * m_dim * n_dim * k_dim,
                             static_cast<double>(ablk.size()),
                             static_cast<double>(bblk.size()), m_dim * n_dim};
      std::size_t g = 0;
      while (g < bins.size() && bins[g].out_code != code) ++g;
      if (g == bins.size()) bins.push_back({code, {}, 0.0});
      bins[g].pairs.push_back({ablk.data(), bblk.data(), cost});
      bins[g].est_flops += cost.flops;
    }
  return bins;
}

// enumerate_bins against the reference: bin order, pair order, codes, costs
// and flops all equal. Returns the bin count.
std::size_t expect_reference_bins(const BlockTensor& a, const BlockTensor& b,
                                  const Pairs& pairs) {
  const auto plan = tt::symm::make_contract_plan(a, b, pairs);
  const auto bins = tt::symm::enumerate_bins(a, b, plan);
  const std::vector<RefBin> want = reference_bins(a, b, pairs);
  EXPECT_EQ(bins.size(), want.size());
  EXPECT_EQ(bins.begin.size(), want.size() + 1);
  EXPECT_EQ(bins.out_code.size(), want.size());
  EXPECT_EQ(bins.est_flops.size(), want.size());
  if (bins.size() != want.size()) return bins.size();
  std::size_t npairs = 0;
  for (std::size_t g = 0; g < want.size(); ++g) {
    SCOPED_TRACE(testing::Message() << "bin " << g);
    EXPECT_EQ(bins.out_code[g], want[g].out_code);
    EXPECT_EQ(bins.est_flops[g], want[g].est_flops);
    const auto got = bins.pairs_of(g);
    EXPECT_EQ(got.size(), want[g].pairs.size());
    if (got.size() != want[g].pairs.size()) continue;
    for (std::size_t p = 0; p < got.size(); ++p) {
      EXPECT_EQ(got[p].ablk.data(), want[g].pairs[p].a) << "pair " << p;
      EXPECT_EQ(got[p].bblk.data(), want[g].pairs[p].b) << "pair " << p;
      EXPECT_EQ(got[p].cost, want[g].pairs[p].cost) << "pair " << p;
    }
    npairs += got.size();
  }
  EXPECT_EQ(bins.pairs.size(), npairs);
  return bins.size();
}

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

TEST_P(RandomStructure, BinListMatchesNestedLoopReference) {
  Rng rng(static_cast<unsigned>(GetParam()) * 1234 + 6);
  const int rank = GetParam() % 2 + 1;
  std::size_t bins = 0;
  for (int attempt = 0; attempt < 50 && bins == 0; ++attempt) {
    // One leg, a's last against b's first, and two legs crossed, so the
    // contracted and free modes sit in both orders.
    const Index s = random_index(rng, rank, Dir::Out);
    const Index u = random_index(rng, rank, Dir::In);
    const BlockTensor a = BlockTensor::random(
        {random_index(rng, rank, Dir::In), random_index(rng, rank, Dir::In), s},
        random_flux(rng, rank), rng);
    const BlockTensor b = BlockTensor::random(
        {s.reversed(), random_index(rng, rank, Dir::In),
         random_index(rng, rank, Dir::Out)},
        random_flux(rng, rank), rng);
    bins += expect_reference_bins(a, b, {{2, 0}});
    const BlockTensor c = BlockTensor::random(
        {s, random_index(rng, rank, Dir::In), u}, random_flux(rng, rank), rng);
    const BlockTensor d = BlockTensor::random(
        {u.reversed(), random_index(rng, rank, Dir::Out), s.reversed()},
        random_flux(rng, rank), rng);
    bins += expect_reference_bins(c, d, {{0, 2}, {2, 0}});
  }
  EXPECT_GT(bins, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStructure, ::testing::Range(0, 12));

TEST(BinList, ManyBinsMatchNestedLoopReference) {
  // Thousands of bins: far more than the bin table's smallest size (64
  // slots), so enumeration grows its per-thread table on this call.
  Rng rng(61);
  const Index mid = wide_bond(Dir::Out, 15, 1);
  const BlockTensor a = BlockTensor::random(
      {wide_bond(Dir::In, 15, 1), wide_bond(Dir::In, 15, 1), mid}, QN::zero(1), rng);
  const BlockTensor b = BlockTensor::random(
      {mid.reversed(), wide_bond(Dir::In, 15, 1), wide_bond(Dir::Out, 15, 1)},
      QN::zero(1), rng);
  EXPECT_GT(expect_reference_bins(a, b, {{2, 0}}), 1000u);
  // A small list after the large one reuses the grown table.
  const auto [x, y] = tt::testing::many_block_pair(41);
  EXPECT_GT(expect_reference_bins(x, y, {{2, 0}}), 8u);
}

TEST(BinList, DisjointSectorsGiveAnEmptyListAndOutput) {
  // a holds blocks only on the shared leg's charge-0 sector, b only on its
  // charge-1 sector: no pair, no bin, no output block.
  Rng rng(62);
  const Index one({{QN(0), 2}}, Dir::In);
  const Index shared({{QN(0), 2}, {QN(1), 3}}, Dir::Out);
  const BlockTensor a = BlockTensor::random({one, shared}, QN(0), rng);
  ASSERT_EQ(a.num_blocks(), 1);
  BlockTensor b;
  for (int f : {1, -1})
    if (b = BlockTensor::random({shared.reversed(), one.reversed()}, QN(f), rng);
        b.num_blocks() == 1)
      break;
  ASSERT_EQ(b.num_blocks(), 1);
  ASSERT_NE((*a.blocks().begin()).key[1], (*b.blocks().begin()).key[0]);

  const auto bins =
      tt::symm::enumerate_bins(a, b, tt::symm::make_contract_plan(a, b, {{1, 0}}));
  EXPECT_EQ(bins.size(), 0u);
  EXPECT_TRUE(bins.pairs.empty());
  EXPECT_EQ(expect_reference_bins(a, b, {{1, 0}}), 0u);
  tt::symm::ContractStats st;
  const BlockTensor c = tt::symm::contract(a, b, {{1, 0}}, &st);
  EXPECT_EQ(c.num_blocks(), 0);
  EXPECT_EQ(c.num_elements(), 0);
  EXPECT_EQ(c.order(), 2);
  EXPECT_EQ(st.num_bins, 0);
  EXPECT_EQ(st.total_flops, 0.0);
}

}  // namespace
