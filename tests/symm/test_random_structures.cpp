// Property sweep over randomized block structures: for arbitrary sector
// layouts, directions, and fluxes, the algebraic identities of the symmetric
// tensor layer must hold — contraction against the fused-dense oracle,
// factorization invariants, and the fused-format norm. The bin executor's
// layouts (permuted and transposed operands, multi-pair bins, more than one
// GEMM k panel) are checked against the oracle and for bitwise equality
// across thread counts, rank counts and spawn modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <map>
#include <string>

#include "common/naive_einsum.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/spawn_modes.hpp"
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
using tt::symm::Sector;

// Random index: 1–4 sectors with distinct small charges, dims 1–4.
Index random_index(Rng& rng, int qn_rank, Dir dir) {
  const int nsec = static_cast<int>(rng.integer(1, 4));
  std::vector<Sector> sectors;
  std::vector<QN> used;
  while (static_cast<int>(sectors.size()) < nsec) {
    QN q = qn_rank == 1
               ? QN(static_cast<int>(rng.integer(-2, 2)))
               : QN(static_cast<int>(rng.integer(-1, 2)),
                    static_cast<int>(rng.integer(-1, 1)));
    bool fresh = true;
    for (const QN& u : used) fresh &= !(u == q);
    if (!fresh) continue;
    used.push_back(q);
    sectors.push_back({q, rng.integer(1, 4)});
  }
  return Index(sectors, dir);
}

QN random_flux(Rng& rng, int qn_rank) {
  return qn_rank == 1 ? QN(static_cast<int>(rng.integer(-1, 1)))
                      : QN(static_cast<int>(rng.integer(-1, 1)), 0);
}

class RandomStructure : public ::testing::TestWithParam<int> {};

TEST_P(RandomStructure, ContractionMatchesFusedOracle) {
  Rng rng(static_cast<unsigned>(GetParam()) * 1234 + 1);
  const int rank = GetParam() % 2 + 1;
  // a(x, c, y): contract c with b(c̄, z).
  BlockTensor a, b;
  for (int attempt = 0; attempt < 50; ++attempt) {
    Index shared = random_index(rng, rank, Dir::Out);
    a = BlockTensor::random(
        {random_index(rng, rank, Dir::In), shared, random_index(rng, rank, Dir::Out)},
        random_flux(rng, rank), rng);
    b = BlockTensor::random({shared.reversed(), random_index(rng, rank, Dir::In)},
                            random_flux(rng, rank), rng);
    if (a.num_blocks() > 0 && b.num_blocks() > 0) break;
  }
  ASSERT_GT(a.num_blocks(), 0);
  ASSERT_GT(b.num_blocks(), 0);

  BlockTensor c = tt::symm::contract(a, b, {{1, 0}});
  auto want = tt::testing::naive_einsum("xcy,cz->xyz", tt::testing::fuse_dense(a),
                                       tt::testing::fuse_dense(b));
  EXPECT_LT(tt::tensor::max_abs_diff(tt::testing::fuse_dense(c), want),
            1e-10 * (1.0 + want.max_abs()));
}

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

// --- the bin executor's layouts ------------------------------------------------
// Each case names a contraction in naive_einsum's notation: one letter per
// leg, a letter in both operands is contracted. Lower-case legs are narrow
// (1–3 sectors of dim 1–3, so the dense oracle stays cheap); upper-case legs
// are wide (2 sectors of dim 17–20), so a pair over two of them has
// k = 17²…20² > 256, more than one GEMM k panel.
struct LayoutCase {
  const char* name;
  const char* spec;
  std::vector<std::pair<int, int>> pairs;
};

const LayoutCase kLayoutCases[] = {
    // The two-site matvec's t1 · W1 and t2 · W2: both operands permuted.
    {"BothPermutedW1", "abcde,bfcg->adefg", {{1, 0}, {2, 2}}},
    {"BothPermutedW2", "abcde,efbg->acdfg", {{4, 0}, {1, 2}}},
    // Operands stored as the transpose of their matrix layout: trans flags.
    {"TransA", "cdxy,cdz->xyz", {{0, 0}, {1, 1}}},
    {"TransB", "xycd,zcd->xyz", {{2, 1}, {3, 2}}},
    {"TransAB", "cdx,zcd->xz", {{0, 1}, {1, 2}}},
    // k > 256 with a permuted A.
    {"WideK", "CxD,CDz->xz", {{0, 0}, {2, 1}}},
};

Index layout_leg(Rng& rng, int qn_rank, Dir dir, bool wide) {
  const int nsec = wide ? 2 : static_cast<int>(rng.integer(1, 3));
  std::vector<Sector> sectors;
  std::vector<QN> used;
  while (static_cast<int>(sectors.size()) < nsec) {
    QN q = qn_rank == 1 ? QN(static_cast<int>(rng.integer(-1, 1)))
                        : QN(static_cast<int>(rng.integer(-1, 1)),
                             static_cast<int>(rng.integer(0, 1)));
    bool fresh = true;
    for (const QN& u : used) fresh &= !(u == q);
    if (!fresh) continue;
    used.push_back(q);
    sectors.push_back({q, wide ? rng.integer(17, 20) : rng.integer(1, 3)});
  }
  return Index(sectors, dir);
}

struct LayoutOperands {
  BlockTensor a, b;
  std::vector<tt::symm::OutputBin> bins;  // enumerate_bins of (a, b)
};

// Random operands for `c` whose bin list exercises what the case is for: at
// least two bins (so a second rank gets work), a bin of at least two pairs
// (β=1 accumulation), and for wide cases a pair with k > 256. Under two
// charges such structures are rare (up to a few thousand draws of these
// small tensors), so the draw budget is generous.
LayoutOperands layout_operands(const LayoutCase& c, Rng& rng, int qn_rank) {
  const std::string spec = c.spec;
  const std::string la = spec.substr(0, spec.find(','));
  const std::string lb = spec.substr(spec.find(',') + 1, spec.find("->") - spec.find(',') - 1);
  const bool wide = std::any_of(la.begin(), la.end(), [](char l) { return std::isupper(l); });
  for (int attempt = 0; attempt < 5000; ++attempt) {
    std::map<char, Index> legs;  // as seen by a; b reverses the shared ones
    std::vector<Index> ia, ib;
    for (char l : la) {
      const Dir d = rng.integer(0, 1) ? Dir::In : Dir::Out;
      legs.emplace(l, layout_leg(rng, qn_rank, d, std::isupper(l) != 0));
      ia.push_back(legs.at(l));
    }
    for (char l : lb) {
      if (legs.count(l)) {
        ib.push_back(legs.at(l).reversed());
      } else {
        const Dir d = rng.integer(0, 1) ? Dir::In : Dir::Out;
        ib.push_back(layout_leg(rng, qn_rank, d, false));
      }
    }
    LayoutOperands ops;
    ops.a = BlockTensor::random(ia, random_flux(rng, qn_rank), rng);
    ops.b = BlockTensor::random(ib, random_flux(rng, qn_rank), rng);
    const auto plan = tt::symm::make_contract_plan(ops.a, ops.b, c.pairs);
    ops.bins = tt::symm::enumerate_bins(ops.a, ops.b, plan);
    std::size_t most_pairs = 0;
    index_t most_k = 0;
    for (const auto& bin : ops.bins) {
      most_pairs = std::max(most_pairs, bin.pairs.size());
      for (const auto& pw : bin.pairs) {
        index_t k = 1;
        for (int m : plan.layout.con_a) k *= pw.ablk->dim(m);
        most_k = std::max(most_k, k);
      }
    }
    if (ops.bins.size() >= 2 && most_pairs >= 2 && (!wide || most_k > 256)) return ops;
  }
  ADD_FAILURE() << c.name << ": no structure with the wanted bin list in 5000 attempts";
  return {};
}

bool bitwise_equal(const BlockTensor& x, const BlockTensor& y) {
  if (!x.same_structure(y) || x.num_blocks() != y.num_blocks()) return false;
  for (const auto& [key, blk] : x.blocks()) {
    const tt::tensor::DenseTensor* other = y.find_block(key);
    if (other == nullptr || blk.shape() != other->shape() ||
        std::memcmp(blk.data(), other->data(),
                    static_cast<std::size_t>(blk.size()) * sizeof(double)) != 0)
      return false;
  }
  return true;
}

class BinExecutorLayout : public ::testing::TestWithParam<LayoutCase> {};

TEST_P(BinExecutorLayout, MatchesOracleAndIsBitwiseStableAcrossThreadsAndRanks) {
  const LayoutCase& c = GetParam();
  for (int seed = 0; seed < 4; ++seed) {
    SCOPED_TRACE(std::string(c.name) + " seed " + std::to_string(seed));
    Rng rng(static_cast<unsigned>(seed) * 7919 + 11);
    const int rank = seed % 2 + 1;
    const LayoutOperands ops = layout_operands(c, rng, rank);
    ASSERT_FALSE(ops.bins.empty());

    const BlockTensor serial = tt::symm::contract(ops.a, ops.b, c.pairs, nullptr, 1);
    const auto want = tt::testing::naive_einsum(c.spec, tt::testing::fuse_dense(ops.a),
                                                tt::testing::fuse_dense(ops.b));
    EXPECT_LT(tt::tensor::max_abs_diff(tt::testing::fuse_dense(serial), want),
              1e-10 * (1.0 + want.max_abs()));

    for (int threads : {2, 8})
      EXPECT_TRUE(bitwise_equal(serial, tt::symm::contract(ops.a, ops.b, c.pairs,
                                                           nullptr, threads)))
          << threads << " threads";

    // A worker rank runs the same executor as the pool: with k > 256 a
    // second executor would show up here as different bits.
    for (tt::rt::SpawnMode mode : tt::rt::testing::tested_spawn_modes()) {
      tt::rt::SchedulerOptions opts;
      opts.num_ranks = 2;
      opts.mode = mode;
      opts.root_threads = 1;
      tt::rt::Scheduler sched(opts);
      EXPECT_TRUE(bitwise_equal(serial, sched.contract(ops.a, ops.b, c.pairs)))
          << tt::rt::spawn_mode_name(mode);
      EXPECT_GT(sched.last().ranks[1].bins, 0) << tt::rt::spawn_mode_name(mode);
      EXPECT_EQ(sched.stats().faults_detected, 0) << tt::rt::spawn_mode_name(mode);
      sched.shutdown();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, BinExecutorLayout, ::testing::ValuesIn(kLayoutCases),
                         [](const auto& info) { return std::string(info.param.name); });

}  // namespace
