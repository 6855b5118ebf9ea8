#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/fuse.hpp"
#include "common/parity.hpp"
#include "dmrg/engine.hpp"
#include "dmrg/replay.hpp"
#include "models/spin_half.hpp"
#include "mps/mps.hpp"
#include "support/error.hpp"
#include "tensor/contract.hpp"

namespace {

using tt::Rng;
using tt::index_t;
using tt::dmrg::EngineKind;
using tt::dmrg::OpRecord;
using tt::dmrg::Role;
using tt::rt::Category;
using tt::symm::BlockTensor;
using tt::symm::Dir;
using tt::symm::Index;
using tt::symm::QN;
using tt::tensor::DenseTensor;
using tt::testing::bitwise_equal;
using tt::testing::random_index;
using Pairs = std::vector<std::pair<int, int>>;

const EngineKind kAllEngines[] = {EngineKind::kReference, EngineKind::kList,
                                  EngineKind::kSparseDense, EngineKind::kSparseSparse};
const Role kRoles[] = {Role::kOperator, Role::kIntermediate};

tt::rt::Cluster test_cluster() { return {tt::rt::blue_waters(), 4, 16}; }

// Random MPS-shaped operands for engine contraction equivalence.
struct Operands {
  BlockTensor a, b;
  Operands() {
    Rng rng(11);
    auto sites = tt::models::spin_half_sites(8);
    auto psi = tt::mps::Mps::random(sites, QN(0), 12, rng);
    a = psi.site(3);
    b = psi.site(4);
  }
};

TEST(Engines, ContractionIsTheBlockExecutorForEveryRole) {
  // Roles are recorded for pricing only: every role pair executes exactly
  // symm::contract.
  Operands ops;
  const BlockTensor want = tt::symm::contract(ops.a, ops.b, {{2, 0}});
  tt::dmrg::ContractionEngine eng;
  for (auto ra : kRoles)
    for (auto rb : kRoles)
      EXPECT_TRUE(bitwise_equal(eng.contract(ops.a, ra, ops.b, rb, {{2, 0}}), want));
}

TEST(Engines, SvdIsTheBlockSvd) {
  Operands ops;
  BlockTensor theta = tt::symm::contract(ops.a, ops.b, {{2, 0}});
  tt::symm::TruncParams trunc;
  trunc.max_dim = 8;
  tt::dmrg::ContractionEngine eng;
  auto f1 = tt::symm::block_svd(theta, {0, 1}, trunc);
  auto f2 = eng.svd(theta, {0, 1}, trunc);
  EXPECT_EQ(f1.kept, f2.kept);
  EXPECT_EQ(f1.truncation_error, f2.truncation_error);
  EXPECT_TRUE(bitwise_equal(f1.u, f2.u));
  EXPECT_TRUE(bitwise_equal(f1.vt, f2.vt));
}

TEST(Engines, LogsOneRecordPerOperationOnlyWhenAsked) {
  Operands ops;
  tt::dmrg::ContractionEngine eng;
  eng.contract(ops.a, Role::kOperator, ops.b, Role::kOperator, {{2, 0}});
  EXPECT_TRUE(eng.log().empty());
  eng.set_logging(true);
  const BlockTensor c = eng.contract(ops.a, Role::kIntermediate, ops.b, Role::kOperator,
                                     {{2, 0}});
  eng.svd(c, {0, 1}, {});
  ASSERT_EQ(eng.log().size(), 2u);
  const auto& r = std::get<tt::dmrg::ContractionRecord>(eng.log()[0]);
  EXPECT_EQ(r.role_a, Role::kIntermediate);
  EXPECT_EQ(r.role_b, Role::kOperator);
  const auto bins = tt::symm::enumerate_bins(
      ops.a, ops.b, tt::symm::make_contract_plan(ops.a, ops.b, {{2, 0}}));
  std::size_t pairs = 0;
  for (std::size_t g = 0; g < bins.size(); ++g) pairs += bins.pairs_of(g).size();
  EXPECT_EQ(r.pairs.size(), pairs);
  EXPECT_EQ(r.size_c, static_cast<double>(c.dense_size()));
  const auto& s = std::get<tt::dmrg::SvdRecord>(eng.log()[1]);
  EXPECT_EQ(s.in_elements, static_cast<double>(c.num_elements()));
  EXPECT_FALSE(s.groups.empty());
  eng.clear_log();
  EXPECT_TRUE(eng.log().empty());
}

TEST(Engines, TrackerCountsExecutedContractionFlopsForBenchE2e) {
  // The one seam bench/e2e/bench_e2e.cpp reads: make_engine stores a kind,
  // cluster and params it never uses, and tracker().flops() grows by exactly
  // the executed flops of each contraction — nothing for an SVD, no seconds.
  Operands ops;
  const tt::rt::Cluster cl = test_cluster();
  auto eng = tt::dmrg::make_engine(EngineKind::kSparseDense, cl);
  EXPECT_EQ(eng->kind(), EngineKind::kSparseDense);
  EXPECT_EQ(eng->cluster().total_procs(), cl.total_procs());
  EXPECT_EQ(eng->params().summa_coef, tt::rt::CostModelParams{}.summa_coef);
  double want = 0.0;
  auto expect_counted = [&](const BlockTensor& b, const Pairs& pairs) {
    tt::symm::ContractStats st;
    tt::symm::contract(ops.a, b, pairs, &st);
    ASSERT_GT(st.total_flops, 0.0);
    want += st.total_flops;
    eng->contract(ops.a, Role::kOperator, b, Role::kIntermediate, pairs);
    EXPECT_EQ(eng->tracker().flops(), want);
  };
  expect_counted(ops.b, {{2, 0}});
  expect_counted(ops.a.dagger(), {{1, 1}, {2, 2}});
  eng->svd(tt::symm::contract(ops.a, ops.b, {{2, 0}}), {0, 1}, {});
  EXPECT_EQ(eng->tracker().flops(), want);
  EXPECT_EQ(eng->tracker().total_time(), 0.0);
  EXPECT_EQ(eng->tracker().words(), 0.0);
}

// One logged contraction and SVD of the Operands, for pricing.
std::vector<OpRecord> operand_log() {
  Operands ops;
  tt::dmrg::ContractionEngine eng;
  eng.set_logging(true);
  const BlockTensor theta =
      eng.contract(ops.a, Role::kOperator, ops.b, Role::kOperator, {{2, 0}});
  eng.svd(theta, {0, 1}, {});
  return eng.log();
}

TEST(Engines, SuperstepAccountingMatchesTableII) {
  // Table II: list pays O(Nb) supersteps per contraction, fused formats O(1).
  Operands ops;
  tt::dmrg::ContractionEngine eng;
  eng.set_logging(true);
  eng.contract(ops.a, Role::kOperator, ops.b, Role::kOperator, {{2, 0}});
  const auto list = tt::dmrg::price(EngineKind::kList, eng.log(), test_cluster());
  const auto ss = tt::dmrg::price(EngineKind::kSparseSparse, eng.log(), test_cluster());
  EXPECT_GT(list.supersteps(), ss.supersteps());
  EXPECT_DOUBLE_EQ(ss.supersteps(), 1.0);
}

TEST(Engines, ReferenceHasNoCommunication) {
  const auto ref = tt::dmrg::price(EngineKind::kReference, operand_log(), test_cluster());
  EXPECT_GT(ref.flops(), 0.0);
  EXPECT_DOUBLE_EQ(ref.time(Category::kComm), 0.0);
  EXPECT_DOUBLE_EQ(ref.words(), 0.0);
}

TEST(Engines, FusedSvdChargesRedistribution) {
  // Sparse kinds must pay the block-extraction round trip around the SVD
  // (paper §IV-A); list/reference must not.
  Operands ops;
  tt::dmrg::ContractionEngine eng;
  eng.set_logging(true);
  eng.svd(tt::symm::contract(ops.a, ops.b, {{2, 0}}), {0, 1}, {});
  const auto list = tt::dmrg::price(EngineKind::kList, eng.log(), test_cluster());
  const auto sd = tt::dmrg::price(EngineKind::kSparseDense, eng.log(), test_cluster());
  EXPECT_DOUBLE_EQ(list.time(Category::kComm), 0.0);
  EXPECT_GT(sd.time(Category::kComm), 0.0);
}

TEST(Engines, NameRoundTrip) {
  for (EngineKind k : kAllEngines)
    EXPECT_EQ(tt::dmrg::engine_from_name(tt::dmrg::engine_name(k)), k);
}

TEST(Engines, UnknownEngineNameListsTheValidOnes) {
  try {
    tt::dmrg::engine_from_name("sparse");
    FAIL() << "expected tt::Error";
  } catch (const tt::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'sparse'"), std::string::npos) << msg;
    for (EngineKind k : kAllEngines)
      EXPECT_NE(msg.find(tt::dmrg::engine_name(k)), std::string::npos) << msg;
  }
}

// ---------------------------------------------------------------------------
// Pricing oracle. A recorded contraction prices as one fused contraction for
// the sparse-dense and sparse-sparse kinds, whose flops and words follow from
// the fused operands alone: nonzeros for operands stored sparse, the full
// fused size for dense ones. The oracle recomputes every field by walking
// fuse_dense tensors element by element, independently of the engine's block
// bookkeeping, and prices it with the cost model directly.
// ---------------------------------------------------------------------------

// Calls fn(multi_index) for every row-major position of `shape`.
template <class Fn>
void for_each_position(const std::vector<index_t>& shape, Fn&& fn) {
  std::vector<index_t> idx(shape.size(), 0);
  for (index_t d : shape)
    if (d == 0) return;
  while (true) {
    fn(idx);
    int m = static_cast<int>(shape.size()) - 1;
    for (; m >= 0; --m) {
      const auto mi = static_cast<std::size_t>(m);
      if (++idx[mi] < shape[mi]) break;
      idx[mi] = 0;
    }
    if (m < 0) return;
  }
}

index_t flat_of(const std::vector<index_t>& idx, const std::vector<index_t>& strides) {
  index_t f = 0;
  for (std::size_t i = 0; i < idx.size(); ++i) f += idx[i] * strides[i];
  return f;
}

struct FusedCounts {
  double nnz_a = 0, nnz_b = 0, size_a = 0, size_b = 0;
  double m = 1, n = 1, k = 1;       // fused free(a), free(b), contracted dims
  double matched_pairs = 0;         // Σ over contracted positions of nnzA·nnzB
  double nnz_c = 0;                 // nonzero elements of the fused result
  double nonzero_block_words_c = 0; // elements of result blocks holding a nonzero
};

FusedCounts fused_counts(const BlockTensor& a, const BlockTensor& b, const Pairs& pairs) {
  const DenseTensor fa = tt::testing::fuse_dense(a);
  const DenseTensor fb = tt::testing::fuse_dense(b);
  FusedCounts o;
  o.size_a = static_cast<double>(fa.size());
  o.size_b = static_cast<double>(fb.size());

  // Output = free a, free b (the order tensor::contract puts out).
  std::vector<bool> con_a(static_cast<std::size_t>(a.order()), false);
  std::vector<bool> con_b(static_cast<std::size_t>(b.order()), false);
  for (const auto& [ma, mb] : pairs) {
    con_a[static_cast<std::size_t>(ma)] = con_b[static_cast<std::size_t>(mb)] = true;
    o.k *= static_cast<double>(a.index(ma).dim());
  }
  std::vector<Index> out_indices;
  for (int i = 0; i < a.order(); ++i)
    if (!con_a[static_cast<std::size_t>(i)]) {
      out_indices.push_back(a.index(i));
      o.m *= static_cast<double>(a.index(i).dim());
    }
  for (int j = 0; j < b.order(); ++j)
    if (!con_b[static_cast<std::size_t>(j)]) {
      out_indices.push_back(b.index(j));
      o.n *= static_cast<double>(b.index(j).dim());
    }

  // Nonzeros per contracted position, linearized in pair order.
  index_t kdim = 1;
  for (const auto& pr : pairs) kdim *= a.index(pr.first).dim();
  auto count = [&](const DenseTensor& f, bool first, double& nnz) {
    std::vector<long long> per_pos(static_cast<std::size_t>(kdim), 0);
    const auto strides = f.strides();
    for_each_position(f.shape(), [&](const std::vector<index_t>& idx) {
      if (f[flat_of(idx, strides)] == 0.0) return;
      nnz += 1;
      index_t pos = 0;
      for (const auto& [ma, mb] : pairs) {
        const auto mode = static_cast<std::size_t>(first ? ma : mb);
        pos = pos * f.shape()[mode] + idx[mode];
      }
      ++per_pos[static_cast<std::size_t>(pos)];
    });
    return per_pos;
  };
  const auto pa = count(fa, true, o.nnz_a);
  const auto pb = count(fb, false, o.nnz_b);
  long long matched = 0;
  for (std::size_t p = 0; p < pa.size(); ++p) matched += pa[p] * pb[p];
  o.matched_pairs = static_cast<double>(matched);

  // The GEMM path, so the zero pattern is exactly the executed one.
  const DenseTensor fc = tt::tensor::contract(fa, fb, pairs);
  for (index_t i = 0; i < fc.size(); ++i)
    if (fc[i] != 0.0) o.nnz_c += 1;
  const BlockTensor probe(out_indices, a.flux() + b.flux());
  const auto strides = fc.strides();
  for (const auto& key : probe.admissible_keys()) {
    std::vector<index_t> shape(key.size());
    for (std::size_t m = 0; m < key.size(); ++m)
      shape[m] = probe.index(static_cast<int>(m)).sector(key[m]).dim;
    bool nonzero = false;
    for_each_position(shape, [&](const std::vector<index_t>& local) {
      std::vector<index_t> idx(local);
      for (std::size_t m = 0; m < idx.size(); ++m)
        idx[m] += probe.index(static_cast<int>(m)).sector_offset(key[m]);
      nonzero |= fc[flat_of(idx, strides)] != 0.0;
    });
    if (!nonzero) continue;
    double words = 1;
    for (index_t d : shape) words *= static_cast<double>(d);
    o.nonzero_block_words_c += words;
  }
  return o;
}

tt::rt::ContractionCost expected_sparse_dense(const FusedCounts& o, Role ra, Role rb) {
  const bool ia = ra == Role::kIntermediate, ib = rb == Role::kIntermediate;
  tt::rt::ContractionCost c;
  if (ia && ib) {  // dense × dense: one GEMM over the fused dims
    c = {2.0 * o.m * o.n * o.k, o.size_a, o.size_b, 0.0};
  } else if (ia) {  // dense × sparse: every nonzero of b meets every row of a
    c = {2.0 * o.m * o.nnz_b, o.size_a, o.nnz_b, 0.0};
  } else {  // sparse × dense (two operators keep a sparse)
    c = {2.0 * o.n * o.nnz_a, o.nnz_a, o.size_b, 0.0};
  }
  c.words_c = ia || ib ? o.m * o.n : o.nonzero_block_words_c;
  return c;
}

tt::rt::ContractionCost expected_sparse_sparse(const FusedCounts& o) {
  return {2.0 * o.matched_pairs, o.nnz_a, o.nnz_b, o.nnz_c};
}

class PricingOracle : public ::testing::TestWithParam<int> {};

TEST_P(PricingOracle, FusedRecordsMatchFusedDenseWalk) {
  Rng rng(static_cast<unsigned>(GetParam()) * 7919 + 5);
  // a(x, c, y, d) · b(d̄, z, c̄) over {c, d}: two contracted legs, listed in a
  // different order on each operand.
  const Pairs pairs = {{1, 2}, {3, 0}};
  BlockTensor a, b;
  for (int attempt = 0; attempt < 100; ++attempt) {
    const Index c = random_index(rng, 2, Dir::Out), d = random_index(rng, 2, Dir::In);
    const QN fa(static_cast<int>(rng.integer(-1, 1)), 0);
    a = BlockTensor::random(
        {random_index(rng, 2, Dir::In), c, random_index(rng, 2, Dir::Out), d}, fa, rng);
    b = BlockTensor::random({d.reversed(), random_index(rng, 2, Dir::Out), c.reversed()},
                            QN(0, 0), rng);
    if (a.num_blocks() >= 3 && b.num_blocks() >= 2 &&
        tt::symm::contract(a, b, pairs).num_blocks() >= 2)
      break;
  }
  ASSERT_GE(a.num_blocks(), 3);
  ASSERT_GE(b.num_blocks(), 2);

  // Exact zeros inside blocks, and one block that is zero throughout: stored
  // elements that a sparse format would not store.
  for (BlockTensor* t : {&a, &b}) {
    for (const auto& [key, blk] : t->blocks())
      for (index_t i = 0; i < blk.size(); ++i)
        if (rng.uniform() < 0.3) blk[i] = 0.0;
  }
  {
    const auto blk = (*a.blocks().begin()).blk;
    for (index_t i = 0; i < blk.size(); ++i) blk[i] = 0.0;
  }

  const FusedCounts o = fused_counts(a, b, pairs);
  ASSERT_LT(o.nnz_a, o.size_a);
  ASSERT_GT(o.nnz_c, 0.0);

  const tt::rt::Cluster cl = test_cluster();
  tt::dmrg::ContractionEngine eng;
  eng.set_logging(true);
  for (Role ra : kRoles)
    for (Role rb : kRoles) {
      eng.clear_log();
      eng.contract(a, ra, b, rb, pairs);
      ASSERT_EQ(eng.log().size(), 1u);
      for (EngineKind kind : {EngineKind::kSparseDense, EngineKind::kSparseSparse}) {
        SCOPED_TRACE(std::string(tt::dmrg::engine_name(kind)) + " roles " +
                     std::to_string(static_cast<int>(ra)) +
                     std::to_string(static_cast<int>(rb)));
        const bool sd = kind == EngineKind::kSparseDense;
        tt::rt::CostTracker want;
        tt::rt::charge_contraction(
            cl, want, sd ? expected_sparse_dense(o, ra, rb) : expected_sparse_sparse(o),
            sd ? tt::rt::Layout::kFusedDense2D : tt::rt::Layout::kFusedSparse2D);
        const tt::rt::CostTracker got = tt::dmrg::price(kind, eng.log(), cl);
        EXPECT_EQ(got.flops(), want.flops());
        EXPECT_EQ(got.words(), want.words());
        EXPECT_EQ(got.supersteps(), want.supersteps());
        for (int c = 0; c < tt::rt::kNumCategories; ++c) {
          const auto cat = static_cast<Category>(c);
          EXPECT_EQ(got.time(cat), want.time(cat)) << tt::rt::category_name(cat);
        }
      }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PricingOracle, ::testing::Range(0, 8));

}  // namespace
