#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "dmrg/dmrg.hpp"
#include "dmrg/engine.hpp"
#include "models/heisenberg.hpp"
#include "models/hubbard.hpp"
#include "models/electron.hpp"
#include "models/lattice.hpp"
#include "models/spin_half.hpp"
#include "mps/mps.hpp"
#include "runtime/scheduler.hpp"
#include "support/error.hpp"
#include "symm/fuse.hpp"
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
using tt::symm::Sector;
using tt::tensor::DenseTensor;
using Pairs = std::vector<std::pair<int, int>>;

const EngineKind kAllEngines[] = {EngineKind::kReference, EngineKind::kList,
                                  EngineKind::kSparseDense, EngineKind::kSparseSparse};
const Role kRoles[] = {Role::kOperator, Role::kIntermediate};

tt::rt::Cluster test_cluster() { return {tt::rt::blue_waters(), 4, 16}; }

// Same keys, same shapes, same bytes.
void expect_bitwise_equal(const BlockTensor& x, const BlockTensor& y) {
  ASSERT_TRUE(x.same_structure(y));
  ASSERT_EQ(x.num_blocks(), y.num_blocks());
  for (const auto& [key, blk] : x.blocks()) {
    const DenseTensor* other = y.find_block(key);
    ASSERT_NE(other, nullptr);
    ASSERT_EQ(blk.shape(), other->shape());
    EXPECT_EQ(std::memcmp(blk.data(), other->data(),
                          static_cast<std::size_t>(blk.size()) * sizeof(double)),
              0);
  }
}

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

class EngineParam : public ::testing::TestWithParam<EngineKind> {};

TEST_P(EngineParam, ContractionMatchesReference) {
  Operands ops;
  auto ref = tt::dmrg::make_engine(EngineKind::kReference, test_cluster());
  auto eng = tt::dmrg::make_engine(GetParam(), test_cluster());
  BlockTensor want = ref->contract(ops.a, Role::kOperator, ops.b, Role::kOperator,
                                   {{2, 0}});
  for (auto ra : kRoles)
    for (auto rb : kRoles) {
      SCOPED_TRACE(tt::dmrg::engine_name(GetParam()));
      expect_bitwise_equal(eng->contract(ops.a, ra, ops.b, rb, {{2, 0}}), want);
    }
}

TEST_P(EngineParam, SvdMatchesReferenceSingularValues) {
  Operands ops;
  BlockTensor theta = tt::symm::contract(ops.a, ops.b, {{2, 0}});
  auto ref = tt::dmrg::make_engine(EngineKind::kReference, test_cluster());
  auto eng = tt::dmrg::make_engine(GetParam(), test_cluster());
  tt::symm::TruncParams trunc;
  trunc.max_dim = 8;
  auto f1 = ref->svd(theta, {0, 1}, trunc);
  auto f2 = eng->svd(theta, {0, 1}, trunc);
  EXPECT_EQ(f1.kept, f2.kept);
  EXPECT_NEAR(f1.truncation_error, f2.truncation_error, 1e-12);
}

TEST_P(EngineParam, ChargesFlops) {
  Operands ops;
  auto eng = tt::dmrg::make_engine(GetParam(), test_cluster());
  eng->contract(ops.a, Role::kOperator, ops.b, Role::kOperator, {{2, 0}});
  EXPECT_GT(eng->tracker().flops(), 0.0);
  EXPECT_GT(eng->tracker().time(Category::kGemm), 0.0);
}

TEST_P(EngineParam, SchedulerRunsEveryKindBitwise) {
  // Every kind executes block-wise, so every kind routes through an attached
  // multi-rank scheduler and reproduces the local result exactly.
  Operands ops;
  auto local = tt::dmrg::make_engine(GetParam(), test_cluster());
  const BlockTensor want =
      local->contract(ops.a, Role::kIntermediate, ops.b, Role::kOperator, {{2, 0}});

  tt::rt::SchedulerOptions opts;
  opts.num_ranks = 2;
  opts.mode = tt::rt::SpawnMode::kThread;
  tt::rt::Scheduler sched(opts);
  auto eng = tt::dmrg::make_engine(GetParam(), test_cluster());
  eng->set_scheduler(&sched);
  expect_bitwise_equal(
      eng->contract(ops.a, Role::kIntermediate, ops.b, Role::kOperator, {{2, 0}}), want);
  EXPECT_GT(sched.accumulated().contractions, 0);
}

INSTANTIATE_TEST_SUITE_P(All, EngineParam, ::testing::ValuesIn(kAllEngines),
                         [](const auto& info) {
                           std::string name = tt::dmrg::engine_name(info.param);
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(Engines, SuperstepAccountingMatchesTableII) {
  // Table II: list pays O(Nb) supersteps per contraction, fused formats O(1).
  Operands ops;
  auto list = tt::dmrg::make_engine(EngineKind::kList, test_cluster());
  auto ss = tt::dmrg::make_engine(EngineKind::kSparseSparse, test_cluster());
  list->contract(ops.a, Role::kOperator, ops.b, Role::kOperator, {{2, 0}});
  ss->contract(ops.a, Role::kOperator, ops.b, Role::kOperator, {{2, 0}});
  EXPECT_GT(list->tracker().supersteps(), ss->tracker().supersteps());
  EXPECT_DOUBLE_EQ(ss->tracker().supersteps(), 1.0);
}

TEST(Engines, ReferenceHasNoCommunication) {
  Operands ops;
  auto ref = tt::dmrg::make_engine(EngineKind::kReference, test_cluster());
  ref->contract(ops.a, Role::kOperator, ops.b, Role::kOperator, {{2, 0}});
  tt::symm::TruncParams trunc;
  BlockTensor theta = tt::symm::contract(ops.a, ops.b, {{2, 0}});
  ref->svd(theta, {0, 1}, trunc);
  EXPECT_DOUBLE_EQ(ref->tracker().time(Category::kComm), 0.0);
  EXPECT_DOUBLE_EQ(ref->tracker().words(), 0.0);
}

TEST(Engines, FusedSvdChargesRedistribution) {
  // Sparse engines must pay the block-extraction round trip around the SVD
  // (paper §IV-A); list/reference must not.
  Operands ops;
  BlockTensor theta = tt::symm::contract(ops.a, ops.b, {{2, 0}});
  tt::symm::TruncParams trunc;

  auto list = tt::dmrg::make_engine(EngineKind::kList, test_cluster());
  auto sd = tt::dmrg::make_engine(EngineKind::kSparseDense, test_cluster());
  list->svd(theta, {0, 1}, trunc);
  sd->svd(theta, {0, 1}, trunc);
  EXPECT_DOUBLE_EQ(list->tracker().time(Category::kComm), 0.0);
  EXPECT_GT(sd->tracker().time(Category::kComm), 0.0);
}

TEST(Engines, NameRoundTrip) {
  for (EngineKind k : kAllEngines) {
    auto eng = tt::dmrg::make_engine(k, test_cluster());
    EXPECT_EQ(eng->kind(), k);
    EXPECT_EQ(eng->name(), tt::dmrg::engine_name(k));
    EXPECT_EQ(tt::dmrg::engine_from_name(tt::dmrg::engine_name(k)), k);
  }
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

TEST(Engines, FullSweepEquivalenceAcrossEngines) {
  // The headline invariant (paper §III: "We compute DMRG in the same way as
  // the best sequential approach"): every engine produces the same sweep
  // energies on the same problem — bitwise, since all of them execute the
  // same block-wise contractions.
  auto lat = tt::models::square_cylinder(3, 2, true);
  auto sites = tt::models::spin_half_sites(lat.num_sites);
  auto h = tt::models::heisenberg_mpo(sites, lat, 1.0, 0.5);
  std::vector<int> neel;
  for (int i = 0; i < lat.num_sites; ++i) neel.push_back(i % 2);

  tt::dmrg::SweepParams params;
  params.max_m = 16;
  params.davidson_iter = 3;

  std::vector<double> energies;
  for (EngineKind k : kAllEngines) {
    auto psi = tt::mps::Mps::product_state(sites, neel);
    tt::dmrg::Dmrg solver(psi, h, tt::dmrg::make_engine(k, test_cluster()));
    auto rec1 = solver.sweep(params);
    auto rec2 = solver.sweep(params);
    energies.push_back(rec2.energy);
    EXPECT_LE(rec2.energy, rec1.energy + 1e-9) << tt::dmrg::engine_name(k);
  }
  for (std::size_t i = 1; i < energies.size(); ++i)
    EXPECT_EQ(energies[i], energies[0])
        << "engine " << tt::dmrg::engine_name(kAllEngines[i]);
}

TEST(Engines, ElectronSweepEquivalence) {
  // Same invariant on the d = 4, two-charge system (much finer blocks).
  auto lat = tt::models::chain(4);
  auto sites = tt::models::electron_sites(4);
  auto h = tt::models::hubbard_mpo(sites, lat, 1.0, 8.5);
  std::vector<int> half{1, 2, 1, 2};

  tt::dmrg::SweepParams params;
  params.max_m = 24;
  params.davidson_iter = 3;

  std::vector<double> energies;
  for (EngineKind k : kAllEngines) {
    auto psi = tt::mps::Mps::product_state(sites, half);
    tt::dmrg::Dmrg solver(psi, h, tt::dmrg::make_engine(k, test_cluster()));
    solver.sweep(params);
    energies.push_back(solver.sweep(params).energy);
  }
  for (std::size_t i = 1; i < energies.size(); ++i)
    EXPECT_EQ(energies[i], energies[0])
        << "engine " << tt::dmrg::engine_name(kAllEngines[i]);
}

// ---------------------------------------------------------------------------
// Pricing oracle. A sparse-dense or sparse-sparse engine logs one fused
// contraction record whose flops and words follow from the fused operands
// alone: nonzeros for operands stored sparse, the full fused size for dense
// ones. The oracle recomputes every field by walking fuse_dense tensors
// element by element, independently of the engine's block bookkeeping.
// ---------------------------------------------------------------------------

// Random index: 1–4 sectors with distinct small charges, dims 1–4.
Index random_index(Rng& rng, Dir dir) {
  const int nsec = static_cast<int>(rng.integer(1, 4));
  std::vector<Sector> sectors;
  std::vector<QN> used;
  while (static_cast<int>(sectors.size()) < nsec) {
    const QN q(static_cast<int>(rng.integer(-1, 2)),
               static_cast<int>(rng.integer(-1, 1)));
    bool fresh = true;
    for (const QN& u : used) fresh &= !(u == q);
    if (!fresh) continue;
    used.push_back(q);
    sectors.push_back({q, rng.integer(1, 4)});
  }
  return Index(sectors, dir);
}

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
  const DenseTensor fa = tt::symm::fuse_dense(a);
  const DenseTensor fb = tt::symm::fuse_dense(b);
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
    const auto shape = probe.block_shape(key);
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
    const Index c = random_index(rng, Dir::Out), d = random_index(rng, Dir::In);
    const QN fa(static_cast<int>(rng.integer(-1, 1)), 0);
    a = BlockTensor::random(
        {random_index(rng, Dir::In), c, random_index(rng, Dir::Out), d}, fa, rng);
    b = BlockTensor::random({d.reversed(), random_index(rng, Dir::Out), c.reversed()},
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
    std::vector<tt::symm::BlockKey> keys;
    for (const auto& kv : t->blocks()) keys.push_back(kv.first);
    for (const auto& key : keys) {
      DenseTensor& blk = t->block(key);
      for (index_t i = 0; i < blk.size(); ++i)
        if (rng.uniform() < 0.3) blk[i] = 0.0;
    }
  }
  {
    DenseTensor& blk = a.block(a.blocks().begin()->first);
    for (index_t i = 0; i < blk.size(); ++i) blk[i] = 0.0;
  }

  const FusedCounts o = fused_counts(a, b, pairs);
  ASSERT_LT(o.nnz_a, o.size_a);
  ASSERT_GT(o.nnz_c, 0.0);

  for (EngineKind kind : {EngineKind::kSparseDense, EngineKind::kSparseSparse}) {
    auto eng = tt::dmrg::make_engine(kind, test_cluster());
    eng->set_logging(true);
    for (Role ra : kRoles)
      for (Role rb : kRoles) {
        SCOPED_TRACE(std::string(tt::dmrg::engine_name(kind)) + " roles " +
                     std::to_string(static_cast<int>(ra)) +
                     std::to_string(static_cast<int>(rb)));
        eng->clear_log();
        eng->contract(a, ra, b, rb, pairs);
        ASSERT_EQ(eng->log().size(), 1u);
        const OpRecord& r = eng->log()[0];
        EXPECT_EQ(r.type, OpRecord::Type::kContraction);
        const bool sd = kind == EngineKind::kSparseDense;
        EXPECT_EQ(r.layout,
                  sd ? tt::rt::Layout::kFusedDense2D : tt::rt::Layout::kFusedSparse2D);
        const tt::rt::ContractionCost want =
            sd ? expected_sparse_dense(o, ra, rb) : expected_sparse_sparse(o);
        EXPECT_EQ(r.cost.flops, want.flops);
        EXPECT_EQ(r.cost.words_a, want.words_a);
        EXPECT_EQ(r.cost.words_b, want.words_b);
        EXPECT_EQ(r.cost.words_c, want.words_c);
      }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PricingOracle, ::testing::Range(0, 8));

}  // namespace
