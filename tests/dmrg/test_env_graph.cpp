// EnvGraph invalidation/property tests: the incremental environments must be
// bitwise identical to a from-scratch rebuild after arbitrary site mutations
// and mixed-direction demands — the regression test the old EnvironmentStack
// never had.
#include <gtest/gtest.h>

#include <cmath>

#include "dmrg/env_graph.hpp"
#include "dmrg/environment.hpp"
#include "models/heisenberg.hpp"
#include "models/lattice.hpp"
#include "models/spin_half.hpp"
#include "mps/mps.hpp"
#include "support/rng.hpp"

namespace {

using tt::Rng;
using tt::dmrg::EnvGraph;
using tt::symm::BlockTensor;
using tt::symm::QN;

constexpr int kN = 8;

struct Fixture {
  tt::mps::SiteSetPtr sites = tt::models::spin_half_sites(kN);
  tt::models::Lattice lat = tt::models::chain(kN);
  tt::mps::Mpo h = tt::models::heisenberg_mpo(sites, lat, 1.0);
  tt::mps::Mps psi;
  std::unique_ptr<tt::dmrg::ContractionEngine> eng = tt::dmrg::make_engine(
      tt::dmrg::EngineKind::kReference, {tt::rt::localhost(), 1, 1});

  explicit Fixture(unsigned seed = 7) {
    Rng rng(seed);
    psi = tt::mps::Mps::random(sites, QN(0), 8, rng);
    psi.canonicalize(0);
  }

  BlockTensor rebuild_left(int k) {
    BlockTensor e = tt::dmrg::left_boundary(1);
    for (int i = 0; i < k; ++i)
      e = tt::dmrg::extend_left(*eng, e, psi.site(i), h.site(i));
    return e;
  }
  BlockTensor rebuild_right(int k) {
    BlockTensor e = tt::dmrg::right_boundary(psi.total_qn());
    for (int i = kN - 1; i >= k; --i)
      e = tt::dmrg::extend_right(*eng, e, psi.site(i), h.site(i));
    return e;
  }
};

// Prefetch only moves when work runs, never what the model charges for it:
// flops exactly, the rest up to the rounding of merging a side tracker in.
void expect_same_modelled_cost(const tt::rt::CostTracker& got,
                               const tt::rt::CostTracker& want) {
  auto near = [](double x, double y) { return std::abs(x - y) <= 1e-12 * std::abs(y); };
  EXPECT_EQ(got.flops(), want.flops());
  EXPECT_TRUE(near(got.words(), want.words())) << got.words() << " vs " << want.words();
  EXPECT_TRUE(near(got.supersteps(), want.supersteps()));
  for (int c = 0; c < tt::rt::kNumCategories; ++c) {
    const auto cat = static_cast<tt::rt::Category>(c);
    EXPECT_TRUE(near(got.time(cat), want.time(cat)))
        << tt::rt::category_name(cat) << ": " << got.time(cat) << " vs "
        << want.time(cat);
  }
}

TEST(EnvGraph, InvalidationConesTrackSiteChanges) {
  Fixture f;
  EnvGraph g(*f.eng, f.psi, f.h);
  // Fresh graph: everything the eager construction builds is valid.
  for (int k = 0; k < kN; ++k)
    EXPECT_EQ(g.left_state(k), EnvGraph::NodeState::kValid) << k;
  for (int k = 1; k <= kN; ++k)
    EXPECT_EQ(g.right_state(k), EnvGraph::NodeState::kValid) << k;

  g.site_changed(3);
  for (int k = 0; k <= 3; ++k)
    EXPECT_EQ(g.left_state(k), EnvGraph::NodeState::kValid) << k;
  for (int k = 4; k <= kN; ++k)
    EXPECT_EQ(g.left_state(k), EnvGraph::NodeState::kInvalid) << k;
  for (int k = 0; k <= 3; ++k)
    EXPECT_EQ(g.right_state(k), EnvGraph::NodeState::kInvalid) << k;
  for (int k = 4; k <= kN; ++k)
    EXPECT_EQ(g.right_state(k), EnvGraph::NodeState::kValid) << k;

  // Demanding re-validates the chain it rebuilt.
  (void)g.left(6);
  for (int k = 0; k <= 6; ++k)
    EXPECT_EQ(g.left_state(k), EnvGraph::NodeState::kValid) << k;
}

TEST(EnvGraph, IncrementalMatchesRebuildUnderRandomPerturbations) {
  Fixture f;
  EnvGraph g(*f.eng, f.psi, f.h);
  Rng rng(21);
  for (int iter = 0; iter < 40; ++iter) {
    // Random single-site perturbation, structure-preserving.
    const int j = static_cast<int>(rng.integer(0, kN - 1));
    BlockTensor& site = f.psi.site(j);
    BlockTensor noise = BlockTensor::random(site.indices(), site.flux(), rng);
    site.axpy(0.25, noise);
    g.site_changed(j);

    // Occasionally wipe everything, as the drivers do after re-gauging.
    if (iter % 11 == 10) g.invalidate_all();

    // Mixed-direction demands at random cuts: bitwise vs from-scratch.
    const int kl = static_cast<int>(rng.integer(0, kN));
    const int kr = static_cast<int>(rng.integer(0, kN));
    if (rng.uniform() < 0.5) {
      EXPECT_EQ(tt::symm::max_abs_diff(g.left(kl), f.rebuild_left(kl)), 0.0)
          << "iter " << iter << " left " << kl;
      EXPECT_EQ(tt::symm::max_abs_diff(g.right(kr), f.rebuild_right(kr)), 0.0)
          << "iter " << iter << " right " << kr;
    } else {
      EXPECT_EQ(tt::symm::max_abs_diff(g.right(kr), f.rebuild_right(kr)), 0.0)
          << "iter " << iter << " right " << kr;
      EXPECT_EQ(tt::symm::max_abs_diff(g.left(kl), f.rebuild_left(kl)), 0.0)
          << "iter " << iter << " left " << kl;
    }
  }
}

TEST(EnvGraph, PrefetchMatchesDemandBitwise) {
  Fixture f;
  EnvGraph eager(*f.eng, f.psi, f.h);
  auto eng2 = tt::dmrg::make_engine(tt::dmrg::EngineKind::kReference,
                                    {tt::rt::localhost(), 1, 1});
  EnvGraph pre(*eng2, f.psi, f.h);

  // Same invalidation on both; one demands, one prefetches then joins.
  eager.site_changed(3);
  pre.site_changed(3);
  const tt::rt::CostTracker t0 = f.eng->tracker();
  const BlockTensor& want = eager.left(4);

  pre.prefetch_left(4);
  EXPECT_EQ(pre.left_state(4), EnvGraph::NodeState::kPending);
  const BlockTensor& got = pre.left(4);  // joins the future
  EXPECT_EQ(tt::symm::max_abs_diff(got, want), 0.0);
  EXPECT_EQ(pre.left_state(4), EnvGraph::NodeState::kValid);

  // Effectiveness counters are measured; the modelled cost is the eager
  // demand's, as if the main engine had run the extension.
  const EnvGraph::PrefetchStats& st = pre.prefetch_stats();
  EXPECT_EQ(st.launched, 1);
  EXPECT_EQ(st.hits + st.misses, 1);
  EXPECT_GT(f.eng->tracker().diff(t0).total_time(), 0.0);
  expect_same_modelled_cost(eng2->tracker(), f.eng->tracker());
}

TEST(EnvGraph, PrefetchSurvivesInvalidationRaces) {
  // A prefetch whose target is invalidated before the join must neither leak
  // nor poison later demands.
  Fixture f;
  EnvGraph g(*f.eng, f.psi, f.h);
  Rng rng(5);
  g.site_changed(2);
  g.prefetch_left(3);
  // Invalidate the pending node: site_changed joins the future before the
  // state flip, so no stale write can land afterwards. Only then is the site
  // safe to mutate (the worker reads it while the future is in flight).
  g.site_changed(2);
  BlockTensor& site = f.psi.site(2);
  BlockTensor noise = BlockTensor::random(site.indices(), site.flux(), rng);
  site.axpy(0.25, noise);
  g.site_changed(2);
  EXPECT_EQ(tt::symm::max_abs_diff(g.left(3), f.rebuild_left(3)), 0.0);
  // And an abandoned in-flight prefetch is settled by sync(). Prefetch only
  // computes one edge off a valid parent, so validate left(4) first.
  g.site_changed(4);
  (void)g.left(4);
  g.prefetch_left(5);
  g.sync();
  EXPECT_EQ(g.left_state(5), EnvGraph::NodeState::kValid);
  EXPECT_EQ(tt::symm::max_abs_diff(g.left(5), f.rebuild_left(5)), 0.0);
}

}  // namespace
