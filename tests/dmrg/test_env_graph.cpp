// EnvGraph invalidation/property tests: the incremental environments must be
// bitwise identical to a from-scratch rebuild after arbitrary site mutations
// and mixed-direction demands — the regression test the old EnvironmentStack
// never had — and a prefetch must survive invalidation races, including the
// sweep-turn race under an injected worker delay. (A sweep with prefetch on,
// at any thread count, is bitwise the eager one: dmrg/sweep_matrix_*.)
#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "common/parity.hpp"
#include "dmrg/dmrg.hpp"
#include "dmrg/env_graph.hpp"
#include "dmrg/environment.hpp"
#include "models/heisenberg.hpp"
#include "models/lattice.hpp"
#include "models/spin_half.hpp"
#include "mps/mps.hpp"
#include "support/rng.hpp"

namespace {

using tt::Rng;
using tt::dmrg::Dmrg;
using tt::dmrg::EnvGraph;
using tt::dmrg::SweepParams;
using tt::dmrg::SweepRecord;
using tt::symm::BlockTensor;
using tt::symm::QN;

constexpr int kN = 8;

struct Fixture {
  tt::mps::SiteSetPtr sites = tt::models::spin_half_sites(kN);
  tt::models::Lattice lat = tt::models::chain(kN);
  tt::mps::Mpo h = tt::models::heisenberg_mpo(sites, lat, 1.0);
  tt::mps::Mps psi;
  std::unique_ptr<tt::dmrg::ContractionEngine> eng =
      std::make_unique<tt::dmrg::ContractionEngine>();

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
  tt::dmrg::ContractionEngine eng2;
  EnvGraph pre(eng2, f.psi, f.h);

  // Same invalidation on both; one demands, one prefetches then joins.
  eager.site_changed(3);
  pre.site_changed(3);
  const BlockTensor& want = eager.left(4);

  pre.prefetch_left(4);
  EXPECT_EQ(pre.left_state(4), EnvGraph::NodeState::kPending);
  const BlockTensor& got = pre.left(4);  // joins the future
  EXPECT_EQ(tt::symm::max_abs_diff(got, want), 0.0);
  EXPECT_EQ(pre.left_state(4), EnvGraph::NodeState::kValid);

  // Effectiveness counters are measured.
  const EnvGraph::PrefetchStats& st = pre.prefetch_stats();
  EXPECT_EQ(st.launched, 1);
  EXPECT_EQ(st.hits + st.misses, 1);
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

SweepParams params_for(tt::index_t m, bool prefetch = false) {
  SweepParams p;
  p.max_m = m;
  p.davidson_iter = 3;
  p.prefetch = prefetch;
  return p;
}

Dmrg heisenberg_solver(int n) {
  auto lat = tt::models::chain(n);
  auto sites = tt::models::spin_half_sites(n);
  auto h = tt::models::heisenberg_mpo(sites, lat, 1.0);
  std::vector<int> neel;
  for (int i = 0; i < n; ++i) neel.push_back(i % 2);
  return Dmrg(tt::mps::Mps::product_state(sites, neel), h,
              std::make_unique<tt::dmrg::ContractionEngine>());
}

std::vector<SweepRecord> run_sweeps(Dmrg& solver, const SweepParams& p, int sweeps) {
  std::vector<SweepRecord> out;
  for (int s = 0; s < sweeps; ++s) out.push_back(solver.sweep(p));
  return out;
}

TEST(SerialSweep, SlowPrefetchStaysInFlightAcrossTheTurn) {
  // Regression for the sweep-turn race: the last L2R bond launches
  // prefetch_left(N-1), whose worker reads site N-2, and the first R2L bond
  // re-optimizes that same bond without ever demanding the pending node — so
  // the join must come from site_changed *before* set_site replaces the
  // tensor the worker is reading. The injected worker delay keeps the future
  // in flight across the turn, so under TSan a regressed ordering is a
  // deterministic report instead of scheduling luck.
  const int n = 6, sweeps = 2;
  Dmrg eager = heisenberg_solver(n);
  auto ra = run_sweeps(eager, params_for(12), sweeps);
  Dmrg slow = heisenberg_solver(n);
  slow.environments().set_prefetch_delay_for_testing(
      std::chrono::milliseconds(10));
  auto rb = run_sweeps(slow, params_for(12, /*prefetch=*/true), sweeps);
  EXPECT_TRUE(tt::testing::bitwise_equal(ra, rb));
  EXPECT_TRUE(tt::testing::bitwise_equal(eager.psi(), slow.psi()));
  long blocked = 0;
  for (const auto& r : rb) blocked += r.prefetch_launched - r.prefetch_hits;
  EXPECT_GT(blocked, 0);  // the delay really forced joins to block in flight
}

}  // namespace
