#include <gtest/gtest.h>

#include <cmath>

#include "dmrg/davidson.hpp"
#include "dmrg/engine.hpp"
#include "dmrg/env_graph.hpp"
#include "dmrg/environment.hpp"
#include "ed/ed.hpp"
#include "models/heisenberg.hpp"
#include "models/lattice.hpp"
#include "models/spin_half.hpp"
#include "mps/mps.hpp"
#include "runtime/machine.hpp"

namespace {

using tt::Rng;
using tt::dmrg::DavidsonOptions;
using tt::dmrg::Role;
using tt::symm::BlockTensor;
using tt::symm::QN;

// Fixture: the full two-site effective problem of a 2-site Heisenberg chain.
// With boundary environments of dim 1, θ spans the complete Sz = 0 sector and
// Davidson must find the exact singlet energy −3/4.
struct TwoSiteProblem {
  std::unique_ptr<tt::dmrg::ContractionEngine> eng;
  tt::mps::Mps psi;
  tt::mps::Mpo h;
  BlockTensor left, right, theta;

  explicit TwoSiteProblem(unsigned seed = 3) {
    auto sites = tt::models::spin_half_sites(2);
    auto lat = tt::models::chain(2);
    h = tt::models::heisenberg_mpo(sites, lat, 1.0);
    psi = tt::mps::Mps::product_state(sites, {0, 1});
    eng = std::make_unique<tt::dmrg::ContractionEngine>();
    left = tt::dmrg::left_boundary(1);
    right = tt::dmrg::right_boundary(QN(0));
    Rng rng(seed);
    theta = tt::symm::contract(psi.site(0), psi.site(1), {{2, 0}});
    // Perturb so the guess is not an eigenvector.
    BlockTensor noise = BlockTensor::random(theta.indices(), theta.flux(), rng);
    theta.axpy(0.3, noise);
  }

  tt::dmrg::BlockMatVec matvec() {
    return [this](const BlockTensor& x) {
      return tt::dmrg::apply_two_site(*eng, left, h.site(0), h.site(1), right, x);
    };
  }
};

TEST(Davidson, ConvergesToSingletEnergy) {
  TwoSiteProblem p;
  DavidsonOptions opts;
  opts.max_iter = 20;
  opts.subspace = 4;
  auto r = tt::dmrg::davidson(p.matvec(), p.theta, opts);
  EXPECT_NEAR(r.eigenvalue, -0.75, 1e-9);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.vector.norm2(), 1.0, 1e-12);
}

TEST(Davidson, ResidualIsEigenEquation) {
  TwoSiteProblem p;
  DavidsonOptions opts;
  opts.max_iter = 30;
  opts.subspace = 4;
  auto r = tt::dmrg::davidson(p.matvec(), p.theta, opts);
  BlockTensor hv = p.matvec()(r.vector);
  hv.axpy(-r.eigenvalue, r.vector);
  EXPECT_LT(hv.norm2(), 1e-8);
}

TEST(Davidson, SubspaceTwoRestartStillConverges) {
  // The paper's production setting: subspace 2, restarting from the Ritz
  // vector. More iterations, same fixed point.
  TwoSiteProblem p;
  DavidsonOptions opts;
  opts.max_iter = 40;
  opts.subspace = 2;
  auto r = tt::dmrg::davidson(p.matvec(), p.theta, opts);
  EXPECT_NEAR(r.eigenvalue, -0.75, 1e-8);
}

TEST(Davidson, SingleIterationLowersRayleighQuotient) {
  TwoSiteProblem p;
  // Rayleigh quotient of the (normalized) guess.
  BlockTensor x = p.theta;
  x.scale(1.0 / x.norm2());
  const double rq0 = tt::symm::dot(x, p.matvec()(x));
  DavidsonOptions opts;
  opts.max_iter = 2;
  auto r = tt::dmrg::davidson(p.matvec(), p.theta, opts);
  EXPECT_LE(r.eigenvalue, rq0 + 1e-12);
}

TEST(Davidson, ExactGuessConvergesImmediately) {
  TwoSiteProblem p;
  DavidsonOptions opts;
  opts.max_iter = 30;
  opts.subspace = 4;
  auto r1 = tt::dmrg::davidson(p.matvec(), p.theta, opts);
  // Restart from the solution: one matvec, converged.
  auto r2 = tt::dmrg::davidson(p.matvec(), r1.vector, opts);
  EXPECT_TRUE(r2.converged);
  EXPECT_EQ(r2.matvecs, 1);
  EXPECT_NEAR(r2.eigenvalue, r1.eigenvalue, 1e-10);
}

TEST(Davidson, MatchesEdOnLargerChain) {
  // 4-site chain: optimize the middle bond of a random MPS with full-sector
  // bonds; θ spans the whole Sz=0 sector, so Davidson reaches the ED energy.
  auto sites = tt::models::spin_half_sites(4);
  auto lat = tt::models::chain(4);
  auto h = tt::models::heisenberg_mpo(sites, lat, 1.0);
  Rng rng(4);
  auto psi = tt::mps::Mps::random(sites, QN(0), 8, rng);
  psi.canonicalize(1);
  auto eng = std::make_unique<tt::dmrg::ContractionEngine>();
  tt::dmrg::EnvGraph envs(*eng, psi, h);
  BlockTensor theta = tt::symm::contract(psi.site(1), psi.site(2), {{2, 0}});
  DavidsonOptions opts;
  opts.max_iter = 60;
  opts.subspace = 8;
  opts.tol = 1e-12;
  auto r = tt::dmrg::davidson(
      [&](const BlockTensor& x) {
        return tt::dmrg::apply_two_site(*eng, envs.left(1), h.site(1), h.site(2),
                                        envs.right(3), x);
      },
      theta, opts);
  const double e_ed = tt::ed::heisenberg_ground_energy(lat, 1.0, 0.0, 0);
  EXPECT_NEAR(r.eigenvalue, e_ed, 1e-8);
}

TEST(Davidson, RejectsBadInputs) {
  TwoSiteProblem p;
  BlockTensor zero(p.theta.indices(), p.theta.flux());
  EXPECT_THROW(tt::dmrg::davidson(p.matvec(), zero, {}), tt::Error);
  DavidsonOptions bad;
  bad.max_iter = 0;
  EXPECT_THROW(tt::dmrg::davidson(p.matvec(), p.theta, bad), tt::Error);
  DavidsonOptions bad2;
  bad2.subspace = 1;
  EXPECT_THROW(tt::dmrg::davidson(p.matvec(), p.theta, bad2), tt::Error);
}

}  // namespace
