// Sweep-driver properties: energy never rises, truncation costs energy, the
// final state is normalized and charge-conserving, the bond dimension grows,
// and bad construction is rejected. (Agreement with exact diagonalization is
// the ED column of dmrg/sweep_matrix_*.)
#include <gtest/gtest.h>

#include "dmrg/dmrg.hpp"
#include "models/heisenberg.hpp"
#include "models/lattice.hpp"
#include "models/spin_half.hpp"
#include "mps/measure.hpp"

namespace {

using tt::dmrg::Dmrg;
using tt::dmrg::SweepParams;

std::vector<SweepParams> schedule(tt::index_t m, int sweeps, int dav = 3,
                                  int subspace = 2) {
  std::vector<SweepParams> out;
  for (int s = 0; s < sweeps; ++s) {
    SweepParams p;
    p.max_m = m;
    p.davidson_iter = dav;
    p.davidson_subspace = subspace;
    out.push_back(p);
  }
  return out;
}

TEST(Dmrg, EnergyMonotonicallyNonIncreasing) {
  const int n = 10;
  auto lat = tt::models::chain(n);
  auto sites = tt::models::spin_half_sites(n);
  auto h = tt::models::heisenberg_mpo(sites, lat, 1.0);
  std::vector<int> neel;
  for (int i = 0; i < n; ++i) neel.push_back(i % 2);
  Dmrg solver(tt::mps::Mps::product_state(sites, neel), h,
              std::make_unique<tt::dmrg::ContractionEngine>());
  double prev = 1e30;
  for (int s = 0; s < 5; ++s) {
    const double e = solver.sweep(schedule(32, 1)[0]).energy;
    EXPECT_LE(e, prev + 1e-9) << "sweep " << s;
    prev = e;
  }
}

TEST(Dmrg, TruncationCapRaisesEnergy) {
  const int n = 8;
  auto lat = tt::models::chain(n);
  auto sites = tt::models::spin_half_sites(n);
  auto h = tt::models::heisenberg_mpo(sites, lat, 1.0);
  std::vector<int> neel;
  for (int i = 0; i < n; ++i) neel.push_back(i % 2);

  auto run_at = [&](tt::index_t m) {
    Dmrg solver(tt::mps::Mps::product_state(sites, neel), h,
                std::make_unique<tt::dmrg::ContractionEngine>());
    return solver.run(schedule(m, 6));
  };
  const double e2 = run_at(2);
  const double e32 = run_at(32);
  EXPECT_GT(e2, e32 + 1e-6);  // m = 2 cannot represent the ground state
}

TEST(Dmrg, StatePropertiesAfterRun) {
  const int n = 8;
  auto lat = tt::models::chain(n);
  auto sites = tt::models::spin_half_sites(n);
  auto h = tt::models::heisenberg_mpo(sites, lat, 1.0);
  std::vector<int> neel;
  for (int i = 0; i < n; ++i) neel.push_back(i % 2);
  Dmrg solver(tt::mps::Mps::product_state(sites, neel), h,
              std::make_unique<tt::dmrg::ContractionEngine>());
  solver.run(schedule(32, 4));

  const tt::mps::Mps& psi = solver.psi();
  psi.check_consistency();
  EXPECT_EQ(psi.total_qn(), tt::symm::QN(0));       // charge conserved
  EXPECT_NEAR(tt::mps::overlap(psi, psi), 1.0, 1e-8);  // normalized
  EXPECT_LE(psi.max_bond_dim(), 32);
  // The driver's environment-based energy agrees with a fresh contraction.
  EXPECT_NEAR(solver.energy_expectation(), tt::mps::expectation(psi, h), 1e-7);
  // Sweep records accumulated.
  EXPECT_EQ(solver.records().size(), 4u);
  EXPECT_GT(solver.records().back().wall_seconds, 0.0);
}

TEST(Dmrg, BondDimensionGrowsFromProductState) {
  const int n = 8;
  auto lat = tt::models::chain(n);
  auto sites = tt::models::spin_half_sites(n);
  auto h = tt::models::heisenberg_mpo(sites, lat, 1.0);
  std::vector<int> neel;
  for (int i = 0; i < n; ++i) neel.push_back(i % 2);
  Dmrg solver(tt::mps::Mps::product_state(sites, neel), h,
              std::make_unique<tt::dmrg::ContractionEngine>());
  EXPECT_EQ(solver.psi().max_bond_dim(), 1);
  solver.sweep(schedule(16, 1)[0]);
  EXPECT_GT(solver.psi().max_bond_dim(), 1);
}

TEST(Dmrg, RejectsBadConstruction) {
  auto sites = tt::models::spin_half_sites(4);
  auto lat = tt::models::chain(4);
  auto h = tt::models::heisenberg_mpo(sites, lat, 1.0);
  auto psi = tt::mps::Mps::product_state(sites, {0, 1, 0, 1});
  EXPECT_THROW(Dmrg(psi, h, nullptr), tt::Error);
  // Size mismatch.
  auto sites6 = tt::models::spin_half_sites(6);
  auto psi6 = tt::mps::Mps::product_state(sites6, {0, 1, 0, 1, 0, 1});
  EXPECT_THROW(Dmrg(psi6, h, std::make_unique<tt::dmrg::ContractionEngine>()),
               tt::Error);
}

}  // namespace
