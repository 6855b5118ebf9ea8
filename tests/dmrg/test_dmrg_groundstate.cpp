#include <gtest/gtest.h>

#include <cmath>

#include "dmrg/dmrg.hpp"
#include "ed/ed.hpp"
#include "models/electron.hpp"
#include "models/heisenberg.hpp"
#include "models/hubbard.hpp"
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

TEST(DmrgGroundState, HeisenbergChainMatchesEd) {
  const int n = 8;
  auto lat = tt::models::chain(n);
  auto sites = tt::models::spin_half_sites(n);
  auto h = tt::models::heisenberg_mpo(sites, lat, 1.0);
  std::vector<int> neel;
  for (int i = 0; i < n; ++i) neel.push_back(i % 2);
  Dmrg solver(tt::mps::Mps::product_state(sites, neel), h,
              std::make_unique<tt::dmrg::ContractionEngine>());
  const double e = solver.run(schedule(32, 6));
  const double e_ed = tt::ed::heisenberg_ground_energy(lat, 1.0, 0.0, 0);
  EXPECT_NEAR(e, e_ed, 1e-8);
}

TEST(DmrgGroundState, J1J2CylinderMatchesEd) {
  // The paper's spins workload, shrunk to an ED-verifiable 4x2 cylinder.
  auto lat = tt::models::square_cylinder(4, 2, true);
  auto sites = tt::models::spin_half_sites(lat.num_sites);
  auto h = tt::models::heisenberg_mpo(sites, lat, 1.0, 0.5);
  std::vector<int> neel;
  for (int x = 0; x < 4; ++x)
    for (int y = 0; y < 2; ++y) neel.push_back((x + y) % 2);
  Dmrg solver(tt::mps::Mps::product_state(sites, neel), h,
              std::make_unique<tt::dmrg::ContractionEngine>());
  const double e = solver.run(schedule(48, 8));
  const double e_ed = tt::ed::heisenberg_ground_energy(lat, 1.0, 0.5, 0);
  EXPECT_NEAR(e, e_ed, 1e-7);
}

TEST(DmrgGroundState, HubbardChainMatchesEd) {
  const int n = 4;
  auto lat = tt::models::chain(n);
  auto sites = tt::models::electron_sites(n);
  auto h = tt::models::hubbard_mpo(sites, lat, 1.0, 8.5);
  Dmrg solver(tt::mps::Mps::product_state(sites, {1, 2, 1, 2}), h,
              std::make_unique<tt::dmrg::ContractionEngine>());
  // Strong-U Hubbard converges slowly out of the Néel-like product state:
  // give Davidson a deeper subspace than the paper's production setting.
  const double e = solver.run(schedule(40, 14, 8, 4));
  const double e_ed = tt::ed::hubbard_ground_energy(lat, 1.0, 8.5, 2, 2);
  EXPECT_NEAR(e, e_ed, 1e-7);
}

TEST(DmrgGroundState, TriangularHubbardMatchesEd) {
  // The paper's electrons workload, shrunk to a 3x2 triangular cylinder.
  auto lat = tt::models::triangular_cylinder(3, 2);
  auto sites = tt::models::electron_sites(lat.num_sites);
  auto h = tt::models::hubbard_mpo(sites, lat, 1.0, 8.5);
  Dmrg solver(tt::mps::Mps::product_state(sites, {1, 2, 1, 2, 1, 2}), h,
              std::make_unique<tt::dmrg::ContractionEngine>());
  const double e = solver.run(schedule(64, 14, 8, 4));
  const double e_ed = tt::ed::hubbard_ground_energy(lat, 1.0, 8.5, 3, 3);
  EXPECT_NEAR(e, e_ed, 1e-6);
}

TEST(DmrgGroundState, HubbardFreeFermionLimit) {
  // U = 0: exact band energy, a qualitatively different regime.
  const int n = 6;
  auto lat = tt::models::chain(n);
  auto sites = tt::models::electron_sites(n);
  auto h = tt::models::hubbard_mpo(sites, lat, 1.0, 0.0);
  Dmrg solver(tt::mps::Mps::product_state(sites, {1, 2, 1, 2, 1, 2}), h,
              std::make_unique<tt::dmrg::ContractionEngine>());
  const double e = solver.run(schedule(48, 8));
  double want = 0.0;
  for (int k = 1; k <= 3; ++k) want += 2.0 * -2.0 * std::cos(M_PI * k / (n + 1.0));
  EXPECT_NEAR(e, want, 1e-6);
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

TEST(Dmrg, StandardScheduleShape) {
  auto sched = tt::dmrg::standard_schedule(8, 64, 2);
  // m: 8,8,16,16,32,32,64,64.
  ASSERT_EQ(sched.size(), 8u);
  EXPECT_EQ(sched.front().max_m, 8);
  EXPECT_EQ(sched.back().max_m, 64);
  EXPECT_THROW(tt::dmrg::standard_schedule(0, 8), tt::Error);
  EXPECT_THROW(tt::dmrg::standard_schedule(8, 4), tt::Error);
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
