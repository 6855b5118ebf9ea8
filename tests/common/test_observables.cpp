#include <gtest/gtest.h>

#include <cmath>

#include "dmrg/dmrg.hpp"
#include "ed/ed.hpp"
#include "models/electron.hpp"
#include "models/heisenberg.hpp"
#include "models/hubbard.hpp"
#include "models/lattice.hpp"
#include "models/spin_half.hpp"
#include "common/observables.hpp"

namespace {

using tt::mps::Mps;
using tt::symm::QN;

// Ground state of the N-site Heisenberg chain via DMRG (tested elsewhere).
Mps heisenberg_ground(int n, tt::index_t m = 48) {
  auto sites = tt::models::spin_half_sites(n);
  auto lat = tt::models::chain(n);
  auto h = tt::models::heisenberg_mpo(sites, lat, 1.0);
  std::vector<int> neel;
  for (int i = 0; i < n; ++i) neel.push_back(i % 2);
  tt::dmrg::Dmrg solver(Mps::product_state(sites, neel), h,
                        std::make_unique<tt::dmrg::ContractionEngine>());
  tt::dmrg::SweepParams p;
  p.max_m = m;
  p.davidson_iter = 4;
  p.davidson_subspace = 3;
  for (int s = 0; s < 6; ++s) solver.sweep(p);
  return solver.psi();
}

TEST(Correlation, TwoSiteSingletExactValues) {
  // Singlet (|↑↓⟩−|↓↑⟩)/√2: ⟨Sz_0 Sz_1⟩ = −1/4, ⟨S+_0 S-_1⟩ = −1/2.
  Mps psi = heisenberg_ground(2, 4);
  EXPECT_NEAR(tt::testing::correlation(psi, "Sz", 0, "Sz", 1), -0.25, 1e-9);
  EXPECT_NEAR(tt::testing::correlation(psi, "S+", 0, "S-", 1), -0.5, 1e-9);
  EXPECT_NEAR(tt::testing::correlation(psi, "S-", 0, "S+", 1), -0.5, 1e-9);
}

TEST(Correlation, SumOfBondCorrelatorsGivesEnergy) {
  // H = Σ SzSz + (S+S- + S-S+)/2: the bond correlators must sum to E.
  const int n = 8;
  Mps psi = heisenberg_ground(n);
  auto sites = psi.sites();
  auto lat = tt::models::chain(n);
  double e = 0.0;
  for (int i = 0; i + 1 < n; ++i) {
    e += tt::testing::correlation(psi, "Sz", i, "Sz", i + 1);
    e += 0.5 * tt::testing::correlation(psi, "S+", i, "S-", i + 1);
    e += 0.5 * tt::testing::correlation(psi, "S-", i, "S+", i + 1);
  }
  const double e_ed = tt::ed::heisenberg_ground_energy(lat, 1.0, 0.0, 0);
  EXPECT_NEAR(e, e_ed, 1e-6);
}

TEST(Correlation, OrderIndependentForCommutingOps) {
  Mps psi = heisenberg_ground(6);
  EXPECT_NEAR(tt::testing::correlation(psi, "Sz", 1, "Sz", 4),
              tt::testing::correlation(psi, "Sz", 4, "Sz", 1), 1e-10);
}

TEST(Correlation, AntiferromagneticSignStructure) {
  // Heisenberg ground state: ⟨Sz_i Sz_j⟩ alternates in sign with |i−j|.
  Mps psi = heisenberg_ground(8);
  const double c1 = tt::testing::correlation(psi, "Sz", 3, "Sz", 4);
  const double c2 = tt::testing::correlation(psi, "Sz", 3, "Sz", 5);
  EXPECT_LT(c1, 0.0);
  EXPECT_GT(c2, 0.0);
  EXPECT_GT(std::abs(c1), std::abs(c2));
}

TEST(Correlation, ProductStateFactorizes) {
  auto sites = tt::models::spin_half_sites(4);
  Mps neel = Mps::product_state(sites, {0, 1, 0, 1});
  EXPECT_NEAR(tt::testing::correlation(neel, "Sz", 0, "Sz", 1), -0.25, 1e-12);
  EXPECT_NEAR(tt::testing::connected_correlation(neel, "Sz", 0, "Sz", 1), 0.0, 1e-12);
}

TEST(Correlation, ChargedPairRequiresCancellingFluxes) {
  auto sites = tt::models::spin_half_sites(4);
  Mps neel = Mps::product_state(sites, {0, 1, 0, 1});
  EXPECT_THROW(tt::testing::correlation(neel, "S+", 0, "S+", 2), tt::Error);
  EXPECT_THROW(tt::testing::correlation(neel, "Sz", 1, "Sz", 1), tt::Error);  // i == j
}

TEST(Correlation, FermionHoppingMatchesFreeFermions) {
  // U = 0 Hubbard chain: ⟨c†_{iσ} c_{jσ}⟩ from the filled Fermi sea,
  // Σ_{k occ} φ_k(i)φ_k(j) with φ_k(i) = √(2/(N+1))·sin(kπ(i+1)/(N+1)).
  const int n = 4;
  auto sites = tt::models::electron_sites(n);
  auto lat = tt::models::chain(n);
  auto h = tt::models::hubbard_mpo(sites, lat, 1.0, 0.0);
  tt::dmrg::Dmrg solver(Mps::product_state(sites, {1, 2, 1, 2}), h,
                        std::make_unique<tt::dmrg::ContractionEngine>());
  tt::dmrg::SweepParams p;
  p.max_m = 64;
  p.davidson_iter = 6;
  p.davidson_subspace = 4;
  for (int s = 0; s < 10; ++s) solver.sweep(p);
  const Mps& psi = solver.psi();

  auto phi = [&](int k, int i) {
    return std::sqrt(2.0 / (n + 1)) * std::sin(M_PI * k * (i + 1) / (n + 1));
  };
  // Half filling: the two lowest ↑ levels are occupied,
  // ⟨c†_{i↑}c_{j↑}⟩ = Σ_{k=1,2} φ_k(i)φ_k(j).
  auto sea = [&](int i, int j) { return phi(1, i) * phi(1, j) + phi(2, i) * phi(2, j); };
  // Distance 1 (no string sites).
  EXPECT_NEAR(tt::testing::correlation(psi, "Cdagup", 0, "Cup", 1), sea(0, 1), 1e-5);
  // Distance 2 vanishes by momentum cancellation — a sign-sensitive zero.
  EXPECT_NEAR(tt::testing::correlation(psi, "Cdagup", 0, "Cup", 2), sea(0, 2), 1e-5);
  EXPECT_NEAR(sea(0, 2), 0.0, 1e-12);
  // Distance 3 crosses two string sites and is negative.
  const double got3 = tt::testing::correlation(psi, "Cdagup", 0, "Cup", 3);
  EXPECT_NEAR(got3, sea(0, 3), 1e-5);
  EXPECT_LT(got3, 0.0);
  // Hermiticity of the hopping correlator.
  EXPECT_NEAR(tt::testing::correlation(psi, "Cdagup", 3, "Cup", 0), got3, 1e-6);
}

TEST(Entanglement, ProductStateHasZeroEntropy) {
  auto sites = tt::models::spin_half_sites(6);
  Mps neel = Mps::product_state(sites, {0, 1, 0, 1, 0, 1});
  for (int b = 0; b + 1 < 6; ++b)
    EXPECT_NEAR(tt::testing::entanglement_entropy(neel, b), 0.0, 1e-12);
}

TEST(Entanglement, SingletHasLn2) {
  Mps psi = heisenberg_ground(2, 4);
  EXPECT_NEAR(tt::testing::entanglement_entropy(psi, 0), std::log(2.0), 1e-8);
}

TEST(Entanglement, SpectrumNormalizedAndSorted) {
  Mps psi = heisenberg_ground(8);
  auto spec = tt::testing::entanglement_spectrum(psi, 3);
  double total = 0.0;
  for (std::size_t i = 0; i < spec.size(); ++i) {
    if (i) {
      EXPECT_LE(spec[i], spec[i - 1] + 1e-12);
    }
    total += spec[i] * spec[i];
  }
  EXPECT_NEAR(total, 1.0, 1e-8);  // normalized state
}

TEST(Entanglement, MidChainLargestForCriticalChain) {
  // The Heisenberg chain is critical: entropy peaks at the center bond.
  Mps psi = heisenberg_ground(10);
  const double mid = tt::testing::entanglement_entropy(psi, 4);
  const double edge = tt::testing::entanglement_entropy(psi, 0);
  EXPECT_GT(mid, edge);
}

TEST(Entanglement, BondRangeChecked) {
  auto sites = tt::models::spin_half_sites(4);
  Mps neel = Mps::product_state(sites, {0, 1, 0, 1});
  EXPECT_THROW(tt::testing::entanglement_entropy(neel, 3), tt::Error);
  EXPECT_THROW(tt::testing::entanglement_entropy(neel, -1), tt::Error);
}

}  // namespace
