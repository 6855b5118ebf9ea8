#include <gtest/gtest.h>

#include <cmath>

#include "common/mpo_dense.hpp"
#include "models/electron.hpp"
#include "models/heisenberg.hpp"
#include "models/hubbard.hpp"
#include "models/lattice.hpp"
#include "models/spin_half.hpp"
#include "mps/autompo.hpp"

namespace {

using tt::index_t;
using tt::linalg::Matrix;
using tt::mps::AutoMpo;
using tt::mps::Mpo;

// Dense N-site Heisenberg chain Hamiltonian built by explicit Kronecker
// placement — an oracle independent of the MPO machinery.
Matrix dense_heisenberg_chain(int n, double j) {
  const index_t dim = index_t{1} << n;
  Matrix h(dim, dim);
  // basis: bit i (from the left / most significant) = site i; we use
  // state index p = Σ s_i 2^{n-1-i}, s_i = 0 for ↑, 1 for ↓.
  auto spin_of = [&](index_t p, int site) { return (p >> (n - 1 - site)) & 1; };
  for (index_t p = 0; p < dim; ++p) {
    for (int i = 0; i + 1 < n; ++i) {
      const auto si = spin_of(p, i);
      const auto sj = spin_of(p, i + 1);
      const double zi = si == 0 ? 0.5 : -0.5;
      const double zj = sj == 0 ? 0.5 : -0.5;
      h(p, p) += j * zi * zj;
      if (si != sj) {
        const index_t q = p ^ (index_t{1} << (n - 1 - i)) ^ (index_t{1} << (n - 2 - i));
        h(q, p) += 0.5 * j;
      }
    }
  }
  return h;
}

TEST(AutoMpo, HeisenbergChainMatrixElementsExact) {
  const int n = 5;
  auto sites = tt::models::spin_half_sites(n);
  auto lat = tt::models::chain(n);
  Mpo h = tt::models::heisenberg_mpo(sites, lat, 1.0, 0.0, /*rel_cutoff=*/0.0);
  Matrix got = tt::testing::mpo_to_dense_matrix(h);
  Matrix want = dense_heisenberg_chain(n, 1.0);
  EXPECT_LT(tt::linalg::max_abs_diff(got, want), 1e-12);
}

TEST(AutoMpo, CompressionPreservesMatrixElements) {
  const int n = 6;
  auto sites = tt::models::spin_half_sites(n);
  auto lat = tt::models::chain(n);
  Mpo exact = tt::models::heisenberg_mpo(sites, lat, 1.0, 0.0, 0.0);
  Mpo comp = tt::models::heisenberg_mpo(sites, lat, 1.0, 0.0, 1e-13);
  Matrix a = tt::testing::mpo_to_dense_matrix(exact);
  Matrix b = tt::testing::mpo_to_dense_matrix(comp);
  EXPECT_LT(tt::linalg::max_abs_diff(a, b), 1e-9);
}

TEST(AutoMpo, HeisenbergChainCompressesToBondDim5) {
  // The nearest-neighbour Heisenberg chain has the textbook k = 5 MPO; the
  // FSM construction already achieves it (terms cross each bond 3 at a time),
  // and compression must not grow it.
  const int n = 8;
  auto sites = tt::models::spin_half_sites(n);
  auto lat = tt::models::chain(n);
  Mpo exact = tt::models::heisenberg_mpo(sites, lat, 1.0, 0.0, 0.0);
  EXPECT_EQ(exact.max_bond_dim(), 5);
  Mpo comp = tt::models::heisenberg_mpo(sites, lat, 1.0, 0.0, 1e-13);
  EXPECT_EQ(comp.max_bond_dim(), 5);
}

TEST(AutoMpo, CompressionShrinksLongRangeFsm) {
  // On the J1–J2 cylinder many terms cross each bond; the FSM form is far
  // from optimal and compression must shrink it.
  auto lat = tt::models::square_cylinder(4, 3, true);
  auto sites = tt::models::spin_half_sites(lat.num_sites);
  Mpo exact = tt::models::heisenberg_mpo(sites, lat, 1.0, 0.5, 0.0);
  Mpo comp = tt::models::heisenberg_mpo(sites, lat, 1.0, 0.5, 1e-13);
  EXPECT_LT(comp.max_bond_dim(), exact.max_bond_dim());
}

TEST(AutoMpo, J1J2CylinderBondDimGrowsWithCircumference) {
  auto lat4 = tt::models::square_cylinder(4, 2, true);
  auto lat6 = tt::models::square_cylinder(4, 3, true);
  auto s4 = tt::models::spin_half_sites(lat4.num_sites);
  auto s6 = tt::models::spin_half_sites(lat6.num_sites);
  Mpo h4 = tt::models::heisenberg_mpo(s4, lat4, 1.0, 0.5);
  Mpo h6 = tt::models::heisenberg_mpo(s6, lat6, 1.0, 0.5);
  EXPECT_GT(h6.max_bond_dim(), h4.max_bond_dim());
}

TEST(AutoMpo, TwoSiteHubbardMatrixExact) {
  // 2-site Hubbard at t=1, U=4: compare every matrix element against the
  // explicit 16×16 construction in the product basis
  // {|0⟩,|↑⟩,|↓⟩,|↑↓⟩}⊗{...}, site-major JW ordering.
  auto sites = tt::models::electron_sites(2);
  auto lat = tt::models::chain(2);
  Mpo h = tt::models::hubbard_mpo(sites, lat, 1.0, 4.0, 0.0);
  Matrix got = tt::testing::mpo_to_dense_matrix(h);

  Matrix want(16, 16);
  // Diagonal U terms: states with a doubly-occupied site.
  for (index_t p = 0; p < 16; ++p) {
    const index_t s0 = p / 4, s1 = p % 4;
    want(p, p) += 4.0 * ((s0 == 3 ? 1 : 0) + (s1 == 3 ? 1 : 0));
  }
  // Hopping −t for each spin; signs from the JW ordering (1↑,1↓,2↑,2↓).
  // Enumerate with a tiny fermionic calculator: represent each product state
  // as 4 mode bits (m0=1↑, m1=1↓, m2=2↑, m3=2↓).
  auto state_bits = [](index_t s) {  // site state -> (up,dn)
    return std::pair<int, int>{(s == 1 || s == 3) ? 1 : 0, (s == 2 || s == 3) ? 1 : 0};
  };
  auto bits_state = [](int up, int dn) { return up && dn ? 3 : up ? 1 : dn ? 2 : 0; };
  for (index_t p = 0; p < 16; ++p) {
    const auto [u0, d0] = state_bits(p / 4);
    const auto [u1, d1] = state_bits(p % 4);
    int bits[4] = {u0, d0, u1, d1};
    // c†_a c_b with (a,b) mode pairs for up: (0,2),(2,0); dn: (1,3),(3,1).
    for (auto [a, b] : {std::pair<int, int>{0, 2}, {2, 0}, {1, 3}, {3, 1}}) {
      if (!bits[b] || bits[a]) continue;
      int sgn = 0;
      for (int m = 0; m < b; ++m) sgn += bits[m];
      int nb[4] = {bits[0], bits[1], bits[2], bits[3]};
      nb[b] = 0;
      for (int m = 0; m < a; ++m) sgn += nb[m];
      nb[a] = 1;
      const index_t q = bits_state(nb[0], nb[1]) * 4 + bits_state(nb[2], nb[3]);
      want(q, p) += (sgn % 2 ? 1.0 : -1.0);  // amplitude −t·(−1)^sgn, t = 1
    }
  }
  EXPECT_LT(tt::linalg::max_abs_diff(got, want), 1e-12);
}

TEST(AutoMpo, HubbardMpoIsSymmetric) {
  auto sites = tt::models::electron_sites(3);
  auto lat = tt::models::chain(3);
  Mpo h = tt::models::hubbard_mpo(sites, lat, 1.0, 8.5);
  Matrix m = tt::testing::mpo_to_dense_matrix(h);
  EXPECT_LT(tt::linalg::max_abs_diff(m, m.transposed()), 1e-10);
}

TEST(AutoMpo, FermionReorderingSign) {
  // Adding the h.c. partner in swapped factor order must produce the same
  // symmetric Hamiltonian (sign bookkeeping check).
  auto sites = tt::models::electron_sites(2);
  AutoMpo a(sites);
  a.add(-1.0, "Cdagup", 0, "Cup", 1);
  a.add(-1.0, "Cdagup", 1, "Cup", 0);  // sorted internally; sign applied
  Matrix m = tt::testing::mpo_to_dense_matrix(a.to_mpo(0.0));
  EXPECT_LT(tt::linalg::max_abs_diff(m, m.transposed()), 1e-13);
  // ⟨↑0|H|0↑⟩ = −t: states p=|↑⟩|0⟩ = 4·1, q=|0⟩|↑⟩ = 1.
  EXPECT_NEAR(m(4, 1), -1.0, 1e-13);
}

TEST(AutoMpo, LongRangeHoppingGetsJWString) {
  // Hopping across a middle site must insert the parity string: the sign of
  // the matrix element depends on the middle-site occupation.
  auto sites = tt::models::electron_sites(3);
  AutoMpo a(sites);
  a.add(-1.0, "Cdagup", 0, "Cup", 2);
  a.add(-1.0, "Cdagup", 2, "Cup", 0);
  Matrix m = tt::testing::mpo_to_dense_matrix(a.to_mpo(0.0));
  // |0, 0, ↑⟩ (p = 0*16+0*4+1 = 1) -> |↑,0,0⟩ (q = 16): middle empty: −t.
  EXPECT_NEAR(m(16, 1), -1.0, 1e-13);
  // Middle ↑-occupied: |0,↑,↑⟩ (p = 0*16+1*4+1 = 5) -> |↑,↑,0⟩ (q = 20): +t.
  EXPECT_NEAR(m(20, 5), +1.0, 1e-13);
  // Middle doubly-occupied: parity even again: −t. p = 0*16+3*4+1 = 13.
  EXPECT_NEAR(m(16 + 12, 13), -1.0, 1e-13);
}

TEST(AutoMpo, OnSiteProductsMerge) {
  // Two factors on the same site multiply: Sz·Sz = Id/4 for spin-1/2.
  auto sites = tt::models::spin_half_sites(2);
  AutoMpo a(sites);
  a.add(4.0, "Sz", 0, "Sz", 0);
  a.add(0.0, "Sz", 1);  // dropped
  Matrix m = tt::testing::mpo_to_dense_matrix(a.to_mpo(0.0));
  EXPECT_LT(tt::linalg::max_abs_diff(m, Matrix::identity(4)), 1e-13);
}

TEST(AutoMpo, RejectsInvalidTerms) {
  auto sites = tt::models::spin_half_sites(3);
  AutoMpo a(sites);
  a.add(1.0, "S+", 0, "S+", 1);  // raises total charge by 4
  EXPECT_THROW(a.to_mpo(0.0), tt::Error);
  AutoMpo b(sites);
  b.add(1.0, "Sz", 7);  // out of range
  EXPECT_THROW(b.to_mpo(0.0), tt::Error);
  AutoMpo c(sites);
  EXPECT_THROW(c.to_mpo(0.0), tt::Error);  // no terms
  auto esites = tt::models::electron_sites(3);
  AutoMpo d(esites);
  d.add(1.0, "Cdagup", 0, "Nup", 1);  // odd fermion parity (and charged)
  EXPECT_THROW(d.to_mpo(0.0), tt::Error);
}

TEST(Mpo, ConsistencyCheckedOnConstruction) {
  auto sites = tt::models::spin_half_sites(4);
  auto lat = tt::models::chain(4);
  Mpo h = tt::models::heisenberg_mpo(sites, lat, 1.0);
  EXPECT_NO_THROW(h.check_consistency());
  EXPECT_EQ(h.size(), 4);
  EXPECT_EQ(h.bond_dims().size(), 3u);
}

TEST(Mpo, HubbardCompressionShrinksKSubstantially) {
  // Paper §VI.B: MPO compression matters for electrons. The triangular
  // cylinder MPO must compress well below its FSM size.
  auto lat = tt::models::triangular_cylinder(4, 3);
  auto sites = tt::models::electron_sites(lat.num_sites);
  Mpo exact = tt::models::hubbard_mpo(sites, lat, 1.0, 8.5, 0.0);
  Mpo comp = tt::models::hubbard_mpo(sites, lat, 1.0, 8.5, 1e-13);
  EXPECT_LT(comp.max_bond_dim(), exact.max_bond_dim() / 2);
}

}  // namespace
