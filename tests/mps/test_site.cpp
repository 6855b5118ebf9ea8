#include <gtest/gtest.h>

#include "linalg/gemm.hpp"
#include "models/electron.hpp"
#include "models/spin_half.hpp"
#include "support/error.hpp"

namespace {

using tt::linalg::Matrix;
using tt::linalg::matmul;
using tt::linalg::max_abs_diff;
using tt::mps::LocalOp;

TEST(SpinHalfSites, BasicStructure) {
  auto s = tt::models::spin_half_sites(4);
  EXPECT_EQ(s->size(), 4);
  EXPECT_EQ(s->phys().dim(), 2);
  EXPECT_EQ(s->qn_rank(), 1);
  EXPECT_TRUE(s->has_op("Sz"));
  EXPECT_TRUE(s->has_op("Id"));
  EXPECT_FALSE(s->has_op("Sx"));  // violates U(1); deliberately absent
  EXPECT_THROW(s->op("Sx"), tt::Error);
}

TEST(SpinHalfSites, StateCharges) {
  auto s = tt::models::spin_half_sites(2);
  auto charge = [&](tt::index_t p) { return s->phys().sector(s->sector_of_state(p)).qn; };
  EXPECT_EQ(charge(0), tt::symm::QN(1));   // ↑
  EXPECT_EQ(charge(1), tt::symm::QN(-1));  // ↓
  EXPECT_THROW(s->sector_of_state(2), tt::Error);
}

TEST(SpinHalfSites, SpinAlgebra) {
  auto s = tt::models::spin_half_sites(2);
  const Matrix& sp = s->op("S+").mat;
  const Matrix& sm = s->op("S-").mat;
  const Matrix& sz = s->op("Sz").mat;
  // [S+, S-] = 2 Sz
  Matrix comm = matmul(sp, sm);
  comm -= matmul(sm, sp);
  Matrix two_sz = sz;
  two_sz *= 2.0;
  EXPECT_LT(max_abs_diff(comm, two_sz), 1e-14);
  // [Sz, S+] = +S+
  Matrix comm2 = matmul(sz, sp);
  comm2 -= matmul(sp, sz);
  EXPECT_LT(max_abs_diff(comm2, sp), 1e-14);
  // Casimir: Sz² + (S+S- + S-S+)/2 = 3/4.
  Matrix casimir = matmul(sz, sz);
  Matrix pm = matmul(sp, sm);
  pm += matmul(sm, sp);
  pm *= 0.5;
  casimir += pm;
  Matrix expect(2, 2);
  expect(0, 0) = expect(1, 1) = 0.75;
  EXPECT_LT(max_abs_diff(casimir, expect), 1e-14);
}

TEST(ElectronSites, BasicStructure) {
  auto s = tt::models::electron_sites(3);
  EXPECT_EQ(s->phys().dim(), 4);
  EXPECT_EQ(s->qn_rank(), 2);
  for (const char* op : {"Cup", "Cdn", "Cdagup", "Cdagdn"})
    EXPECT_TRUE(s->op(op).fermionic) << op;
  for (const char* op : {"Nup", "Ndn", "F", "Id", "Sz"})
    EXPECT_FALSE(s->op(op).fermionic) << op;
}

TEST(ElectronSites, NumberOperatorsFromLadders) {
  auto s = tt::models::electron_sites(2);
  // c†σ cσ = nσ
  Matrix nup = matmul(s->op("Cdagup").mat, s->op("Cup").mat);
  EXPECT_LT(max_abs_diff(nup, s->op("Nup").mat), 1e-14);
  Matrix ndn = matmul(s->op("Cdagdn").mat, s->op("Cdn").mat);
  EXPECT_LT(max_abs_diff(ndn, s->op("Ndn").mat), 1e-14);
}

TEST(ElectronSites, OnSiteAnticommutation) {
  auto s = tt::models::electron_sites(2);
  // {cσ, c†σ} = 1 on site.
  for (const char* pair : {"up", "dn"}) {
    const std::string c = std::string("C") + pair;
    const std::string cd = std::string("Cdag") + pair;
    Matrix anti = matmul(s->op(c).mat, s->op(cd).mat);
    anti += matmul(s->op(cd).mat, s->op(c).mat);
    EXPECT_LT(max_abs_diff(anti, s->op("Id").mat), 1e-14) << pair;
  }
  // {c↑, c↓} = 0 and {c↑, c†↓} = 0 with the intra-site string in Cdn.
  Matrix a1 = matmul(s->op("Cup").mat, s->op("Cdn").mat);
  a1 += matmul(s->op("Cdn").mat, s->op("Cup").mat);
  EXPECT_LT(a1.max_abs(), 1e-14);
  Matrix a2 = matmul(s->op("Cup").mat, s->op("Cdagdn").mat);
  a2 += matmul(s->op("Cdagdn").mat, s->op("Cup").mat);
  EXPECT_LT(a2.max_abs(), 1e-14);
}

TEST(ElectronSites, ParityAnticommutesWithLadders) {
  auto s = tt::models::electron_sites(2);
  for (const char* name : {"Cup", "Cdn", "Cdagup", "Cdagdn"}) {
    Matrix fc = matmul(s->op("F").mat, s->op(name).mat);
    Matrix cf = matmul(s->op(name).mat, s->op("F").mat);
    fc += cf;
    EXPECT_LT(fc.max_abs(), 1e-14) << name;  // {F, c} = 0
  }
}

TEST(SiteSet, MultiplyComposesFluxAndParity) {
  auto s = tt::models::electron_sites(2);
  LocalOp prod = s->multiply(s->op("Cdagup"), s->op("Cup"));
  EXPECT_TRUE(prod.flux.is_zero());
  EXPECT_FALSE(prod.fermionic);
  LocalOp odd = s->multiply(s->op("Cdagup"), s->op("Nup"));
  EXPECT_TRUE(odd.fermionic);
  EXPECT_EQ(odd.flux, tt::symm::QN(1, 1));
}

TEST(SiteSet, RejectsFluxViolatingOperator) {
  // An operator whose matrix does not match its declared flux must be caught.
  using tt::symm::Dir;
  using tt::symm::Index;
  using tt::symm::QN;
  Index phys({{QN(1), 1}, {QN(-1), 1}}, Dir::In);
  Matrix bad(2, 2);
  bad(0, 1) = 1.0;  // raises charge by 2
  std::map<std::string, LocalOp> ops;
  ops["Bad"] = {bad, QN(0), false};  // declared neutral — wrong
  EXPECT_THROW(tt::mps::SiteSet(2, phys, std::move(ops)), tt::Error);
}

}  // namespace
