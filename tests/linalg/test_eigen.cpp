#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "linalg/eigen.hpp"
#include "linalg/gemm.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace {

using tt::Rng;
using tt::index_t;
using tt::linalg::Matrix;

Matrix random_symmetric(index_t n, unsigned seed) {
  Rng rng(seed);
  Matrix a = Matrix::random(n, n, rng);
  Matrix s(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) s(i, j) = 0.5 * (a(i, j) + a(j, i));
  return s;
}

class EighParam : public ::testing::TestWithParam<index_t> {};

TEST_P(EighParam, DiagonalizesSymmetricMatrix) {
  const index_t n = GetParam();
  Matrix a = random_symmetric(n, static_cast<unsigned>(n) * 7 + 1);
  auto e = tt::linalg::eigh(a);
  // A·V = V·diag(w)
  Matrix av = tt::linalg::matmul(a, e.vectors);
  Matrix vd = e.vectors;
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) vd(i, j) *= e.values[static_cast<std::size_t>(j)];
  EXPECT_LT(tt::linalg::max_abs_diff(av, vd), 1e-9 * (1.0 + a.max_abs()));
}

TEST_P(EighParam, EigenvectorsOrthonormal) {
  const index_t n = GetParam();
  Matrix a = random_symmetric(n, static_cast<unsigned>(n) * 11 + 3);
  auto e = tt::linalg::eigh(a);
  Matrix vtv = tt::linalg::matmul(true, false, e.vectors, e.vectors);
  EXPECT_LT(tt::linalg::max_abs_diff(vtv, Matrix::identity(n)), 1e-10);
}

TEST_P(EighParam, EigenvaluesAscending) {
  const index_t n = GetParam();
  Matrix a = random_symmetric(n, static_cast<unsigned>(n) * 13 + 5);
  auto e = tt::linalg::eigh(a);
  for (std::size_t i = 0; i + 1 < e.values.size(); ++i)
    EXPECT_LE(e.values[i], e.values[i + 1] + 1e-12);
}

TEST_P(EighParam, TraceEqualsSumOfEigenvalues) {
  const index_t n = GetParam();
  Matrix a = random_symmetric(n, static_cast<unsigned>(n) * 17 + 7);
  auto e = tt::linalg::eigh(a);
  double tr = 0.0, sum = 0.0;
  for (index_t i = 0; i < n; ++i) tr += a(i, i);
  for (double w : e.values) sum += w;
  EXPECT_NEAR(tr, sum, 1e-9 * (1.0 + std::abs(tr)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EighParam,
                         ::testing::Values<index_t>(1, 2, 3, 5, 8, 16, 33, 64));

TEST(Eigh, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 2;
  auto e = tt::linalg::eigh(a);
  EXPECT_NEAR(e.values[0], 1.0, 1e-12);
  EXPECT_NEAR(e.values[1], 3.0, 1e-12);
}

TEST(Eigh, DiagonalInput) {
  Matrix a(3, 3);
  a(0, 0) = 5;
  a(1, 1) = -2;
  a(2, 2) = 0.5;
  auto e = tt::linalg::eigh(a);
  EXPECT_NEAR(e.values[0], -2.0, 1e-13);
  EXPECT_NEAR(e.values[1], 0.5, 1e-13);
  EXPECT_NEAR(e.values[2], 5.0, 1e-13);
}

TEST(Eigh, RejectsNonSquare) {
  Matrix a(2, 3);
  EXPECT_THROW(tt::linalg::eigh(a), tt::Error);
}

TEST(Eigh, RejectsAsymmetric) {
  Matrix a(2, 2);
  a(0, 1) = 1.0;
  a(1, 0) = -1.0;
  EXPECT_THROW(tt::linalg::eigh(a), tt::Error);
}

TEST(Eigh, RejectsNonFiniteInput) {
  // Finiteness is checked before symmetry: an infinite symmetric pair must be
  // named as such, not reported as asymmetry (inf - inf is NaN).
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    Matrix diag = Matrix::identity(2);
    diag(0, 0) = bad;
    Matrix offdiag = Matrix::identity(3);
    offdiag(1, 2) = bad;
    offdiag(2, 1) = bad;
    const std::pair<Matrix, const char*> cases[] = {{diag, "(0, 0)"},
                                                    {offdiag, "(1, 2)"}};
    for (const auto& [a, where] : cases) {
      try {
        tt::linalg::eigh(a);
        ADD_FAILURE() << "eigh accepted " << bad << " at " << where;
      } catch (const tt::Error& err) {
        // The message names the first bad entry.
        EXPECT_NE(std::string(err.what()).find(where), std::string::npos) << err.what();
      }
    }
  }
}

TEST(Eigh, NegativeDefinite) {
  Matrix a(2, 2);
  a(0, 0) = -4;
  a(1, 1) = -9;
  auto e = tt::linalg::eigh(a);
  EXPECT_NEAR(e.values[0], -9.0, 1e-12);
  EXPECT_NEAR(e.values[1], -4.0, 1e-12);
}

}  // namespace
