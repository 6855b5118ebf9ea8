#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "linalg/eigen.hpp"
#include "linalg/gemm.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace {

using tt::Rng;
using tt::index_t;
using tt::linalg::Matrix;

class SvdParam : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(SvdParam, ReconstructsInput) {
  auto [m, n] = GetParam();
  Rng rng(m * 101 + n);
  Matrix a = Matrix::random(m, n, rng);
  auto f = tt::linalg::svd(a);
  EXPECT_LT(tt::linalg::max_abs_diff(f.reconstruct(), a), 1e-9 * (1.0 + a.max_abs()));
}

TEST_P(SvdParam, FactorsOrthonormal) {
  auto [m, n] = GetParam();
  Rng rng(m * 103 + n);
  Matrix a = Matrix::random(m, n, rng);
  auto f = tt::linalg::svd(a);
  Matrix utu = tt::linalg::matmul(true, false, f.u, f.u);
  Matrix vvt = tt::linalg::matmul(false, true, f.vt, f.vt);
  EXPECT_LT(tt::linalg::max_abs_diff(utu, Matrix::identity(utu.rows())), 1e-10);
  EXPECT_LT(tt::linalg::max_abs_diff(vvt, Matrix::identity(vvt.rows())), 1e-10);
}

TEST_P(SvdParam, SingularValuesSortedNonNegative) {
  auto [m, n] = GetParam();
  Rng rng(m * 107 + n);
  Matrix a = Matrix::random(m, n, rng);
  auto f = tt::linalg::svd(a);
  EXPECT_EQ(static_cast<index_t>(f.s.size()), std::min(m, n));
  for (std::size_t i = 0; i + 1 < f.s.size(); ++i) EXPECT_GE(f.s[i], f.s[i + 1]);
  for (double s : f.s) EXPECT_GE(s, 0.0);
}

TEST_P(SvdParam, MatchesEigenvaluesOfGramMatrix) {
  auto [m, n] = GetParam();
  if (m * n > 64 * 64) GTEST_SKIP() << "gram oracle only for small shapes";
  Rng rng(m * 109 + n);
  Matrix a = Matrix::random(m, n, rng);
  auto f = tt::linalg::svd(a);
  Matrix gram = tt::linalg::matmul(true, false, a, a);  // n×n
  auto e = tt::linalg::eigh(gram);
  // eigh ascending; singular values descending.
  const index_t r = std::min(m, n);
  for (index_t i = 0; i < r; ++i) {
    const double lambda = e.values[static_cast<std::size_t>(n - 1 - i)];
    EXPECT_NEAR(f.s[static_cast<std::size_t>(i)], std::sqrt(std::max(0.0, lambda)),
                1e-8 * (1.0 + std::abs(lambda)));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdParam,
                         ::testing::Values(std::make_pair<index_t, index_t>(1, 1),
                                           std::make_pair<index_t, index_t>(4, 4),
                                           std::make_pair<index_t, index_t>(16, 16),
                                           std::make_pair<index_t, index_t>(40, 12),
                                           std::make_pair<index_t, index_t>(12, 40),
                                           std::make_pair<index_t, index_t>(100, 100),
                                           std::make_pair<index_t, index_t>(200, 50),
                                           std::make_pair<index_t, index_t>(50, 200),
                                           std::make_pair<index_t, index_t>(1, 60),
                                           std::make_pair<index_t, index_t>(60, 1)));

TEST(Svd, ExactRankDeficiency) {
  Rng rng(3);
  Matrix x = Matrix::random(20, 3, rng);
  Matrix y = Matrix::random(3, 15, rng);
  Matrix a = tt::linalg::matmul(x, y);  // rank 3
  auto f = tt::linalg::svd(a);
  for (std::size_t i = 3; i < f.s.size(); ++i) EXPECT_LT(f.s[i], 1e-9);
  // U must stay orthonormal even in the null space.
  Matrix utu = tt::linalg::matmul(true, false, f.u, f.u);
  EXPECT_LT(tt::linalg::max_abs_diff(utu, Matrix::identity(15)), 1e-8);
  EXPECT_LT(tt::linalg::max_abs_diff(f.reconstruct(), a), 1e-9);
}

TEST(Svd, ZeroMatrix) {
  Matrix a(8, 5, 0.0);
  auto f = tt::linalg::svd(a);
  for (double s : f.s) EXPECT_DOUBLE_EQ(s, 0.0);
  Matrix utu = tt::linalg::matmul(true, false, f.u, f.u);
  EXPECT_LT(tt::linalg::max_abs_diff(utu, Matrix::identity(5)), 1e-8);
}

TEST(Svd, DiagonalMatrixExact) {
  Matrix a(3, 3);
  a(0, 0) = 3.0;
  a(1, 1) = 7.0;
  a(2, 2) = 1.0;
  auto f = tt::linalg::svd(a);
  EXPECT_NEAR(f.s[0], 7.0, 1e-12);
  EXPECT_NEAR(f.s[1], 3.0, 1e-12);
  EXPECT_NEAR(f.s[2], 1.0, 1e-12);
}

TEST(Svd, EmptyMatrix) {
  Matrix a(0, 4);
  auto f = tt::linalg::svd(a);
  EXPECT_TRUE(f.s.empty());
  EXPECT_EQ(f.u.rows(), 0);
  EXPECT_EQ(f.vt.cols(), 4);
}

TEST(Svd, HugeDynamicRange) {
  // Singular values spanning 12 orders of magnitude keep their relative accuracy.
  Matrix a(3, 3);
  a(0, 0) = 1e6;
  a(1, 1) = 1.0;
  a(2, 2) = 1e-6;
  auto f = tt::linalg::svd(a);
  EXPECT_NEAR(f.s[0], 1e6, 1e-4);
  EXPECT_NEAR(f.s[1], 1.0, 1e-10);
  EXPECT_NEAR(f.s[2], 1e-6, 1e-14);
}

TEST(Svd, SubnormalColumnNormsDoNotDivideByZero) {
  // Column norms around 1e-100 square to ~1e-200 each; their PRODUCT
  // (aii*ajj ~ 1e-400) underflows double entirely. The Jacobi convergence
  // test used to divide |aij| by sqrt(aii*ajj) == 0 — a float division by
  // zero (NaN when the columns happen to be orthogonal) caught by the ubsan
  // preset. The factorization must stay finite and exact instead.
  Matrix a(3, 3);
  a(0, 0) = 3e-100;
  a(0, 1) = 4e-100;
  a(1, 0) = -4e-100;
  a(1, 1) = 3e-100;
  a(2, 2) = 1e-120;
  auto f = tt::linalg::svd(a);
  ASSERT_EQ(f.s.size(), 3u);
  for (double s : f.s) {
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_GE(s, 0.0);
  }
  EXPECT_NEAR(f.s[0], 5e-100, 1e-110);
  EXPECT_NEAR(f.s[1], 5e-100, 1e-110);
  Matrix utu = tt::linalg::matmul(true, false, f.u, f.u);
  EXPECT_LT(tt::linalg::max_abs_diff(utu, Matrix::identity(3)), 1e-8);
}

TEST(Svd, TinyOrthogonalDiagonalStaysExact) {
  // aij == 0 with underflowing aii*ajj (1e-200 each squares the product to
  // 1e-400 == 0.0) used to produce 0/0 == NaN in the off-diagonal
  // convergence measure; pin the already-diagonal tiny case. The norms
  // themselves (1e-200) stay normal doubles, so the values are exact.
  Matrix a(2, 2);
  a(0, 0) = 2e-100;
  a(1, 1) = 1e-100;
  auto f = tt::linalg::svd(a);
  EXPECT_DOUBLE_EQ(f.s[0], 2e-100);
  EXPECT_DOUBLE_EQ(f.s[1], 1e-100);
}

// Q · diag(s) · Wᵀ for random orthogonal Q (m×r) and W (n×r), r = s.size().
Matrix with_spectrum(index_t m, index_t n, const std::vector<double>& s, Rng& rng) {
  const index_t r = static_cast<index_t>(s.size());
  Matrix q = tt::linalg::qr(Matrix::random(m, r, rng)).q;
  const Matrix w = tt::linalg::qr(Matrix::random(n, r, rng)).q;
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < r; ++j) q(i, j) *= s[static_cast<std::size_t>(j)];
  return tt::linalg::matmul(false, true, q, w);
}

// Reconstruction and orthonormality to 1e-12 (relative to the largest
// singular value), and σᵢ² against the eigenvalues of AᵀA.
void expect_accurate_svd(const Matrix& a, const tt::linalg::SvdResult& f) {
  const index_t n = a.cols();
  ASSERT_FALSE(f.s.empty());
  const double smax = f.s[0];
  EXPECT_LT(tt::linalg::max_abs_diff(f.reconstruct(), a), 1e-12 * smax);
  const Matrix utu = tt::linalg::matmul(true, false, f.u, f.u);
  const Matrix vvt = tt::linalg::matmul(false, true, f.vt, f.vt);
  EXPECT_LT(tt::linalg::max_abs_diff(utu, Matrix::identity(utu.rows())), 1e-12);
  EXPECT_LT(tt::linalg::max_abs_diff(vvt, Matrix::identity(vvt.rows())), 1e-12);
  const auto e = tt::linalg::eigh(tt::linalg::matmul(true, false, a, a));
  for (std::size_t i = 0; i < f.s.size(); ++i)
    EXPECT_NEAR(f.s[i] * f.s[i], e.values[static_cast<std::size_t>(n) - 1 - i],
                1e-12 * smax * smax);
}

TEST(Svd, GradedSpectrumLikeDmrg) {
  // Twelve decades, exponentially graded: the spectrum of a DMRG two-site
  // wavefunction just before truncation.
  Rng rng(11);
  std::vector<double> s(150);
  for (std::size_t i = 0; i < s.size(); ++i) s[i] = std::pow(10.0, -12.0 * i / 149.0);
  const Matrix a = with_spectrum(150, 150, s, rng);
  const auto f = tt::linalg::svd(a);
  expect_accurate_svd(a, f);
  for (std::size_t i = 0; i < s.size(); ++i) EXPECT_NEAR(f.s[i], s[i], 1e-12);
}

TEST(Svd, ExactlyDegenerateMultiplets) {
  // Repeated values, as SU(2)-symmetric spin states give: multiplets of
  // sizes 1, 3, 5, 3, 1, ... with exactly equal singular values.
  Rng rng(12);
  std::vector<double> s;
  const int sizes[] = {1, 3, 5, 3, 1, 7, 5, 3, 9, 3};
  double v = 1.0;
  for (int size : sizes) {
    s.insert(s.end(), static_cast<std::size_t>(size), v);
    v *= 0.5;
  }
  const index_t r = static_cast<index_t>(s.size());
  const Matrix a = with_spectrum(r + 10, r, s, rng);
  const auto f = tt::linalg::svd(a);
  expect_accurate_svd(a, f);
  for (std::size_t i = 0; i < s.size(); ++i) EXPECT_NEAR(f.s[i], s[i], 1e-12);
}

TEST(Svd, RankSevenTallInput) {
  Rng rng(13);
  const Matrix x = Matrix::random(300, 7, rng);
  const Matrix y = Matrix::random(7, 40, rng);
  const Matrix a = tt::linalg::matmul(x, y);
  const auto f = tt::linalg::svd(a);
  // U stays orthonormal across the 33-dimensional null space: the
  // accumulated Householder reflectors give that without any completion.
  expect_accurate_svd(a, f);
  for (std::size_t i = 7; i < f.s.size(); ++i) EXPECT_LT(f.s[i], 1e-12 * f.s[0]);
}

TEST(Svd, RejectsNonFiniteInput) {
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    Matrix a(4, 3, 1.0);
    a(2, 1) = bad;
    a(3, 2) = bad;
    try {
      tt::linalg::svd(a);
      ADD_FAILURE() << "svd accepted " << bad;
    } catch (const tt::Error& err) {
      // The message names the first bad entry.
      EXPECT_NE(std::string(err.what()).find("(2, 1)"), std::string::npos) << err.what();
    }
  }
}

}  // namespace
