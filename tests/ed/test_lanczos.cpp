#include <gtest/gtest.h>

#include "ed/lanczos.hpp"
#include "linalg/eigen.hpp"
#include "linalg/gemm.hpp"
#include "support/rng.hpp"

namespace {

using tt::Rng;
using tt::index_t;
using tt::linalg::Matrix;

tt::ed::MatVec matvec_of(const Matrix& a) {
  return [&a](const std::vector<double>& x, std::vector<double>& y) {
    y.assign(x.size(), 0.0);
    tt::linalg::gemm_raw(false, false, a.rows(), 1, a.cols(), 1.0, a.data(), x.data(),
                         0.0, y.data());
  };
}

Matrix random_symmetric(index_t n, unsigned seed) {
  Rng rng(seed);
  Matrix a = Matrix::random(n, n, rng);
  Matrix s(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) s(i, j) = 0.5 * (a(i, j) + a(j, i));
  return s;
}

class LanczosParam : public ::testing::TestWithParam<index_t> {};

TEST_P(LanczosParam, MatchesDenseEigensolver) {
  const index_t n = GetParam();
  Matrix a = random_symmetric(n, static_cast<unsigned>(n));
  auto mv = matvec_of(a);
  auto r = tt::ed::lanczos_ground_state(n, mv);
  auto dense = tt::linalg::eigh(a);
  EXPECT_NEAR(r.eigenvalue, dense.values.front(), 1e-8 * (1.0 + std::abs(dense.values.front())));
  EXPECT_TRUE(r.converged);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LanczosParam, ::testing::Values<index_t>(1, 2, 5, 20, 100));

TEST(Lanczos, EigenvectorSatisfiesEigenEquation) {
  const index_t n = 40;
  Matrix a = random_symmetric(n, 77);
  auto mv = matvec_of(a);
  auto r = tt::ed::lanczos_ground_state(n, mv);
  std::vector<double> av(static_cast<std::size_t>(n));
  mv(r.eigenvector, av);
  // Eigenvalue stagnation at 1e-12 gives a residual ~√(tol·gap); the
  // eigenvalue itself is far more accurate than the vector.
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(av[static_cast<std::size_t>(i)],
                r.eigenvalue * r.eigenvector[static_cast<std::size_t>(i)], 1e-5);
}

TEST(Lanczos, DegenerateGroundState) {
  // diag(1,1,3): doubly degenerate minimum.
  Matrix a(3, 3);
  a(0, 0) = a(1, 1) = 1.0;
  a(2, 2) = 3.0;
  auto r = tt::ed::lanczos_ground_state(3, matvec_of(a));
  EXPECT_NEAR(r.eigenvalue, 1.0, 1e-10);
}

TEST(Lanczos, DimOneOperator) {
  auto mv = [](const std::vector<double>& x, std::vector<double>& y) {
    y = {4.2 * x[0]};
  };
  auto r = tt::ed::lanczos_ground_state(1, mv);
  EXPECT_DOUBLE_EQ(r.eigenvalue, 4.2);
}

TEST(Lanczos, RejectsEmptyOperator) {
  auto mv = [](const std::vector<double>&, std::vector<double>&) {};
  EXPECT_THROW(tt::ed::lanczos_ground_state(0, mv), tt::Error);
}

}  // namespace
