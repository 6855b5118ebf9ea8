#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "linalg/gemm.hpp"
#include "linalg/qr.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace {

using tt::Rng;
using tt::index_t;
using tt::linalg::Matrix;

class QrParam : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(QrParam, FactorsReproduceInput) {
  auto [m, n] = GetParam();
  Rng rng(m * 31 + n);
  Matrix a = Matrix::random(m, n, rng);
  auto f = tt::linalg::qr(a);
  const index_t r = std::min(m, n);
  EXPECT_EQ(f.q.rows(), m);
  EXPECT_EQ(f.q.cols(), r);
  EXPECT_EQ(f.r.rows(), r);
  EXPECT_EQ(f.r.cols(), n);
  Matrix qr = tt::linalg::matmul(f.q, f.r);
  EXPECT_LT(tt::linalg::max_abs_diff(qr, a), 1e-10 * (1.0 + a.max_abs()));
}

TEST_P(QrParam, QHasOrthonormalColumns) {
  auto [m, n] = GetParam();
  Rng rng(m * 37 + n);
  Matrix a = Matrix::random(m, n, rng);
  auto f = tt::linalg::qr(a);
  Matrix qtq = tt::linalg::matmul(true, false, f.q, f.q);
  EXPECT_LT(tt::linalg::max_abs_diff(qtq, Matrix::identity(qtq.rows())), 1e-11);
}

TEST_P(QrParam, RIsUpperTriangular) {
  auto [m, n] = GetParam();
  Rng rng(m * 41 + n);
  Matrix a = Matrix::random(m, n, rng);
  auto f = tt::linalg::qr(a);
  for (index_t i = 0; i < f.r.rows(); ++i)
    for (index_t j = 0; j < std::min<index_t>(i, f.r.cols()); ++j)
      EXPECT_DOUBLE_EQ(f.r(i, j), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Shapes, QrParam,
                         ::testing::Values(std::make_pair<index_t, index_t>(1, 1),
                                           std::make_pair<index_t, index_t>(5, 5),
                                           std::make_pair<index_t, index_t>(20, 5),
                                           std::make_pair<index_t, index_t>(5, 20),
                                           std::make_pair<index_t, index_t>(64, 64),
                                           std::make_pair<index_t, index_t>(100, 37),
                                           std::make_pair<index_t, index_t>(37, 100),
                                           std::make_pair<index_t, index_t>(128, 1),
                                           std::make_pair<index_t, index_t>(1, 128)));

TEST(Qr, RankDeficientStillOrthogonal) {
  Rng rng(5);
  Matrix x = Matrix::random(10, 2, rng);
  Matrix y = Matrix::random(2, 6, rng);
  Matrix a = tt::linalg::matmul(x, y);  // rank 2 of 6
  auto f = tt::linalg::qr(a);
  Matrix qtq = tt::linalg::matmul(true, false, f.q, f.q);
  EXPECT_LT(tt::linalg::max_abs_diff(qtq, Matrix::identity(6)), 1e-10);
  EXPECT_LT(tt::linalg::max_abs_diff(tt::linalg::matmul(f.q, f.r), a), 1e-10);
}

TEST(Qr, ZeroMatrix) {
  Matrix a(6, 3, 0.0);
  auto f = tt::linalg::qr(a);
  EXPECT_LT(tt::linalg::matmul(f.q, f.r).max_abs(), 1e-14);
  Matrix qtq = tt::linalg::matmul(true, false, f.q, f.q);
  EXPECT_LT(tt::linalg::max_abs_diff(qtq, Matrix::identity(3)), 1e-12);
}

TEST(Qr, RejectsNonFiniteInput) {
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    Matrix a(5, 3, 1.0);
    a(3, 1) = bad;
    a(4, 2) = bad;
    try {
      tt::linalg::qr(a);
      ADD_FAILURE() << "qr accepted " << bad;
    } catch (const tt::Error& err) {
      // The message names the first bad entry.
      EXPECT_NE(std::string(err.what()).find("(3, 1)"), std::string::npos) << err.what();
    }
    try {
      tt::linalg::lq(a);
      ADD_FAILURE() << "lq accepted " << bad;
    } catch (const tt::Error& err) {
      // The entry of the input, not of the transpose lq factors.
      EXPECT_NE(std::string(err.what()).find("lq: entry (3, 1)"), std::string::npos)
          << err.what();
    }
  }
}

TEST(Lq, FactorsReproduceInputAndQOrthonormalRows) {
  Rng rng(6);
  for (auto [m, n] : {std::pair<index_t, index_t>{4, 9}, {9, 4}, {6, 6}}) {
    Matrix a = Matrix::random(m, n, rng);
    auto f = tt::linalg::lq(a);
    Matrix lq_prod = tt::linalg::matmul(f.l, f.q);
    EXPECT_LT(tt::linalg::max_abs_diff(lq_prod, a), 1e-10);
    Matrix qqt = tt::linalg::matmul(false, true, f.q, f.q);
    EXPECT_LT(tt::linalg::max_abs_diff(qqt, Matrix::identity(qqt.rows())), 1e-11);
    // L lower-triangular.
    for (index_t i = 0; i < f.l.rows(); ++i)
      for (index_t j = i + 1; j < f.l.cols(); ++j) EXPECT_DOUBLE_EQ(f.l(i, j), 0.0);
  }
}

TEST(Qr, FlopsModelPositive) {
  EXPECT_GT(tt::linalg::qr_flops(64, 32), 0.0);
  EXPECT_GT(tt::linalg::qr_flops(32, 64), 0.0);
}

}  // namespace
