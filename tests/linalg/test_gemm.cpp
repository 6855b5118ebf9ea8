#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "linalg/gemm.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace {

using tt::Rng;
using tt::index_t;
using tt::linalg::Matrix;

// Naive reference multiply for op(A)(m×k) · op(B)(k×n).
Matrix naive(bool ta, bool tb, const Matrix& a, const Matrix& b) {
  const index_t m = ta ? a.cols() : a.rows();
  const index_t k = ta ? a.rows() : a.cols();
  const index_t n = tb ? b.rows() : b.cols();
  Matrix c(m, n);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (index_t kk = 0; kk < k; ++kk)
        s += (ta ? a(kk, i) : a(i, kk)) * (tb ? b(j, kk) : b(kk, j));
      c(i, j) = s;
    }
  return c;
}

struct GemmCase {
  index_t m, n, k;
  bool ta, tb;
};

class GemmParam : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmParam, MatchesNaiveReference) {
  const GemmCase& gc = GetParam();
  Rng rng(gc.m * 131 + gc.n * 17 + gc.k + (gc.ta ? 1000 : 0) + (gc.tb ? 2000 : 0));
  Matrix a = gc.ta ? Matrix::random(gc.k, gc.m, rng) : Matrix::random(gc.m, gc.k, rng);
  Matrix b = gc.tb ? Matrix::random(gc.n, gc.k, rng) : Matrix::random(gc.k, gc.n, rng);
  Matrix c = tt::linalg::matmul(gc.ta, gc.tb, a, b);
  Matrix ref = naive(gc.ta, gc.tb, a, b);
  EXPECT_LT(tt::linalg::max_abs_diff(c, ref), 1e-10 * (1.0 + ref.max_abs()));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmParam,
    ::testing::Values(
        GemmCase{1, 1, 1, false, false}, GemmCase{3, 5, 7, false, false},
        GemmCase{16, 16, 16, false, false}, GemmCase{65, 33, 129, false, false},
        GemmCase{128, 64, 300, false, false}, GemmCase{5, 3, 4, true, false},
        GemmCase{70, 40, 90, true, false}, GemmCase{5, 3, 4, false, true},
        GemmCase{70, 40, 90, false, true}, GemmCase{6, 7, 8, true, true},
        GemmCase{90, 110, 70, true, true}, GemmCase{1, 200, 1, false, false},
        GemmCase{200, 1, 64, false, false},
        // Packed micro-kernel edges: one off either side of the register tile
        // (4×8), the panel blocks (128 rows, 256 k, 2048 cols), and shapes
        // that leave partially filled zero-padded tiles in every corner.
        GemmCase{4, 8, 4, false, false}, GemmCase{5, 9, 3, false, false},
        GemmCase{3, 7, 5, false, false}, GemmCase{127, 255, 129, false, false},
        GemmCase{129, 9, 257, false, false}, GemmCase{130, 2049, 2, false, false},
        GemmCase{5, 9, 257, true, false}, GemmCase{129, 7, 31, false, true},
        GemmCase{131, 9, 258, true, true}));

TEST(Gemm, AlphaBetaAccumulate) {
  Rng rng(9);
  Matrix a = Matrix::random(8, 6, rng);
  Matrix b = Matrix::random(6, 5, rng);
  Matrix c = Matrix::random(8, 5, rng);
  Matrix c0 = c;
  tt::linalg::gemm(false, false, 2.0, a, b, 0.5, c);
  Matrix ref = naive(false, false, a, b);
  for (index_t i = 0; i < 8; ++i)
    for (index_t j = 0; j < 5; ++j)
      EXPECT_NEAR(c(i, j), 2.0 * ref(i, j) + 0.5 * c0(i, j), 1e-10);
}

TEST(Gemm, BetaZeroOverwritesGarbage) {
  Rng rng(10);
  Matrix a = Matrix::random(4, 4, rng);
  Matrix b = Matrix::random(4, 4, rng);
  Matrix c(4, 4, 1e300);  // would pollute result if beta=0 were read as multiply
  tt::linalg::gemm(false, false, 1.0, a, b, 0.0, c);
  EXPECT_LT(tt::linalg::max_abs_diff(c, naive(false, false, a, b)), 1e-10);
}

TEST(Gemm, ZeroInnerDimensionGivesZero) {
  Matrix a(3, 0), b(0, 2);
  Matrix c = tt::linalg::matmul(a, b);
  EXPECT_EQ(c.rows(), 3);
  EXPECT_EQ(c.cols(), 2);
  EXPECT_DOUBLE_EQ(c.max_abs(), 0.0);
}

TEST(Gemm, InnerDimensionMismatchThrows) {
  Matrix a(3, 4), b(5, 2), c(3, 2);
  EXPECT_THROW(tt::linalg::gemm(false, false, 1.0, a, b, 0.0, c), tt::Error);
}

TEST(Gemm, OutputShapeMismatchThrows) {
  Matrix a(3, 4), b(4, 2), c(3, 3);
  EXPECT_THROW(tt::linalg::gemm(false, false, 1.0, a, b, 0.0, c), tt::Error);
}

TEST(Gemm, AliasedOutputThrows) {
  Rng rng(11);
  Matrix a = Matrix::random(4, 4, rng);
  Matrix b = Matrix::random(4, 4, rng);
  // c aliasing either operand would be silently corrupted by the beta scaling
  // pass before the multiply reads it.
  EXPECT_THROW(tt::linalg::gemm(false, false, 1.0, a, b, 0.0, a), tt::Error);
  EXPECT_THROW(tt::linalg::gemm(false, false, 1.0, a, b, 0.0, b), tt::Error);
  EXPECT_THROW(
      tt::linalg::gemm_raw(false, false, 4, 4, 4, 1.0, a.data(), b.data(), 0.0,
                           a.data()),
      tt::Error);
  // Partial overlap is rejected too, not just exact pointer equality.
  EXPECT_THROW(tt::linalg::gemm_raw(false, false, 2, 2, 2, 1.0, a.data(),
                                    b.data(), 0.0, a.data() + 1),
               tt::Error);
}

TEST(Gemv, MatchesGemm) {
  Rng rng(12);
  Matrix a = Matrix::random(7, 9, rng);
  Matrix x = Matrix::random(9, 1, rng);
  std::vector<double> y(7, 0.0);
  tt::linalg::gemv(7, 9, 1.0, a.data(), x.data(), 0.0, y.data());
  Matrix ref = tt::linalg::matmul(a, x);
  for (index_t i = 0; i < 7; ++i) EXPECT_NEAR(y[static_cast<std::size_t>(i)], ref(i, 0), 1e-12);
}

TEST(Gemv, BetaZeroOverwritesWithoutReadingY) {
  // BLAS semantics: beta == 0 must not read y — NaN-poisoned or
  // uninitialized output must be overwritten, not propagated via 0 * NaN.
  Rng rng(13);
  Matrix a = Matrix::random(5, 6, rng);
  Matrix x = Matrix::random(6, 1, rng);
  std::vector<double> y(5, std::numeric_limits<double>::quiet_NaN());
  tt::linalg::gemv(5, 6, 2.0, a.data(), x.data(), 0.0, y.data());
  Matrix ref = tt::linalg::matmul(a, x);
  for (index_t i = 0; i < 5; ++i) {
    ASSERT_FALSE(std::isnan(y[static_cast<std::size_t>(i)])) << "row " << i;
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], 2.0 * ref(i, 0), 1e-12);
  }
}

TEST(Gemv, NonzeroBetaStillAccumulates) {
  Rng rng(14);
  Matrix a = Matrix::random(3, 4, rng);
  Matrix x = Matrix::random(4, 1, rng);
  std::vector<double> y{1.0, -2.0, 3.0};
  const std::vector<double> y0 = y;
  tt::linalg::gemv(3, 4, 1.0, a.data(), x.data(), 0.5, y.data());
  Matrix ref = tt::linalg::matmul(a, x);
  for (index_t i = 0; i < 3; ++i)
    EXPECT_NEAR(y[static_cast<std::size_t>(i)],
                ref(i, 0) + 0.5 * y0[static_cast<std::size_t>(i)], 1e-12);
}

TEST(Gemm, FlopCount) {
  EXPECT_DOUBLE_EQ(tt::linalg::gemm_flops(2, 3, 4), 48.0);
}

TEST(Gemm, BuiltinPropagatesNanThroughZeroEntries) {
  // The old loop nest skipped k-steps where a(i,k) == 0, silently turning
  // 0 · NaN into 0; the packed kernel follows IEEE/BLAS arithmetic, so a NaN
  // anywhere in a contributing B row must reach the output.
  Matrix a(2, 2);  // row 0 = [0, 1], row 1 = [1, 0]
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  Matrix b(2, 2, 1.0);
  b(0, 0) = std::numeric_limits<double>::quiet_NaN();
  Matrix c(2, 2);
  tt::linalg::gemm(false, false, 1.0, a, b, 0.0, c);
  EXPECT_TRUE(std::isnan(c(1, 0)));  // 1·NaN + 0·1
  EXPECT_TRUE(std::isnan(c(0, 0)));  // 0·NaN + 1·1: no zero-skipping shortcut
  EXPECT_DOUBLE_EQ(c(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 1.0);
}

TEST(Gemm, BuiltinBitwiseDeterministicAcrossThreadCounts) {
  // Bitwise determinism at the kernel level: the packed GEMM splits only
  // disjoint writes across pool threads and keeps every element's k-order
  // fixed, so results are bitwise identical at any TT_THREADS. The shape has
  // 3 row panels (kMc = 128) and 2 k blocks (kKc = 256), and each k block is
  // far above the serial flop cutoff, so threads > 1 really split it.
  Rng rng(77);
  Matrix a = Matrix::random(300, 300, rng);
  Matrix b = Matrix::random(300, 90, rng);
  auto run_with_threads = [&](int threads) {
    tt::support::set_num_threads(threads);
    return tt::linalg::matmul(a, b);
  };
  const Matrix c1 = run_with_threads(1);
  for (int threads : {2, 3, 8})
    EXPECT_TRUE(run_with_threads(threads) == c1) << threads << " threads";
  tt::support::set_num_threads(0);
}

}  // namespace
