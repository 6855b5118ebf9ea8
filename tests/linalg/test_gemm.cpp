#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "common/parity.hpp"
#include "linalg/backend.hpp"
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

// ---------------------------------------------------------------------------
// The FMA bit rule. Every micro-kernel build starts each C element's
// accumulator at +0 for each k panel of kKc = 256 steps (gemm.cpp), updates
// it with one fused multiply-add per k in ascending order, with alpha folded
// into op(A), and adds it into C after beta has scaled C (beta 1 leaves C,
// beta 0 zeroes it). This reference does exactly that with std::fma, so
// every build must match it bit for bit.
// ---------------------------------------------------------------------------

constexpr index_t kPanelK = 256;

std::vector<double> fma_reference(bool ta, bool tb, index_t m, index_t n,
                                  index_t k, double alpha, const double* a,
                                  const double* b, double beta,
                                  std::vector<double> c) {
  for (double& x : c) x = beta == 0.0 ? 0.0 : beta == 1.0 ? x : x * beta;
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < n; ++j)
      for (index_t pc = 0; pc < k; pc += kPanelK) {
        double acc = 0.0;
        for (index_t kk = pc; kk < std::min(k, pc + kPanelK); ++kk) {
          const double aik = alpha * (ta ? a[kk * m + i] : a[i * k + kk]);
          acc = std::fma(aik, tb ? b[j * k + kk] : b[kk * n + j], acc);
        }
        c[static_cast<std::size_t>(i * n + j)] += acc;
      }
  return c;
}

::testing::AssertionResult same_bits(const std::vector<double>& x,
                                     const std::vector<double>& y) {
  for (std::size_t i = 0; i < x.size(); ++i)
    if (!tt::testing::same_bits(x[i], y[i]))
      return ::testing::AssertionFailure()
             << "element " << i << ": " << x[i] << " vs " << y[i];
  return ::testing::AssertionSuccess();
}

TEST(GemmKernels, TheFirstHostKernelIsTheOneInUse) {
  const auto& kernels = tt::linalg::detail::host_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(tt::linalg::backend_name(), kernels.front().name);
  // The portable build runs everywhere and is listed last.
  EXPECT_STREQ(kernels.back().name, "builtin-fma");
}

TEST(GemmKernels, EveryHostKernelMatchesTheFmaReferenceBitwise) {
  // m not a multiple of 4 and n not of 8 (partial tiles on both edges);
  // k = 257 and 600 span two and three k panels. The 7×13 shape crosses every
  // k with every (alpha, beta); the 67×130 one has k blocks above the serial
  // flop cutoff, so at 8 threads packing and tiles really split.
  struct Case {
    index_t m, n, k;
    double alpha, beta;
  };
  std::vector<Case> cases;
  for (const index_t k : {1, 257, 600})
    for (const auto& [alpha, beta] : {std::pair{1.0, 0.0}, std::pair{0.7, 1.0},
                                     std::pair{-1.25, 0.5}})
      cases.push_back({7, 13, k, alpha, beta});
  cases.push_back({67, 130, 257, -1.25, 0.5});

  const auto& kernels = tt::linalg::detail::host_kernels();
  for (const Case& cs : cases)
    for (const bool ta : {false, true})
      for (const bool tb : {false, true}) {
        Rng rng(static_cast<std::uint64_t>(1000 * cs.m + cs.k + 2 * ta + tb));
        const Matrix a = Matrix::random(cs.m, cs.k, rng);
        const Matrix b = Matrix::random(cs.k, cs.n, rng);
        const Matrix c0 = Matrix::random(cs.m, cs.n, rng);
        const std::vector<double> c_in(c0.data(), c0.data() + cs.m * cs.n);
        const std::vector<double> ref =
            fma_reference(ta, tb, cs.m, cs.n, cs.k, cs.alpha, a.data(),
                          b.data(), cs.beta, c_in);
        for (const auto& kernel : kernels)
          for (const int threads : {1, 8}) {
            tt::support::set_num_threads(threads);
            std::vector<double> c = c_in;
            tt::linalg::detail::gemm_raw_with(kernel.run, ta, tb, cs.m, cs.n,
                                              cs.k, cs.alpha, a.data(),
                                              b.data(), cs.beta, c.data());
            EXPECT_TRUE(same_bits(c, ref))
                << kernel.name << " at " << threads << " threads, m=" << cs.m
                << " n=" << cs.n << " k=" << cs.k << " transa=" << ta
                << " transb=" << tb << " alpha=" << cs.alpha
                << " beta=" << cs.beta;
          }
      }
  tt::support::set_num_threads(0);
}

}  // namespace
