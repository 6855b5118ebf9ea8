// Backend dispatch layer: selection round-trips, unknown-name rejection, and
// builtin-vs-BLAS numerical parity on random gemm/gemv/svd/qr/eigh problems.
// The parity suite skips cleanly when the build has TT_WITH_BLAS=OFF.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "linalg/backend.hpp"
#include "linalg/eigen.hpp"
#include "linalg/gemm.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "support/rng.hpp"

namespace {

using tt::Rng;
using tt::index_t;
using tt::linalg::Matrix;

// Restores the entry backend selection when a test returns or throws.
class BackendGuard {
 public:
  BackendGuard() : saved_(tt::linalg::backend_name()) {}
  ~BackendGuard() { tt::linalg::set_backend(saved_); }

 private:
  std::string saved_;
};

TEST(Backend, SetBackendRoundTrip) {
  BackendGuard guard;
  tt::linalg::set_backend("builtin");
  EXPECT_STREQ(tt::linalg::backend_name(), "builtin");
  if (tt::linalg::blas_backend_available()) {
    tt::linalg::set_backend("blas");
    EXPECT_STREQ(tt::linalg::backend_name(), "blas");
    tt::linalg::set_backend("builtin");
    EXPECT_STREQ(tt::linalg::backend_name(), "builtin");
  }
}

TEST(Backend, RejectsUnknownNameAndKeepsSelection) {
  BackendGuard guard;
  tt::linalg::set_backend("builtin");
  EXPECT_THROW(tt::linalg::set_backend("bogus"), tt::Error);
  EXPECT_THROW(tt::linalg::set_backend(""), tt::Error);
  EXPECT_STREQ(tt::linalg::backend_name(), "builtin");
}

TEST(Backend, AvailableBackendsMatchBuild) {
  const auto names = tt::linalg::available_backends();
  EXPECT_NE(std::find(names.begin(), names.end(), "builtin"), names.end());
  const bool has_blas =
      std::find(names.begin(), names.end(), "blas") != names.end();
  EXPECT_EQ(has_blas, tt::linalg::blas_backend_available());
}

TEST(Backend, EnvVarSelectsAndRejects) {
  BackendGuard guard;  // set_backend below must not leak into later tests
  // The lazy default resolves TT_BACKEND through resolve_default_backend();
  // exercise that path directly rather than respawning the process.
  setenv("TT_BACKEND", "bogus", 1);
  EXPECT_THROW(tt::linalg::detail::resolve_default_backend(), tt::Error);
  // Explicit selection outranks the environment: a bogus TT_BACKEND must not
  // break set_backend() with a valid name.
  EXPECT_NO_THROW(tt::linalg::set_backend("builtin"));
  setenv("TT_BACKEND", "builtin", 1);
  EXPECT_STREQ(tt::linalg::detail::resolve_default_backend().name(), "builtin");
  if (tt::linalg::blas_backend_available()) {
    setenv("TT_BACKEND", "blas", 1);
    EXPECT_STREQ(tt::linalg::detail::resolve_default_backend().name(), "blas");
  }
  unsetenv("TT_BACKEND");
}

// --- builtin vs BLAS parity --------------------------------------------------

constexpr double kTol = 1e-10;

void expect_close(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_LT(tt::linalg::max_abs_diff(a, b), kTol * (1.0 + b.max_abs())) << what;
}

void expect_orthonormal_columns(const Matrix& q, const char* what) {
  const Matrix gram = tt::linalg::matmul(true, false, q, q);
  expect_close(gram, Matrix::identity(q.cols()), what);
}

class BackendParity : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!tt::linalg::blas_backend_available())
      GTEST_SKIP() << "built with TT_WITH_BLAS=OFF";
  }
  BackendGuard guard_;
};

TEST_F(BackendParity, GemmAgreesAcrossShapesAndTransposes) {
  Rng rng(21);
  const struct {
    index_t m, n, k;
    bool ta, tb;
  } cases[] = {{1, 1, 1, false, false},  {5, 7, 9, false, false},
               {33, 17, 65, false, false}, {64, 64, 64, true, false},
               {31, 45, 12, false, true},  {40, 23, 57, true, true},
               {128, 8, 300, true, false}, {3, 200, 1, false, true}};
  for (const auto& c : cases) {
    Matrix a = c.ta ? Matrix::random(c.k, c.m, rng) : Matrix::random(c.m, c.k, rng);
    Matrix b = c.tb ? Matrix::random(c.n, c.k, rng) : Matrix::random(c.k, c.n, rng);
    Matrix c0 = Matrix::random(c.m, c.n, rng);
    Matrix c_builtin = c0;
    Matrix c_blas = c0;
    tt::linalg::set_backend("builtin");
    tt::linalg::gemm(c.ta, c.tb, 1.75, a, b, -0.5, c_builtin);
    tt::linalg::set_backend("blas");
    tt::linalg::gemm(c.ta, c.tb, 1.75, a, b, -0.5, c_blas);
    expect_close(c_blas, c_builtin, "gemm");
  }
}

TEST_F(BackendParity, GemvAgrees) {
  Rng rng(22);
  for (index_t m : {1, 7, 40}) {
    for (index_t n : {1, 9, 33}) {
      Matrix a = Matrix::random(m, n, rng);
      Matrix x = Matrix::random(n, 1, rng);
      std::vector<double> y0(static_cast<std::size_t>(m));
      for (auto& v : y0) v = rng.normal();
      std::vector<double> y_builtin = y0, y_blas = y0;
      tt::linalg::set_backend("builtin");
      tt::linalg::gemv(m, n, 2.0, a.data(), x.data(), 0.25, y_builtin.data());
      tt::linalg::set_backend("blas");
      tt::linalg::gemv(m, n, 2.0, a.data(), x.data(), 0.25, y_blas.data());
      for (index_t i = 0; i < m; ++i)
        EXPECT_NEAR(y_blas[static_cast<std::size_t>(i)],
                    y_builtin[static_cast<std::size_t>(i)], kTol)
            << m << "x" << n << " row " << i;
    }
  }
}

TEST_F(BackendParity, SvdAgrees) {
  Rng rng(23);
  const std::pair<index_t, index_t> shapes[] = {
      {1, 1}, {6, 6}, {24, 9}, {9, 24}, {40, 40}, {3, 50}};
  for (auto [m, n] : shapes) {
    Matrix a = Matrix::random(m, n, rng);
    tt::linalg::set_backend("builtin");
    auto f_builtin = tt::linalg::svd(a);
    tt::linalg::set_backend("blas");
    auto f_blas = tt::linalg::svd(a);
    // Singular values match directly; factors only up to sign/rotation, so
    // compare through the reconstruction and orthonormality contracts.
    ASSERT_EQ(f_blas.s.size(), f_builtin.s.size());
    for (std::size_t i = 0; i < f_blas.s.size(); ++i)
      EXPECT_NEAR(f_blas.s[i], f_builtin.s[i], kTol * (1.0 + f_builtin.s[0]));
    expect_close(f_blas.reconstruct(), a, "svd reconstruction");
    expect_orthonormal_columns(f_blas.u, "svd U");
    expect_orthonormal_columns(f_blas.vt.transposed(), "svd V");
  }
}

TEST_F(BackendParity, SvdRankDeficientKeepsOrthonormalU) {
  Rng rng(24);
  // Rank-2 12×8 matrix: trailing singular values are ~0, U must still have
  // orthonormal columns (the SvdResult contract every backend keeps).
  Matrix u = Matrix::random(12, 2, rng);
  Matrix v = Matrix::random(8, 2, rng);
  Matrix a = tt::linalg::matmul(false, true, u, v);
  tt::linalg::set_backend("blas");
  auto f = tt::linalg::svd(a);
  expect_orthonormal_columns(f.u, "rank-deficient U");
  expect_close(f.reconstruct(), a, "rank-deficient reconstruction");
}

TEST_F(BackendParity, QrAgrees) {
  Rng rng(25);
  const std::pair<index_t, index_t> shapes[] = {{1, 1}, {8, 8}, {30, 10}, {10, 30}};
  for (auto [m, n] : shapes) {
    Matrix a = Matrix::random(m, n, rng);
    tt::linalg::set_backend("blas");
    auto f = tt::linalg::qr(a);
    ASSERT_EQ(f.q.rows(), m);
    ASSERT_EQ(f.q.cols(), std::min(m, n));
    ASSERT_EQ(f.r.rows(), std::min(m, n));
    ASSERT_EQ(f.r.cols(), n);
    expect_close(tt::linalg::matmul(f.q, f.r), a, "QR reconstruction");
    expect_orthonormal_columns(f.q, "Q");
    for (index_t i = 0; i < f.r.rows(); ++i)
      for (index_t j = 0; j < std::min(i, f.r.cols()); ++j)
        EXPECT_EQ(f.r(i, j), 0.0) << "R not upper-triangular at " << i << "," << j;
  }
}

TEST_F(BackendParity, EighAgrees) {
  Rng rng(26);
  for (index_t n : {1, 6, 25}) {
    Matrix g = Matrix::random(n, n, rng);
    Matrix a = tt::linalg::matmul(false, true, g, g);  // SPD ⇒ well-separated
    tt::linalg::set_backend("builtin");
    auto e_builtin = tt::linalg::eigh(a);
    tt::linalg::set_backend("blas");
    auto e_blas = tt::linalg::eigh(a);
    ASSERT_EQ(e_blas.values.size(), e_builtin.values.size());
    const double scale = 1.0 + std::abs(e_builtin.values.back());
    for (std::size_t i = 0; i < e_blas.values.size(); ++i)
      EXPECT_NEAR(e_blas.values[i], e_builtin.values[i], kTol * scale);
    // A·V = V·diag(w) and VᵀV = I pin the eigenvectors up to sign.
    Matrix av = tt::linalg::matmul(a, e_blas.vectors);
    Matrix vw = e_blas.vectors;
    for (index_t i = 0; i < n; ++i)
      for (index_t j = 0; j < n; ++j)
        vw(i, j) *= e_blas.values[static_cast<std::size_t>(j)];
    expect_close(av, vw, "eigh residual");
    expect_orthonormal_columns(e_blas.vectors, "eigh V");
  }
}

}  // namespace
