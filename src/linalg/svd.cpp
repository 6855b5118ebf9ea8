#include "linalg/svd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "linalg/gemm.hpp"

namespace tt::linalg {

namespace {

// Bidiagonal QR steps allowed per singular value (n times this in all).
constexpr int kMaxStepsPerValue = 75;
constexpr real_t kEps = std::numeric_limits<real_t>::epsilon();

// x·y in four interleaved partial sums: a fixed order that still vectorizes.
real_t dot(const real_t* x, const real_t* y, index_t len) {
  real_t p[4] = {0.0, 0.0, 0.0, 0.0};
  index_t i = 0;
  for (; i + 4 <= len; i += 4)
    for (index_t j = 0; j < 4; ++j) p[j] += x[i + j] * y[i + j];
  for (; i < len; ++i) p[0] += x[i] * y[i];
  return (p[0] + p[1]) + (p[2] + p[3]);
}

// Householder reflector H = I − 2·u·uᵀ with H·x = beta·e₀: overwrites x[0..len)
// with the unit vector u (√(tau/2)·v for G&VL's v with v[0] = 1, or 0 when x is
// already beta·e₀) and returns beta. Entries are pre-scaled: plain squares are safe.
real_t make_reflector(real_t* x, index_t len) {
  const real_t sigma = dot(x + 1, x + 1, len - 1), alpha = x[0];
  x[0] = 0.0;
  if (sigma == 0.0) return alpha;
  const real_t beta = -std::copysign(std::sqrt(alpha * alpha + sigma), alpha);
  x[0] = std::sqrt(0.5 * (beta - alpha) / beta);
  const real_t scale = x[0] / (alpha - beta);
  for (index_t i = 1; i < len; ++i) x[i] *= scale;
  return beta;
}

// Applies H = I − 2·u·uᵀ to entries [c0, c0 + len) of rows [r0, x.rows()).
void reflect_rows(Matrix& x, index_t r0, index_t c0, const real_t* u, index_t len) {
  if (u[0] == 0.0) return;
  for (index_t r = r0; r < x.rows(); ++r) {
    real_t* xr = x.row(r) + c0;
    const real_t w = 2.0 * dot(u, xr, len);
    for (index_t i = 0; i < len; ++i) xr[i] -= w * u[i];
  }
}

// Givens pair with c·f + s·g = r (returned) and c·g − s·f = 0.
real_t givens(real_t f, real_t g, real_t& c, real_t& s) {
  const real_t r = std::sqrt(f * f + g * g);
  c = r == 0.0 ? 1.0 : f / r;
  s = r == 0.0 ? 0.0 : g / r;
  return r;
}

// x ← c·x + s·y and y ← c·y − s·x over len contiguous entries.
void rotate(real_t* x, real_t* y, index_t len, real_t c, real_t s) {
  for (index_t i = 0; i < len; ++i) {
    const real_t a = x[i], b = y[i];
    x[i] = c * a + s * b;
    y[i] = c * b - s * a;
  }
}

// Golub–Kahan–Reinsch SVD of an m×n matrix, m >= n (Golub & Van Loan §8.6):
// Householder bidiagonalization A = U·B·Vᵀ, then implicit-shift QR on the upper
// bidiagonal B (diagonal d, superdiagonal e). Aᵀ, Uᵀ and Vᵀ are held row-major,
// so every reflector and every rotation updates contiguous rows.
SvdResult gkr_svd(const Matrix& a) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  const auto un = static_cast<std::size_t>(n);
  // Scale by a power of two, which is exact, so the largest entry is about 1.
  int ex = 0;
  std::frexp(a.max_abs(), &ex);
  ex = std::clamp(ex, -1000, 1000);
  Matrix wt = a.transposed();  // row j: column j of A, then its left reflector
  wt *= std::ldexp(1.0, -ex);

  // d, then e between zeros e[-1] and e[n - 1], then m entries of scratch.
  std::vector<real_t> store(2 * un + 1 + static_cast<std::size_t>(m), 0.0);
  real_t* d = store.data();
  real_t* e = d + n + 1;
  real_t* acc = e + n;
  Matrix zs(n, n);  // row k: the right reflector of step k, from entry k + 1
  for (index_t k = 0; k < n; ++k) {
    // Left reflector: zero column k of A below the diagonal.
    d[k] = make_reflector(wt.row(k) + k, m - k);
    reflect_rows(wt, k + 1, k, wt.row(k) + k, m - k);
    if (k + 1 == n) break;
    // Right reflector: zero row k of A right of the superdiagonal.
    const index_t len = n - k - 1, rest = m - k - 1;
    real_t* z = zs.row(k) + k + 1;
    for (index_t j = 0; j < len; ++j) z[j] = wt(k + 1 + j, k);
    e[k] = make_reflector(z, len);
    std::fill(acc, acc + rest, 0.0);
    for (index_t j = 0; j < len; ++j) {
      const real_t* wj = wt.row(k + 1 + j) + k + 1;
      for (index_t i = 0; i < rest; ++i) acc[i] += z[j] * wj[i];
    }
    for (index_t j = 0; j < len; ++j) {
      const real_t f = 2.0 * z[j];
      real_t* wj = wt.row(k + 1 + j) + k + 1;
      for (index_t i = 0; i < rest; ++i) wj[i] -= f * acc[i];
    }
  }

  // Accumulate Uᵀ (n×m) and Vᵀ (n×n) from the reflectors, last one first.
  Matrix ut(n, m), vt(n, n);
  for (index_t k = n - 1; k >= 0; --k) {
    ut(k, k) = vt(k, k) = 1.0;
    reflect_rows(ut, k, k, wt.row(k) + k, m - k);
    if (k + 1 < n) reflect_rows(vt, k + 1, k + 1, zs.row(k) + k + 1, n - k - 1);
  }

  // Implicit-shift QR, deflating from the bottom. A diagonal entry below tol
  // is set to zero and cancelled by rotations, which splits B there.
  real_t tol = 0.0;
  for (index_t k = 0; k < n; ++k) tol = std::max({tol, std::abs(d[k]), std::abs(e[k])});
  tol *= kEps;
  long steps = 0;
  for (index_t hi = n - 1; hi > 0;) {
    // [lo, hi]: the unreduced block ending at hi (e[hi] is always zero), and
    // its first negligible diagonal entry, if any.
    index_t lo = hi;
    while (lo > 0 &&
           std::abs(e[lo - 1]) > kEps * (std::abs(d[lo - 1]) + std::abs(d[lo])))
      --lo;
    if (lo > 0) e[lo - 1] = 0.0;
    index_t zero = lo;
    while (zero <= hi && std::abs(d[zero]) > tol) ++zero;
    real_t c, s;
    if (lo == hi) {
      --hi;
    } else if (zero < hi) {
      // Rotate row `zero` against the rows below it to cancel its e.
      real_t x = e[zero];
      d[zero] = e[zero] = 0.0;
      for (index_t j = zero + 1; j <= hi && x != 0.0; ++j) {
        d[j] = givens(d[j], x, c, s);
        x = -s * e[j];
        e[j] *= c;
        rotate(ut.row(j), ut.row(zero), m, c, s);
      }
    } else if (zero == hi) {
      // Rotate column hi against the columns left of it to cancel e[hi - 1].
      real_t x = e[hi - 1];
      d[hi] = e[hi - 1] = 0.0;
      for (index_t j = hi - 1; j >= lo && x != 0.0; --j) {
        d[j] = givens(d[j], x, c, s);
        x = -s * e[j - 1];  // zero at j == lo: e[lo - 1] is a split or e[-1]
        e[j - 1] *= c;
        rotate(vt.row(j), vt.row(hi), n, c, s);
      }
    } else {
      ++steps;
      TT_CHECK(steps <= static_cast<long>(kMaxStepsPerValue) * n,
               "svd: bidiagonal QR did not converge on a " << m << "x" << n << " matrix");
      // Wilkinson shift: the eigenvalue of the trailing 2×2 of BᵀB nearer to
      // its last diagonal entry. Then chase the bulge from lo down to hi.
      const real_t em = hi - 1 > lo ? e[hi - 2] : 0.0;
      const real_t t22 = d[hi] * d[hi] + e[hi - 1] * e[hi - 1];
      const real_t t12 = d[hi - 1] * e[hi - 1];
      const real_t delta = 0.5 * (d[hi - 1] * d[hi - 1] + em * em - t22);
      const real_t mu =
          t22 - t12 * t12 / (delta + std::copysign(std::hypot(delta, t12), delta));
      real_t y = d[lo] * d[lo] - mu, w = d[lo] * e[lo];
      for (index_t k = lo; k < hi; ++k) {
        const real_t r = givens(y, w, c, s);  // columns k, k + 1
        if (k > lo) e[k - 1] = r;
        y = c * d[k] + s * e[k];
        e[k] = c * e[k] - s * d[k];
        w = s * d[k + 1];
        d[k + 1] *= c;
        rotate(vt.row(k), vt.row(k + 1), n, c, s);
        d[k] = givens(y, w, c, s);  // rows k, k + 1
        y = c * e[k] + s * d[k + 1];
        d[k + 1] = c * d[k + 1] - s * e[k];
        e[k] = y;
        w = s * e[k + 1];
        e[k + 1] *= c;
        rotate(ut.row(k), ut.row(k + 1), m, c, s);
      }
    }
  }

  // |d| sorted descending and scaled back exactly; a negative d flips its v.
  std::vector<index_t> order(un);
  std::iota(order.begin(), order.end(), index_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](index_t x, index_t y) { return std::abs(d[x]) > std::abs(d[y]); });
  SvdResult out{Matrix(m, n), std::vector<real_t>(un), Matrix(n, n)};
  for (index_t c = 0; c < n; ++c) {
    const index_t src = order[static_cast<std::size_t>(c)];
    out.s[static_cast<std::size_t>(c)] = std::ldexp(std::abs(d[src]), ex);
    for (index_t i = 0; i < m; ++i) out.u(i, c) = ut(src, i);
    const real_t sign = d[src] < 0.0 ? -1.0 : 1.0;
    for (index_t i = 0; i < n; ++i) out.vt(c, i) = sign * vt(src, i);
  }
  return out;
}

}  // namespace

Matrix SvdResult::reconstruct() const {
  Matrix us = u;
  for (index_t i = 0; i < us.rows(); ++i)
    for (index_t j = 0; j < us.cols(); ++j) us(i, j) *= s[static_cast<std::size_t>(j)];
  return matmul(us, vt);
}

SvdResult svd(const Matrix& a) {
  check_finite(a, "svd");
  if (a.rows() == 0 || a.cols() == 0) {
    SvdResult out;
    out.u = Matrix(a.rows(), std::min(a.rows(), a.cols()));
    out.vt = Matrix(std::min(a.rows(), a.cols()), a.cols());
    return out;
  }
  if (a.rows() >= a.cols()) return gkr_svd(a);
  // SVD of the transpose, then swap factors: A = (V')·S·(U')ᵀ.
  SvdResult t = gkr_svd(a.transposed());
  return {t.vt.transposed(), std::move(t.s), t.u.transposed()};
}

double svd_flops(index_t m, index_t n) {
  const double lo = static_cast<double>(std::min(m, n));
  const double hi = static_cast<double>(std::max(m, n));
  return 14.0 * hi * lo * lo;
}

}  // namespace tt::linalg
