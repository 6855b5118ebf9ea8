#include "linalg/qr.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace tt::linalg {

namespace {

// Apply H = I − tau·v·vᵀ to rows [row0, m) of work, columns [col0, ncols).
// v is indexed relative to row0 and has v[0] == 1 implicitly.
void apply_householder(Matrix& work, index_t row0, index_t col0,
                       const std::vector<real_t>& v, real_t tau) {
  if (tau == 0.0) return;
  const index_t m = work.rows();
  const index_t n = work.cols();
  std::vector<real_t> w(static_cast<std::size_t>(n - col0), 0.0);
  for (index_t r = row0; r < m; ++r) {
    const real_t vr = v[static_cast<std::size_t>(r - row0)];
    if (vr == 0.0) continue;
    const real_t* wr = work.row(r) + col0;
    for (index_t c = 0; c < n - col0; ++c) w[static_cast<std::size_t>(c)] += vr * wr[c];
  }
  for (index_t r = row0; r < m; ++r) {
    const real_t coef = tau * v[static_cast<std::size_t>(r - row0)];
    if (coef == 0.0) continue;
    real_t* wr = work.row(r) + col0;
    for (index_t c = 0; c < n - col0; ++c) wr[c] -= coef * w[static_cast<std::size_t>(c)];
  }
}

}  // namespace

QrResult qr(const Matrix& a) {
  check_finite(a, "qr");
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t r = std::min(m, n);
  Matrix work = a;

  // Householder vectors and scalars, kept to accumulate Q afterwards.
  std::vector<std::vector<real_t>> vs(static_cast<std::size_t>(r));
  std::vector<real_t> taus(static_cast<std::size_t>(r), 0.0);

  for (index_t j = 0; j < r; ++j) {
    // Build the reflector for column j from rows j..m-1 (Golub & Van Loan 5.1.1).
    const index_t len = m - j;
    std::vector<real_t> v(static_cast<std::size_t>(len));
    for (index_t i = 0; i < len; ++i) v[static_cast<std::size_t>(i)] = work(j + i, j);
    real_t sigma = 0.0;
    for (index_t i = 1; i < len; ++i)
      sigma += v[static_cast<std::size_t>(i)] * v[static_cast<std::size_t>(i)];
    const real_t x0 = v[0];
    real_t tau = 0.0;
    if (sigma != 0.0) {
      const real_t mu = std::sqrt(x0 * x0 + sigma);
      const real_t v0 = (x0 <= 0.0) ? x0 - mu : -sigma / (x0 + mu);
      tau = 2.0 * v0 * v0 / (sigma + v0 * v0);
      for (index_t i = 1; i < len; ++i) v[static_cast<std::size_t>(i)] /= v0;
    }
    v[0] = 1.0;
    apply_householder(work, j, j, v, tau);
    vs[static_cast<std::size_t>(j)] = std::move(v);
    taus[static_cast<std::size_t>(j)] = tau;
  }

  // R = upper part of the worked matrix.
  Matrix rmat(r, n);
  for (index_t i = 0; i < r; ++i)
    for (index_t j = i; j < n; ++j) rmat(i, j) = work(i, j);

  // Accumulate the thin Q = H_0 · H_1 ··· H_{r-1} · E (E = leading r columns
  // of the identity), applying reflectors from the last to the first.
  Matrix q(m, r);
  for (index_t i = 0; i < r; ++i) q(i, i) = 1.0;
  for (index_t j = r - 1; j >= 0; --j)
    apply_householder(q, j, 0, vs[static_cast<std::size_t>(j)],
                      taus[static_cast<std::size_t>(j)]);
  return {std::move(q), std::move(rmat)};
}

LqResult lq(const Matrix& a) {
  check_finite(a, "lq");  // names the entry of `a`, not of its transpose
  QrResult f = qr(a.transposed());
  return {f.r.transposed(), f.q.transposed()};
}

}  // namespace tt::linalg
