#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace tt::linalg {

EigResult eigh(const Matrix& a, real_t symmetry_tol) {
  const index_t n = a.rows();
  TT_CHECK(a.rows() == a.cols(), "eigh requires a square matrix, got "
                                     << a.rows() << "x" << a.cols());
  check_finite(a, "eigh");
  const real_t scale = std::max(a.max_abs(), real_t{1.0});
  for (index_t i = 0; i < n; ++i)
    for (index_t j = i + 1; j < n; ++j)
      TT_CHECK(std::abs(a(i, j) - a(j, i)) <= symmetry_tol * scale,
               "eigh input not symmetric at (" << i << "," << j << ")");

  Matrix b = a;
  Matrix v = Matrix::identity(n);
  constexpr int kMaxSweeps = 100;
  const real_t tol = 1e-15 * scale;

  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    real_t off = 0.0;
    for (index_t p = 0; p < n - 1; ++p) {
      for (index_t q = p + 1; q < n; ++q) {
        const real_t apq = b(p, q);
        off = std::max(off, std::abs(apq));
        if (std::abs(apq) <= tol) continue;
        const real_t theta = (b(q, q) - b(p, p)) / (2.0 * apq);
        const real_t t = ((theta >= 0.0) ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(1.0 + theta * theta));
        const real_t c = 1.0 / std::sqrt(1.0 + t * t);
        const real_t s = c * t;
        // B := Jᵀ B J for the (p,q) rotation.
        for (index_t k = 0; k < n; ++k) {
          const real_t bkp = b(k, p), bkq = b(k, q);
          b(k, p) = c * bkp - s * bkq;
          b(k, q) = s * bkp + c * bkq;
        }
        for (index_t k = 0; k < n; ++k) {
          const real_t bpk = b(p, k), bqk = b(q, k);
          b(p, k) = c * bpk - s * bqk;
          b(q, k) = s * bpk + c * bqk;
        }
        for (index_t k = 0; k < n; ++k) {
          const real_t vkp = v(k, p), vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
    if (off <= tol) break;
  }

  // Sort eigenpairs ascending.
  std::vector<index_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), index_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](index_t x, index_t y) { return b(x, x) < b(y, y); });

  EigResult out;
  out.values.resize(static_cast<std::size_t>(n));
  out.vectors = Matrix(n, n);
  for (index_t c = 0; c < n; ++c) {
    const index_t src = order[static_cast<std::size_t>(c)];
    out.values[static_cast<std::size_t>(c)] = b(src, src);
    for (index_t i = 0; i < n; ++i) out.vectors(i, c) = v(i, src);
  }
  return out;
}

}  // namespace tt::linalg
