// Singular value decomposition.
//
// Stands in for the ScaLAPACK pdgesvd the paper calls through Cyclops: every
// block-wise SVD in the DMRG truncation step lands here. svd() rejects a
// non-finite entry with tt::Error, then runs a Golub–Kahan–Reinsch SVD
// (Householder bidiagonalization, then implicit-shift bidiagonal QR, the route
// pdgesvd/dgesvd take; serial per matrix, so its bits do not depend on
// TT_THREADS). It throws tt::Error naming the shape if the bidiagonal QR
// exceeds its step cap.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace tt::linalg {

/// Thin SVD: A (m×n) = U (m×r) · diag(s) · Vᵀ (r×n), r = min(m,n),
/// singular values sorted descending, U/V orthonormal columns (on
/// rank-deficient inputs too).
struct SvdResult {
  Matrix u;
  std::vector<real_t> s;
  Matrix vt;

  /// Reconstruct U · diag(s) · Vᵀ (test/diagnostic helper).
  Matrix reconstruct() const;
};

SvdResult svd(const Matrix& a);

/// Flop estimate for the SVD of an m×n matrix (LAPACK-style 14·m·n² model).
double svd_flops(index_t m, index_t n);

/// Kept count under truncation: r' = min(max_keep, max(1, #{s > cutoff}))
/// when s is non-empty, else 0. The keep-at-least-one floor (DMRG must keep a
/// nonzero bond) applies before the cap, so an explicit max_keep == 0 request
/// wins and returns 0.
index_t svd_rank(const std::vector<real_t>& s, real_t cutoff, index_t max_keep);

}  // namespace tt::linalg
