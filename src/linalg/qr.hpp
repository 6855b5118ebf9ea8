// QR and LQ factorizations.
//
// Used for MPS canonicalization (paper §II.C: the left/right environments are
// kept orthogonal by QR-factoring each site). qr() and lq() reject a
// non-finite entry with tt::Error, then run a Householder factorization.
#pragma once

#include "linalg/matrix.hpp"

namespace tt::linalg {

/// Thin QR: A (m×n) = Q (m×r) · R (r×n) with r = min(m,n), QᵀQ = I,
/// R upper-triangular (upper-trapezoidal when m < n).
struct QrResult {
  Matrix q;
  Matrix r;
};
QrResult qr(const Matrix& a);

/// Thin LQ: A (m×n) = L (m×r) · Q (r×n) with r = min(m,n), QQᵀ = I,
/// L lower-triangular. Computed via QR of Aᵀ.
struct LqResult {
  Matrix l;
  Matrix q;
};
LqResult lq(const Matrix& a);

}  // namespace tt::linalg
