// Symmetric eigensolver.
//
// Used for the Rayleigh–Ritz step of the Davidson routine (paper Alg. 1 line
// 7 diagonalizes the small projected matrix M) and as a dense oracle in tests.
// eigh() validates shape, finiteness and symmetry, then runs cyclic Jacobi
// sweeps.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace tt::linalg {

/// Full eigendecomposition of a symmetric matrix: A = V · diag(w) · Vᵀ with
/// eigenvalues ascending and eigenvectors in the columns of `vectors`.
struct EigResult {
  std::vector<real_t> values;
  Matrix vectors;
};

/// Throws tt::Error if `a` is not square, holds a non-finite entry, or is not
/// symmetric to tolerance.
EigResult eigh(const Matrix& a, real_t symmetry_tol = 1e-10);

}  // namespace tt::linalg
