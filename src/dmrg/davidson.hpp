// Davidson eigensolver on block tensors — paper Algorithm 1.
//
// Follows the paper's choices (§II.C): based on the ITensor implementation,
// no preconditioning, modified Gram–Schmidt re-orthogonalization with
// randomization to recover from breakdown, small subspace (size 2 during
// sweeps — each local problem starts from an excellent initial guess).
#pragma once

#include <functional>

#include "symm/block_tensor.hpp"

namespace tt::dmrg {

/// y = A·x through the implicit environment representation (fig 1d).
using BlockMatVec = std::function<symm::BlockTensor(const symm::BlockTensor&)>;

struct DavidsonOptions {
  int max_iter = 2;       ///< matvec budget per optimization (paper: 2)
  int subspace = 2;       ///< restart after this many basis vectors
  real_t tol = 1e-10;     ///< residual-norm convergence threshold
};

struct DavidsonResult {
  real_t eigenvalue = 0.0;
  symm::BlockTensor vector;  ///< normalized Ritz vector
  int matvecs = 0;
  bool converged = false;
};

/// Compute the smallest eigenpair of the symmetric operator `apply` starting
/// from guess `x0` (must be nonzero).
DavidsonResult davidson(const BlockMatVec& apply, symm::BlockTensor x0,
                        const DavidsonOptions& opts = {});

}  // namespace tt::dmrg
