// Test helper: contract an MPO chain into the full many-body matrix
// ⟨s|H|s'⟩ for small systems (d^N kept tiny by the caller).
#pragma once

#include <vector>

#include "linalg/matrix.hpp"
#include "mps/mpo.hpp"
#include "symm/block_ops.hpp"
#include "common/fuse.hpp"

namespace tt::testing {

/// Full matrix of the MPO: rows = bra product states, cols = ket product
/// states, site 0 most significant.
inline linalg::Matrix mpo_to_dense_matrix(const mps::Mpo& h) {
  const int n = h.size();
  // Chain-contract over the MPO bonds: result legs
  // (k0, s0, s0', s1, s1', ..., s_{n-1}, s'_{n-1}, k_n).
  symm::BlockTensor acc = h.site(0);
  for (int j = 1; j < n; ++j)
    acc = symm::contract(acc, h.site(j), {{acc.order() - 1, 0}});

  tensor::DenseTensor d = testing::fuse_dense(acc);  // dims: 1, (d,d)×n, 1
  // Permute bra legs together then ket legs together.
  std::vector<int> perm;
  perm.push_back(0);
  for (int j = 0; j < n; ++j) perm.push_back(1 + 2 * j);      // bra legs
  for (int j = 0; j < n; ++j) perm.push_back(2 + 2 * j);      // ket legs
  perm.push_back(2 * n + 1);
  tensor::DenseTensor p = d.permuted(perm);

  index_t dim = 1;
  for (int j = 0; j < n; ++j) dim *= h.sites()->phys().dim();
  linalg::Matrix m(dim, dim);
  for (index_t r = 0; r < dim; ++r)
    for (index_t c = 0; c < dim; ++c) m(r, c) = p[r * dim + c];
  return m;
}

}  // namespace tt::testing
