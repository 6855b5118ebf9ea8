// Block-wise matrix factorizations of block-sparse tensors.
//
// The paper performs SVD in the list format for all three algorithms (§IV-A):
// blocks are grouped by the quantum number of the fused row/column index, each
// group is reshaped into a matrix and decomposed independently, and the
// singular values are truncated *globally* across groups.
#pragma once

#include <limits>
#include <vector>

#include "symm/block_tensor.hpp"

namespace tt::symm {

/// Truncation policy for block_svd. The effective cutoff is
/// max(cutoff, rel_cutoff · σ_max); σ is kept while it exceeds that AND the
/// bond cap is not reached, so defaults truncate nothing. Truncation is
/// global — singular values from all quantum-number groups compete for the
/// same max_dim slots — and at least one σ is always kept (the bond is never
/// emptied). Discarded weight Σσ² lands in BlockSvd::truncation_error.
struct TruncParams {
  real_t cutoff = 0.0;  ///< drop singular values <= cutoff (paper: 1e-12 … 0)
  real_t rel_cutoff = 0.0;  ///< drop σ <= rel_cutoff · σ_max (MPO compression)
  index_t max_dim = std::numeric_limits<index_t>::max();  ///< bond cap m
};

/// Per-group matrix shape, reported for the runtime SVD cost model.
struct FactorShape {
  index_t rows = 0, cols = 0;

  bool operator==(const FactorShape&) const = default;
};

/// A = Q·R over the (row_modes | remaining) bipartition.
/// Q: row modes + new bond (Out, charge g = Σ_rows sign·qn), flux 0, QᵀQ = I.
/// R: new bond (In, charge g) + column modes, flux = flux(A).
struct BlockQr {
  BlockTensor q;
  BlockTensor r;
  std::vector<FactorShape> shapes;
};
BlockQr block_qr(const BlockTensor& a, const std::vector<int>& row_modes);

/// A = L·Q over the bipartition. Q has orthonormal rows (QQᵀ = I), flux 0,
/// bond (In, charge g − flux) leading; L: row modes + bond (Out), flux(A).
struct BlockLq {
  BlockTensor l;
  BlockTensor q;
  std::vector<FactorShape> shapes;
};
BlockLq block_lq(const BlockTensor& a, const std::vector<int>& row_modes);

/// A ≈ U·S·Vᵀ with global truncation across quantum-number groups.
struct BlockSvd {
  BlockTensor u;   ///< row modes + bond (Out), flux 0, orthonormal columns
  BlockTensor vt;  ///< bond (In) + column modes, flux = flux(A), orthonormal rows
  Index bond;      ///< the new bond as it appears on U (direction Out)

  /// Kept singular values per bond sector (aligned with bond.sectors()).
  std::vector<std::vector<real_t>> singular_values;

  real_t truncation_error = 0.0;  ///< Σ of discarded σ²
  index_t kept = 0;               ///< total kept bond dimension
  std::vector<FactorShape> shapes;  ///< per-group SVD shapes (cost model)

  /// U with singular values multiplied into the bond (center moves right).
  BlockTensor u_times_s() const;
  /// Vᵀ with singular values multiplied into the bond (center moves left).
  BlockTensor s_times_vt() const;
};
/// `num_threads` caps the executor threads factoring quantum-number groups
/// concurrently: 0 = the global TT_THREADS setting, 1 = serial. Results are
/// identical at any value.
BlockSvd block_svd(const BlockTensor& a, const std::vector<int>& row_modes,
                   const TruncParams& trunc = {}, int num_threads = 0);

}  // namespace tt::symm
