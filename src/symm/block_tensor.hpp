// Block-sparse tensor: the "list of quantum number blocks" representation
// (paper §IV-A, Fig 3a). Each admissible combination of index sectors owns an
// independent dense block.
#pragma once

#include <map>
#include <vector>

#include "support/rng.hpp"
#include "symm/index.hpp"
#include "tensor/dense.hpp"

namespace tt::symm {

/// Sector choice per mode — the key identifying one block.
using BlockKey = std::vector<int>;

/// Block-sparse tensor over directed sector'd indices with a total flux.
/// A block keyed by (s_0,…,s_{r-1}) is admissible iff
/// Σᵢ sign(dirᵢ)·qn(sectorᵢ) == flux.
class BlockTensor {
 public:
  BlockTensor() = default;
  BlockTensor(std::vector<Index> indices, QN flux);

  /// Tensor with every admissible block present and filled with N(0,1) noise.
  static BlockTensor random(std::vector<Index> indices, QN flux, Rng& rng);

  int order() const { return static_cast<int>(indices_.size()); }
  const Index& index(int mode) const { return indices_[static_cast<std::size_t>(mode)]; }
  const std::vector<Index>& indices() const { return indices_; }
  const QN& flux() const { return flux_; }

  /// Conservation check for a prospective block key.
  bool key_allowed(const BlockKey& key) const;

  /// Signed charge sum over a subset of modes of a key.
  QN partial_charge(const BlockKey& key, const std::vector<int>& modes) const;

  /// Dense shape of the block at `key` (one dim per mode).
  std::vector<index_t> block_shape(const BlockKey& key) const;

  /// Access a block, creating a zero block if admissible and absent.
  /// Throws for inadmissible keys.
  tensor::DenseTensor& block(const BlockKey& key);

  /// Existing block or nullptr.
  const tensor::DenseTensor* find_block(const BlockKey& key) const;

  /// Insert/accumulate: blocks[key] += t (creates if absent). Shape-checked.
  void accumulate(const BlockKey& key, tensor::DenseTensor t);

  const std::map<BlockKey, tensor::DenseTensor>& blocks() const { return blocks_; }
  int num_blocks() const { return static_cast<int>(blocks_.size()); }

  /// All admissible keys for this index structure (present or not).
  std::vector<BlockKey> admissible_keys() const;

  /// Stored elements (Σ over blocks of block size).
  index_t num_elements() const;

  /// Elements of the fused dense tensor (Π of fused dims).
  index_t dense_size() const;

  /// num_elements / dense_size — the fill fraction of the fused single tensor
  /// (paper Fig 2b plots exactly this).
  double fill_fraction() const;

  // ---- vector-space operations (blocks aligned by key) ----
  void scale(real_t s);
  void axpy(real_t alpha, const BlockTensor& other);  ///< this += α·other
  real_t norm2() const;

  /// Metadata view with all directions reversed and flux negated; block data
  /// unchanged (real scalars — the bra/adjoint tensor).
  BlockTensor dagger() const;

  /// Structural equality of index lists and flux (not data).
  bool same_structure(const BlockTensor& other) const;

 private:
  std::vector<Index> indices_;
  QN flux_;
  std::map<BlockKey, tensor::DenseTensor> blocks_;
};

/// Inner product Σ over matching blocks (tensors must share structure).
real_t dot(const BlockTensor& a, const BlockTensor& b);

/// Max |a − b| over the union of blocks.
real_t max_abs_diff(const BlockTensor& a, const BlockTensor& b);

}  // namespace tt::symm
