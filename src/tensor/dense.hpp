// Dense tensor with row-major storage and parallel index permutation.
//
// The permutation kernel is the local stand-in for the HPTT library the paper
// uses inside Cyclops: contractions lower to permute → GEMM → permute.
#pragma once

#include <initializer_list>
#include <span>
#include <vector>

#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace tt::tensor {

/// Dense order-N tensor, row-major (last mode fastest).
class DenseTensor {
 public:
  DenseTensor() = default;

  explicit DenseTensor(std::vector<index_t> shape, real_t fill = 0.0);

  static DenseTensor random(std::vector<index_t> shape, Rng& rng);

  /// Scalar (order-0) tensor.
  static DenseTensor scalar(real_t v);

  int order() const { return static_cast<int>(shape_.size()); }
  index_t dim(int mode) const { return shape_[static_cast<std::size_t>(mode)]; }
  const std::vector<index_t>& shape() const { return shape_; }
  index_t size() const;
  bool empty() const { return data_.empty(); }

  real_t* data() { return data_.data(); }
  const real_t* data() const { return data_.data(); }

  real_t& operator[](index_t flat) { return data_[static_cast<std::size_t>(flat)]; }
  real_t operator[](index_t flat) const { return data_[static_cast<std::size_t>(flat)]; }

  /// Multi-index element access (bounds unchecked in hot paths).
  real_t& at(std::span<const index_t> idx) { return data_[flat_index(idx)]; }
  real_t at(std::span<const index_t> idx) const { return data_[flat_index(idx)]; }
  real_t& at(std::initializer_list<index_t> idx) {
    return at(std::span<const index_t>(idx.begin(), idx.size()));
  }
  real_t at(std::initializer_list<index_t> idx) const {
    return const_cast<DenseTensor*>(this)->at(idx);
  }

  /// Row-major strides (stride of last mode = 1).
  std::vector<index_t> strides() const;

  /// Permuted copy: out mode i = in mode perm[i].
  DenseTensor permuted(std::span<const int> perm) const;
  DenseTensor permuted(std::initializer_list<int> perm) const {
    return permuted(std::span<const int>(perm.begin(), perm.size()));
  }

  void fill(real_t v);
  void scale(real_t s);

  /// this += alpha * other (same shape).
  void axpy(real_t alpha, const DenseTensor& other);

  real_t norm2() const;     ///< Frobenius norm.
  real_t max_abs() const;

 private:
  std::size_t flat_index(std::span<const index_t> idx) const;

  std::vector<index_t> shape_;
  std::vector<real_t> data_;
};

/// Inner product Σ aᵢ·bᵢ (shapes must match).
real_t dot(const DenseTensor& a, const DenseTensor& b);

/// Max elementwise |a - b|.
real_t max_abs_diff(const DenseTensor& a, const DenseTensor& b);

/// Parallel permutation into a preallocated output (HPTT stand-in), the
/// kernel behind DenseTensor::permuted and the block executor: `out`
/// receives the row-major `in` of shape `shape`, permuted by `perm`, which
/// maps output modes to input modes: out_idx[i] = in_idx[perm[i]]. Nothing
/// is checked — the caller validates `perm` once (a contraction does it once
/// per layout, not once per block) and sizes `out`. Allocates nothing up to
/// order 8; copies of more than 2^16 elements thread over the pool.
void permute_into(const real_t* in, std::span<const index_t> shape,
                  std::span<const int> perm, real_t* out);

}  // namespace tt::tensor
