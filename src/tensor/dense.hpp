// Dense tensor with row-major storage, non-owning views of such storage, and
// parallel index permutation.
//
// A view is a data pointer plus a shape: the form in which a block tensor
// hands out the blocks of its one buffer (symm/block_tensor.hpp), and the
// form the contraction kernels read and write. The permutation kernel is the
// local stand-in for the HPTT library the paper uses inside Cyclops:
// contractions lower to permute → GEMM → permute.
#pragma once

#include <algorithm>
#include <initializer_list>
#include <span>
#include <type_traits>
#include <vector>

#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace tt::tensor {

class DenseTensor;

/// Non-owning row-major view of `shape` elements at `data`. `T` is real_t
/// (a writable view) or const real_t. A view does not outlive, and is not
/// kept across a reallocation of, the storage it points into.
template <class T>
class BasicView {
 public:
  BasicView() = default;
  BasicView(T* data, std::span<const index_t> shape) : data_(data), shape_(shape) {}

  /// A writable view reads as a read-only one.
  operator BasicView<const real_t>() const
    requires(!std::is_const_v<T>)
  {
    return {data_, shape_};
  }

  int order() const { return static_cast<int>(shape_.size()); }
  index_t dim(int mode) const { return shape_[static_cast<std::size_t>(mode)]; }
  std::span<const index_t> shape() const { return shape_; }
  index_t size() const {
    index_t n = 1;
    for (index_t d : shape_) n *= d;
    return n;
  }

  T* data() const { return data_; }
  T& operator[](index_t flat) const { return data_[flat]; }

  /// Multi-index element access (bounds unchecked in hot paths).
  T& at(std::span<const index_t> idx) const {
    TT_ASSERT(idx.size() == shape_.size(), "index order mismatch");
    index_t flat = 0;
    for (std::size_t m = 0; m < idx.size(); ++m) {
      TT_ASSERT(idx[m] >= 0 && idx[m] < shape_[m],
                "index " << idx[m] << " out of bounds for mode " << m);
      flat = flat * shape_[m] + idx[m];
    }
    return data_[flat];
  }
  T& at(std::initializer_list<index_t> idx) const {
    return at({idx.begin(), idx.size()});
  }

  /// Permuted copy: out mode i = in mode perm[i].
  DenseTensor permuted(std::span<const int> perm) const;

  real_t norm2() const;  ///< Frobenius norm.
  real_t max_abs() const;

 private:
  T* data_ = nullptr;
  std::span<const index_t> shape_;
};

using View = BasicView<real_t>;
using ConstView = BasicView<const real_t>;

/// True when the two shapes are equal.
inline bool same_shape(std::span<const index_t> x, std::span<const index_t> y) {
  return std::equal(x.begin(), x.end(), y.begin(), y.end());
}

/// Dense order-N tensor, row-major (last mode fastest).
class DenseTensor {
 public:
  DenseTensor() = default;

  explicit DenseTensor(std::vector<index_t> shape, real_t fill = 0.0);

  /// Copy of a view's elements.
  explicit DenseTensor(ConstView v);

  static DenseTensor random(std::vector<index_t> shape, Rng& rng);

  int order() const { return static_cast<int>(shape_.size()); }
  index_t dim(int mode) const { return shape_[static_cast<std::size_t>(mode)]; }
  const std::vector<index_t>& shape() const { return shape_; }
  index_t size() const;
  bool empty() const { return data_.empty(); }

  real_t* data() { return data_.data(); }
  const real_t* data() const { return data_.data(); }

  View view() { return {data(), shape_}; }
  ConstView view() const { return {data(), shape_}; }
  operator View() { return view(); }
  operator ConstView() const { return view(); }

  real_t& operator[](index_t flat) { return data_[static_cast<std::size_t>(flat)]; }
  real_t operator[](index_t flat) const { return data_[static_cast<std::size_t>(flat)]; }

  /// Multi-index element access (bounds unchecked in hot paths).
  real_t& at(std::span<const index_t> idx) { return view().at(idx); }
  real_t at(std::span<const index_t> idx) const { return view().at(idx); }
  real_t& at(std::initializer_list<index_t> idx) { return view().at(idx); }
  real_t at(std::initializer_list<index_t> idx) const { return view().at(idx); }

  /// Row-major strides (stride of last mode = 1).
  std::vector<index_t> strides() const;

  /// Permuted copy: out mode i = in mode perm[i].
  DenseTensor permuted(std::span<const int> perm) const { return view().permuted(perm); }
  DenseTensor permuted(std::initializer_list<int> perm) const {
    return permuted(std::span<const int>(perm.begin(), perm.size()));
  }

  void scale(real_t s);

  /// this += alpha * other (same shape).
  void axpy(real_t alpha, const DenseTensor& other);

  real_t norm2() const { return view().norm2(); }  ///< Frobenius norm.
  real_t max_abs() const { return view().max_abs(); }

 private:
  std::vector<index_t> shape_;
  std::vector<real_t> data_;
};

/// Inner product Σ aᵢ·bᵢ in element order (shapes must match).
real_t dot(ConstView a, ConstView b);

/// Max elementwise |a - b|.
real_t max_abs_diff(ConstView a, ConstView b);

extern template class BasicView<real_t>;
extern template class BasicView<const real_t>;

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
