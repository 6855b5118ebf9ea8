// Dense row-major matrix of doubles.
//
// This is the storage type underneath every tensor block in the library; the
// parallel kernels (gemm.hpp, qr.hpp, svd.hpp, eigen.hpp) operate on it.
#pragma once

#include <vector>

#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace tt::linalg {

/// Dense rows×cols matrix, row-major contiguous storage.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}

  Matrix(index_t rows, index_t cols, real_t fill = 0.0)
      : rows_(rows), cols_(cols), data_(static_cast<std::size_t>(rows * cols), fill) {
    TT_CHECK(rows >= 0 && cols >= 0, "negative matrix dimension " << rows << "x" << cols);
  }

  static Matrix identity(index_t n) {
    Matrix m(n, n);
    for (index_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
  }

  /// Matrix with i.i.d. normal(0, 1) entries.
  static Matrix random(index_t rows, index_t cols, Rng& rng) {
    Matrix m(rows, cols);
    for (auto& v : m.data_) v = rng.normal();
    return m;
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  real_t& operator()(index_t i, index_t j) {
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }
  real_t operator()(index_t i, index_t j) const {
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }

  real_t* data() { return data_.data(); }
  const real_t* data() const { return data_.data(); }
  real_t* row(index_t i) { return data() + i * cols_; }
  const real_t* row(index_t i) const { return data() + i * cols_; }

  /// Out-of-place transpose.
  Matrix transposed() const;

  /// Max |a_ij|.
  real_t max_abs() const;

  Matrix& operator+=(const Matrix& o);
  Matrix& operator-=(const Matrix& o);
  Matrix& operator*=(real_t s);

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  index_t rows_, cols_;
  std::vector<real_t> data_;
};

/// Max |a_ij - b_ij|; matrices must have equal shape.
real_t max_abs_diff(const Matrix& a, const Matrix& b);

/// Throws tt::Error "non-finite input to <op>: entry (i, j) is <v>" at the
/// first NaN or infinite entry. The factorizations (svd, qr, lq, eigh) call it
/// before any arithmetic.
void check_finite(const Matrix& a, const char* op);

}  // namespace tt::linalg
