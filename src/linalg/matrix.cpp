#include "linalg/matrix.hpp"

#include <cmath>

namespace tt::linalg {

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  constexpr index_t kBlock = 32;  // cache-blocked transpose
  for (index_t ib = 0; ib < rows_; ib += kBlock)
    for (index_t jb = 0; jb < cols_; jb += kBlock) {
      const index_t ie = std::min(ib + kBlock, rows_);
      const index_t je = std::min(jb + kBlock, cols_);
      for (index_t i = ib; i < ie; ++i)
        for (index_t j = jb; j < je; ++j) t(j, i) = (*this)(i, j);
    }
  return t;
}

real_t Matrix::max_abs() const {
  real_t m = 0.0;
  for (real_t v : data_) m = std::max(m, std::abs(v));
  return m;
}

Matrix& Matrix::operator+=(const Matrix& o) {
  TT_CHECK(rows_ == o.rows_ && cols_ == o.cols_, "shape mismatch in +=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& o) {
  TT_CHECK(rows_ == o.rows_ && cols_ == o.cols_, "shape mismatch in -=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(real_t s) {
  for (auto& v : data_) v *= s;
  return *this;
}

real_t max_abs_diff(const Matrix& a, const Matrix& b) {
  TT_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
           "max_abs_diff shape mismatch: " << a.rows() << "x" << a.cols() << " vs "
                                           << b.rows() << "x" << b.cols());
  real_t m = 0.0;
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t j = 0; j < a.cols(); ++j)
      m = std::max(m, std::abs(a(i, j) - b(i, j)));
  return m;
}

void check_finite(const Matrix& a, const char* op) {
  for (index_t i = 0; i < a.size(); ++i)
    TT_CHECK(std::isfinite(a.data()[i]), "non-finite input to " << op << ": entry ("
                                             << i / a.cols() << ", " << i % a.cols()
                                             << ") is " << a.data()[i]);
}

}  // namespace tt::linalg
