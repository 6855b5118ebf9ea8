#include <gtest/gtest.h>

#include <cmath>

#include "linalg/matrix.hpp"
#include "support/error.hpp"

namespace {

using tt::Rng;
using tt::linalg::Matrix;

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 0);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, FillConstructor) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  for (tt::index_t i = 0; i < 2; ++i)
    for (tt::index_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(m(i, j), 1.5);
}

TEST(Matrix, IdentityDiagonal) {
  Matrix id = Matrix::identity(4);
  for (tt::index_t i = 0; i < 4; ++i)
    for (tt::index_t j = 0; j < 4; ++j)
      EXPECT_DOUBLE_EQ(id(i, j), i == j ? 1.0 : 0.0);
}

TEST(Matrix, RowMajorLayout) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(0, 2) = 3;
  m(1, 0) = 4;
  EXPECT_DOUBLE_EQ(m.data()[0], 1.0);
  EXPECT_DOUBLE_EQ(m.data()[2], 3.0);
  EXPECT_DOUBLE_EQ(m.data()[3], 4.0);
  EXPECT_EQ(m.row(1), m.data() + 3);
}

TEST(Matrix, TransposeInvolution) {
  Rng rng(3);
  Matrix a = Matrix::random(5, 7, rng);
  Matrix att = a.transposed().transposed();
  EXPECT_DOUBLE_EQ(tt::linalg::max_abs_diff(a, att), 0.0);
}

TEST(Matrix, TransposeElements) {
  Matrix a(2, 3);
  a(0, 1) = 5.0;
  a(1, 2) = -2.0;
  Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_DOUBLE_EQ(t(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(t(2, 1), -2.0);
}

TEST(Matrix, PlusMinusScale) {
  Matrix a(2, 2, 1.0), b(2, 2, 2.0);
  a += b;
  EXPECT_DOUBLE_EQ(a(1, 1), 3.0);
  a -= b;
  EXPECT_DOUBLE_EQ(a(0, 0), 1.0);
  a *= 4.0;
  EXPECT_DOUBLE_EQ(a(0, 1), 4.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_THROW(a += b, tt::Error);
  EXPECT_THROW(tt::linalg::max_abs_diff(a, b), tt::Error);
}

TEST(Matrix, MaxAbs) {
  Matrix a(2, 2);
  a(0, 1) = -7.0;
  a(1, 0) = 3.0;
  EXPECT_DOUBLE_EQ(a.max_abs(), 7.0);
}

TEST(Matrix, ZeroDimensionAllowed) {
  Matrix a(0, 5);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.size(), 0);
}

}  // namespace
