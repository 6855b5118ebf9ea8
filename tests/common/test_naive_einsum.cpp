// The whole suite validates the production dense and block contractions
// against tests/common/naive_einsum.hpp — so the oracle itself is checked
// here against contractions small enough to compute by hand.
#include <gtest/gtest.h>

#include "common/naive_einsum.hpp"
#include "support/error.hpp"
#include "tensor/dense.hpp"

namespace {

using tt::tensor::DenseTensor;
using tt::testing::naive_einsum;

TEST(NaiveEinsum, MatrixVectorProduct) {
  // [[1 2 3], [4 5 6]] · [1 1 1] = [6, 15]
  DenseTensor a({2, 3});
  for (tt::index_t i = 0; i < 6; ++i) a[i] = static_cast<tt::real_t>(i + 1);
  DenseTensor x({3}, 1.0);
  DenseTensor y = naive_einsum("ij,j->i", a, x);
  ASSERT_EQ(y.order(), 1);
  ASSERT_EQ(y.dim(0), 2);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
}

TEST(NaiveEinsum, MatrixMatrixProduct) {
  // [[1 2], [3 4]] · [[5 6], [7 8]] = [[19 22], [43 50]]
  DenseTensor a({2, 2}), b({2, 2});
  a.at({0, 0}) = 1; a.at({0, 1}) = 2; a.at({1, 0}) = 3; a.at({1, 1}) = 4;
  b.at({0, 0}) = 5; b.at({0, 1}) = 6; b.at({1, 0}) = 7; b.at({1, 1}) = 8;
  DenseTensor c = naive_einsum("ik,kj->ij", a, b);
  EXPECT_DOUBLE_EQ(c.at({0, 0}), 19.0);
  EXPECT_DOUBLE_EQ(c.at({0, 1}), 22.0);
  EXPECT_DOUBLE_EQ(c.at({1, 0}), 43.0);
  EXPECT_DOUBLE_EQ(c.at({1, 1}), 50.0);
}

TEST(NaiveEinsum, TransposedOutput) {
  // Same product, output written as ji: c_ji = Σ_k a_ik b_kj.
  DenseTensor a({2, 2}), b({2, 2});
  a.at({0, 0}) = 1; a.at({0, 1}) = 2; a.at({1, 0}) = 3; a.at({1, 1}) = 4;
  b.at({0, 0}) = 5; b.at({0, 1}) = 6; b.at({1, 0}) = 7; b.at({1, 1}) = 8;
  DenseTensor c = naive_einsum("ik,kj->ji", a, b);
  EXPECT_DOUBLE_EQ(c.at({0, 0}), 19.0);
  EXPECT_DOUBLE_EQ(c.at({1, 0}), 22.0);
  EXPECT_DOUBLE_EQ(c.at({0, 1}), 43.0);
  EXPECT_DOUBLE_EQ(c.at({1, 1}), 50.0);
}

TEST(NaiveEinsum, InnerProductToScalar) {
  // [1 2 3] · [4 5 6] = 32, as an order-0 tensor.
  DenseTensor a({3}), b({3});
  for (tt::index_t i = 0; i < 3; ++i) {
    a[i] = static_cast<tt::real_t>(i + 1);
    b[i] = static_cast<tt::real_t>(i + 4);
  }
  DenseTensor s = naive_einsum("i,i->", a, b);
  ASSERT_EQ(s.order(), 0);
  ASSERT_EQ(s.size(), 1);
  EXPECT_DOUBLE_EQ(s[0], 32.0);
}

TEST(NaiveEinsum, OuterProduct) {
  // No contracted label: c_ij = a_i b_j.
  DenseTensor a({2}), b({3});
  a[0] = 2; a[1] = 3;
  b[0] = 1; b[1] = 10; b[2] = 100;
  DenseTensor c = naive_einsum("i,j->ij", a, b);
  EXPECT_DOUBLE_EQ(c.at({0, 0}), 2.0);
  EXPECT_DOUBLE_EQ(c.at({0, 2}), 200.0);
  EXPECT_DOUBLE_EQ(c.at({1, 1}), 30.0);
}

TEST(NaiveEinsum, BatchedLabelAppearsEverywhere) {
  // c_bi = Σ_k a_bik x_bk with b a batch label on both operands and output.
  DenseTensor a({2, 2, 2}), x({2, 2});
  // batch 0: identity, batch 1: [[0 1], [1 0]].
  a.at({0, 0, 0}) = 1; a.at({0, 1, 1}) = 1;
  a.at({1, 0, 1}) = 1; a.at({1, 1, 0}) = 1;
  x.at({0, 0}) = 3; x.at({0, 1}) = 4;
  x.at({1, 0}) = 5; x.at({1, 1}) = 6;
  DenseTensor c = naive_einsum("bik,bk->bi", a, x);
  EXPECT_DOUBLE_EQ(c.at({0, 0}), 3.0);
  EXPECT_DOUBLE_EQ(c.at({0, 1}), 4.0);
  EXPECT_DOUBLE_EQ(c.at({1, 0}), 6.0);
  EXPECT_DOUBLE_EQ(c.at({1, 1}), 5.0);
}

TEST(NaiveEinsum, Order3TimesOrder2TwoContractions) {
  // c_a = Σ_{b,c} t_abc m_bc: contract two labels at once against
  // t_abc = a + 10b + 100c on a 2x2x2 tensor and m = all-ones.
  DenseTensor t({2, 2, 2});
  for (tt::index_t ia = 0; ia < 2; ++ia)
    for (tt::index_t ib = 0; ib < 2; ++ib)
      for (tt::index_t ic = 0; ic < 2; ++ic)
        t.at({ia, ib, ic}) = static_cast<tt::real_t>(ia + 10 * ib + 100 * ic);
  DenseTensor m({2, 2}, 1.0);
  DenseTensor c = naive_einsum("abc,bc->a", t, m);
  // Σ over b,c of (a + 10b + 100c) = 4a + 10·2 + 100·2 = 4a + 220.
  EXPECT_DOUBLE_EQ(c[0], 220.0);
  EXPECT_DOUBLE_EQ(c[1], 224.0);
}

TEST(NaiveEinsum, MalformedSpecThrows) {
  DenseTensor a({2, 2}), b({2, 2});
  EXPECT_THROW(naive_einsum("ik,kj", a, b), tt::Error);   // no arrow
  EXPECT_THROW(naive_einsum("ikkj->ij", a, b), tt::Error);  // no comma
}

}  // namespace
