#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "tensor/dense.hpp"

namespace {

using tt::Rng;
using tt::index_t;
using tt::tensor::DenseTensor;

TEST(DenseTensor, ShapeAndSize) {
  DenseTensor t({2, 3, 4});
  EXPECT_EQ(t.order(), 3);
  EXPECT_EQ(t.size(), 24);
  EXPECT_EQ(t.dim(1), 3);
}

TEST(DenseTensor, ScalarTensor) {
  DenseTensor s = DenseTensor::scalar(2.5);
  EXPECT_EQ(s.order(), 0);
  EXPECT_EQ(s.size(), 1);
  EXPECT_DOUBLE_EQ(s[0], 2.5);
}

TEST(DenseTensor, StridesRowMajor) {
  DenseTensor t({2, 3, 4});
  auto s = t.strides();
  EXPECT_EQ(s, (std::vector<index_t>{12, 4, 1}));
}

TEST(DenseTensor, MultiIndexMatchesFlat) {
  DenseTensor t({2, 3, 4});
  std::iota(t.data(), t.data() + t.size(), 0.0);
  EXPECT_DOUBLE_EQ(t.at({1, 2, 3}), 1 * 12 + 2 * 4 + 3);
  EXPECT_DOUBLE_EQ(t.at({0, 1, 0}), 4.0);
}

TEST(DenseTensor, OutOfBoundsIndexThrows) {
  DenseTensor t({2, 2});
  EXPECT_THROW(t.at({2, 0}), tt::Error);
  EXPECT_THROW(t.at({0, 0, 0}), tt::Error);
}

TEST(DenseTensor, PermuteMatrixTranspose) {
  Rng rng(2);
  DenseTensor t = DenseTensor::random({3, 5}, rng);
  DenseTensor p = t.permuted({1, 0});
  EXPECT_EQ(p.dim(0), 5);
  EXPECT_EQ(p.dim(1), 3);
  for (index_t i = 0; i < 3; ++i)
    for (index_t j = 0; j < 5; ++j) EXPECT_DOUBLE_EQ(p.at({j, i}), t.at({i, j}));
}

TEST(DenseTensor, PermuteOrder4AgainstDirectIndexing) {
  Rng rng(3);
  DenseTensor t = DenseTensor::random({2, 3, 4, 5}, rng);
  DenseTensor p = t.permuted({2, 0, 3, 1});
  for (index_t a = 0; a < 2; ++a)
    for (index_t b = 0; b < 3; ++b)
      for (index_t c = 0; c < 4; ++c)
        for (index_t d = 0; d < 5; ++d)
          EXPECT_DOUBLE_EQ(p.at({c, a, d, b}), t.at({a, b, c, d}));
}

class PermuteRoundTrip : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(PermuteRoundTrip, InversePermutationRestoresTensor) {
  const std::vector<int>& perm = GetParam();
  Rng rng(7);
  DenseTensor t = DenseTensor::random({3, 4, 2, 5}, rng);
  DenseTensor p = t.permuted(perm);
  std::vector<int> inv(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i)
    inv[static_cast<std::size_t>(perm[i])] = static_cast<int>(i);
  DenseTensor back = p.permuted(inv);
  EXPECT_DOUBLE_EQ(tt::tensor::max_abs_diff(back, t), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Perms, PermuteRoundTrip,
                         ::testing::Values(std::vector<int>{0, 1, 2, 3},
                                           std::vector<int>{3, 2, 1, 0},
                                           std::vector<int>{1, 0, 3, 2},
                                           std::vector<int>{2, 3, 0, 1},
                                           std::vector<int>{0, 2, 1, 3},
                                           std::vector<int>{3, 0, 2, 1}));

// permute_into drops unit modes and fuses modes adjacent on both sides before
// it walks; its per-mode state lives on the stack up to order 8 and on the
// heap beyond. Checked against element-by-element indexing.
struct PermuteCase {
  std::vector<index_t> shape;
  std::vector<int> perm;
};

class PermuteAgainstIndexing : public ::testing::TestWithParam<PermuteCase> {};

TEST_P(PermuteAgainstIndexing, EveryElementLandsWherePermSays) {
  const PermuteCase& c = GetParam();
  Rng rng(17);
  const DenseTensor t = DenseTensor::random(c.shape, rng);
  const DenseTensor p = t.permuted(c.perm);
  const int r = t.order();
  std::vector<index_t> in(static_cast<std::size_t>(r)), out(static_cast<std::size_t>(r));
  for (index_t flat = 0; flat < t.size(); ++flat) {
    index_t rest = flat;
    for (int m = r - 1; m >= 0; --m) {
      in[static_cast<std::size_t>(m)] = rest % t.dim(m);
      rest /= t.dim(m);
    }
    for (int i = 0; i < r; ++i)
      out[static_cast<std::size_t>(i)] = in[static_cast<std::size_t>(c.perm[static_cast<std::size_t>(i)])];
    ASSERT_EQ(p.at(out), t[flat]) << "input element " << flat;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PermuteAgainstIndexing,
    ::testing::Values(
        // the two-site matvec's t1 → [free, con]: unit physical modes
        PermuteCase{{4, 3, 1, 1, 5}, {0, 3, 4, 1, 2}},
        // adjacent modes that move together fuse into one
        PermuteCase{{2, 3, 4, 5}, {2, 3, 0, 1}},
        // order 10, above the stack-held order 8, with unit modes
        PermuteCase{{2, 1, 3, 1, 2, 2, 1, 2, 1, 3}, {9, 8, 3, 4, 5, 0, 1, 2, 7, 6}},
        // every mode but one is a unit mode: a plain copy
        PermuteCase{{1, 7, 1}, {2, 1, 0}}));

TEST(DenseTensor, PermuteRejectsInvalidPerm) {
  DenseTensor t({2, 2});
  EXPECT_THROW(t.permuted({0, 0}), tt::Error);
  EXPECT_THROW(t.permuted({0}), tt::Error);
  EXPECT_THROW(t.permuted({0, 2}), tt::Error);
}

TEST(DenseTensor, PermuteLargeParallelPath) {
  Rng rng(11);
  DenseTensor t = DenseTensor::random({64, 48, 32}, rng);  // > parallel threshold
  DenseTensor p = t.permuted({2, 1, 0});
  for (index_t a : {index_t{0}, index_t{13}, index_t{63}})
    for (index_t b : {index_t{0}, index_t{21}, index_t{47}})
      for (index_t c : {index_t{0}, index_t{9}, index_t{31}})
        EXPECT_DOUBLE_EQ(p.at({c, b, a}), t.at({a, b, c}));
}

TEST(DenseTensor, AxpyDotNorm) {
  Rng rng(4);
  DenseTensor a = DenseTensor::random({6, 7}, rng);
  DenseTensor b = DenseTensor::random({6, 7}, rng);
  const double ab = tt::tensor::dot(a, b);
  DenseTensor c = a;
  c.axpy(2.0, b);
  // <a+2b, a+2b> = |a|^2 + 4<a,b> + 4|b|^2
  const double expect = a.norm2() * a.norm2() + 4.0 * ab + 4.0 * b.norm2() * b.norm2();
  EXPECT_NEAR(c.norm2() * c.norm2(), expect, 1e-9);
}

// The dense kernels thread only through support::parallel_for, so TT_THREADS
// is their one thread knob; at every setting dot/norm2 sum in one fixed order
// and axpy/permuted write the same bits. 2^17+ elements is above every
// kernel's serial cutoff.
bool bitwise_equal(const DenseTensor& x, const DenseTensor& y) {
  const auto bytes = static_cast<std::size_t>(x.size()) * sizeof(double);
  return x.shape() == y.shape() && std::memcmp(x.data(), y.data(), bytes) == 0;
}

class DenseThreadCounts : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override { tt::support::set_num_threads(0); }
};

TEST_P(DenseThreadCounts, KernelsAreBitwiseEqualToSerial) {
  Rng rng(23);
  const DenseTensor a = DenseTensor::random({64, 48, 48}, rng);  // 147456
  const DenseTensor b = DenseTensor::random({64, 48, 48}, rng);
  const std::vector<int> perm = {2, 0, 1};

  tt::support::set_num_threads(1);
  const double dot1 = tt::tensor::dot(a, b);
  const double norm1 = a.norm2();
  DenseTensor axpy1 = a;
  axpy1.axpy(-0.75, b);
  const DenseTensor perm1 = a.permuted(perm);

  tt::support::set_num_threads(GetParam());
  EXPECT_EQ(tt::tensor::dot(a, b), dot1);
  EXPECT_EQ(a.norm2(), norm1);
  DenseTensor axpy_n = a;
  axpy_n.axpy(-0.75, b);
  EXPECT_TRUE(bitwise_equal(axpy_n, axpy1));
  EXPECT_TRUE(bitwise_equal(a.permuted(perm), perm1));

  // The serial run is itself the plain index-order sum and the true permute.
  double s = 0.0;
  for (index_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  EXPECT_EQ(dot1, s);
  EXPECT_DOUBLE_EQ(perm1.at({47, 63, 5}), a.at({63, 5, 47}));
}

INSTANTIATE_TEST_SUITE_P(TtThreads, DenseThreadCounts, ::testing::Values(1, 2, 3, 8));

TEST(DenseTensor, FillAndScale) {
  DenseTensor t({2, 2});
  t.fill(3.0);
  t.scale(-2.0);
  for (index_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(t[i], -6.0);
}

TEST(DenseTensor, ZeroDimensionTensor) {
  DenseTensor t({4, 0, 3});
  EXPECT_EQ(t.size(), 0);
  EXPECT_TRUE(t.empty());
  DenseTensor p = t.permuted({2, 1, 0});
  EXPECT_EQ(p.dim(0), 3);
  EXPECT_EQ(p.size(), 0);
}

}  // namespace
