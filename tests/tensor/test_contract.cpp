#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/naive_einsum.hpp"
#include "support/error.hpp"
#include "tensor/contract.hpp"

namespace {

using tt::Rng;
using tt::index_t;
using tt::tensor::DenseTensor;
using Pairs = std::vector<std::pair<int, int>>;

// One contraction named two ways: by mode pairs for tensor::contract, and by
// a hand-written spec whose output lists free(a) then free(b) for the oracle.
struct Case {
  std::string spec;
  Pairs pairs;
  std::vector<index_t> sa, sb;
};

class ContractParam : public ::testing::TestWithParam<Case> {};

TEST_P(ContractParam, MatchesNaiveReference) {
  const Case& c = GetParam();
  Rng rng(static_cast<unsigned>(c.spec.size()) * 97 + 5);
  DenseTensor a = DenseTensor::random(c.sa, rng);
  DenseTensor b = DenseTensor::random(c.sb, rng);
  DenseTensor got = tt::tensor::contract(a, b, c.pairs);
  DenseTensor want = tt::testing::naive_einsum(c.spec, a, b);
  ASSERT_EQ(got.shape(), want.shape()) << c.spec;
  EXPECT_LT(tt::tensor::max_abs_diff(got, want), 1e-10 * (1.0 + want.max_abs()))
      << c.spec;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ContractParam,
    ::testing::Values(
        // plain matmul
        Case{"ik,kj->ij", {{1, 0}}, {5, 7}, {7, 6}},
        // MPS-style: environment × site tensor
        Case{"akb,bsc->aksc", {{2, 0}}, {3, 4, 5}, {5, 2, 6}},
        // left-env update: order-3 × order-3
        Case{"akb,asc->kbsc", {{0, 0}}, {3, 4, 5}, {3, 2, 6}},
        // order-4 × order-4 MPO-like contraction
        Case{"kslm,mtun->ksltun", {{3, 0}}, {2, 3, 2, 4}, {4, 3, 2, 2}},
        // full contraction to scalar
        Case{"ab,ab->", {{0, 0}, {1, 1}}, {4, 6}, {4, 6}},
        // outer product (no contracted modes)
        Case{"ab,cd->abcd", {}, {2, 3}, {4, 2}},
        // single contracted mode, rest free
        Case{"abc,cd->abd", {{2, 0}}, {3, 2, 4}, {4, 5}},
        // contraction over three modes at once
        Case{"abcd,bcde->ae", {{1, 0}, {2, 1}, {3, 2}}, {2, 3, 4, 2}, {3, 4, 2, 5}},
        // ... with the pairs listed out of a's mode order
        Case{"abcd,bcde->ae", {{3, 2}, {1, 0}, {2, 1}}, {2, 3, 4, 2}, {3, 4, 2, 5}},
        // b's contracted modes in the reverse of a's order: b is permuted
        Case{"akl,lkc->ac", {{2, 0}, {1, 1}}, {3, 4, 2}, {2, 4, 5}},
        // vector cases
        Case{"a,ab->b", {{0, 0}}, {5}, {5, 3}},
        Case{"ab,b->a", {{1, 0}}, {3, 5}, {5}},
        Case{"a,a->", {{0, 0}}, {9}, {9}},
        // dimension-1 modes
        Case{"aib,bjc->aijc", {{2, 0}}, {1, 4, 3}, {3, 5, 1}},
        // transpose-lowered operands: a stored [con, free] ...
        Case{"ka,kb->ab", {{0, 0}}, {7, 5}, {7, 6}},
        Case{"kab,kc->abc", {{0, 0}}, {7, 3, 4}, {7, 5}},
        // ... b stored [free, con] ...
        Case{"ak,bk->ab", {{1, 1}}, {5, 7}, {6, 7}},
        Case{"ak,bck->abc", {{1, 2}}, {5, 7}, {3, 4, 7}},
        // ... and both at once, multi-mode contracted group
        Case{"klab,cdkl->abcd", {{0, 2}, {1, 3}}, {3, 2, 4, 5}, {2, 3, 3, 2}}));

TEST(Contract, PairOrderDoesNotChangeBits) {
  // The contracted modes enter GEMM's k in a's mode order whatever order the
  // pairs are listed in, so any listing runs the same GEMM.
  Rng rng(7);
  DenseTensor a = DenseTensor::random({2, 3, 4, 2}, rng);
  DenseTensor b = DenseTensor::random({3, 4, 2, 5}, rng);
  const DenseTensor x = tt::tensor::contract(a, b, {{1, 0}, {2, 1}, {3, 2}});
  const DenseTensor y = tt::tensor::contract(a, b, {{3, 2}, {2, 1}, {1, 0}});
  ASSERT_EQ(x.shape(), y.shape());
  const auto bytes = sizeof(double) * static_cast<std::size_t>(x.size());
  EXPECT_EQ(std::memcmp(x.data(), y.data(), bytes), 0);
}

TEST(Contract, RejectsModeOutOfRange) {
  Rng rng(4);
  DenseTensor a = DenseTensor::random({2, 2}, rng);
  DenseTensor b = DenseTensor::random({2, 2}, rng);
  EXPECT_THROW(tt::tensor::contract(a, b, {{2, 0}}), tt::Error);
  EXPECT_THROW(tt::tensor::contract(a, b, {{0, 2}}), tt::Error);
  EXPECT_THROW(tt::tensor::contract(a, b, {{-1, 0}}), tt::Error);
  EXPECT_THROW(tt::tensor::contract(a, b, {{0, -1}}), tt::Error);
}

TEST(Contract, RejectsModeContractedTwice) {
  Rng rng(4);
  DenseTensor a = DenseTensor::random({2, 2}, rng);
  DenseTensor b = DenseTensor::random({2, 2}, rng);
  EXPECT_THROW(tt::tensor::contract(a, b, {{0, 0}, {0, 1}}), tt::Error);  // a mode 0
  EXPECT_THROW(tt::tensor::contract(a, b, {{0, 0}, {1, 0}}), tt::Error);  // b mode 0
  EXPECT_THROW(tt::tensor::contract(a, b, {{1, 1}, {1, 1}}), tt::Error);  // same pair
}

TEST(Contract, RejectsDimensionMismatch) {
  Rng rng(5);
  DenseTensor a = DenseTensor::random({2, 3}, rng);
  DenseTensor b = DenseTensor::random({4, 2}, rng);
  EXPECT_THROW(tt::tensor::contract(a, b, {{1, 0}}), tt::Error);
}

TEST(Contract, AccumulateAddsOnePairIntoAnExistingOutput) {
  // Both operands need a permuted copy, as in the two-site matvec. With k
  // inside one GEMM k panel, out += a·b has the bits of out + contract(a, b).
  Rng rng(8);
  const DenseTensor a = DenseTensor::random({3, 2, 4, 5}, rng);
  const DenseTensor b = DenseTensor::random({2, 6, 4}, rng);
  const Pairs pairs = {{1, 0}, {2, 2}};
  const auto layout = tt::tensor::contract_layout(a.order(), b.order(), pairs);
  EXPECT_TRUE(layout.permute_a);
  EXPECT_TRUE(layout.permute_b);

  DenseTensor out = DenseTensor::random(tt::tensor::contract_shape(layout, a, b), rng);
  DenseTensor want = out;
  want.axpy(1.0, tt::tensor::contract(a, b, pairs));
  tt::tensor::contract_accumulate(layout, a, b, out);
  ASSERT_EQ(out.shape(), want.shape());
  EXPECT_EQ(std::memcmp(out.data(), want.data(), sizeof(double) * static_cast<std::size_t>(out.size())),
            0);
}

TEST(Contract, AccumulateRejectsBlocksThatDisagreeWithTheLayout) {
  Rng rng(9);
  const DenseTensor a = DenseTensor::random({3, 4}, rng);
  const DenseTensor b = DenseTensor::random({4, 5}, rng);
  const auto layout = tt::tensor::contract_layout(2, 2, {{1, 0}});
  DenseTensor out({3, 5});
  EXPECT_NO_THROW(tt::tensor::contract_accumulate(layout, a, b, out));
  // wrong operand order, contracted dimension, output order and output dim
  EXPECT_THROW(tt::tensor::contract_accumulate(layout, DenseTensor::random({3, 4, 1}, rng), b, out),
               tt::Error);
  EXPECT_THROW(tt::tensor::contract_accumulate(layout, a, DenseTensor::random({3, 5}, rng), out),
               tt::Error);
  DenseTensor flat({15});
  EXPECT_THROW(tt::tensor::contract_accumulate(layout, a, b, flat), tt::Error);
  DenseTensor wide({3, 6});
  EXPECT_THROW(tt::tensor::contract_accumulate(layout, a, b, wide), tt::Error);
}

TEST(Contract, ZeroDimensionOperand) {
  Rng rng(6);
  DenseTensor a = DenseTensor::random({3, 0}, rng);
  DenseTensor b = DenseTensor::random({0, 4}, rng);
  DenseTensor c = tt::tensor::contract(a, b, {{1, 0}});
  EXPECT_EQ(c.dim(0), 3);
  EXPECT_EQ(c.dim(1), 4);
  EXPECT_DOUBLE_EQ(c.max_abs(), 0.0);
}

}  // namespace
