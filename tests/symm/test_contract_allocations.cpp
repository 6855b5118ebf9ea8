// symm::contract allocates the same number of times whatever the size of its
// bin list: enumeration works in per-thread scratch that only grows, the bin
// list is a handful of flat arrays, and the output is laid out with its
// tables reserved up front. So a warm call that runs 10 bins and one that
// runs thousands make the same allocations. This executable replaces the
// global operator new with a counting one, which is why it stands alone.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "common/parity.hpp"
#include "support/thread_pool.hpp"
#include "symm/block_ops.hpp"

namespace {

std::atomic<long> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, ((n == 0 ? 1 : n) + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

// The array and nothrow forms of the standard library forward to these.
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using tt::Rng;
using tt::symm::BlockTensor;
using tt::symm::ContractStats;
using tt::symm::Dir;
using tt::testing::wide_bond;

const std::vector<std::pair<int, int>> kPairs = {{2, 0}};

// a(l, s, r) · b(r̄, t, m) over r, every leg `nsec` one-charge sectors of dims
// 1–3: the output bins grow about as nsec³, the blocks stay small.
std::pair<BlockTensor, BlockTensor> operands(int nsec) {
  Rng rng(static_cast<unsigned>(nsec));
  const auto mid = wide_bond(Dir::Out, nsec, 1);
  BlockTensor a = BlockTensor::random(
      {wide_bond(Dir::In, nsec, 1), wide_bond(Dir::In, nsec, 1), mid},
      tt::symm::QN::zero(1), rng);
  BlockTensor b = BlockTensor::random(
      {mid.reversed(), wide_bond(Dir::In, nsec, 1), wide_bond(Dir::Out, nsec, 1)},
      tt::symm::QN::zero(1), rng);
  return {std::move(a), std::move(b)};
}

long allocations_of_contract(const BlockTensor& a, const BlockTensor& b) {
  const long before = g_allocations.load();
  const BlockTensor c = tt::symm::contract(a, b, kPairs);
  return g_allocations.load() - before;
}

void expect_flat_allocation_count(int threads) {
  tt::support::set_num_threads(threads);
  const auto [sa, sb] = operands(3);
  const auto [la, lb] = operands(17);
  ContractStats small, large;
  (void)tt::symm::contract(sa, sb, kPairs, &small);
  (void)tt::symm::contract(la, lb, kPairs, &large);
  ASSERT_GE(small.num_bins, 5);
  ASSERT_LE(small.num_bins, 20);
  ASSERT_GT(large.num_bins, 2000);
  // Warm every participating thread's scratch: the enumeration arrays, the
  // GEMM packing buffers, the pool's threads.
  for (int i = 0; i < 3; ++i) {
    (void)tt::symm::contract(sa, sb, kPairs);
    (void)tt::symm::contract(la, lb, kPairs);
  }
  const long n_small = allocations_of_contract(sa, sb);
  const long n_large = allocations_of_contract(la, lb);
  EXPECT_GT(n_small, 0);
  EXPECT_EQ(n_small, n_large) << small.num_bins << " bins against " << large.num_bins;
  tt::support::set_num_threads(0);
}

TEST(ContractAllocations, SameCountForTenBinsAsForThousandsSerial) {
  expect_flat_allocation_count(1);
}

TEST(ContractAllocations, SameCountForTenBinsAsForThousandsOnFourThreads) {
  expect_flat_allocation_count(4);
}

}  // namespace
