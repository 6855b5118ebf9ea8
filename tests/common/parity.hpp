// The determinism contract's test vocabulary: one bitwise comparator per type
// the contract covers, and the seeded operands the suites contract.
//
// The contract: a block contraction or a DMRG sweep gives the same bits at
// any TT_THREADS, rank count, spawn mode, trace, logging, prefetch or
// checkpoint-resume setting. The oracle matrices (runtime/contract_matrix,
// dmrg/sweep_matrix_*) assert it over the product of those axes. Each
// comparator returns an AssertionResult naming the first difference, so a
// caller writes EXPECT_TRUE(bitwise_equal(x, y)); doubles compare by bit
// pattern, not by value.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "dmrg/dmrg.hpp"
#include "dmrg/engine.hpp"
#include "mps/mps.hpp"
#include "runtime/tracker.hpp"
#include "support/rng.hpp"
#include "symm/block_ops.hpp"

namespace tt::testing {

inline bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

/// Same indices, flux and block keys; every block the same shape and bytes.
inline ::testing::AssertionResult bitwise_equal(const symm::BlockTensor& x,
                                                const symm::BlockTensor& y) {
  if (!x.same_structure(y) || x.num_blocks() != y.num_blocks())
    return ::testing::AssertionFailure() << "different structure or block count";
  int i = 0;
  for (const auto& [key, blk] : x.blocks()) {
    const auto other = y.find_block(key);
    if (!other || !tensor::same_shape(blk.shape(), other->shape()) ||
        std::memcmp(blk.data(), other->data(),
                    static_cast<std::size_t>(blk.size()) * sizeof(double)) != 0)
      return ::testing::AssertionFailure() << "block " << i << " (in key order) differs";
    ++i;
  }
  return ::testing::AssertionSuccess();
}

/// Every site tensor bitwise equal.
inline ::testing::AssertionResult bitwise_equal(const mps::Mps& x, const mps::Mps& y) {
  if (x.size() != y.size()) return ::testing::AssertionFailure() << "site counts differ";
  for (int j = 0; j < x.size(); ++j)
    if (auto r = bitwise_equal(x.site(j), y.site(j)); !r)
      return ::testing::AssertionFailure() << "site " << j << ": " << r.message();
  return ::testing::AssertionSuccess();
}

/// Every sweep's number, energy, truncation error and bond dimension.
inline ::testing::AssertionResult bitwise_equal(const std::vector<dmrg::SweepRecord>& x,
                                                const std::vector<dmrg::SweepRecord>& y) {
  if (x.size() != y.size()) return ::testing::AssertionFailure() << "sweep counts differ";
  for (std::size_t s = 0; s < x.size(); ++s)
    if (x[s].sweep != y[s].sweep || !same_bits(x[s].energy, y[s].energy) ||
        !same_bits(x[s].truncation_error, y[s].truncation_error) ||
        x[s].max_bond_dim != y[s].max_bond_dim)
      return ::testing::AssertionFailure()
             << "record " << s << ": sweep " << x[s].sweep << " E " << x[s].energy
             << " trunc " << x[s].truncation_error << " m " << x[s].max_bond_dim
             << " vs sweep " << y[s].sweep << " E " << y[s].energy << " trunc "
             << y[s].truncation_error << " m " << y[s].max_bond_dim;
  return ::testing::AssertionSuccess();
}

/// Record for record, every field.
inline ::testing::AssertionResult bitwise_equal(const std::vector<dmrg::OpRecord>& x,
                                                const std::vector<dmrg::OpRecord>& y) {
  if (x.size() != y.size())
    return ::testing::AssertionFailure() << x.size() << " vs " << y.size() << " records";
  for (std::size_t i = 0; i < x.size(); ++i)
    if (!(x[i] == y[i]))
      return ::testing::AssertionFailure() << "record " << i << " differs";
  return ::testing::AssertionSuccess();
}

/// Every category's time, flops, words and supersteps.
inline ::testing::AssertionResult bitwise_equal(const rt::CostTracker& x,
                                                const rt::CostTracker& y) {
  bool same = same_bits(x.flops(), y.flops()) && same_bits(x.words(), y.words()) &&
              same_bits(x.supersteps(), y.supersteps());
  for (int c = 0; c < rt::kNumCategories; ++c)
    same = same && same_bits(x.time(static_cast<rt::Category>(c)),
                             y.time(static_cast<rt::Category>(c)));
  if (!same) return ::testing::AssertionFailure() << "trackers differ";
  return ::testing::AssertionSuccess();
}

/// Flops (summed in the fixed bin order, so bitwise too) and bin count.
inline ::testing::AssertionResult bitwise_equal(const symm::ContractStats& x,
                                                const symm::ContractStats& y) {
  if (!same_bits(x.total_flops, y.total_flops) || x.num_bins != y.num_bins)
    return ::testing::AssertionFailure() << x.total_flops << " flops in " << x.num_bins
                                         << " bins vs " << y.total_flops << " in "
                                         << y.num_bins;
  return ::testing::AssertionSuccess();
}

/// A bond of `nsec` U(1) sectors, charges centred on 0, dims dim0 + q % 3.
inline symm::Index wide_bond(symm::Dir d, int nsec, int dim0) {
  std::vector<symm::Sector> secs;
  for (int q = 0; q < nsec; ++q)
    secs.push_back({symm::QN(q - nsec / 2), static_cast<index_t>(dim0 + q % 3)});
  return symm::Index(secs, d);
}

/// Operands a(l, s, r) and b(r̄, t, m) whose contraction over {{2, 0}}
/// ("lsr,rtm->lstm") has dozens of output bins, most of several pairs.
inline std::pair<symm::BlockTensor, symm::BlockTensor> many_block_pair(unsigned seed) {
  Rng rng(seed);
  const symm::Index phys({{symm::QN(-1), 2}, {symm::QN(1), 2}}, symm::Dir::In);
  const symm::Index mid = wide_bond(symm::Dir::Out, 11, 3);
  symm::BlockTensor a = symm::BlockTensor::random(
      {wide_bond(symm::Dir::In, 9, 2), phys, mid}, symm::QN::zero(1), rng);
  symm::BlockTensor b = symm::BlockTensor::random(
      {mid.reversed(), phys, wide_bond(symm::Dir::Out, 9, 2)}, symm::QN::zero(1), rng);
  return {std::move(a), std::move(b)};
}

/// Random index of 1–4 sectors with distinct small charges (one charge, or
/// two when qn_rank is 2) and dims 1–4.
inline symm::Index random_index(Rng& rng, int qn_rank, symm::Dir dir) {
  const int nsec = static_cast<int>(rng.integer(1, 4));
  std::vector<symm::Sector> sectors;
  std::vector<symm::QN> used;
  while (static_cast<int>(sectors.size()) < nsec) {
    symm::QN q = qn_rank == 1 ? symm::QN(static_cast<int>(rng.integer(-2, 2)))
                              : symm::QN(static_cast<int>(rng.integer(-1, 2)),
                                         static_cast<int>(rng.integer(-1, 1)));
    bool fresh = true;
    for (const symm::QN& u : used) fresh &= !(u == q);
    if (!fresh) continue;
    used.push_back(q);
    sectors.push_back({q, rng.integer(1, 4)});
  }
  return symm::Index(sectors, dir);
}

/// Random flux in {-1, 0, 1} on the first charge.
inline symm::QN random_flux(Rng& rng, int qn_rank) {
  return qn_rank == 1 ? symm::QN(static_cast<int>(rng.integer(-1, 1)))
                      : symm::QN(static_cast<int>(rng.integer(-1, 1)), 0);
}

}  // namespace tt::testing
