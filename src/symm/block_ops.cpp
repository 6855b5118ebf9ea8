#include "symm/block_ops.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>

#include "runtime/trace.hpp"
#include "support/thread_pool.hpp"
#include "tensor/contract.hpp"

namespace tt::symm {

namespace {

// Mixed-radix sector codes, the block numbering of a blocked tensor: digit i
// of a code is the sector id on modes[i], with the sector count of that mode
// as its radix. Equal codes over the same modes mean equal sector ids, so a
// code stands in for a key part without building one.
struct SectorCode {
  std::vector<int> modes;
  std::vector<std::uint64_t> weights;  // last digit fastest

  std::uint64_t of(std::span<const int> key) const {
    std::uint64_t code = 0;
    for (std::size_t i = 0; i < modes.size(); ++i)
      code += weights[i] * static_cast<std::uint64_t>(key[static_cast<std::size_t>(modes[i])]);
    return code;
  }
};

// Codes over `modes` of `t`, whose digits continue a code already spanning
// `span` values (the first call starts at 1): the weights of `modes` are
// scaled past it, and `span` grows to the joint code space.
SectorCode sector_code(const BlockTensor& t, const std::vector<int>& modes,
                       std::uint64_t& span) {
  SectorCode c{modes, std::vector<std::uint64_t>(modes.size())};
  for (std::size_t i = modes.size(); i-- > 0;) {
    c.weights[i] = span;
    const auto radix =
        static_cast<std::uint64_t>(t.index(modes[i]).num_sectors());
    TT_CHECK(span <= std::numeric_limits<std::uint64_t>::max() / radix,
             "block contraction: more than 2^64 sector combinations to number");
    span *= radix;
  }
  return c;
}

// One block of b within the contracted-sector groups.
struct BEntry {
  std::uint64_t con_code;  // over b's contracted modes
  std::uint64_t out_code;  // b's free modes' share of the output code
  std::uint32_t row;       // b's table row: the order within a group
  tensor::ConstView blk;
  double n_dim, words;
};

// One block of a with partners in b: the group [lo, hi) of the sorted BEntry.
struct AEntry {
  std::uint64_t out_code;  // a's free modes' share of the output code
  tensor::ConstView blk;
  double m_dim, k_dim, words;
  std::uint32_t lo, hi;
};

BlockOpCost pair_cost(const AEntry& x, const BEntry& y) {
  return {2.0 * x.m_dim * y.n_dim * x.k_dim, x.words, y.words, x.m_dim * y.n_dim};
}

constexpr std::size_t kNoBin = std::numeric_limits<std::size_t>::max();

// enumerate_bins' working arrays: one set per thread, grown, never shrunk.
struct EnumScratch {
  std::vector<BEntry> b;
  std::vector<AEntry> a;
  std::vector<std::pair<std::uint64_t, std::size_t>> table;  // code -> bin, or kNoBin
  std::vector<std::size_t> bin_of;  // per pair, in enumeration order
};

}  // namespace

ContractPlan make_contract_plan(const BlockTensor& a, const BlockTensor& b,
                                const std::vector<std::pair<int, int>>& pairs) {
  ContractPlan plan;
  plan.layout = tensor::contract_layout(a.order(), b.order(), pairs);
  for (auto [ma, mb] : pairs)
    TT_CHECK(a.index(ma).contractible_with(b.index(mb)),
             "legs not contractible on pair (" << ma << "," << mb
                                               << "): sector/direction mismatch");
  const tensor::ContractLayout& l = plan.layout;
  plan.out_indices.reserve(l.free_a.size() + l.free_b.size());
  for (int m : l.free_a) plan.out_indices.push_back(a.index(m));
  for (int m : l.free_b) plan.out_indices.push_back(b.index(m));
  plan.out_flux = a.flux() + b.flux();
  return plan;
}

BinList enumerate_bins(const BlockTensor& a, const BlockTensor& b,
                       const ContractPlan& plan) {
  const tensor::ContractLayout& l = plan.layout;
  // Contracted legs carry equal sector lists, so a's and b's contracted
  // codes share their weights; output codes number free(a) ++ free(b), last
  // mode fastest: the output tensor's own key codes.
  std::uint64_t con_span = 1, out_span = 1;
  const SectorCode con_b = sector_code(b, l.con_b, con_span);
  const SectorCode con_a{l.con_a, con_b.weights};
  const SectorCode out_b = sector_code(b, l.free_b, out_span);
  const SectorCode out_a = sector_code(a, l.free_a, out_span);
  thread_local EnumScratch s;

  // --- group B's blocks by contracted sectors (sort join) -------------------
  // Ties sort by row, so each group stays in b's key order.
  s.b.clear();
  for (const auto& [key, blk] : b.blocks()) {
    double n_dim = 1.0;
    for (int m : l.free_b) n_dim *= static_cast<double>(blk.dim(m));
    s.b.push_back({con_b.of(key), out_b.of(key), static_cast<std::uint32_t>(s.b.size()),
                   blk, n_dim, static_cast<double>(blk.size())});
  }
  std::ranges::sort(s.b, {}, [](const auto& e) { return std::pair(e.con_code, e.row); });

  s.a.clear();
  std::size_t npairs = 0;
  for (const auto& [akey, ablk] : a.blocks()) {
    auto group = std::ranges::equal_range(s.b, con_a.of(akey), {}, &BEntry::con_code);
    if (group.empty()) continue;
    // m and k depend only on the A block; n on the B block.
    AEntry x{out_a.of(akey), ablk, 1.0, 1.0, static_cast<double>(ablk.size()),
             static_cast<std::uint32_t>(group.begin() - s.b.begin()),
             static_cast<std::uint32_t>(group.end() - s.b.begin())};
    for (int m : l.free_a) x.m_dim *= static_cast<double>(ablk.dim(m));
    for (int m : l.con_a) x.k_dim *= static_cast<double>(ablk.dim(m));
    s.a.push_back(x);
    npairs += x.hi - x.lo;
  }

  // --- bin the Algorithm 2 pair list by output block ------------------------
  // Enumeration order fixes the bin order (first touch) and the within-bin
  // accumulation order. The table has at least twice as many slots as there
  // are pairs, so every probe ends at a free slot.
  int bits = 6;
  while ((std::size_t{1} << bits) < 2 * npairs) ++bits;
  const std::size_t mask = (std::size_t{1} << bits) - 1;
  s.table.assign(mask + 1, {0, kNoBin});
  if (s.bin_of.size() < npairs) s.bin_of.resize(npairs);
  BinList bins;  // per-bin arrays sized for the most bins there can be
  bins.out_code.reserve(npairs);
  bins.est_flops.reserve(npairs);
  bins.begin.reserve(npairs + 1);
  bins.begin.push_back(0);
  std::size_t p = 0;
  for (const AEntry& x : s.a)
    for (std::uint32_t j = x.lo; j < x.hi; ++j) {
      const std::uint64_t code = x.out_code + s.b[j].out_code;
      auto h = static_cast<std::size_t>((code * 0x9E3779B97F4A7C15ull) >> (64 - bits));
      while (s.table[h].second != kNoBin && s.table[h].first != code) h = (h + 1) & mask;
      if (s.table[h].second == kNoBin) {
        s.table[h] = {code, bins.out_code.size()};
        bins.out_code.push_back(code);
        bins.est_flops.push_back(0.0);
        bins.begin.push_back(0);
      }
      const std::size_t g = s.bin_of[p++] = s.table[h].second;
      ++bins.begin[g + 1];  // the bin's pair count, for now
      bins.est_flops[g] += pair_cost(x, s.b[j]).flops;
    }

  // --- counting sort of the pairs by bin, stable ----------------------------
  // begin[g] walks from the start of bin g to its end; a shift restores it.
  std::partial_sum(bins.begin.begin(), bins.begin.end(), bins.begin.begin());
  bins.pairs.resize(npairs);
  p = 0;
  for (const AEntry& x : s.a)
    for (std::uint32_t j = x.lo; j < x.hi; ++j)
      bins.pairs[bins.begin[s.bin_of[p++]]++] = {x.blk, s.b[j].blk, pair_cost(x, s.b[j])};
  std::shift_right(bins.begin.begin(), bins.begin.end(), 1);
  bins.begin[0] = 0;
  return bins;
}

void add_bin_stats(const BinList& bins, ContractStats& stats) {
  stats.num_bins += static_cast<int>(bins.size());
  for (const BinPair& pw : bins.pairs) stats.total_flops += pw.cost.flops;
}

BlockTensor layout_output(const ContractPlan& plan, const BinList& bins,
                          std::vector<tensor::View>& slots) {
  // Bins in code order: the table order of the output.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> order(bins.size());
  for (std::size_t g = 0; g < bins.size(); ++g)
    order[g] = {bins.out_code[g], static_cast<std::uint32_t>(g)};
  std::sort(order.begin(), order.end());
  std::vector<std::uint64_t> codes(bins.size());
  for (std::size_t r = 0; r < order.size(); ++r) codes[r] = order[r].first;

  BlockTensor c = BlockTensor::for_overwrite(plan.out_indices, plan.out_flux, codes);
  slots.resize(bins.size());
  for (std::size_t r = 0; r < order.size(); ++r) slots[order[r].second] = c.block_at(r);
  return c;
}

void execute_bin(std::span<const BinPair> pairs, const tensor::ContractLayout& layout,
                 tensor::View out) {
  std::fill_n(out.data(), out.size(), 0.0);
  for (const BinPair& pw : pairs)
    tensor::contract_accumulate(layout, pw.ablk, pw.bblk, out);
}

BlockTensor contract(const BlockTensor& a, const BlockTensor& b,
                     const std::vector<std::pair<int, int>>& pairs,
                     ContractStats* stats, int num_threads) {
  TT_TRACE_SPAN("symm.contract", rt::TraceCat::kContract);
  const ContractPlan plan = make_contract_plan(a, b, pairs);
  const BinList bins = enumerate_bins(a, b, plan);
  std::vector<tensor::View> slots;
  BlockTensor c = layout_output(plan, bins, slots);

  support::parallel_for(
      static_cast<index_t>(bins.size()),
      [&](index_t bi) {
        TT_TRACE_SPAN("symm.bin", rt::TraceCat::kContract);
        const auto i = static_cast<std::size_t>(bi);
        execute_bin(bins.pairs_of(i), plan.layout, slots[i]);
      },
      num_threads);
  if (stats) add_bin_stats(bins, *stats);
  return c;
}

}  // namespace tt::symm
