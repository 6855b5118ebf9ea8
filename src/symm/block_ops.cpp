#include "symm/block_ops.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>

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

  std::uint64_t of(const BlockKey& key) const {
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
  const BlockKey* key;
  const tensor::DenseTensor* blk;
  double n_dim;
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

std::vector<OutputBin> enumerate_bins(const BlockTensor& a, const BlockTensor& b,
                                      const ContractPlan& plan) {
  const tensor::ContractLayout& l = plan.layout;
  // Contracted legs carry equal sector lists, so a's and b's contracted
  // codes share their weights; output codes number free(a) ++ free(b).
  std::uint64_t con_span = 1, out_span = 1;
  const SectorCode con_b = sector_code(b, l.con_b, con_span);
  const SectorCode con_a{l.con_a, con_b.weights};
  const SectorCode out_b = sector_code(b, l.free_b, out_span);
  const SectorCode out_a = sector_code(a, l.free_a, out_span);

  // --- group B's blocks by contracted sectors (sort join) -------------------
  // A stable sort keeps each group in b's key order.
  std::vector<BEntry> b_entries;
  b_entries.reserve(b.blocks().size());
  for (const auto& [key, blk] : b.blocks()) {
    double n_dim = 1.0;
    for (int m : l.free_b) n_dim *= static_cast<double>(blk.dim(m));
    b_entries.push_back({con_b.of(key), out_b.of(key), &key, &blk, n_dim});
  }
  std::stable_sort(b_entries.begin(), b_entries.end(),
                   [](const BEntry& x, const BEntry& y) { return x.con_code < y.con_code; });

  // --- bin the Algorithm 2 pair list by output block ------------------------
  // Enumeration order (A blocks in key order, then B's group order) fixes both
  // the bin order and the within-bin accumulation order; neither depends on
  // the thread or rank count.
  // tt-lint: allow(ordered-iteration) lookup-only: output code -> bin index; bins are ordered by first touch in the fixed enumeration, never by this map
  std::unordered_map<std::uint64_t, std::size_t> bin_of;
  std::vector<OutputBin> bins;
  for (const auto& [akey, ablk] : a.blocks()) {
    const std::uint64_t ccode = con_a.of(akey);
    auto group = std::equal_range(
        b_entries.begin(), b_entries.end(), BEntry{ccode, 0, nullptr, nullptr, 0.0},
        [](const BEntry& x, const BEntry& y) { return x.con_code < y.con_code; });
    if (group.first == group.second) continue;

    // m and k depend only on the A block; n on the B block.
    double m_dim = 1.0, k_dim = 1.0;
    for (int m : l.free_a) m_dim *= static_cast<double>(ablk.dim(m));
    for (int m : l.con_a) k_dim *= static_cast<double>(ablk.dim(m));
    const auto words_a = static_cast<double>(ablk.size());
    const std::uint64_t acode = out_a.of(akey);

    for (auto it = group.first; it != group.second; ++it) {
      auto [slot, inserted] = bin_of.try_emplace(acode + it->out_code, bins.size());
      if (inserted) {
        OutputBin& fresh = bins.emplace_back();
        fresh.out_key.reserve(l.free_a.size() + l.free_b.size());
        for (int m : l.free_a) fresh.out_key.push_back(akey[static_cast<std::size_t>(m)]);
        for (int m : l.free_b)
          fresh.out_key.push_back((*it->key)[static_cast<std::size_t>(m)]);
      }
      const BlockOpCost cost{2.0 * m_dim * it->n_dim * k_dim, words_a,
                             static_cast<double>(it->blk->size()), m_dim * it->n_dim};
      OutputBin& bin = bins[slot->second];
      bin.pairs.push_back({&ablk, it->blk, cost});
      bin.est_flops += cost.flops;
    }
  }
  return bins;
}

void add_bin_stats(const std::vector<OutputBin>& bins, ContractStats& stats) {
  stats.num_bins += static_cast<int>(bins.size());
  for (const OutputBin& bin : bins)
    for (const BinPair& pw : bin.pairs) stats.total_flops += pw.cost.flops;
}

tensor::DenseTensor execute_bin(const OutputBin& bin, const tensor::ContractLayout& layout) {
  const BinPair& first = bin.pairs.front();
  tensor::DenseTensor out(tensor::contract_shape(layout, *first.ablk, *first.bblk));
  for (const BinPair& pw : bin.pairs)
    tensor::contract_accumulate(layout, *pw.ablk, *pw.bblk, out);
  return out;
}

BlockTensor contract(const BlockTensor& a, const BlockTensor& b,
                     const std::vector<std::pair<int, int>>& pairs,
                     ContractStats* stats, int num_threads) {
  TT_TRACE_SPAN("symm.contract", rt::TraceCat::kContract);
  const ContractPlan plan = make_contract_plan(a, b, pairs);
  BlockTensor c(plan.out_indices, plan.out_flux);

  const std::vector<OutputBin> bins = enumerate_bins(a, b, plan);
  std::vector<tensor::DenseTensor> done(bins.size());

  support::parallel_for(
      static_cast<index_t>(bins.size()),
      [&](index_t bi) {
        TT_TRACE_SPAN("symm.bin", rt::TraceCat::kContract);
        done[static_cast<std::size_t>(bi)] =
            execute_bin(bins[static_cast<std::size_t>(bi)], plan.layout);
      },
      num_threads);

  // Serial insertion in bin order (every bin has >= 1 pair, so every result
  // is populated); accumulate() shape-checks each block against the output
  // structure.
  for (std::size_t bi = 0; bi < bins.size(); ++bi)
    c.accumulate(bins[bi].out_key, std::move(done[bi]));
  if (stats) add_bin_stats(bins, *stats);
  return c;
}

}  // namespace tt::symm
