#include "symm/block_ops.hpp"

#include <algorithm>
#include <map>

#include "runtime/trace.hpp"
#include "support/thread_pool.hpp"
#include "tensor/contract.hpp"

namespace tt::symm {

ContractPlan make_contract_plan(const BlockTensor& a, const BlockTensor& b,
                                const std::vector<std::pair<int, int>>& pairs) {
  std::vector<bool> con_a(static_cast<std::size_t>(a.order()), false);
  std::vector<bool> con_b(static_cast<std::size_t>(b.order()), false);
  for (auto [ma, mb] : pairs) {
    TT_CHECK(ma >= 0 && ma < a.order() && mb >= 0 && mb < b.order(),
             "contraction mode out of range (" << ma << "," << mb << ")");
    TT_CHECK(!con_a[static_cast<std::size_t>(ma)] && !con_b[static_cast<std::size_t>(mb)],
             "mode contracted twice");
    TT_CHECK(a.index(ma).contractible_with(b.index(mb)),
             "legs not contractible on pair (" << ma << "," << mb
                                               << "): sector/direction mismatch");
    con_a[static_cast<std::size_t>(ma)] = true;
    con_b[static_cast<std::size_t>(mb)] = true;
  }

  ContractPlan plan;
  plan.free_a.reserve(static_cast<std::size_t>(a.order()));
  plan.free_b.reserve(static_cast<std::size_t>(b.order()));
  for (int m = 0; m < a.order(); ++m)
    if (!con_a[static_cast<std::size_t>(m)]) plan.free_a.push_back(m);
  for (int m = 0; m < b.order(); ++m)
    if (!con_b[static_cast<std::size_t>(m)]) plan.free_b.push_back(m);

  plan.out_indices.reserve(plan.free_a.size() + plan.free_b.size());
  for (int m : plan.free_a) plan.out_indices.push_back(a.index(m));
  for (int m : plan.free_b) plan.out_indices.push_back(b.index(m));
  plan.out_flux = a.flux() + b.flux();
  return plan;
}

std::vector<OutputBin> enumerate_bins(const BlockTensor& a, const BlockTensor& b,
                                      const std::vector<std::pair<int, int>>& pairs,
                                      const ContractPlan& plan) {
  // --- group B's blocks by contracted sector ids (hash join) -----------------
  using ConKey = std::vector<int>;
  std::map<ConKey, std::vector<const std::pair<const BlockKey, tensor::DenseTensor>*>>
      b_groups;
  for (const auto& kv : b.blocks()) {
    ConKey ck(pairs.size());
    for (std::size_t t = 0; t < pairs.size(); ++t)
      ck[t] = kv.first[static_cast<std::size_t>(pairs[t].second)];
    b_groups[ck].push_back(&kv);
  }

  // --- bin the Algorithm 2 pair list by output block key ----------------------
  // Enumeration order (A blocks in key order, then B's group order) fixes both
  // the bin order and the within-bin accumulation order; neither depends on
  // the thread or rank count.
  std::map<BlockKey, std::size_t> bin_of;
  std::vector<OutputBin> bins;
  for (const auto& akv : a.blocks()) {
    const BlockKey& akey = akv.first;
    ConKey ck(pairs.size());
    for (std::size_t t = 0; t < pairs.size(); ++t)
      ck[t] = akey[static_cast<std::size_t>(pairs[t].first)];
    auto git = b_groups.find(ck);
    if (git == b_groups.end()) continue;

    // m and k depend only on the A block; n on the B block.
    double m_dim = 1.0, k_dim = 1.0;
    for (int m : plan.free_a)
      m_dim *= static_cast<double>(akv.second.dim(m));
    for (auto [ma, mb] : pairs) {
      (void)mb;
      k_dim *= static_cast<double>(akv.second.dim(ma));
    }
    const auto words_a = static_cast<double>(akv.second.size());

    for (const auto* bkv : git->second) {
      BlockKey ckey;
      ckey.reserve(plan.free_a.size() + plan.free_b.size());
      for (int m : plan.free_a) ckey.push_back(akey[static_cast<std::size_t>(m)]);
      for (int m : plan.free_b)
        ckey.push_back(bkv->first[static_cast<std::size_t>(m)]);
      auto [it, inserted] = bin_of.try_emplace(std::move(ckey), bins.size());
      if (inserted) {
        bins.emplace_back();
        bins.back().out_key = it->first;
      }
      double n_dim = 1.0;
      for (int m : plan.free_b)
        n_dim *= static_cast<double>(bkv->second.dim(m));
      const BlockOpCost cost{2.0 * m_dim * n_dim * k_dim, words_a,
                             static_cast<double>(bkv->second.size()), m_dim * n_dim};
      OutputBin& bin = bins[it->second];
      bin.pairs.push_back({&akv.second, &bkv->second, cost});
      bin.est_flops += cost.flops;
    }
  }
  return bins;
}

void add_bin_stats(const std::vector<OutputBin>& bins, ContractStats& stats) {
  stats.num_bins += static_cast<int>(bins.size());
  for (const OutputBin& bin : bins)
    for (const BinPair& pw : bin.pairs) {
      stats.total_flops += pw.cost.flops;
      stats.block_ops.push_back(pw.cost);
    }
}

tensor::DenseTensor execute_bin(const OutputBin& bin,
                                const std::vector<std::pair<int, int>>& pairs) {
  tensor::DenseTensor out =
      tensor::contract(*bin.pairs.front().ablk, *bin.pairs.front().bblk, pairs);
  for (std::size_t p = 1; p < bin.pairs.size(); ++p)
    out.axpy(1.0, tensor::contract(*bin.pairs[p].ablk, *bin.pairs[p].bblk, pairs));
  return out;
}

BlockTensor contract(const BlockTensor& a, const BlockTensor& b,
                     const std::vector<std::pair<int, int>>& pairs,
                     ContractStats* stats, int num_threads) {
  TT_TRACE_SPAN("symm.contract", rt::TraceCat::kContract);
  const ContractPlan plan = make_contract_plan(a, b, pairs);
  BlockTensor c(plan.out_indices, plan.out_flux);

  const std::vector<OutputBin> bins = enumerate_bins(a, b, pairs, plan);
  std::vector<tensor::DenseTensor> done(bins.size());

  support::parallel_for(
      static_cast<index_t>(bins.size()),
      [&](index_t bi) {
        TT_TRACE_SPAN("symm.bin", rt::TraceCat::kContract);
        done[static_cast<std::size_t>(bi)] =
            execute_bin(bins[static_cast<std::size_t>(bi)], pairs);
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
