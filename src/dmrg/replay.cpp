#include "dmrg/replay.hpp"

#include <algorithm>
#include <map>

namespace tt::dmrg {

namespace {

using symm::BlockKey;
using symm::BlockTensor;
using Pairs = std::vector<std::pair<int, int>>;

// Exact nonzeros (x != 0.0): the elements a fused sparse tensor stores.
double nonzeros(const BlockTensor& t) {
  return static_cast<double>(
      std::ranges::count_if(t.elements(), [](real_t x) { return x != 0.0; }));
}

// Elements of the blocks holding at least one nonzero: what splitting a fused
// dense result back into blocks keeps.
double nonzero_block_words(const BlockTensor& t) {
  index_t n = 0;
  for (const auto& [key, blk] : t.blocks())
    if (std::any_of(blk.data(), blk.data() + blk.size(),
                    [](real_t x) { return x != 0.0; }))
      n += blk.size();
  return static_cast<double>(n);
}

// Nonzeros per contracted fused position, grouped by the sectors of the
// contracted `modes` (in pair order) and indexed row-major within a group.
using PositionCounts = std::map<BlockKey, std::vector<index_t>>;

PositionCounts nonzeros_by_position(const BlockTensor& t, const std::vector<int>& modes) {
  PositionCounts out;
  for (const auto& [key, blk] : t.blocks()) {
    const std::span<const index_t> shape = blk.shape();
    std::vector<index_t> weight(shape.size(), 0);
    index_t positions = 1;
    for (auto m = modes.rbegin(); m != modes.rend(); ++m) {
      weight[static_cast<std::size_t>(*m)] = positions;
      positions *= shape[static_cast<std::size_t>(*m)];
    }
    BlockKey sectors;
    for (int m : modes) sectors.push_back(key[static_cast<std::size_t>(m)]);
    std::vector<index_t>& counts = out[sectors];
    counts.resize(static_cast<std::size_t>(positions), 0);

    // Row-major odometer over the block, tracking the contracted position.
    std::vector<index_t> idx(shape.size(), 0);
    index_t pos = 0;
    for (index_t flat = 0; flat < blk.size(); ++flat) {
      if (blk[flat] != 0.0) ++counts[static_cast<std::size_t>(pos)];
      for (std::size_t m = shape.size(); m-- > 0;) {
        pos += weight[m];
        if (++idx[m] < shape[m]) break;
        pos -= shape[m] * weight[m];
        idx[m] = 0;
      }
    }
  }
  return out;
}

// Scalar products a fused sparse×sparse kernel forms: Σ over contracted
// positions of nnz(a)·nnz(b) there. Every product lands inside the output's
// admissible blocks, so the precomputed output mask never drops one.
double matched_products(const BlockTensor& a, const BlockTensor& b, const Pairs& pairs) {
  std::vector<int> modes_a, modes_b;
  for (const auto& [ma, mb] : pairs) {
    modes_a.push_back(ma);
    modes_b.push_back(mb);
  }
  const auto ca = nonzeros_by_position(a, modes_a);
  const auto cb = nonzeros_by_position(b, modes_b);
  index_t n = 0;
  for (const auto& [sectors, counts] : ca) {
    const auto it = cb.find(sectors);
    if (it == cb.end()) continue;
    for (std::size_t p = 0; p < counts.size(); ++p) n += counts[p] * it->second[p];
  }
  return static_cast<double>(n);
}

// What `kind` charges for one recorded contraction.
void price_contraction(EngineKind kind, const ContractionRecord& r,
                       const rt::Cluster& cluster, rt::CostTracker& t,
                       const rt::CostModelParams& params) {
  switch (kind) {
    case EngineKind::kReference: {
      // The serial single-node model of the ITensor baseline.
      double flops = 0.0;
      for (const symm::BlockOpCost& p : r.pairs) flops += p.flops;
      rt::charge_contraction(cluster, t, {flops, 0.0, 0.0, 0.0}, rt::Layout::kLocal,
                             params);
      return;
    }
    case EngineKind::kList:
      // One distributed dense contraction per block pair (paper Alg. 2): each
      // is an independent 3D-algorithm call with its own synchronization —
      // O(Nb) supersteps per Davidson iteration.
      for (const symm::BlockOpCost& p : r.pairs)
        rt::charge_contraction(cluster, t, {p.flops, p.words_a, p.words_b, p.words_c},
                               rt::Layout::kBlockDense3D, params);
      return;
    case EngineKind::kSparseDense: {
      // One fused 2D contraction: operators stored sparse, intermediates dense;
      // two operators (environment updates) keep a sparse.
      const bool ia = r.role_a == Role::kIntermediate;
      const bool ib = r.role_b == Role::kIntermediate;
      rt::ContractionCost cost;
      if (ia && ib) {
        cost = {2.0 * r.m * r.n * r.k, r.size_a, r.size_b, 0.0};
      } else if (ia) {
        cost = {2.0 * r.m * r.nnz_b, r.size_a, r.nnz_b, 0.0};
      } else {
        cost = {2.0 * r.n * r.nnz_a, r.nnz_a, r.size_b, 0.0};
      }
      // An intermediate result stays fused dense; an operator result is split
      // back into its nonzero blocks.
      cost.words_c = ia || ib ? r.size_c : r.nonzero_block_words_c;
      rt::charge_contraction(cluster, t, cost, rt::Layout::kFusedDense2D, params);
      return;
    }
    case EngineKind::kSparseSparse:
      // One fused sparse contraction with precomputed output sparsity.
      rt::charge_contraction(cluster, t,
                             {2.0 * r.matched_products, r.nnz_a, r.nnz_b, r.nnz_c},
                             rt::Layout::kFusedSparse2D, params);
      return;
  }
  TT_FAIL("unknown engine kind");
}

// What `kind` charges for one recorded SVD. Fused formats extract the blocks
// into a temporary list format, decompose and re-fuse (paper §IV-A): they pay
// the redistribution both ways. Each block group runs through the distributed
// pdgesvd-equivalent — or, for the reference baseline, serially at the node's
// (reduced) SVD rate.
void price_svd(EngineKind kind, const SvdRecord& r, const rt::Cluster& cluster,
               rt::CostTracker& t, const rt::CostModelParams& params) {
  const bool fused =
      kind == EngineKind::kSparseDense || kind == EngineKind::kSparseSparse;
  if (fused) rt::charge_redistribution(cluster, t, r.in_elements);
  const rt::Layout layout =
      kind == EngineKind::kReference ? rt::Layout::kLocal : rt::Layout::kBlockDense3D;
  for (const symm::FactorShape& g : r.groups)
    rt::charge_svd(cluster, t, g.rows, g.cols, layout, params);
  if (fused) rt::charge_redistribution(cluster, t, r.uv_elements);
}

}  // namespace

ContractionRecord record_contraction(const BlockTensor& a, Role role_a,
                                     const BlockTensor& b, Role role_b,
                                     const Pairs& pairs, const BlockTensor& c) {
  ContractionRecord r;
  r.role_a = role_a;
  r.role_b = role_b;
  for (const symm::OutputBin& bin :
       symm::enumerate_bins(a, b, symm::make_contract_plan(a, b, pairs)))
    for (const symm::BinPair& p : bin.pairs) r.pairs.push_back(p.cost);
  for (const auto& [ma, mb] : pairs) r.k *= static_cast<double>(a.index(ma).dim());
  const int free_a = a.order() - static_cast<int>(pairs.size());
  for (int i = 0; i < c.order(); ++i)
    (i < free_a ? r.m : r.n) *= static_cast<double>(c.index(i).dim());
  r.size_a = static_cast<double>(a.dense_size());
  r.size_b = static_cast<double>(b.dense_size());
  r.size_c = static_cast<double>(c.dense_size());
  r.nnz_a = nonzeros(a);
  r.nnz_b = nonzeros(b);
  r.nnz_c = nonzeros(c);
  r.nonzero_block_words_c = nonzero_block_words(c);
  r.matched_products = matched_products(a, b, pairs);
  return r;
}

rt::CostTracker price(EngineKind kind, const std::vector<OpRecord>& log,
                      const rt::Cluster& cluster, const rt::CostModelParams& params) {
  rt::CostTracker t;
  for (const OpRecord& op : log) {
    if (const auto* c = std::get_if<ContractionRecord>(&op))
      price_contraction(kind, *c, cluster, t, params);
    else
      price_svd(kind, std::get<SvdRecord>(op), cluster, t, params);
  }
  return t;
}

}  // namespace tt::dmrg
