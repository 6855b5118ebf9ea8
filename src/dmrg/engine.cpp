#include "dmrg/engine.hpp"

#include <map>

#include "runtime/scheduler.hpp"

namespace tt::dmrg {

namespace {

using symm::BlockKey;
using symm::BlockTensor;
using Pairs = std::vector<std::pair<int, int>>;

constexpr EngineKind kAllKinds[] = {EngineKind::kReference, EngineKind::kList,
                                    EngineKind::kSparseDense, EngineKind::kSparseSparse};

OpRecord contraction(const rt::ContractionCost& cost, rt::Layout layout) {
  OpRecord r;
  r.type = OpRecord::Type::kContraction;
  r.cost = cost;
  r.layout = layout;
  return r;
}

// Layout kLocal marks a serial single-node SVD; anything else replays as the
// distributed pdgesvd-style cost.
OpRecord svd_op(index_t rows, index_t cols, rt::Layout layout) {
  OpRecord r;
  r.type = OpRecord::Type::kSvd;
  r.rows = rows;
  r.cols = cols;
  r.layout = layout;
  return r;
}

OpRecord redistribution(double words) {
  OpRecord r;
  r.type = OpRecord::Type::kRedistribution;
  r.words = words;
  return r;
}

void charge(const OpRecord& r, const rt::Cluster& cluster, rt::CostTracker& t,
            const rt::CostModelParams& params) {
  switch (r.type) {
    case OpRecord::Type::kContraction:
      rt::charge_contraction(cluster, t, r.cost, r.layout, params);
      break;
    case OpRecord::Type::kSvd:
      rt::charge_svd(cluster, t, r.rows, r.cols, r.layout, params);
      break;
    case OpRecord::Type::kRedistribution:
      rt::charge_redistribution(cluster, t, r.words);
      break;
  }
}

// Exact nonzeros (x != 0.0): the elements a fused sparse tensor stores.
double nonzeros(const BlockTensor& t) {
  index_t n = 0;
  for (const auto& [key, blk] : t.blocks())
    for (index_t i = 0; i < blk.size(); ++i) n += blk[i] != 0.0 ? 1 : 0;
  return static_cast<double>(n);
}

// Elements of the blocks holding at least one nonzero: what splitting a fused
// dense result back into blocks keeps.
double nonzero_block_words(const BlockTensor& t) {
  index_t n = 0;
  for (const auto& [key, blk] : t.blocks())
    for (index_t i = 0; i < blk.size(); ++i)
      if (blk[i] != 0.0) {
        n += blk.size();
        break;
      }
  return static_cast<double>(n);
}

// Nonzeros per contracted fused position, grouped by the sectors of the
// contracted `modes` (in pair order) and indexed row-major within a group.
using PositionCounts = std::map<BlockKey, std::vector<index_t>>;

PositionCounts nonzeros_by_position(const BlockTensor& t, const std::vector<int>& modes) {
  PositionCounts out;
  for (const auto& [key, blk] : t.blocks()) {
    const std::vector<index_t>& shape = blk.shape();
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

// What `kind` charges for contracting a with b into c (stats: the block-wise
// execution record).
std::vector<OpRecord> price_contraction(EngineKind kind, const BlockTensor& a,
                                        Role role_a, const BlockTensor& b, Role role_b,
                                        const Pairs& pairs, const BlockTensor& c,
                                        const symm::ContractStats& stats) {
  switch (kind) {
    case EngineKind::kReference:
      // The serial single-node model of the ITensor baseline.
      return {contraction({stats.total_flops, 0.0, 0.0, 0.0}, rt::Layout::kLocal)};
    case EngineKind::kList: {
      // One distributed dense contraction per block pair (paper Alg. 2): each
      // is an independent 3D-algorithm call with its own synchronization —
      // O(Nb) supersteps per Davidson iteration.
      std::vector<OpRecord> ops;
      ops.reserve(stats.block_ops.size());
      for (const auto& op : stats.block_ops)
        ops.push_back(contraction({op.flops, op.words_a, op.words_b, op.words_c},
                                  rt::Layout::kBlockDense3D));
      return ops;
    }
    case EngineKind::kSparseDense: {
      // One fused 2D contraction: operators stored sparse, intermediates dense;
      // two operators (environment updates) keep a sparse.
      double m = 1.0, n = 1.0, k = 1.0;  // fused free(a), free(b), contracted
      for (const auto& [ma, mb] : pairs) k *= static_cast<double>(a.index(ma).dim());
      const int free_a = a.order() - static_cast<int>(pairs.size());
      for (int i = 0; i < c.order(); ++i)
        (i < free_a ? m : n) *= static_cast<double>(c.index(i).dim());
      const bool ia = role_a == Role::kIntermediate;
      const bool ib = role_b == Role::kIntermediate;
      const auto size_a = static_cast<double>(a.dense_size());
      const auto size_b = static_cast<double>(b.dense_size());
      rt::ContractionCost cost;
      if (ia && ib) {
        cost = {2.0 * m * n * k, size_a, size_b, 0.0};
      } else if (ia) {
        const double nnz_b = nonzeros(b);
        cost = {2.0 * m * nnz_b, size_a, nnz_b, 0.0};
      } else {
        const double nnz_a = nonzeros(a);
        cost = {2.0 * n * nnz_a, nnz_a, size_b, 0.0};
      }
      // An intermediate result stays fused dense; an operator result is split
      // back into its nonzero blocks.
      cost.words_c =
          ia || ib ? static_cast<double>(c.dense_size()) : nonzero_block_words(c);
      return {contraction(cost, rt::Layout::kFusedDense2D)};
    }
    case EngineKind::kSparseSparse:
      // One fused sparse contraction with precomputed output sparsity.
      return {contraction({2.0 * matched_products(a, b, pairs), nonzeros(a), nonzeros(b),
                           nonzeros(c)},
                          rt::Layout::kFusedSparse2D)};
  }
  TT_FAIL("unknown engine kind");
}

}  // namespace

const char* engine_name(EngineKind k) {
  switch (k) {
    case EngineKind::kReference: return "reference";
    case EngineKind::kList: return "list";
    case EngineKind::kSparseDense: return "sparse-dense";
    case EngineKind::kSparseSparse: return "sparse-sparse";
  }
  return "?";
}

EngineKind engine_from_name(const std::string& name) {
  std::string valid;
  for (EngineKind k : kAllKinds) {
    if (name == engine_name(k)) return k;
    valid += (valid.empty() ? "" : "|") + std::string(engine_name(k));
  }
  TT_FAIL("unknown engine '" << name << "' (" << valid << ")");
}

symm::BlockTensor ContractionEngine::contract(const BlockTensor& a, Role role_a,
                                              const BlockTensor& b, Role role_b,
                                              const Pairs& pairs) {
  // With a multi-rank scheduler the bins execute across its ranks, whose
  // measured exchange stays in Scheduler::last()/accumulated(). Results and
  // ContractStats are bitwise identical either way — the scheduler's
  // rank-parity invariant — so the modelled charge is too.
  symm::ContractStats stats;
  BlockTensor c;
  if (scheduler_ != nullptr && scheduler_->num_ranks() > 1) {
    c = scheduler_->contract(a, b, pairs, &stats);
  } else {
    c = symm::contract(a, b, pairs, &stats, num_threads_);
  }
  for (const OpRecord& r :
       price_contraction(kind(), a, role_a, b, role_b, pairs, c, stats))
    record(r);
  return c;
}

symm::BlockSvd ContractionEngine::svd(const BlockTensor& a,
                                      const std::vector<int>& row_modes,
                                      const symm::TruncParams& trunc) {
  // Fused formats extract the blocks into a temporary list format, decompose
  // and re-fuse (paper §IV-A): charge the redistribution both ways.
  const bool fused =
      kind() == EngineKind::kSparseDense || kind() == EngineKind::kSparseSparse;
  if (fused) record(redistribution(static_cast<double>(a.num_elements())));
  symm::BlockSvd f = symm::block_svd(a, row_modes, trunc, num_threads_);
  // Each block group runs through the distributed pdgesvd-equivalent — or, for
  // the reference baseline, serially at the node's (reduced) SVD rate.
  const rt::Layout layout =
      kind() == EngineKind::kReference ? rt::Layout::kLocal : rt::Layout::kBlockDense3D;
  for (const auto& shape : f.shapes) record(svd_op(shape.rows, shape.cols, layout));
  if (fused)
    record(redistribution(static_cast<double>(f.u.num_elements() + f.vt.num_elements())));
  return f;
}

void ContractionEngine::record(const OpRecord& r) {
  charge(r, cluster_, tracker_, params_);
  if (logging_) log_.push_back(r);
}

rt::CostTracker replay_log(const std::vector<OpRecord>& log,
                           const rt::Cluster& cluster,
                           const rt::CostModelParams& params) {
  rt::CostTracker t;
  for (const OpRecord& r : log) charge(r, cluster, t, params);
  return t;
}

std::unique_ptr<ContractionEngine> make_engine(EngineKind kind, rt::Cluster cluster,
                                               rt::CostModelParams params) {
  return std::make_unique<ContractionEngine>(cluster, params, kind);
}

}  // namespace tt::dmrg
