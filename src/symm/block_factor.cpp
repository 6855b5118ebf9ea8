#include "symm/block_factor.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <span>

#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "support/thread_pool.hpp"
#include "tensor/dense.hpp"

namespace tt::symm {

namespace {

using tensor::DenseTensor;

// Distinct sub-keys over one side of the bipartition, with fused offsets.
struct SideLayout {
  std::vector<BlockKey> keys;
  std::vector<index_t> offsets;
  std::vector<index_t> dims;
  index_t total = 0;
  std::map<BlockKey, int> pos;

  int add(const BlockKey& k, index_t dim) {
    auto it = pos.find(k);
    if (it != pos.end()) return it->second;
    const int id = static_cast<int>(keys.size());
    pos.emplace(k, id);
    keys.push_back(k);
    offsets.push_back(total);
    dims.push_back(dim);
    total += dim;
    return id;
  }
};

struct Group {
  QN g;  // Σ_rows sign·qn of every member block
  SideLayout rows, cols;
  std::vector<BlockTensor::Entry<const real_t>> members;
};

BlockKey subkey(std::span<const int> key, const std::vector<int>& modes) {
  BlockKey s;
  s.reserve(modes.size());
  for (int m : modes) s.push_back(key[static_cast<std::size_t>(m)]);
  return s;
}

index_t subdim(const BlockTensor& a, std::span<const int> key,
               const std::vector<int>& modes) {
  index_t d = 1;
  for (int m : modes)
    d *= a.index(m).sector(key[static_cast<std::size_t>(m)]).dim;
  return d;
}

// Partition the tensor's present blocks into row-charge groups.
std::vector<Group> build_groups(const BlockTensor& a, const std::vector<int>& row_modes,
                                const std::vector<int>& col_modes) {
  std::map<QN, Group> by_charge;
  for (const auto& entry : a.blocks()) {
    const QN g = a.partial_charge(entry.key, row_modes);
    Group& grp = by_charge.try_emplace(g).first->second;
    grp.g = g;
    grp.rows.add(subkey(entry.key, row_modes), subdim(a, entry.key, row_modes));
    grp.cols.add(subkey(entry.key, col_modes), subdim(a, entry.key, col_modes));
    grp.members.push_back(entry);
  }
  std::vector<Group> groups;
  groups.reserve(by_charge.size());
  for (auto& [g, grp] : by_charge) groups.push_back(std::move(grp));
  return groups;
}

// Assemble the group's blocks into one dense matrix, blocks permuted to
// [row_modes..., col_modes...] order ("wrapping" the tensor into an effective
// order-2 matrix, §IV-A).
linalg::Matrix assemble(const BlockTensor& a, const Group& grp,
                        const std::vector<int>& row_modes,
                        const std::vector<int>& col_modes) {
  linalg::Matrix m(grp.rows.total, grp.cols.total);
  std::vector<int> perm;
  perm.reserve(row_modes.size() + col_modes.size());
  for (int mo : row_modes) perm.push_back(mo);
  for (int mo : col_modes) perm.push_back(mo);
  for (const auto& [key, blk] : grp.members) {
    const DenseTensor block = blk.permuted(perm);
    const index_t rdim = subdim(a, key, row_modes);
    const index_t cdim = subdim(a, key, col_modes);
    const index_t roff = grp.rows.offsets[static_cast<std::size_t>(
        grp.rows.pos.at(subkey(key, row_modes)))];
    const index_t coff = grp.cols.offsets[static_cast<std::size_t>(
        grp.cols.pos.at(subkey(key, col_modes)))];
    for (index_t r = 0; r < rdim; ++r)
      for (index_t c = 0; c < cdim; ++c)
        m(roff + r, coff + c) = block[r * cdim + c];
  }
  return m;
}

std::vector<int> complement_modes(const BlockTensor& a, const std::vector<int>& row_modes) {
  std::vector<bool> is_row(static_cast<std::size_t>(a.order()), false);
  for (int m : row_modes) {
    TT_CHECK(m >= 0 && m < a.order(), "row mode " << m << " out of range");
    TT_CHECK(!is_row[static_cast<std::size_t>(m)], "row mode " << m << " listed twice");
    is_row[static_cast<std::size_t>(m)] = true;
  }
  std::vector<int> cols;
  for (int m = 0; m < a.order(); ++m)
    if (!is_row[static_cast<std::size_t>(m)]) cols.push_back(m);
  TT_CHECK(!row_modes.empty() && !cols.empty(),
           "bipartition must leave modes on both sides");
  return cols;
}

// Key of a factor block: a side's subkey with the bond sector appended
// (rows) or prepended (columns).
BlockKey factor_key(const BlockKey& side, int bond_sector, bool bond_last) {
  BlockKey key;
  key.reserve(side.size() + 1);
  if (!bond_last) key.push_back(bond_sector);
  key.insert(key.end(), side.begin(), side.end());
  if (bond_last) key.push_back(bond_sector);
  return key;
}

// Keys of the factor blocks, so that each factor is laid out once: "row
// modes + bond sector" (left) and "bond sector + col modes" (right) for each
// group with a bond sector (bond_id[g] >= 0).
std::pair<std::vector<BlockKey>, std::vector<BlockKey>> factor_keys(
    const std::vector<Group>& groups, const std::vector<int>& bond_id) {
  std::pair<std::vector<BlockKey>, std::vector<BlockKey>> keys;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    if (bond_id[gi] < 0) continue;
    for (const BlockKey& k : groups[gi].rows.keys)
      keys.first.push_back(factor_key(k, bond_id[gi], true));
    for (const BlockKey& k : groups[gi].cols.keys)
      keys.second.push_back(factor_key(k, bond_id[gi], false));
  }
  return keys;
}

// Scatter the group's factors into their blocks: u (rows_total × keep) into
// "row modes + bond sector", vt (keep × cols_total) into "bond sector + col
// modes".
void scatter(BlockTensor& left, BlockTensor& right, const Group& grp,
             const linalg::Matrix& u, const linalg::Matrix& vt, index_t keep,
             int bond_sector) {
  for (std::size_t rk = 0; rk < grp.rows.keys.size(); ++rk) {
    const index_t roff = grp.rows.offsets[rk];
    const tensor::View blk = left.block(factor_key(grp.rows.keys[rk], bond_sector, true));
    for (index_t r = 0; r < grp.rows.dims[rk]; ++r)
      for (index_t c = 0; c < keep; ++c) blk[r * keep + c] = u(roff + r, c);
  }
  for (std::size_t ck = 0; ck < grp.cols.keys.size(); ++ck) {
    const index_t coff = grp.cols.offsets[ck];
    const index_t cdim = grp.cols.dims[ck];
    const tensor::View blk =
        right.block(factor_key(grp.cols.keys[ck], bond_sector, false));
    for (index_t r = 0; r < keep; ++r)
      for (index_t c = 0; c < cdim; ++c) blk[r * cdim + c] = vt(r, coff + c);
  }
}

std::vector<Index> side_indices(const BlockTensor& a, const std::vector<int>& modes) {
  std::vector<Index> out;
  out.reserve(modes.size());
  for (int m : modes) out.push_back(a.index(m));
  return out;
}

// A = left · right over the bipartition: one dense factorization per
// row-charge group g, its bond sector of dim min(rows, cols) between the
// factors. The factor that keeps flux(A) is the one the orthogonal factor is
// not: QR's R (bond charge g) or LQ's L (bond charge g − flux, so that Q,
// bond In then column modes, carries flux 0 as the MPS leg convention wants).
struct TwoFactors {
  BlockTensor left, right;
  std::vector<FactorShape> shapes;
};

template <class Dense>
TwoFactors two_factor(const BlockTensor& a, const std::vector<int>& row_modes,
                      bool flux_on_left, const char* what, Dense&& dense) {
  const std::vector<int> col_modes = complement_modes(a, row_modes);
  const std::vector<Group> groups = build_groups(a, row_modes, col_modes);
  TT_CHECK(!groups.empty(), "cannot " << what << "-factor a block tensor with no blocks");

  std::vector<Sector> bond_sectors;
  bond_sectors.reserve(groups.size());
  for (const Group& grp : groups)
    bond_sectors.push_back({flux_on_left ? grp.g - a.flux() : grp.g,
                            std::min(grp.rows.total, grp.cols.total)});
  const Index bond_out(bond_sectors, Dir::Out);
  const Index bond_in(bond_sectors, Dir::In);

  std::vector<Index> left_idx = side_indices(a, row_modes);
  left_idx.push_back(bond_out);
  std::vector<Index> right_idx{bond_in};
  for (const Index& i : side_indices(a, col_modes)) right_idx.push_back(i);

  const QN zero = QN::zero(a.flux().rank());
  std::vector<int> bond_id(groups.size());
  std::iota(bond_id.begin(), bond_id.end(), 0);
  const auto [left_keys, right_keys] = factor_keys(groups, bond_id);
  TwoFactors out{BlockTensor(left_idx, flux_on_left ? a.flux() : zero, left_keys),
                 BlockTensor(right_idx, flux_on_left ? zero : a.flux(), right_keys),
                 {}};
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const Group& grp = groups[gi];
    const linalg::Matrix m = assemble(a, grp, row_modes, col_modes);
    const auto [left, right] = dense(m);
    const index_t keep = bond_sectors[gi].dim;
    scatter(out.left, out.right, grp, left, right, keep, static_cast<int>(gi));
    out.shapes.push_back({m.rows(), m.cols()});
  }
  return out;
}

}  // namespace

BlockQr block_qr(const BlockTensor& a, const std::vector<int>& row_modes) {
  TwoFactors f = two_factor(a, row_modes, /*flux_on_left=*/false, "QR",
                            [](const linalg::Matrix& m) {
                              auto d = linalg::qr(m);
                              return std::pair{std::move(d.q), std::move(d.r)};
                            });
  return {std::move(f.left), std::move(f.right), std::move(f.shapes)};
}

BlockLq block_lq(const BlockTensor& a, const std::vector<int>& row_modes) {
  TwoFactors f = two_factor(a, row_modes, /*flux_on_left=*/true, "LQ",
                            [](const linalg::Matrix& m) {
                              auto d = linalg::lq(m);
                              return std::pair{std::move(d.l), std::move(d.q)};
                            });
  return {std::move(f.left), std::move(f.right), std::move(f.shapes)};
}

BlockTensor BlockSvd::u_times_s() const {
  BlockTensor out = u;
  const int bond_mode = out.order() - 1;
  // Scale each block's trailing (bond) mode slice j by σ_j of its sector.
  for (const auto& [key, dst] : out.blocks()) {
    const auto& s = singular_values[static_cast<std::size_t>(key.back())];
    const index_t rg = dst.dim(bond_mode);
    const index_t lead = dst.size() / std::max<index_t>(rg, 1);
    for (index_t i = 0; i < lead; ++i)
      for (index_t j = 0; j < rg; ++j) dst[i * rg + j] *= s[static_cast<std::size_t>(j)];
  }
  return out;
}

BlockTensor BlockSvd::s_times_vt() const {
  BlockTensor out = vt;
  for (const auto& [key, dst] : out.blocks()) {
    const auto& s = singular_values[static_cast<std::size_t>(key.front())];
    const index_t rg = dst.dim(0);
    const index_t tail = dst.size() / std::max<index_t>(rg, 1);
    for (index_t j = 0; j < rg; ++j)
      for (index_t c = 0; c < tail; ++c) dst[j * tail + c] *= s[static_cast<std::size_t>(j)];
  }
  return out;
}

BlockSvd block_svd(const BlockTensor& a, const std::vector<int>& row_modes,
                   const TruncParams& trunc, int num_threads) {
  const std::vector<int> col_modes = complement_modes(a, row_modes);
  const std::vector<Group> groups = build_groups(a, row_modes, col_modes);
  TT_CHECK(!groups.empty(), "cannot SVD a block tensor with no blocks");

  // Factor each group independently, in parallel on the executor pool: every
  // slot of `factors`/`shapes` is written by exactly one task and all
  // downstream reductions (truncation pooling, scatter) run serially in group
  // order, so the result is thread-count independent.
  std::vector<linalg::SvdResult> factors(groups.size());
  BlockSvd out;
  out.shapes.resize(groups.size());
  support::parallel_for(
      static_cast<index_t>(groups.size()),
      [&](index_t gi) {
        const auto g = static_cast<std::size_t>(gi);
        const linalg::Matrix m = assemble(a, groups[g], row_modes, col_modes);
        out.shapes[g] = {m.rows(), m.cols()};
        factors[g] = linalg::svd(m);
      },
      num_threads);

  // Global truncation: pool all singular values, keep the largest subject to
  // cutoff and bond cap (paper §II.C).
  struct Sv {
    real_t s;
    std::size_t group;
  };
  std::vector<Sv> pool;
  {
    std::size_t nsv = 0;
    for (const auto& f : factors) nsv += f.s.size();
    pool.reserve(nsv);
  }
  for (std::size_t gi = 0; gi < factors.size(); ++gi)
    for (real_t s : factors[gi].s) pool.push_back({s, gi});
  std::stable_sort(pool.begin(), pool.end(),
                   [](const Sv& x, const Sv& y) { return x.s > y.s; });

  const real_t sigma_max = pool.empty() ? 0.0 : pool.front().s;
  const real_t cutoff = std::max(trunc.cutoff, trunc.rel_cutoff * sigma_max);
  index_t keep_total = 0;
  for (const Sv& sv : pool) {
    if (keep_total >= trunc.max_dim || sv.s <= cutoff) break;
    ++keep_total;
  }
  if (keep_total == 0 && !pool.empty()) keep_total = 1;  // never empty the bond

  std::vector<index_t> keep(groups.size(), 0);
  for (index_t i = 0; i < keep_total; ++i) ++keep[pool[static_cast<std::size_t>(i)].group];
  for (std::size_t i = static_cast<std::size_t>(keep_total); i < pool.size(); ++i)
    out.truncation_error += pool[i].s * pool[i].s;
  out.kept = keep_total;

  // Bond index: sectors only for groups that kept weight, in group order.
  std::vector<Sector> bond_sectors;
  std::vector<int> bond_id(groups.size(), -1);
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    if (keep[gi] == 0) continue;
    bond_id[gi] = static_cast<int>(bond_sectors.size());
    bond_sectors.push_back({groups[gi].g, keep[gi]});
  }
  TT_CHECK(!bond_sectors.empty(), "SVD truncated away every sector");
  out.bond = Index(bond_sectors, Dir::Out);
  const Index bond_in = out.bond.reversed();

  std::vector<Index> u_idx = side_indices(a, row_modes);
  u_idx.push_back(out.bond);
  std::vector<Index> vt_idx{bond_in};
  for (const Index& i : side_indices(a, col_modes)) vt_idx.push_back(i);

  const auto [u_keys, vt_keys] = factor_keys(groups, bond_id);
  out.u = BlockTensor(u_idx, QN::zero(a.flux().rank()), u_keys);
  out.vt = BlockTensor(vt_idx, a.flux(), vt_keys);
  out.singular_values.assign(bond_sectors.size(), {});

  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    if (keep[gi] == 0) continue;
    const Group& grp = groups[gi];
    const linalg::SvdResult& f = factors[gi];
    const index_t kg = keep[gi];
    scatter(out.u, out.vt, grp, f.u, f.vt, kg, bond_id[gi]);
    auto& sv = out.singular_values[static_cast<std::size_t>(bond_id[gi])];
    sv.assign(f.s.begin(), f.s.begin() + kg);
  }
  return out;
}

}  // namespace tt::symm
