#include "mps/mps.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "mps/measure.hpp"
#include "symm/block_factor.hpp"
#include "symm/block_ops.hpp"

namespace tt::mps {

using symm::BlockTensor;
using symm::Dir;
using symm::Index;
using symm::QN;
using symm::Sector;

Mps::Mps(SiteSetPtr sites, std::vector<symm::BlockTensor> tensors)
    : sites_(std::move(sites)), tensors_(std::move(tensors)) {}

Mps Mps::product_state(SiteSetPtr sites, const std::vector<int>& sector_per_site) {
  TT_CHECK(sites != nullptr, "MPS needs a site set");
  TT_CHECK(static_cast<int>(sector_per_site.size()) == sites->size(),
           "need one sector per site");
  const int n = sites->size();
  const int rank = sites->qn_rank();

  std::vector<BlockTensor> tensors;
  tensors.reserve(static_cast<std::size_t>(n));
  QN accum = QN::zero(rank);
  for (int j = 0; j < n; ++j) {
    const int sec = sector_per_site[static_cast<std::size_t>(j)];
    TT_CHECK(sec >= 0 && sec < sites->phys().num_sectors(),
             "site " << j << ": sector " << sec << " out of range");
    const QN left_q = accum;
    accum = accum + sites->phys().sector(sec).qn;
    BlockTensor t({Index::single(left_q, 1, Dir::In), sites->phys(),
                   Index::single(accum, 1, Dir::Out)},
                  QN::zero(rank));
    // Occupy the first state of the chosen sector.
    t.block({0, sec, 0})[0] = 1.0;
    tensors.push_back(std::move(t));
  }
  Mps psi(std::move(sites), std::move(tensors));
  psi.center_ = 0;
  return psi;
}

Mps Mps::random(SiteSetPtr sites, const QN& total, index_t m, Rng& rng) {
  TT_CHECK(sites != nullptr, "MPS needs a site set");
  TT_CHECK(m >= 1, "bond dimension must be >= 1");
  const int n = sites->size();
  const int rank = sites->qn_rank();
  TT_CHECK(total.rank() == rank, "total charge rank mismatch");

  // Charge-path counts from the left and from the right (doubles: counts can
  // reach d^N).
  std::vector<std::map<QN, double>> lcount(static_cast<std::size_t>(n + 1));
  lcount[0][QN::zero(rank)] = 1.0;
  for (int j = 0; j < n; ++j)
    for (const auto& [q, c] : lcount[static_cast<std::size_t>(j)])
      for (const Sector& s : sites->phys().sectors())
        lcount[static_cast<std::size_t>(j + 1)][q + s.qn] += c * static_cast<double>(s.dim);

  std::vector<std::map<QN, double>> rcount(static_cast<std::size_t>(n + 1));
  rcount[static_cast<std::size_t>(n)][total] = 1.0;
  for (int j = n - 1; j >= 0; --j)
    for (const auto& [q, c] : rcount[static_cast<std::size_t>(j + 1)])
      for (const Sector& s : sites->phys().sectors())
        rcount[static_cast<std::size_t>(j)][q - s.qn] += c * static_cast<double>(s.dim);

  // Bond indices: bond j sits right of site j; boundary bonds are dim-1.
  std::vector<Index> bonds;
  bonds.reserve(static_cast<std::size_t>(n) + 1);
  bonds.push_back(Index::single(QN::zero(rank), 1, Dir::Out));
  for (int j = 0; j + 1 < n; ++j) {
    std::vector<Sector> sectors;
    double wsum = 0.0;
    std::vector<std::pair<QN, double>> feasible;
    for (const auto& [q, cl] : lcount[static_cast<std::size_t>(j + 1)]) {
      auto it = rcount[static_cast<std::size_t>(j + 1)].find(q);
      if (it == rcount[static_cast<std::size_t>(j + 1)].end()) continue;
      const double w = cl * it->second;
      feasible.emplace_back(q, w);
      wsum += w;
    }
    TT_CHECK(!feasible.empty(), "charge sector " << total.str()
                                                 << " is unreachable at bond " << j);
    for (const auto& [q, w] : feasible) {
      const double cl = lcount[static_cast<std::size_t>(j + 1)].at(q);
      const double cr = rcount[static_cast<std::size_t>(j + 1)].at(q);
      // Proportional share of m, capped by the exact sector dimensions.
      index_t dim = static_cast<index_t>(
          std::floor(static_cast<double>(m) * w / wsum + 0.5));
      dim = std::max<index_t>(dim, 1);
      dim = std::min(dim, static_cast<index_t>(std::min(
                              {cl, cr, static_cast<double>(m)})));
      if (dim > 0) sectors.push_back({q, dim});
    }
    bonds.push_back(Index(sectors, Dir::Out));
  }
  bonds.push_back(Index::single(total, 1, Dir::Out));

  std::vector<BlockTensor> tensors;
  tensors.reserve(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    tensors.push_back(BlockTensor::random(
        {bonds[static_cast<std::size_t>(j)].reversed(), sites->phys(),
         bonds[static_cast<std::size_t>(j + 1)]},
        QN::zero(rank), rng));
  }
  Mps psi(std::move(sites), std::move(tensors));
  // Random blocks may include sectors unreachable through the chain
  // contraction; canonicalization prunes them and orthonormalizes.
  psi.canonicalize(0);
  psi.normalize();
  return psi;
}

const BlockTensor& Mps::site(int j) const {
  TT_CHECK(j >= 0 && j < size(), "MPS site " << j << " out of range");
  return tensors_[static_cast<std::size_t>(j)];
}

BlockTensor& Mps::site(int j) {
  TT_CHECK(j >= 0 && j < size(), "MPS site " << j << " out of range");
  return tensors_[static_cast<std::size_t>(j)];
}

void Mps::set_site(int j, BlockTensor t) {
  TT_CHECK(j >= 0 && j < size(), "MPS site " << j << " out of range");
  tensors_[static_cast<std::size_t>(j)] = std::move(t);
  center_ = -1;
}

QN Mps::total_qn() const {
  const Index& last = tensors_.back().index(2);
  TT_CHECK(last.num_sectors() == 1, "MPS last bond must have a single sector");
  return last.sector(0).qn;
}

index_t Mps::bond_dim(int j) const { return site(j).index(2).dim(); }

index_t Mps::max_bond_dim() const {
  index_t m = 0;
  for (int j = 0; j + 1 < size(); ++j) m = std::max(m, bond_dim(j));
  return m;
}

std::vector<index_t> Mps::bond_dims() const {
  std::vector<index_t> out;
  if (size() > 1) out.reserve(static_cast<std::size_t>(size() - 1));
  for (int j = 0; j + 1 < size(); ++j) out.push_back(bond_dim(j));
  return out;
}

void Mps::canonicalize(int c) {
  TT_CHECK(c >= 0 && c < size(), "canonical center " << c << " out of range");
  // Left-to-right QR up to the center.
  for (int j = 0; j < c; ++j) {
    auto f = symm::block_qr(tensors_[static_cast<std::size_t>(j)], {0, 1});
    tensors_[static_cast<std::size_t>(j)] = std::move(f.q);
    tensors_[static_cast<std::size_t>(j + 1)] =
        symm::contract(f.r, tensors_[static_cast<std::size_t>(j + 1)], {{1, 0}});
  }
  // Right-to-left LQ down to the center.
  for (int j = size() - 1; j > c; --j) {
    auto f = symm::block_lq(tensors_[static_cast<std::size_t>(j)], {0});
    tensors_[static_cast<std::size_t>(j)] = std::move(f.q);
    tensors_[static_cast<std::size_t>(j - 1)] =
        symm::contract(tensors_[static_cast<std::size_t>(j - 1)], f.l, {{2, 0}});
  }
  center_ = c;
}

real_t Mps::norm() const {
  if (center_ >= 0) return tensors_[static_cast<std::size_t>(center_)].norm2();
  return std::sqrt(std::max(0.0, overlap(*this, *this)));
}

void Mps::normalize() {
  const real_t n = norm();
  TT_CHECK(n > 0.0, "cannot normalize a zero MPS");
  if (center_ >= 0) {
    tensors_[static_cast<std::size_t>(center_)].scale(1.0 / n);
  } else {
    const real_t s = std::pow(n, -1.0 / size());
    for (auto& t : tensors_) t.scale(s);
  }
}

void Mps::check_consistency() const {
  for (int j = 0; j < size(); ++j) {
    const BlockTensor& t = tensors_[static_cast<std::size_t>(j)];
    TT_CHECK(t.order() == 3, "MPS site " << j << " must be order 3");
    TT_CHECK(t.index(0).dir() == Dir::In, "MPS site " << j << ": left bond must be In");
    TT_CHECK(t.index(1).dir() == Dir::In, "MPS site " << j << ": phys leg must be In");
    TT_CHECK(t.index(2).dir() == Dir::Out, "MPS site " << j << ": right bond must be Out");
    TT_CHECK(t.flux().is_zero(), "MPS site " << j << " must have zero flux");
    TT_CHECK(t.index(1).sectors() == sites_->phys().sectors(),
             "MPS site " << j << ": phys leg does not match the site set");
    if (j + 1 < size())
      TT_CHECK(t.index(2).contractible_with(
                   tensors_[static_cast<std::size_t>(j + 1)].index(0)),
               "MPS bond " << j << " does not match the next site's left leg");
    for (const auto& [key, blk] : t.blocks())
      TT_CHECK(t.key_allowed(key), "MPS site " << j << " has a non-conserving block");
  }
  TT_CHECK(site(0).index(0).dim() == 1, "MPS left boundary bond must have dim 1");
}

}  // namespace tt::mps
