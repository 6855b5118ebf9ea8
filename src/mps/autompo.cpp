#include "mps/autompo.hpp"

#include <algorithm>
#include <map>

#include "symm/block_tensor.hpp"

namespace tt::mps {

using symm::BlockTensor;
using symm::Dir;
using symm::Index;
using symm::QN;
using symm::Sector;

namespace {

// A term normalized for MPO placement: per-site merged operators over the
// span [first, last], with JW strings resolved and the reordering sign folded
// into the coefficient.
struct PlacedTerm {
  real_t coeff = 0.0;
  int first = 0, last = 0;
  std::map<int, LocalOp> ops;  // site -> operator (factors and strings)
};

PlacedTerm place_term(const SiteSet& sites, real_t coeff,
                      std::vector<OpFactor> factors) {
  TT_CHECK(!factors.empty(), "a term needs at least one operator");
  std::vector<LocalOp> ops;
  ops.reserve(factors.size());
  for (const OpFactor& f : factors) {
    TT_CHECK(f.site >= 0 && f.site < sites.size(),
             "operator site " << f.site << " out of range");
    ops.push_back(sites.op(f.name));
  }

  // Stable bubble sort by site; swapping two fermionic factors flips the sign.
  real_t sign = 1.0;
  for (std::size_t i = 0; i + 1 < factors.size(); ++i)
    for (std::size_t j = 0; j + 1 < factors.size() - i; ++j)
      if (factors[j].site > factors[j + 1].site) {
        if (ops[j].fermionic && ops[j + 1].fermionic) sign = -sign;
        std::swap(factors[j], factors[j + 1]);
        std::swap(ops[j], ops[j + 1]);
      }

  int total_fermionic = 0;
  for (const LocalOp& o : ops) total_fermionic += o.fermionic ? 1 : 0;
  TT_CHECK(total_fermionic % 2 == 0,
           "term with an odd number of fermionic operators cannot appear in a "
           "Hamiltonian");

  // Jordan–Wigner: an operator with an odd number of fermionic factors after
  // it picks up the local parity F on its right (op := op·F).
  for (std::size_t i = 0; i < ops.size(); ++i) {
    int after = 0;
    for (std::size_t j = i + 1; j < ops.size(); ++j)
      after += ops[j].fermionic ? 1 : 0;
    if (after % 2 == 1) ops[i] = sites.multiply(ops[i], sites.op("F"));
  }

  PlacedTerm out;
  out.coeff = coeff * sign;
  out.first = factors.front().site;
  out.last = factors.back().site;

  // Merge factors site by site (left-to-right operator order on each site:
  // leftmost factor in the sorted product is applied last, i.e. multiplied
  // from the left).
  for (std::size_t i = 0; i < factors.size(); ++i) {
    const int s = factors[i].site;
    auto it = out.ops.find(s);
    if (it == out.ops.end()) {
      out.ops.emplace(s, ops[i]);
    } else {
      it->second = sites.multiply(it->second, ops[i]);
    }
  }

  // Intermediate sites inside the span carry the parity string (F when an odd
  // number of fermionic factors lies to their right) or the identity.
  for (int s = out.first + 1; s < out.last; ++s) {
    if (out.ops.count(s)) continue;
    int after = 0;
    for (std::size_t i = 0; i < factors.size(); ++i)
      if (factors[i].site > s && ops[i].fermionic) ++after;
    out.ops.emplace(s, after % 2 == 1 ? sites.op("F") : sites.op("Id"));
  }

  // Charge neutrality of the whole term.
  QN total = QN::zero(sites.qn_rank());
  for (const auto& [s, o] : out.ops) total = total + o.flux;
  TT_CHECK(total.is_zero(), "term does not conserve the symmetry (total flux "
                                << total.str() << ")");
  return out;
}

// FSM state bookkeeping for one bond: states are (kind, term id) with a
// charge; kind 0 = initial, 1 = final, 2 = in-progress term.
struct BondStates {
  // For each state: charge and a stable label.
  std::vector<QN> charge;
  std::vector<std::pair<int, int>> label;  // (kind, term)
  std::map<std::pair<int, int>, int> id_of;

  int add(int kind, int term, const QN& q) {
    auto [it, fresh] = id_of.try_emplace({kind, term}, static_cast<int>(charge.size()));
    if (fresh) {
      charge.push_back(q);
      label.push_back({kind, term});
    }
    return it->second;
  }
  int find(int kind, int term) const {
    auto it = id_of.find({kind, term});
    return it == id_of.end() ? -1 : it->second;
  }
  int size() const { return static_cast<int>(charge.size()); }
};

// Sector layout of a bond: states grouped by charge.
struct BondLayout {
  Index index_out;                 // direction Out (right leg of the site)
  std::vector<int> sector_of;      // state -> sector id
  std::vector<index_t> local_of;   // state -> offset within sector
};

BondLayout layout_bond(const BondStates& states) {
  std::map<QN, std::vector<int>> by_charge;
  for (int s = 0; s < states.size(); ++s)
    by_charge[states.charge[static_cast<std::size_t>(s)]].push_back(s);
  BondLayout out;
  out.sector_of.resize(static_cast<std::size_t>(states.size()));
  out.local_of.resize(static_cast<std::size_t>(states.size()));
  std::vector<Sector> sectors;
  int sid = 0;
  for (const auto& [q, members] : by_charge) {
    sectors.push_back({q, static_cast<index_t>(members.size())});
    for (std::size_t l = 0; l < members.size(); ++l) {
      out.sector_of[static_cast<std::size_t>(members[l])] = sid;
      out.local_of[static_cast<std::size_t>(members[l])] = static_cast<index_t>(l);
    }
    ++sid;
  }
  out.index_out = Index(sectors, Dir::Out);
  return out;
}

}  // namespace

AutoMpo::AutoMpo(SiteSetPtr sites) : sites_(std::move(sites)) {
  TT_CHECK(sites_ != nullptr, "AutoMpo needs a site set");
  TT_CHECK(sites_->has_op("Id"), "site set must define the 'Id' operator");
}

AutoMpo& AutoMpo::add(real_t coeff, std::vector<OpFactor> factors) {
  if (coeff != 0.0) terms_.push_back({coeff, std::move(factors)});
  return *this;
}

AutoMpo& AutoMpo::add(real_t coeff, const std::string& op, int i) {
  return add(coeff, std::vector<OpFactor>{{op, i}});
}

AutoMpo& AutoMpo::add(real_t coeff, const std::string& op1, int i,
                      const std::string& op2, int j) {
  return add(coeff, std::vector<OpFactor>{{op1, i}, {op2, j}});
}

Mpo AutoMpo::to_mpo(real_t rel_cutoff) const {
  const int n = sites_->size();
  TT_CHECK(n >= 2, "MPO construction needs at least two sites");
  TT_CHECK(!terms_.empty(), "no terms added");
  const int rank = sites_->qn_rank();
  const QN zero = QN::zero(rank);

  std::vector<PlacedTerm> placed;
  placed.reserve(terms_.size());
  for (const Term& t : terms_)
    placed.push_back(place_term(*sites_, t.coeff, t.factors));

  // --- enumerate FSM states per bond -----------------------------------------
  // Bond b sits between sites b and b+1 (b = 0..n-2); virtual boundary bonds
  // hold only the initial (left) / final (right) state.
  std::vector<BondStates> bonds(static_cast<std::size_t>(n - 1));
  for (auto& bs : bonds) {
    bs.add(0, -1, zero);  // initial
    bs.add(1, -1, zero);  // final
  }
  for (std::size_t ti = 0; ti < placed.size(); ++ti) {
    const PlacedTerm& t = placed[ti];
    QN accum = zero;
    for (int b = t.first; b < t.last; ++b) {
      auto it = t.ops.find(b);
      if (it != t.ops.end()) accum = accum + it->second.flux;
      if (b <= n - 2) bonds[static_cast<std::size_t>(b)].add(2, static_cast<int>(ti), accum);
    }
  }

  std::vector<BondLayout> layouts;
  layouts.reserve(bonds.size());
  for (const auto& bs : bonds) layouts.push_back(layout_bond(bs));

  // --- assemble site tensors --------------------------------------------------
  // Transition (lstate, rstate, op, scale) accumulated into the block tensor.
  std::vector<BlockTensor> tensors;
  const Index& phys = sites_->phys();
  const Index phys_ket = phys.reversed();

  for (int j = 0; j < n; ++j) {
    // Left / right state tables (boundaries collapse to one state).
    BondStates left_boundary, right_boundary;
    left_boundary.add(0, -1, zero);
    right_boundary.add(1, -1, zero);
    const BondStates& ls = (j == 0) ? left_boundary : bonds[static_cast<std::size_t>(j - 1)];
    const BondStates& rs = (j == n - 1) ? right_boundary : bonds[static_cast<std::size_t>(j)];
    const BondLayout llay = (j == 0) ? layout_bond(left_boundary)
                                     : layouts[static_cast<std::size_t>(j - 1)];
    const BondLayout rlay = (j == n - 1) ? layout_bond(right_boundary)
                                         : layouts[static_cast<std::size_t>(j)];

    BlockTensor w({llay.index_out.reversed(), phys, phys_ket, rlay.index_out}, zero);

    auto emit = [&](int lstate, int rstate, const LocalOp& op, real_t scale) {
      if (scale == 0.0) return;
      const index_t d = phys.dim();
      for (index_t b = 0; b < d; ++b)
        for (index_t k = 0; k < d; ++k) {
          const real_t v = op.mat(b, k) * scale;
          if (v == 0.0) continue;
          const int sb = sites_->sector_of_state(b);
          const int sk = sites_->sector_of_state(k);
          symm::BlockKey key{llay.sector_of[static_cast<std::size_t>(lstate)], sb, sk,
                             rlay.sector_of[static_cast<std::size_t>(rstate)]};
          const tensor::View blk = w.block(key);
          // += : several on-site terms can share the same FSM transition.
          blk.at({llay.local_of[static_cast<std::size_t>(lstate)],
                  sites_->local_of_state(b), sites_->local_of_state(k),
                  rlay.local_of[static_cast<std::size_t>(rstate)]}) += v;
        }
    };

    const LocalOp& id = sites_->op("Id");
    // Pass-through transitions.
    const int l_init = ls.find(0, -1);
    const int r_init = rs.find(0, -1);
    const int l_fin = ls.find(1, -1);
    const int r_fin = rs.find(1, -1);
    if (l_init >= 0 && r_init >= 0 && j < n - 1) emit(l_init, r_init, id, 1.0);
    if (l_fin >= 0 && r_fin >= 0 && j > 0) emit(l_fin, r_fin, id, 1.0);

    // Term transitions.
    for (std::size_t ti = 0; ti < placed.size(); ++ti) {
      const PlacedTerm& t = placed[ti];
      if (j < t.first || j > t.last) continue;
      const LocalOp& op = t.ops.at(j);
      const bool starts = (j == t.first);
      const bool ends = (j == t.last);
      const int lstate = starts ? l_init : ls.find(2, static_cast<int>(ti));
      const int rstate = ends ? r_fin : rs.find(2, static_cast<int>(ti));
      TT_ASSERT(lstate >= 0 && rstate >= 0, "FSM state missing for term " << ti);
      // Coefficient attached at the first factor.
      emit(lstate, rstate, op, starts ? t.coeff : 1.0);
    }
    tensors.push_back(std::move(w));
  }

  Mpo mpo(sites_, std::move(tensors));
  if (rel_cutoff > 0.0) mpo.compress(rel_cutoff);
  return mpo;
}

}  // namespace tt::mps
