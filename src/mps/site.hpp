// Local Hilbert-space definitions: physical index + named local operators.
//
// A SiteSet describes a uniform chain of N identical sites (the paper's two
// systems are spin-1/2 with d = 2 and electrons with d = 4). Concrete site
// types live in src/models.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "linalg/matrix.hpp"
#include "symm/index.hpp"

namespace tt::mps {

/// A named operator acting on one site: dense d×d matrix (row = bra state,
/// col = ket state) with a definite charge. Every nonzero element must obey
/// qn(bra) − qn(ket) == flux.
struct LocalOp {
  linalg::Matrix mat;
  symm::QN flux;
  bool fermionic = false;  ///< odd under fermion parity: needs a JW string
};

/// Uniform chain of identical sites with a shared operator table.
class SiteSet {
 public:
  /// `phys` must have direction In and dim-1 or larger sectors covering all d
  /// physical states. Operator matrices are validated against it.
  SiteSet(int num_sites, symm::Index phys, std::map<std::string, LocalOp> ops);

  int size() const { return num_sites_; }
  const symm::Index& phys() const { return phys_; }
  int qn_rank() const { return phys_.sector(0).qn.rank(); }

  bool has_op(const std::string& name) const { return ops_.count(name) != 0; }
  const LocalOp& op(const std::string& name) const;

  /// Sector id of physical state p (position within the fused dimension).
  int sector_of_state(index_t p) const;
  /// Offset of state p within its sector.
  index_t local_of_state(index_t p) const;

  /// Product of two local operators: (a·b)(s,s'') = Σ_{s'} a(s,s')·b(s',s'').
  /// Fluxes add; result is fermionic iff exactly one factor is.
  LocalOp multiply(const LocalOp& a, const LocalOp& b) const;

 private:
  int num_sites_;
  symm::Index phys_;
  std::map<std::string, LocalOp> ops_;
  std::vector<symm::QN> state_qn_;
  std::vector<int> state_sector_;
  std::vector<index_t> state_local_;
};

using SiteSetPtr = std::shared_ptr<const SiteSet>;

}  // namespace tt::mps
