#include "mps/site.hpp"

#include "linalg/gemm.hpp"

namespace tt::mps {

SiteSet::SiteSet(int num_sites, symm::Index phys, std::map<std::string, LocalOp> ops)
    : num_sites_(num_sites), phys_(std::move(phys)), ops_(std::move(ops)) {
  TT_CHECK(num_sites_ > 0, "site set needs at least one site");
  TT_CHECK(phys_.dir() == symm::Dir::In, "physical index must have direction In");

  // State → sector lookup tables.
  state_qn_.reserve(static_cast<std::size_t>(phys_.dim()));
  state_sector_.reserve(static_cast<std::size_t>(phys_.dim()));
  state_local_.reserve(static_cast<std::size_t>(phys_.dim()));
  for (int s = 0; s < phys_.num_sectors(); ++s) {
    const auto& sec = phys_.sector(s);
    for (index_t l = 0; l < sec.dim; ++l) {
      state_qn_.push_back(sec.qn);
      state_sector_.push_back(s);
      state_local_.push_back(l);
    }
  }

  // Validate every operator: shape and charge selection rule.
  const index_t d = phys_.dim();
  for (const auto& [name, op] : ops_) {
    TT_CHECK(op.mat.rows() == d && op.mat.cols() == d,
             "operator '" << name << "' has shape " << op.mat.rows() << "x"
                          << op.mat.cols() << ", expected " << d << "x" << d);
    for (index_t b = 0; b < d; ++b)
      for (index_t k = 0; k < d; ++k)
        if (op.mat(b, k) != 0.0)
          TT_CHECK(state_qn_[static_cast<std::size_t>(b)] -
                           state_qn_[static_cast<std::size_t>(k)] ==
                       op.flux,
                   "operator '" << name << "' element (" << b << "," << k
                                << ") violates its declared flux " << op.flux.str());
  }
}

const LocalOp& SiteSet::op(const std::string& name) const {
  auto it = ops_.find(name);
  TT_CHECK(it != ops_.end(), "unknown local operator '" << name << "'");
  return it->second;
}

int SiteSet::sector_of_state(index_t p) const {
  TT_CHECK(p >= 0 && p < static_cast<index_t>(state_sector_.size()),
           "physical state " << p << " out of range");
  return state_sector_[static_cast<std::size_t>(p)];
}

index_t SiteSet::local_of_state(index_t p) const {
  TT_CHECK(p >= 0 && p < static_cast<index_t>(state_local_.size()),
           "physical state " << p << " out of range");
  return state_local_[static_cast<std::size_t>(p)];
}

LocalOp SiteSet::multiply(const LocalOp& a, const LocalOp& b) const {
  LocalOp out;
  out.mat = linalg::matmul(a.mat, b.mat);
  out.flux = a.flux + b.flux;
  out.fermionic = a.fermionic != b.fermionic;
  return out;
}

}  // namespace tt::mps
