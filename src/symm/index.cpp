#include "symm/index.hpp"

namespace tt::symm {

Index::Index(std::vector<Sector> sectors, Dir dir)
    : sectors_(std::move(sectors)), dir_(dir) {
  TT_CHECK(!sectors_.empty(), "an index needs at least one sector");
  const int rank = sectors_.front().qn.rank();
  for (const Sector& s : sectors_) {
    TT_CHECK(s.dim > 0, "sector dimension must be positive, got " << s.dim);
    TT_CHECK(s.qn.rank() == rank, "mixed QN ranks within one index");
  }
  for (std::size_t i = 0; i < sectors_.size(); ++i)
    for (std::size_t j = i + 1; j < sectors_.size(); ++j)
      TT_CHECK(!(sectors_[i].qn == sectors_[j].qn),
               "duplicate sector charge " << sectors_[i].qn.str());
}

index_t Index::dim() const {
  index_t d = 0;
  for (const Sector& s : sectors_) d += s.dim;
  return d;
}

index_t Index::sector_offset(int s) const {
  TT_CHECK(s >= 0 && s < num_sectors(), "sector id " << s << " out of range");
  index_t off = 0;
  for (int i = 0; i < s; ++i) off += sectors_[static_cast<std::size_t>(i)].dim;
  return off;
}

Index Index::reversed() const {
  Index r = *this;
  r.dir_ = symm::reverse(dir_);
  return r;
}

bool Index::contractible_with(const Index& other) const {
  return dir_ != other.dir_ && sectors_ == other.sectors_;
}

}  // namespace tt::symm
