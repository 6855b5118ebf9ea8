// Directed, sector-decomposed tensor index.
//
// Every mode of a block-sparse tensor carries a direction and a list of
// (quantum number, degeneracy) sectors. A block is admissible iff the signed
// sum of its sector charges (In = +1, Out = −1) equals the tensor's flux.
#pragma once

#include <vector>

#include "support/types.hpp"
#include "symm/qn.hpp"

namespace tt::symm {

/// Leg direction: charge flows in through In legs and out through Out legs.
enum class Dir : int { In = +1, Out = -1 };

inline Dir reverse(Dir d) { return d == Dir::In ? Dir::Out : Dir::In; }
inline int sign(Dir d) { return static_cast<int>(d); }

/// One symmetry sector of an index: a charge and the dimension of its
/// degenerate subspace.
struct Sector {
  QN qn;
  index_t dim = 0;

  friend bool operator==(const Sector& a, const Sector& b) {
    return a.qn == b.qn && a.dim == b.dim;
  }
};

/// A tensor leg: ordered sector list + direction. Sector order defines the
/// offset layout when the leg is fused into a dense dimension.
class Index {
 public:
  Index() = default;
  Index(std::vector<Sector> sectors, Dir dir);

  /// Convenience: single-sector index (dummy/boundary legs).
  static Index single(const QN& qn, index_t dim, Dir dir) {
    return Index({Sector{qn, dim}}, dir);
  }

  int num_sectors() const { return static_cast<int>(sectors_.size()); }
  const Sector& sector(int s) const { return sectors_[static_cast<std::size_t>(s)]; }
  const std::vector<Sector>& sectors() const { return sectors_; }
  Dir dir() const { return dir_; }

  /// Total (fused) dimension: sum of sector dims.
  index_t dim() const;

  /// Offset of sector s within the fused dimension.
  index_t sector_offset(int s) const;

  /// Same index with reversed direction (bra side).
  Index reversed() const;

  /// True when this leg can contract with `other`: identical sector lists and
  /// opposite directions.
  bool contractible_with(const Index& other) const;

  /// Same sectors and same direction (identical vector spaces).
  friend bool operator==(const Index& a, const Index& b) {
    return a.dir_ == b.dir_ && a.sectors_ == b.sectors_;
  }

 private:
  std::vector<Sector> sectors_;
  Dir dir_ = Dir::In;
};

}  // namespace tt::symm
