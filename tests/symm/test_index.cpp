#include <gtest/gtest.h>

#include "support/error.hpp"
#include "symm/index.hpp"

namespace {

using tt::symm::Dir;
using tt::symm::Index;
using tt::symm::QN;
using tt::symm::Sector;

Index spin_bond(Dir d = Dir::In) {
  return Index({{QN(-2), 2}, {QN(0), 3}, {QN(2), 1}}, d);
}

TEST(Index, DimIsSumOfSectors) {
  EXPECT_EQ(spin_bond().dim(), 6);
  EXPECT_EQ(spin_bond().num_sectors(), 3);
}

TEST(Index, SectorOffsets) {
  Index i = spin_bond();
  EXPECT_EQ(i.sector_offset(0), 0);
  EXPECT_EQ(i.sector_offset(1), 2);
  EXPECT_EQ(i.sector_offset(2), 5);
  EXPECT_THROW(i.sector_offset(3), tt::Error);
}

TEST(Index, ReversedFlipsDirectionOnly) {
  Index i = spin_bond(Dir::In);
  Index r = i.reversed();
  EXPECT_EQ(r.dir(), Dir::Out);
  EXPECT_EQ(r.sectors(), i.sectors());
  EXPECT_EQ(r.reversed().dir(), Dir::In);
}

TEST(Index, Contractibility) {
  Index in = spin_bond(Dir::In);
  Index out = spin_bond(Dir::Out);
  EXPECT_TRUE(in.contractible_with(out));
  EXPECT_FALSE(in.contractible_with(in));
  // Different sector content is not contractible.
  Index other({{QN(-2), 2}, {QN(0), 4}}, Dir::Out);
  EXPECT_FALSE(in.contractible_with(other));
}

TEST(Index, SameSpace) {
  EXPECT_TRUE(spin_bond(Dir::In) == spin_bond(Dir::In));
  EXPECT_FALSE(spin_bond(Dir::In) == spin_bond(Dir::Out));
}

TEST(Index, SingleSectorFactory) {
  Index d = Index::single(QN(4), 1, Dir::Out);
  EXPECT_EQ(d.dim(), 1);
  EXPECT_EQ(d.num_sectors(), 1);
  EXPECT_EQ(d.sector(0).qn, QN(4));
}

TEST(Index, RejectsEmptySectorList) {
  EXPECT_THROW(Index({}, Dir::In), tt::Error);
}

TEST(Index, RejectsNonPositiveDims) {
  EXPECT_THROW(Index({{QN(0), 0}}, Dir::In), tt::Error);
  EXPECT_THROW(Index({{QN(0), -3}}, Dir::In), tt::Error);
}

TEST(Index, RejectsDuplicateCharges) {
  EXPECT_THROW(Index({{QN(1), 2}, {QN(1), 3}}, Dir::In), tt::Error);
}

TEST(Index, RejectsMixedRanks) {
  EXPECT_THROW(Index({{QN(1), 2}, {QN(1, 0), 3}}, Dir::In), tt::Error);
}

TEST(Index, DirSign) {
  EXPECT_EQ(tt::symm::sign(Dir::In), 1);
  EXPECT_EQ(tt::symm::sign(Dir::Out), -1);
  EXPECT_EQ(tt::symm::reverse(Dir::In), Dir::Out);
}

}  // namespace
