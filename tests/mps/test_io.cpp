#include <gtest/gtest.h>

#include <sstream>

#include "models/electron.hpp"
#include "models/spin_half.hpp"
#include "mps/io.hpp"
#include "mps/measure.hpp"

namespace {

using tt::Rng;
using tt::mps::Mps;
using tt::symm::QN;

TEST(MpsIo, RoundTripPreservesStateExactly) {
  auto sites = tt::models::spin_half_sites(6);
  Rng rng(3);
  Mps psi = Mps::random(sites, QN(0), 10, rng);
  std::stringstream ss;
  tt::mps::write_mps(ss, psi);
  Mps back = tt::mps::read_mps(ss, sites);
  // Exact (hexfloat) round trip: overlap equals the squared norm to the bit.
  EXPECT_DOUBLE_EQ(tt::mps::overlap(psi, back), tt::mps::overlap(psi, psi));
  EXPECT_EQ(back.total_qn(), psi.total_qn());
  EXPECT_EQ(back.bond_dims(), psi.bond_dims());
}

TEST(MpsIo, ElectronStateRoundTrip) {
  auto sites = tt::models::electron_sites(5);
  Rng rng(4);
  Mps psi = Mps::random(sites, QN(5, 1), 8, rng);
  std::stringstream ss;
  tt::mps::write_mps(ss, psi);
  Mps back = tt::mps::read_mps(ss, sites);
  EXPECT_DOUBLE_EQ(tt::mps::overlap(psi, back), tt::mps::overlap(psi, psi));
}

TEST(MpsIo, RejectsWrongSiteCount) {
  auto sites = tt::models::spin_half_sites(4);
  Mps psi = Mps::product_state(sites, {0, 1, 0, 1});
  std::stringstream ss;
  tt::mps::write_mps(ss, psi);
  auto wrong = tt::models::spin_half_sites(6);
  EXPECT_THROW(tt::mps::read_mps(ss, wrong), tt::Error);
}

TEST(MpsIo, RejectsWrongSiteType) {
  auto sites = tt::models::spin_half_sites(4);
  Mps psi = Mps::product_state(sites, {0, 1, 0, 1});
  std::stringstream ss;
  tt::mps::write_mps(ss, psi);
  auto wrong = tt::models::electron_sites(4);
  EXPECT_THROW(tt::mps::read_mps(ss, wrong), tt::Error);
}

TEST(MpsIo, RejectsCorruptStream) {
  auto sites = tt::models::spin_half_sites(2);
  std::stringstream ss("GARBAGE 9");
  EXPECT_THROW(tt::mps::read_mps(ss, sites), tt::Error);
  std::stringstream truncated("TTMPS 1\n2 1\nTENSOR 3 ");
  EXPECT_THROW(tt::mps::read_mps(truncated, sites), tt::Error);
}

// The three header failure classes carry three distinct messages, so a
// reader pointed at the wrong file says what is wrong instead of a generic
// "corrupt" from deeper in the parse.
TEST(MpsIo, DistinguishesTruncationBadMagicAndBadVersion) {
  auto sites = tt::models::spin_half_sites(2);
  auto message_of = [&](const std::string& text) {
    std::stringstream ss(text);
    try {
      (void)tt::mps::read_mps(ss, sites);
    } catch (const tt::Error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_NE(message_of("").find("truncated"), std::string::npos);
  EXPECT_NE(message_of("TTMPO 1\n").find("magic"), std::string::npos);
  EXPECT_NE(message_of("TTMPS 7\n").find("version"), std::string::npos);
  EXPECT_NE(message_of("TTMPS 1\n").find("truncated"), std::string::npos);
}

TEST(MpsIo, TruncatedFileIsRejectedAtEveryCut) {
  // Chop a valid stream at several depths: header, index table, block
  // values. Every cut must surface as tt::Error, never a silent partial MPS.
  auto sites = tt::models::spin_half_sites(4);
  Rng rng(9);
  Mps psi = Mps::random(sites, QN(0), 6, rng);
  std::stringstream full;
  tt::mps::write_mps(full, psi);
  const std::string text = full.str();
  for (std::size_t cut :
       {text.size() / 8, text.size() / 3, text.size() / 2, 3 * text.size() / 4}) {
    std::stringstream part(text.substr(0, cut));
    EXPECT_THROW(tt::mps::read_mps(part, sites), tt::Error) << "cut " << cut;
  }
}

TEST(MpsIo, RejectsCorruptNumericToken) {
  auto sites = tt::models::spin_half_sites(2);
  Mps psi = Mps::product_state(sites, {0, 1});
  std::stringstream full;
  tt::mps::write_mps(full, psi);
  std::string text = full.str();
  // Damage the first hexfloat value token.
  const std::size_t pos = text.find("0x");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 2, "0z");
  std::stringstream bad(text);
  EXPECT_THROW(tt::mps::read_mps(bad, sites), tt::Error);
}

TEST(MpsIo, FileSaveLoad) {
  auto sites = tt::models::spin_half_sites(4);
  Rng rng(6);
  Mps psi = Mps::random(sites, QN(0), 6, rng);
  const std::string path = ::testing::TempDir() + "/tt_psi.mps";
  tt::mps::save_mps(path, psi);
  Mps back = tt::mps::load_mps(path, sites);
  EXPECT_DOUBLE_EQ(tt::mps::overlap(psi, back), tt::mps::overlap(psi, psi));
  EXPECT_THROW(tt::mps::load_mps("/nonexistent/dir/x.mps", sites), tt::Error);
}

}  // namespace
