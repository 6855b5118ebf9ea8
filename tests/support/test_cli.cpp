#include <gtest/gtest.h>

#include "support/cli.hpp"
#include "support/error.hpp"

namespace {

using tt::Cli;

Cli make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesSpaceSeparatedFlag) {
  Cli c = make({"--m", "4096"});
  EXPECT_EQ(c.get_int("m", 0), 4096);
}

TEST(Cli, ParsesEqualsSeparatedFlag) {
  Cli c = make({"--machine=stampede2"});
  EXPECT_EQ(c.get("machine", ""), "stampede2");
}

TEST(Cli, BooleanSwitch) {
  Cli c = make({"--verbose"});
  EXPECT_TRUE(c.get_bool("verbose", false));
  EXPECT_FALSE(c.get_bool("absent", false));
}

TEST(Cli, BooleanExplicitValues) {
  EXPECT_TRUE(make({"--x", "yes"}).get_bool("x", false));
  EXPECT_FALSE(make({"--x", "off"}).get_bool("x", true));
  EXPECT_THROW(make({"--x", "maybe"}).get_bool("x", true), tt::Error);
}

TEST(Cli, DefaultsWhenAbsent) {
  Cli c = make({});
  EXPECT_EQ(c.get_int("nodes", 7), 7);
  EXPECT_DOUBLE_EQ(c.get_double("cutoff", 1e-12), 1e-12);
  EXPECT_EQ(c.get("name", "dflt"), "dflt");
}

TEST(Cli, PositionalArguments) {
  Cli c = make({"input.dat", "--m", "8", "output.dat"});
  ASSERT_EQ(c.positional().size(), 2u);
  EXPECT_EQ(c.positional()[0], "input.dat");
  EXPECT_EQ(c.positional()[1], "output.dat");
}

TEST(Cli, RejectsNonNumericInt) {
  Cli c = make({"--m", "abc"});
  EXPECT_THROW(c.get_int("m", 0), tt::Error);
}

TEST(Cli, DoubleParsing) {
  Cli c = make({"--cutoff", "1e-9"});
  EXPECT_DOUBLE_EQ(c.get_double("cutoff", 0.0), 1e-9);
}

TEST(Cli, HasDetectsPresence) {
  Cli c = make({"--present"});
  EXPECT_TRUE(c.has("present"));
  EXPECT_FALSE(c.has("absent"));
}

TEST(Cli, AllowOnlyAcceptsDeclaredFlags) {
  EXPECT_NO_THROW(make({"--m", "8", "--verbose"}).allow_only({"m", "csv"}, {"verbose"}));
  EXPECT_NO_THROW(make({"--verbose", "off"}).allow_only({}, {"verbose"}));
  EXPECT_NO_THROW(make({}).allow_only({}));
}

TEST(Cli, AllowOnlyRejectsUnknownFlagsMissingValuesAndPositionals) {
  EXPECT_THROW(make({"--bogus"}).allow_only({"csv"}), tt::Error);
  EXPECT_THROW(make({"--bogus", "1"}).allow_only({}), tt::Error);
  EXPECT_THROW(make({"--metrics"}).allow_only({"metrics"}), tt::Error);
  EXPECT_THROW(make({"--metrics", "--csv", "x"}).allow_only({"metrics", "csv"}), tt::Error);
  EXPECT_THROW(make({"--metrics="}).allow_only({"metrics"}), tt::Error);
  EXPECT_THROW(make({"stray"}).allow_only({}), tt::Error);
}

TEST(Cli, BareFlagIsNoNumber) {
  EXPECT_THROW(make({"--m"}).get_int("m", 0), tt::Error);
  EXPECT_THROW(make({"--cutoff"}).get_double("cutoff", 0.0), tt::Error);
}

TEST(Cli, NegativeNumberAsValue) {
  Cli c = make({"--shift", "-3"});
  EXPECT_EQ(c.get_int("shift", 0), -3);
}

}  // namespace
