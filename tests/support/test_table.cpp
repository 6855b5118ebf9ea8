#include <gtest/gtest.h>

#include "support/error.hpp"
#include "support/table.hpp"

namespace {

using tt::Table;

TEST(Table, RendersHeaderAndRows) {
  Table t("demo");
  t.header({"name", "value"});
  t.row({"alpha", "1"});
  t.row({"beta", "22"});
  const std::string s = t.str();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(Table, RejectsMismatchedRowWidth) {
  Table t("demo");
  t.header({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), tt::Error);
}

TEST(Table, ColumnsAreAligned) {
  Table t("demo");
  t.header({"x", "y"});
  t.row({"longer-cell", "1"});
  const std::string s = t.str();
  // Header row must be padded to the widest cell.
  const auto header_pos = s.find("| x ");
  EXPECT_NE(header_pos, std::string::npos);
}

TEST(TableFmt, FixedPrecision) {
  EXPECT_EQ(tt::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(tt::fmt(2.0, 0), "2");
}

TEST(TableFmt, Scientific) {
  EXPECT_EQ(tt::fmt_sci(12345.0, 1), "1.2e+04");
}

TEST(TableFmt, ThousandsSeparators) {
  EXPECT_EQ(tt::fmt_int(32768), "32,768");
  EXPECT_EQ(tt::fmt_int(-1234567), "-1,234,567");
  EXPECT_EQ(tt::fmt_int(12), "12");
  EXPECT_EQ(tt::fmt_int(0), "0");
}

}  // namespace
