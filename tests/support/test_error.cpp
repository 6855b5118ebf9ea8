#include <gtest/gtest.h>

#include "support/error.hpp"

namespace {

// tt-lint: allow(check-macro) exercising the message-less form of the macro on purpose
TEST(Error, CheckPassesOnTrue) { EXPECT_NO_THROW(TT_CHECK(1 + 1 == 2)); }

TEST(Error, CheckThrowsOnFalse) {
  // tt-lint: allow(check-macro) exercising the message-less form of the macro on purpose
  EXPECT_THROW(TT_CHECK(false), tt::Error);
}

TEST(Error, WhatIsTheMessageAlone) {
  // A user reads what() after "error: ", so a check with a message carries
  // no source path, line or condition.
  try {
    TT_CHECK(2 < 1, "two is not less than " << 1);
    FAIL() << "expected throw";
  } catch (const tt::Error& e) {
    EXPECT_STREQ(e.what(), "two is not less than 1");
  }
  try {
    TT_FAIL("unconditional");
    FAIL() << "expected throw";
  } catch (const tt::Error& e) {
    EXPECT_STREQ(e.what(), "unconditional");
  }
}

TEST(Error, FailAlwaysThrows) {
  EXPECT_THROW(TT_FAIL("unconditional"), tt::Error);
}

TEST(Error, ErrorIsARuntimeError) {
  try {
    TT_FAIL("x");
  } catch (const std::runtime_error&) {
    SUCCEED();
    return;
  }
  FAIL() << "tt::Error should derive from std::runtime_error";
}

TEST(Error, CheckWithoutMessageNamesTheConditionAndBaseName) {
  try {
    // tt-lint: allow(check-macro) the message-less form is the behaviour under test
    TT_CHECK(false);
    FAIL() << "expected throw";
  } catch (const tt::Error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("test_error.cpp:", 0), 0u) << what;
    EXPECT_NE(what.find(": check failed: false"), std::string::npos) << what;
    EXPECT_EQ(what.find('/'), std::string::npos) << what;
  }
}

}  // namespace
