#include <gtest/gtest.h>

#include <set>
#include <string>

#include "runtime/tracker.hpp"
#include "support/error.hpp"

namespace {

using tt::rt::Category;
using tt::rt::CostTracker;

TEST(Tracker, AccumulatesPerCategory) {
  CostTracker t;
  t.add_time(Category::kGemm, 1.0);
  t.add_time(Category::kGemm, 0.5);
  t.add_time(Category::kComm, 2.0);
  EXPECT_DOUBLE_EQ(t.time(Category::kGemm), 1.5);
  EXPECT_DOUBLE_EQ(t.time(Category::kComm), 2.0);
  EXPECT_DOUBLE_EQ(t.total_time(), 3.5);
}

TEST(Tracker, PercentagesSumToHundred) {
  CostTracker t;
  t.add_time(Category::kGemm, 3.0);
  t.add_time(Category::kSvd, 1.0);
  t.add_time(Category::kImbalance, 1.0);
  auto p = t.percentages();
  double total = 0.0;
  for (double v : p) total += v;
  EXPECT_NEAR(total, 100.0, 1e-9);
  EXPECT_NEAR(p[static_cast<int>(Category::kGemm)], 60.0, 1e-9);
}

TEST(Tracker, PercentagesOfEmptyTrackerAreZero) {
  CostTracker t;
  for (double v : t.percentages()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Tracker, RawBspQuantities) {
  CostTracker t;
  t.add_flops(100.0);
  t.add_words(7.0);
  t.add_supersteps(3.0);
  EXPECT_DOUBLE_EQ(t.flops(), 100.0);
  EXPECT_DOUBLE_EQ(t.words(), 7.0);
  EXPECT_DOUBLE_EQ(t.supersteps(), 3.0);
}

TEST(Tracker, NegativeTimeRejected) {
  CostTracker t;
  EXPECT_THROW(t.add_time(Category::kGemm, -1.0), tt::Error);
}

TEST(Tracker, CategoriesAreExactlyFig7) {
  // The tracker is the paper's Fig. 7 model and nothing else: five modelled
  // categories, no slot for measured or side-channel seconds.
  static_assert(tt::rt::kNumCategories == 5);
  const char* want[] = {"GEMM", "Communication", "CTF transposition", "SVD",
                        "Load imbalance"};
  for (int c = 0; c < tt::rt::kNumCategories; ++c)
    EXPECT_STREQ(tt::rt::category_name(static_cast<Category>(c)), want[c]);
  EXPECT_EQ(static_cast<int>(Category::kImbalance), tt::rt::kNumCategories - 1);
}

TEST(Tracker, EveryCategoryHasAName) {
  // A category added to the enum without a category_name entry would fall
  // through to the switch default; metrics keys ("pct.<name>") and breakdown
  // tables would silently share a label.
  std::set<std::string> names;
  for (int c = 0; c < tt::rt::kNumCategories; ++c) {
    const char* name = tt::rt::category_name(static_cast<Category>(c));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "");
    EXPECT_STRNE(name, "?");
    names.insert(name);
  }
  EXPECT_EQ(names.size(),
            static_cast<std::size_t>(tt::rt::kNumCategories));  // all distinct
}

TEST(Tracker, PercentagesAtZeroTotalStayFiniteAfterCharges) {
  // Zero-duration charges move flops/words but no time: percentages must not
  // divide by the zero total.
  CostTracker t;
  t.add_time(Category::kGemm, 0.0);
  t.add_flops(100.0);
  t.add_words(10.0);
  EXPECT_DOUBLE_EQ(t.total_time(), 0.0);
  for (double v : t.percentages()) EXPECT_DOUBLE_EQ(v, 0.0);
}

}  // namespace
