#include "runtime/tracker.hpp"

#include "support/error.hpp"

namespace tt::rt {

const char* category_name(Category c) {
  switch (c) {
    case Category::kGemm: return "GEMM";
    case Category::kComm: return "Communication";
    case Category::kTranspose: return "CTF transposition";
    case Category::kSvd: return "SVD";
    case Category::kImbalance: return "Load imbalance";
  }
  return "?";
}

void CostTracker::add_time(Category c, double seconds) {
  TT_CHECK(seconds >= 0.0, "negative simulated time " << seconds);
  time_[static_cast<int>(c)] += seconds;
}

double CostTracker::total_time() const {
  double t = 0.0;
  for (double v : time_) t += v;
  return t;
}

std::array<double, kNumCategories> CostTracker::percentages() const {
  std::array<double, kNumCategories> out{};
  const double total = total_time();
  if (total <= 0.0) return out;
  for (int i = 0; i < kNumCategories; ++i) out[i] = 100.0 * time_[i] / total;
  return out;
}

}  // namespace tt::rt
